"""Discretized Lippmann-Schwinger system and its regularized solve.

Each sample point contributes one linear equation for the nodal potential:
F_0(l_j) - F(l_j) = sum_i h_i u0(x_i, l_j) p(x_i) w(x_i, l_j), where w is
the chosen stand-in for the true internal field (background field for the
Born linearization, data-driven estimate for the LSL method).
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Tuple

import numpy as np

from .errors import DegenerateSystemError, SampleAlignmentError
from .forward import SnapshotMatrix
from .grid import Grid
from .rom import DEFAULT_TRUNCATION_TOL, LanczosFactors, build_loewner, lanczos, lsl_fields
from .rom import _Background, _background, _check_fraction, _read_only
from .transfer import DataSet

DEFAULT_REL_THRESHOLD = 1e-8
DEFAULT_GRID_NODES = 2001

METHODS = ("born", "lsl")


@dataclass(frozen=True, eq=False)
class ImagingSystem:
    """Linear system A p = d whose unknown is the nodal potential."""

    A: np.ndarray
    d: np.ndarray
    grid: Grid
    method: str


@dataclass(frozen=True, eq=False)
class ReconstructionResult:
    p_est: np.ndarray
    method: str
    regularization: float
    residual_norm: float
    singular_values: np.ndarray
    rank: int
    #: (factors0, factors), the Lanczos factors of data0 and data, for "lsl"; None for "born"
    factors: Optional[Tuple[LanczosFactors, LanczosFactors]] = None


def _check_alignment(data: DataSet, data0: DataSet, V0: SnapshotMatrix, grid: Grid) -> None:
    lams = data.lambdas
    if (data.L != data0.L or grid.L != data.L or V0.grid != grid
            or not np.array_equal(lams, data0.lambdas) or not np.array_equal(lams, V0.lambdas)):
        raise SampleAlignmentError(
            "true and background datasets and the background snapshots must share "
            "L, the grid and identical sample points"
        )


def assemble_system(
    data: DataSet,
    data0: DataSet,
    V0: SnapshotMatrix,
    W: np.ndarray,
    method: str = "lsl",
) -> ImagingSystem:
    """Fill A and d from the two datasets and the internal-field matrix.

    Row j is weights * u0(., l_j) * W[:, j], with u0 the column j of the
    background snapshots V0 and W holding one internal field per sample
    point; the right-hand side is d_j = F_0(l_j) - F(l_j). The system lives
    on V0's grid, and all three inputs must share the sample points.
    """
    grid = V0.grid
    _check_alignment(data, data0, V0, grid)
    if W.shape != V0.V.shape:
        raise SampleAlignmentError(f"internal fields have shape {W.shape}, expected {V0.V.shape}")
    A = (grid.weights[:, None] * V0.V * W).T
    d = data0.F - data.F
    return ImagingSystem(A=A, d=d, grid=grid, method=method)


def solve_regularized(
    system: ImagingSystem, rel_threshold: float = DEFAULT_REL_THRESHOLD
) -> ReconstructionResult:
    """Minimum-norm least-squares solution by truncated SVD.

    Singular values below rel_threshold * sigma_max are discarded; the
    returned result records the full spectrum, the retained rank, and the
    recomputed residual norm.

    The route, for every shape of A: a Householder QR of A^T, the reduced SVD
    of its upper-trapezoidal factor R (square when A is wide, as imaging
    systems are), and Q applied to a short vector through its reflectors, so
    the long orthogonal factor of A's SVD is never formed. All in numpy;
    scipy's LAPACK links another OpenBLAS build, which measured slower at 2
    threads. It is a factor step (_factor), which depends on A alone, then a
    solve step (_solve) for d.
    """
    _check_fraction("rel_threshold", rel_threshold)
    return _solve(system, _factor(system.A), rel_threshold)


def _factor(A: np.ndarray) -> Tuple[np.ndarray, ...]:
    """(h, tau, U, s, Vt): the raw Householder QR of A^T = Q R, then R = U diag(s) Vt."""
    h, tau = np.linalg.qr(A.T, mode="raw")
    # row i of h holds reflector i below its unit head; contiguous rows make the loop fast
    h = np.ascontiguousarray(h)
    U, s, Vt = np.linalg.svd(np.triu(h[:, :tau.size].T), full_matrices=False)
    return h, tau, U, s, Vt


def _solve(system: ImagingSystem, factors: Tuple[np.ndarray, ...], rel_threshold: float) -> ReconstructionResult:
    """The TSVD solution of `system` from the _factor of its A."""
    h, tau, U, s, Vt = factors
    if s.size == 0 or s[0] == 0.0:
        raise DegenerateSystemError("imaging system matrix is identically zero")
    A, d = system.A, np.asarray(system.d, dtype=float)
    keep = s >= rel_threshold * s[0]
    # A^T = Q U diag(s) Vt, so p = Q U diag(1/s) Vt d
    p_est = np.zeros(A.shape[1])
    p_est[:tau.size] = U[:, keep] @ ((Vt[keep] @ d) / s[keep])
    _reflect(h, tau, p_est)
    residual = float(np.linalg.norm(A @ p_est - system.d))
    return ReconstructionResult(
        p_est=p_est,
        method=system.method,
        regularization=float(rel_threshold),
        residual_norm=residual,
        singular_values=s,
        rank=int(np.count_nonzero(keep)),
    )


def _reflect(h: np.ndarray, tau: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Apply Q to x in place, as its Householder reflectors I - tau_i v_i v_i^T.

    Q is the factor of np.linalg.qr(..., mode="raw") returning (h, tau);
    v_i = [1, h[i, i+1:]] starts at entry i, and the last reflector acts first.
    """
    for i in range(tau.size - 1, -1, -1):
        v = h[i, i + 1:]
        c = tau[i] * (x[i] + v @ x[i + 1:])
        x[i] -= c
        x[i + 1:] -= c * v
    return x


def reconstruct(
    data: DataSet,
    data0: DataSet,
    method: str,
    grid: Optional[Grid] = None,
    rel_threshold: float = DEFAULT_REL_THRESHOLD,
    truncation_tol: float = DEFAULT_TRUNCATION_TOL,
    background: Optional[SnapshotMatrix] = None,
) -> ReconstructionResult:
    """End-to-end reconstruction from the two datasets.

    method "born" uses the background field itself as the internal-field
    stand-in; method "lsl" builds the data-driven reduced models of both
    media and estimates the true internal fields from the measured data.
    Only boundary data of the unknown medium is ever used. Both fractions
    are checked first, for either method.

    The background model (rom._Background) gives V0, the Lanczos factors of
    data0 and the Born TSVD factorization. A given `background`, the
    zero-potential snapshots on the grid at the sample points, is wrapped in
    a model that is not kept, and its arrays keep their flags. Without it,
    the model is the one kept for the sampling plan: keyed by the grid's L
    and n and the sample points, never the medium, about 2 * n * m * 8
    bytes. Results may share the model's read-only arrays on both routes,
    and are bitwise those of a cold computation.
    """
    if method not in METHODS:
        raise ValueError(f"method must be one of {METHODS}, got {method!r}")
    _check_fraction("rel_threshold", rel_threshold)
    _check_fraction("truncation_tol", truncation_tol)
    if grid is None:
        grid = Grid(L=data.L, n=DEFAULT_GRID_NODES)
    model = _background(grid, data0.lambdas) if background is None else _Background(background)
    V0 = model.V0
    _check_alignment(data, data0, V0, grid)
    if method == "born":
        system = assemble_system(data, data0, V0, V0.V, method=method)
        if model.born is None:  # the Born system's A depends on V0 alone: factor it once per model
            model.born = _factor(system.A)
            _read_only(*model.born)
        return _solve(system, model.born, rel_threshold)
    factors = (model.factors(data0, truncation_tol), lanczos(build_loewner(data), truncation_tol))
    # the fields are freed once assembled, which lowers the solve's memory peak
    system = assemble_system(data, data0, V0, lsl_fields(V0, *factors, data.lambdas), method=method)
    return replace(solve_regularized(system, rel_threshold), factors=factors)


def relative_l2_error(p_est: np.ndarray, p_true: np.ndarray, grid: Grid) -> float:
    """Weighted L2 distance, relative to ||p_true|| when that is nonzero."""
    p_est = np.asarray(p_est, dtype=float)
    p_true = np.asarray(p_true, dtype=float)
    if p_est.shape != p_true.shape or p_est.shape != (grid.n,):
        raise ValueError("arrays must both match the grid size")
    err = grid.norm(p_est - p_true)
    ref = grid.norm(p_true)
    return err if ref == 0.0 else err / ref
