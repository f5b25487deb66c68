"""Discretized Lippmann-Schwinger system and its regularized solve.

Each sample point contributes one linear equation for the nodal potential:
F_0(l_j) - F(l_j) = sum_i h_i u0(x_i, l_j) p(x_i) w(x_i, l_j), where w is
the chosen stand-in for the true internal field (background field for the
Born linearization, data-driven estimate for the LSL method).
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DegenerateSystemError, SampleAlignmentError
from .forward import SnapshotMatrix, compute_snapshot_matrix
from .grid import Grid
from .potentials import ZeroPotential
from .rom import DEFAULT_TRUNCATION_TOL, build_loewner, lanczos, lsl_internal
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


def _check_alignment(data: DataSet, data0: DataSet, V0: SnapshotMatrix, grid: Grid) -> None:
    lams = data.lambdas
    if (data.L != data0.L or V0.grid != grid or not np.array_equal(lams, data0.lambdas)
            or not np.array_equal(lams, V0.lambdas)):
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
    A = np.empty((data.m, grid.n))
    for j in range(data.m):
        A[j, :] = grid.weights * V0.V[:, j] * W[:, j]
    d = data0.F - data.F
    return ImagingSystem(A=A, d=d, grid=grid, method=method)


def solve_regularized(
    system: ImagingSystem, rel_threshold: float = DEFAULT_REL_THRESHOLD
) -> ReconstructionResult:
    """Minimum-norm least-squares solution by truncated SVD.

    Singular values below rel_threshold * sigma_max are discarded; the
    returned result records the full spectrum, the retained rank, and the
    recomputed residual norm.
    """
    if not (0.0 < rel_threshold < 1.0):
        raise ValueError(f"rel_threshold must lie in (0, 1), got {rel_threshold}")
    U, s, Vt = np.linalg.svd(system.A, full_matrices=False)
    if s.size == 0 or s[0] == 0.0:
        raise DegenerateSystemError("imaging system matrix is identically zero")
    keep = s >= rel_threshold * s[0]
    coeffs = (U[:, keep].T @ system.d) / s[keep]
    p_est = Vt[keep].T @ coeffs
    residual = float(np.linalg.norm(system.A @ p_est - system.d))
    return ReconstructionResult(
        p_est=p_est,
        method=system.method,
        regularization=float(rel_threshold),
        residual_norm=residual,
        singular_values=s,
        rank=int(np.count_nonzero(keep)),
    )


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
    Only boundary data of the unknown medium is ever used. `background`, the
    zero-potential snapshots on the grid at the sample points, is computed
    when not given; callers that run both methods can pass one sweep to each.
    """
    if method not in METHODS:
        raise ValueError(f"method must be one of {METHODS}, got {method!r}")
    if grid is None:
        grid = Grid(L=data.L, n=DEFAULT_GRID_NODES)
    if background is None:
        background = compute_snapshot_matrix(ZeroPotential(), data0.lambdas, grid)
    _check_alignment(data, data0, background, grid)
    if method == "born":
        W = background.V
    else:
        factors0 = lanczos(build_loewner(data0), truncation_tol)
        factors = lanczos(build_loewner(data), truncation_tol)
        W = np.empty_like(background.V)
        for j, lam in enumerate(data.lambdas):
            W[:, j] = lsl_internal(background, factors0, factors, lam).values
    system = assemble_system(data, data0, background, W, method=method)
    return solve_regularized(system, rel_threshold)


def relative_l2_error(p_est: np.ndarray, p_true: np.ndarray, grid: Grid) -> float:
    """Weighted L2 distance, relative to ||p_true|| when that is nonzero."""
    p_est = np.asarray(p_est, dtype=float)
    p_true = np.asarray(p_true, dtype=float)
    if p_est.shape != p_true.shape or p_est.shape != (grid.n,):
        raise ValueError("arrays must both match the grid size")
    err = grid.norm(p_est - p_true)
    ref = grid.norm(p_true)
    return err if ref == 0.0 else err / ref
