"""Discretized Lippmann-Schwinger system and its regularized solve.

Each sample point contributes one linear equation for the nodal potential:
F_0(l_j) - F(l_j) = sum_i h_i u0(x_i, l_j) p(x_i) w(x_i, l_j), where w is
the chosen stand-in for the true internal field (background field for the
Born linearization, data-driven estimate for the LSL method).
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from typing import Dict, Optional, Tuple

import numpy as np

from ._lapack import dgemqrt, dgeqrt, one_blas_thread
from .errors import DegenerateSystemError, SampleAlignmentError
from .forward import SnapshotMatrix, compute_snapshot_matrix
from .grid import Grid, _check_fraction
from .potentials import ZeroPotential
from .rom import DEFAULT_TRUNCATION_TOL, LanczosFactors, build_loewner, lanczos, lsl_fields
from .transfer import DataSet, measure_dataset

DEFAULT_REL_THRESHOLD = 1e-8
DEFAULT_GRID_NODES = 2001
# dgeqrt's block width: 32 columns of A^T per compact-WY block
_QR_BLOCK = 32

METHODS = ("born", "lsl")


@dataclass(frozen=True, eq=False)
class ImagingSystem:
    """Linear system A p = d whose unknown is the nodal potential: a 2-D A and a finite d, one entry per row."""

    A: np.ndarray
    d: np.ndarray

    def __post_init__(self):  # A is not scanned: its SVD refuses a non-finite entry
        if np.ndim(self.A) != 2 or np.shape(self.d) != np.shape(self.A)[:1]:
            raise ValueError(f"need a 2-D A and a d of one entry per row, got shapes "
                             f"{np.shape(self.A)} and {np.shape(self.d)}")
        if not np.all(np.isfinite(self.d)):
            raise ValueError("the right-hand side d must be finite")


@dataclass(frozen=True, eq=False)
class ReconstructionResult:
    p_est: np.ndarray
    regularization: float
    residual_norm: float
    singular_values: np.ndarray
    rank: int
    #: (factors0, factors), the Lanczos factors of data0 and data, for "lsl"; None for "born"
    factors: Optional[Tuple[LanczosFactors, LanczosFactors]] = None


def _check_alignment(data: DataSet, data0: DataSet, grid: Grid, V0: Optional[SnapshotMatrix]) -> None:
    """Both datasets and the grid share L, and both datasets and V0 (unless None) the sample points."""
    lams = data.lambdas
    if (data.L != data0.L or grid.L != data.L or not np.array_equal(lams, data0.lambdas)
            or V0 is not None and not np.array_equal(lams, V0.lambdas)):
        raise SampleAlignmentError(
            "true and background datasets and the background snapshots must share "
            "L, the grid and identical sample points"
        )


def assemble_system(
    data: DataSet,
    data0: DataSet,
    V0: SnapshotMatrix,
    W: np.ndarray,
) -> ImagingSystem:
    """Fill A and d from the two datasets and the internal-field matrix.

    Row j is weights * u0(., l_j) * W[:, j], with u0 the column j of the
    background snapshots V0 and W holding one internal field per sample
    point; the right-hand side is d_j = F_0(l_j) - F(l_j). The system lives
    on V0's grid, and all three inputs must share the sample points.
    """
    grid = V0.grid
    _check_alignment(data, data0, grid, V0)
    if W.shape != V0.V.shape:
        raise SampleAlignmentError(f"internal fields have shape {W.shape}, expected {V0.V.shape}")
    A = (grid.weights[:, None] * V0.V * W).T
    return ImagingSystem(A=A, d=data0.F - data.F)


def solve_regularized(
    system: ImagingSystem, rel_threshold: float = DEFAULT_REL_THRESHOLD
) -> ReconstructionResult:
    """Minimum-norm least-squares solution by truncated SVD.

    Singular values below rel_threshold * sigma_max are discarded; the
    returned result records the full spectrum, the retained rank, and the
    recomputed residual norm.

    The route, for every shape of A: a blocked Householder QR of A^T (LAPACK
    geqrt), the reduced SVD of its upper-trapezoidal factor R (square when A
    is wide, as imaging systems are), and Q applied to one short vector
    (gemqrt), so the long orthogonal factor of A's SVD is never formed. It is
    a factor step (_factor), which depends on A alone, then a solve step
    (_solve) for d.
    """
    _check_fraction("rel_threshold", rel_threshold)
    return _solve(system, _factor(system.A), rel_threshold)


@one_blas_thread
def _factor(A: np.ndarray) -> Tuple[np.ndarray, ...]:
    """(V, T, U, s, Vt): the blocked QR A^T = Q R (dgeqrt's reflectors V and T), then R = U diag(s) Vt."""
    V = np.array(A.T, order="F")
    T = dgeqrt(V, min(_QR_BLOCK, *V.shape))
    U, s, Vt = np.linalg.svd(np.triu(V[:T.shape[1]]), full_matrices=False)
    return V, T, U, s, Vt


@one_blas_thread
def _solve(system: ImagingSystem, factors: Tuple[np.ndarray, ...], rel_threshold: float) -> ReconstructionResult:
    """The TSVD solution of `system` from the _factor of its A."""
    V, T, U, s, Vt = factors
    if s.size == 0 or s[0] == 0.0:
        raise DegenerateSystemError("imaging system matrix is identically zero")
    A, d = system.A, np.asarray(system.d, dtype=float)
    keep = s >= rel_threshold * s[0]
    # A^T = Q U diag(s) Vt, so p = Q U diag(1/s) Vt d
    p_est = np.zeros(A.shape[1])
    p_est[:s.size] = U[:, keep] @ ((Vt[keep] @ d) / s[keep])
    dgemqrt(V, T, p_est)
    residual = float(np.linalg.norm(A @ p_est - system.d))
    return ReconstructionResult(
        p_est=p_est,
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
) -> ReconstructionResult:
    """End-to-end reconstruction from the two datasets.

    method "born" uses the background field itself as the internal-field
    stand-in; method "lsl" builds the data-driven reduced models of both
    media and estimates the true internal fields from the measured data.
    Only boundary data of the unknown medium is ever used. Both fractions
    are checked first, for either method.

    The background model (_Background) gives V0, the Lanczos factors of
    data0 and the Born TSVD factorization. It is the one kept for the
    sampling plan: keyed by the grid and the sample points, never the
    medium, about 2 * n * m * 8 bytes. Results may share the model's
    read-only arrays, and are bitwise those of a cold run.
    """
    if method not in METHODS:
        raise ValueError(f"method must be one of {METHODS}, got {method!r}")
    _check_fraction("rel_threshold", rel_threshold)
    _check_fraction("truncation_tol", truncation_tol)
    if grid is None:
        grid = Grid(L=data.L, n=DEFAULT_GRID_NODES)
    # before the model: the kept one costs a sweep on a new plan, and it is aligned by its key
    _check_alignment(data, data0, grid, None)
    model = _background(grid, data0.lambdas)
    V0 = model.V0
    if method == "born":
        return _solve(assemble_system(data, data0, V0, V0.V), model.born, rel_threshold)
    factors = (model.factors(data0, truncation_tol), lanczos(build_loewner(data), truncation_tol))
    # the fields are freed once assembled, which lowers the solve's memory peak
    system = assemble_system(data, data0, V0, lsl_fields(V0, *factors, data.lambdas))
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


def background_rom(data0: DataSet, grid: Grid, truncation_tol: float = DEFAULT_TRUNCATION_TOL):
    """Convenience: the cached background model's V0 and Lanczos factors of data0 (shared, read-only)."""
    _check_alignment(data0, data0, grid, None)
    model = _background(grid, data0.lambdas)
    return model.V0, model.factors(data0, truncation_tol)


def _read_only(*arrays: np.ndarray) -> None:
    for a in arrays:
        a.flags.writeable = False


class _Background:
    """The zero-potential reference medium of one sampling plan on one grid.

    Its one sweep at the sample points gives V0 (V in C order) and data0. On
    first use come the Lanczos factors of the last background data asked for
    and born, the Born system's TSVD factorization, which only "born" needs.
    None depends on the medium imaged, and all are read-only. The kept model
    (_background) holds 2 * n * m * 8 bytes; the rest is O(m^2).
    """

    def __init__(self, grid: Grid, lambdas: np.ndarray):
        sweep = compute_snapshot_matrix(ZeroPotential(), lambdas, grid)
        self.data0 = measure_dataset(sweep, label="")  # columns summed alone: the bytes V0 would give
        self.V0 = replace(sweep, V=np.ascontiguousarray(sweep.V))
        _read_only(self.V0.V, self.V0.lambdas)
        self._factors: Tuple = (None, None)  # (key, LanczosFactors) of the last data0

    @cached_property
    def born(self) -> Tuple[np.ndarray, ...]:
        """_factor of the Born system's A, which depends on V0 alone."""
        born = _factor(assemble_system(self.data0, self.data0, self.V0, self.V0.V).A)
        _read_only(*born)
        return born

    def factors(self, data0: DataSet, truncation_tol: float) -> LanczosFactors:
        """lanczos(build_loewner(data0), truncation_tol) for data0 on the model's sample points,
        kept for the last truncation_tol and exact bytes of F and dF; a new key replaces it."""
        key = (truncation_tol, data0.F.tobytes(), data0.dF.tobytes())
        if self._factors[0] != key:
            factors = lanczos(build_loewner(data0), truncation_tol)
            _read_only(factors.T, factors.Q)
            self._factors = (key, factors)
        return self._factors[1]


#: The background model of the last sampling plan used, keyed by the grid
#: and the bytes of the sample points; it holds one plan at most.
_BACKGROUND: Dict[Tuple[Grid, bytes], _Background] = {}


def _background(grid: Grid, lambdas: np.ndarray) -> _Background:
    """The cached background model of the sorted sample points on grid; a new plan replaces it."""
    key = (grid, np.asarray(lambdas, dtype=float).tobytes())
    model = _BACKGROUND.get(key)
    if model is None:
        _BACKGROUND.clear()
        model = _BACKGROUND[key] = _Background(grid, lambdas)
    return model
