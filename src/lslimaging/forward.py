"""Finite-difference forward solver for -u'' + p u + lambda u = delta on (0, L).

Neumann conditions at both ends are imposed by ghost-point elimination,
which yields the boundary stencil (2/h^2)(u_0 - u_1). Scaling the two
boundary rows by 1/2 makes the operator matrix symmetric; the shifted
system then carries the half weights on the lambda term and on the
delta source as well, so the solution is identical to the plain
collocation scheme. The delta source at the boundary node has strength
1/(h/2), matching the trapezoid weight of the half cell at x = 0.
"""
from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ._lapack import dgtsv as _GTSV, dstebz as _STEBZ, dstevd as _STEVD
from .errors import ResonanceProximityError
from .grid import Grid
from .potentials import Potential

# Relative spectral distance below which a shifted solve is refused.
RESONANCE_RTOL = 1e-10

# Sturm counts and computed eigenvalues agree only to ~5 eps * ||A|| (measured
# at n = 2001), more than RESONANCE_RTOL for the low modes of fine grids, so
# the count looks this much further and the full spectrum decides.
_STURM_SLACK = 32.0 * np.finfo(float).eps


@dataclass(frozen=True, eq=False)
class Snapshot:
    """Nodal solution of the forward problem at one spectral parameter."""

    lam: float
    values: np.ndarray


@dataclass(frozen=True, eq=False)
class TridiagonalOperator:
    """Symmetric tridiagonal discretization of -d^2/dx^2 + p(x).

    `diag` holds the n diagonal entries (boundary rows already scaled by
    1/2), `off` the n-1 identical sub/super-diagonal entries; other shapes
    raise ValueError. Both are kept as read-only copies, since `_pencil` is
    derived from them once.
    """

    diag: np.ndarray
    off: np.ndarray

    def __post_init__(self):
        for name in ("diag", "off"):
            a = np.array(getattr(self, name))
            a.flags.writeable = False
            object.__setattr__(self, name, a)
        if self.diag.ndim != 1 or self.off.shape != (self.diag.size - 1,):
            raise ValueError(f"need a 1-D diag and an off-diagonal one entry shorter, got shapes "
                             f"{self.diag.shape} and {self.off.shape}")

    @property
    def n(self) -> int:
        return self.diag.size

    @cached_property
    def _pencil(self):
        """(dw, bd, be, bound, mu, lo, hi), computed once per operator.

        dw is the pencil's mass D = weights/h, which is [1/2, 1, ..., 1, 1/2]
        exactly on every grid (the boundary-row scaling of `diag`); bd and be
        are the diagonals of B = D^-1/2 A D^-1/2, whose eigenvalues are the
        operator's; bound >= ||A|| scales the Sturm slack.

        mu (a sorted list), lo and hi enclose the eigenvalues: the k-th
        smallest lies in [mu_k + lo, mu_k + hi]. With c the midpoint of
        `off`'s range (the grid's -1/h^2 for an assembled operator),
        B = B_c + diag(q) + E, where B_c is the zero-potential Neumann matrix
        with off-diagonal c, q = bd + 2c is the potential, and E holds the
        off-diagonal's deviation from B_c's (zero when `off` is constant).
        B_c's eigenvalues are, sorted, mu_k = -4c sin^2(k pi / (2(n-1))), the
        closed form of operator_eigenvalues. Weyl's inequality then gives
        lo = min q - delta and hi = max q + delta with delta = 2 max|E|
        (>= ||E||) plus _STURM_SLACK * bound, which also covers the roundoff
        in bd, be, mu and q and the error of the computed eigenvalues.
        """
        if not (np.all(np.isfinite(self.diag)) and np.all(np.isfinite(self.off))):
            raise ValueError("operator entries must be finite")
        dw = np.ones(self.n)
        dw[0] = dw[-1] = 0.5
        root = np.sqrt(dw[:-1] * dw[1:])
        bd = self.diag / dw
        be = self.off / root
        bound = np.max(np.abs(self.diag)) + 2.0 * np.max(np.abs(self.off))
        c = 0.5 * (np.min(self.off) + np.max(self.off))
        mu = sorted((-4.0 * c * np.sin(np.arange(self.n) * (np.pi / (2 * (self.n - 1)))) ** 2).tolist())
        q = bd + 2.0 * c
        delta = 2.0 * np.max(np.abs(be - c / root)) + _STURM_SLACK * bound
        return dw, bd, be, bound, mu, np.min(q) - delta, np.max(q) + delta


def assemble_operator(p: Potential, grid: Grid) -> TridiagonalOperator:
    """Assemble the symmetrized operator matrix for the potential p on grid.

    The unsymmetrized rows are (2/h^2)(u_0 - u_1) + p_0 u_0 at the first
    node, the standard three-point stencil inside, and the mirrored form at
    the last node; the two boundary rows are then scaled by 1/2.
    """
    pv = p.evaluate(grid)
    if not np.all(np.isfinite(pv)):
        raise ValueError(f"potential {p.label} evaluates to non-finite values")
    h = grid.h
    diag = 2.0 / h**2 + pv
    diag[0] *= 0.5
    diag[-1] *= 0.5
    off = np.full(grid.n - 1, -1.0 / h**2)
    return TridiagonalOperator(diag=diag, off=off)


def operator_eigenvalues(op: TridiagonalOperator, grid: Grid) -> np.ndarray:
    """All discrete eigenvalues of the operator, ascending.

    These are the eigenvalues of the pencil (A, D) with D = weights/h,
    i.e. of the plain collocation matrix before row scaling; for p = 0
    they equal (4/h^2) sin^2(k pi h / (2L)) -> (k pi / L)^2. The route is
    LAPACK stevd on the D-scaled diagonals, in `_lapack.dstevd`'s only mode,
    eigenvalues without eigenvectors: the driver scipy.linalg.eigvalsh_tridiagonal
    uses for the full spectrum, whose values these equal bitwise.
    """
    _check_size(op, grid)
    _, bd, be, *_ = op._pencil
    return _STEVD(bd, be)


def _check_size(op: TridiagonalOperator, grid: Grid) -> None:
    if op.n != grid.n:
        raise ValueError(f"operator has {op.n} rows, the grid {grid.n} nodes")


def resolvent_apply(
    op: TridiagonalOperator,
    grid: Grid,
    lam: float,
    source: np.ndarray,
) -> np.ndarray:
    """Solve (A + lambda I) u = source in the collocation sense.

    `source` holds pointwise right-hand-side values; internally the
    symmetrized system (A_sym + lambda D) u = D source is solved, which is
    row-for-row equivalent. Raises ResonanceProximityError when lambda is
    within RESONANCE_RTOL * max(1, |lambda|) of a discrete eigenvalue, and
    ValueError when lambda is not finite or the source is not n finite values.

    The route, per call, runs LAPACK routines of numpy's own library (see
    `_lapack`). The guard looks at the window [-lambda - reach,
    -lambda + reach], reach being the tolerance plus _STURM_SLACK * ||A||.
    When the window meets one of the operator's eigenvalue enclosure
    intervals (see TridiagonalOperator._pencil; one binary search in the
    sorted mu), stebz counts the eigenvalues in it by bisection (a Sturm
    count), and only on a hit is the full spectrum computed
    (operator_eigenvalues) to measure the distance. When it meets none,
    every computed eigenvalue is more than reach from -lambda, so the count
    could not have led to a raise and is skipped: the result is the same
    solve either way. gtsv then solves the tridiagonal system: the routines
    and inputs of scipy's eigvalsh_tridiagonal and solve_banded, whose
    solution this equals bitwise. The D-scaled diagonals, the ||A|| bound
    and the enclosure are computed once per operator.
    """
    if not math.isfinite(lam):
        raise ValueError(f"spectral parameter must be finite, got {lam}")
    _check_size(op, grid)
    dw, bd, be, bound, mu, lo, hi = op._pencil
    if np.shape(source) != (op.n,) or not np.isfinite(source).all():
        raise ValueError(f"source must be {op.n} finite values")
    rhs = dw * source
    tol = RESONANCE_RTOL * max(1.0, abs(lam))
    reach = tol + _STURM_SLACK * bound
    # the lowest enclosure interval that ends at or above the window's low end
    k = bisect.bisect_left(mu, -lam - reach - hi)
    if k < op.n and mu[k] + lo <= -lam + reach:
        if _STEBZ(bd, be, -lam - reach, -lam + reach):
            distance = float(np.min(np.abs(lam + operator_eigenvalues(op, grid))))
            if distance < tol:
                raise ResonanceProximityError(lam, distance)
    # gtsv overwrites all four arrays, so op.off goes in as two copies
    return _GTSV(op.off.copy(), op.diag + lam * dw, op.off.copy(), rhs)


def solve_forward(p: Potential, lam: float, grid: Grid) -> Snapshot:
    """Solve the forward problem with the boundary delta source at x = 0."""
    return Snapshot(lam=float(lam), values=resolvent_apply(assemble_operator(p, grid), grid, lam, _boundary_source(grid)))


def _boundary_source(grid: Grid) -> np.ndarray:
    """The delta at x = 0, of strength 1/(h/2), as pointwise values."""
    source = np.zeros(grid.n)
    source[0] = 2.0 / grid.h
    return source


@dataclass(frozen=True, eq=False)
class SnapshotMatrix:
    """Columns are forward-problem solutions at the sample points: V is grid.n x lambdas.size."""

    V: np.ndarray
    grid: Grid
    lambdas: np.ndarray

    def __post_init__(self):
        expected = (self.grid.n, np.size(self.lambdas))
        if np.shape(self.V) != expected:
            raise ValueError(f"V must have shape (grid.n, lambdas.size) = {expected}, got {np.shape(self.V)}")

    @property
    def m(self) -> int:
        return self.lambdas.size


def compute_snapshot_matrix(p: Potential, lambdas, grid: Grid) -> SnapshotMatrix:
    """Solve the forward problem at every sample point and stack the columns.

    The one forward sweep per medium: data, background fields and reduced-
    model bases all come from it. V is in Fortran order, so each solve fills
    one contiguous column. The sample points are sorted ascending;
    duplicates, non-finite points or an empty list are rejected.
    """
    lams = np.asarray(lambdas, dtype=float)
    if lams.ndim != 1 or lams.size == 0:
        raise ValueError("need a non-empty 1D list of sample points")
    if not np.all(np.isfinite(lams)):
        raise ValueError(f"sample points must be finite, got {lams[~np.isfinite(lams)].tolist()}")
    lams = np.sort(lams)
    # equal neighbours after the sort, not np.unique, which imports numpy.ma
    if np.any(lams[1:] == lams[:-1]):
        raise ValueError("sample points must be pairwise distinct")
    op = assemble_operator(p, grid)
    source = _boundary_source(grid)
    V = np.empty((grid.n, lams.size), order="F")
    for j, lam in enumerate(lams):
        V[:, j] = resolvent_apply(op, grid, lam, source)
    return SnapshotMatrix(V=V, grid=grid, lambdas=lams)
