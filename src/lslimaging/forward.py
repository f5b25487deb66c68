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

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import PoleError, ResonanceProximityError
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
    1/2), `off` the n-1 identical sub/super-diagonal entries.
    """

    diag: np.ndarray
    off: np.ndarray

    @property
    def n(self) -> int:
        return self.diag.size

    def apply(self, v: np.ndarray) -> np.ndarray:
        """Matrix-vector product A v."""
        out = self.diag * v
        out[:-1] += self.off * v[1:]
        out[1:] += self.off * v[:-1]
        return out

    def toarray(self) -> np.ndarray:
        return (
            np.diag(self.diag)
            + np.diag(self.off, 1)
            + np.diag(self.off, -1)
        )


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


def operator_eigenvalues(op: TridiagonalOperator, grid: Grid, select="a", select_range=None):
    """Discrete eigenvalues of the operator, ascending.

    These are the eigenvalues of the pencil (A, D) with D = weights/h,
    i.e. of the plain collocation matrix before row scaling; for p = 0
    they equal (4/h^2) sin^2(k pi h / (2L)) -> (k pi / L)^2. `select` and
    `select_range` are those of scipy.linalg.eigvalsh_tridiagonal.
    """
    dw = grid.weights / grid.h
    bd = op.diag / dw
    be = op.off / np.sqrt(dw[:-1] * dw[1:])
    return scipy.linalg.eigvalsh_tridiagonal(bd, be, select=select, select_range=select_range)


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
    within RESONANCE_RTOL * max(1, |lambda|) of a discrete eigenvalue. A
    Sturm count around -lambda finds candidates; the full spectrum is
    computed only then, to measure the distance.
    """
    tol = RESONANCE_RTOL * max(1.0, abs(lam))
    reach = tol + _STURM_SLACK * (np.max(np.abs(op.diag)) + 2.0 * np.max(np.abs(op.off)))
    if operator_eigenvalues(op, grid, "v", (-lam - reach, -lam + reach)).size:
        distance = float(np.min(np.abs(lam + operator_eigenvalues(op, grid))))
        if distance < tol:
            raise ResonanceProximityError(lam, distance)
    dw = grid.weights / grid.h
    ab = np.zeros((3, grid.n))
    ab[0, 1:] = op.off
    ab[1, :] = op.diag + lam * dw
    ab[2, :-1] = op.off
    return scipy.linalg.solve_banded((1, 1), ab, dw * source)


def solve_forward(p: Potential, lam: float, grid: Grid) -> Snapshot:
    """Solve the forward problem with the boundary delta source at x = 0."""
    return solve_forward_operator(assemble_operator(p, grid), lam, grid)


def solve_forward_operator(op: TridiagonalOperator, lam: float, grid: Grid) -> Snapshot:
    """Like solve_forward, reusing an already-assembled operator."""
    source = np.zeros(grid.n)
    source[0] = 2.0 / grid.h
    return Snapshot(lam=float(lam), values=resolvent_apply(op, grid, lam, source))


@dataclass(frozen=True, eq=False)
class SnapshotMatrix:
    """Columns are forward-problem solutions at the sample points."""

    V: np.ndarray
    grid: Grid
    lambdas: np.ndarray

    @property
    def m(self) -> int:
        return self.lambdas.size


def compute_snapshot_matrix(p: Potential, lambdas, grid: Grid) -> SnapshotMatrix:
    """Solve the forward problem at every sample point and stack the columns.

    The one forward sweep per medium: data, background fields and reduced-
    model bases all come from it. The sample points are sorted ascending;
    duplicates or an empty list are rejected.
    """
    lams = np.asarray(lambdas, dtype=float)
    if lams.ndim != 1 or lams.size == 0:
        raise ValueError("need a non-empty 1D list of sample points")
    if np.unique(lams).size != lams.size:
        raise ValueError("sample points must be pairwise distinct")
    lams = np.sort(lams)
    op = assemble_operator(p, grid)
    V = np.empty((grid.n, lams.size))
    for j, lam in enumerate(lams):
        V[:, j] = solve_forward_operator(op, lam, grid).values
    return SnapshotMatrix(V=V, grid=grid, lambdas=lams)


def analytic_background_transfer(lam: float, L: float) -> float:
    """Closed-form transfer function of the zero-potential medium.

    Returns coth(sqrt(lam) L)/sqrt(lam) for lam > 0 and -cot(w L)/w with
    w = sqrt(-lam) for lam < 0. Poles sit at lam = -(k pi / L)^2 for
    integer k >= 0 (including lam = 0); evaluation within
    RESONANCE_RTOL * max(1, |lam|) of a pole raises PoleError.
    """
    lam = float(lam)
    if not np.isfinite(lam):
        raise ValueError(f"spectral parameter must be finite, got {lam}")
    if lam < 0.0:
        k = round(math.sqrt(-lam) * L / math.pi)
        distance = abs(lam + (k * math.pi / L) ** 2)
    else:
        distance = abs(lam)
    if distance < RESONANCE_RTOL * max(1.0, abs(lam)):
        raise PoleError(lam, distance)
    if lam > 0.0:
        s = math.sqrt(lam)
        return 1.0 / (math.tanh(s * L) * s)
    w = math.sqrt(-lam)
    return -1.0 / (math.tan(w * L) * w)
