"""Independent oracles used by the test suite.

Everything here deliberately avoids the code paths under test: the
tridiagonal solves use a hand-written Thomas elimination in 80-bit
extended precision instead of LAPACK, the background fields come from
closed forms, and eigenvalue references come from dense solvers. The
Gram pencil is the one exception: it reads the snapshots the inverse
problem cannot see, through the package's operator. continuum_dataset
gives the exact data of a piecewise-constant medium, with no grid, and
add_noise a dataset under seeded multiplicative noise.

The last section holds the package's former public helpers, which nothing
in the package called, kept unchanged because tests compare against them:
the closed-form zero-medium transfer function analytic_background_transfer
with its PoleError, the per-snapshot measurements measure_transfer and
transfer_derivative, the operator's apply(op, v) and toarray(op), a
dataset's rows as records, samples(data), and solve_forward_operator, the
forward solve on an assembled operator (the package's own solver route),
and constant_potential, a constant medium as one full-domain step piece.
"""
from __future__ import annotations

import math
from typing import Tuple

import numpy as np
from scipy.linalg import lapack

from lslimaging import (
    RESONANCE_RTOL,
    DataSet,
    Grid,
    Potential,
    ResonanceProximityError,
    Snapshot,
    SnapshotMatrix,
    SpectralSample,
    StepPotential,
    TridiagonalOperator,
    assemble_operator,
    preset_potential,
    resolvent_apply,
)
from lslimaging.errors import _NearResonanceError
from lslimaging.forward import _STURM_SLACK, _boundary_source


def thomas_solve_longdouble(diag, lower, upper, rhs):
    """Tridiagonal solve by Thomas elimination in extended precision.

    diag has n entries, lower/upper have n-1 (sub/super diagonal). No
    pivoting: intended for systems far from singular.
    """
    d = np.asarray(diag, dtype=np.longdouble).copy()
    lo = np.asarray(lower, dtype=np.longdouble)
    up = np.asarray(upper, dtype=np.longdouble).copy()
    b = np.asarray(rhs, dtype=np.longdouble).copy()
    n = d.size
    for i in range(1, n):
        m = lo[i - 1] / d[i - 1]
        d[i] -= m * up[i - 1]
        b[i] -= m * b[i - 1]
    x = np.empty(n, dtype=np.longdouble)
    x[-1] = b[-1] / d[-1]
    for i in range(n - 2, -1, -1):
        x[i] = (b[i] - up[i] * x[i + 1]) / d[i]
    return x


def forward_solve_extended(p: Potential, lam: float, grid: Grid) -> np.ndarray:
    """Forward solve rebuilt from scratch in extended precision.

    Assembles the same collocation scheme (ghost-point Neumann rows,
    boundary delta of strength 2/h) independently of the package's
    assembly code and solves it with the longdouble Thomas elimination.
    Returns the nodal solution as float64.
    """
    n, h = grid.n, np.longdouble(grid.h)
    pv = np.asarray(p.evaluate(grid), dtype=np.longdouble)
    diag = 2.0 / h**2 + pv + np.longdouble(lam)
    off = np.full(n - 1, -1.0 / h**2, dtype=np.longdouble)
    # unsymmetrized boundary rows: (2/h^2)(u_0 - u_1), mirrored at x = L
    lower = off.copy()
    upper = off.copy()
    upper[0] *= 2.0
    lower[-1] *= 2.0
    rhs = np.zeros(n, dtype=np.longdouble)
    rhs[0] = 2.0 / h
    return np.asarray(thomas_solve_longdouble(diag, lower, upper, rhs), dtype=float)


def transfer_value_extended(p: Potential, lam: float, grid: Grid) -> float:
    return float(forward_solve_extended(p, lam, grid)[0])


def centered_difference(fn, lam: float, eps: float) -> float:
    """Two-sided finite difference (fn(lam+eps) - fn(lam-eps)) / (2 eps)."""
    return (fn(lam + eps) - fn(lam - eps)) / (2.0 * eps)


def background_field_closed_form(lam: float, grid: Grid) -> np.ndarray:
    """Closed-form zero-potential solution of the boundary-delta problem.

    For lam > 0: cosh(s (L-x)) / (s sinh(s L)) with s = sqrt(lam);
    for lam < 0: -cos(w (L-x)) / (w sin(w L)) with w = sqrt(-lam).
    """
    x = grid.nodes
    L = grid.L
    if lam > 0:
        s = np.sqrt(lam)
        return np.cosh(s * (L - x)) / (s * np.sinh(s * L))
    w = np.sqrt(-lam)
    return -np.cos(w * (L - x)) / (w * np.sin(w * L))


def neumann_laplacian_eigenvalues(L: float, count: int) -> np.ndarray:
    """Continuum Neumann eigenvalues (k pi / L)^2, k = 0..count-1."""
    return (np.arange(count) * np.pi / L) ** 2


def resolvent_apply_always_counted(op: TridiagonalOperator, grid: Grid, lam: float, source) -> np.ndarray:
    """The shifted solve with its resonance guard run for every lambda.

    The guard without an eigenvalue enclosure: stebz always counts the
    eigenvalues within RESONANCE_RTOL * max(1, |lam|) + _STURM_SLACK * ||A||
    of -lam, and on a hit the full spectrum (stevd) decides whether to raise.
    The D-scaled diagonals are rebuilt here from the grid's weights, and the
    routines are scipy.linalg.lapack's, so a solve it lets through is the
    gtsv solution resolvent_apply must return bit for bit.
    """
    dw = grid.weights / grid.h
    bd = op.diag / dw
    be = op.off / np.sqrt(dw[:-1] * dw[1:])
    bound = np.max(np.abs(op.diag)) + 2.0 * np.max(np.abs(op.off))
    tol = RESONANCE_RTOL * max(1.0, abs(lam))
    reach = tol + _STURM_SLACK * bound
    hits, _, _, _, info = lapack.dstebz(bd, be, 1, -lam - reach, -lam + reach, 1, 1, 0.0, "E")
    assert info == 0
    if hits:
        distance = float(np.min(np.abs(lam + lapack.dstevd(bd, be, compute_v=0)[0])))
        if distance < tol:
            raise ResonanceProximityError(lam, distance)
    _, _, _, u, info = lapack.dgtsv(op.off, op.diag + lam * dw, op.off, dw * source)
    assert info == 0
    return u


def gram_oracle(V: SnapshotMatrix, p: Potential):
    """The Loewner pencil (S, M, b) computed from internal snapshots.

    M_ij = <u_i, u_j> by quadrature, S_ij = <u_i, L u_j> by applying the
    assembled operator, b_i = u_i(0). This route needs the snapshots the
    inverse problem cannot see; it validates build_loewner.
    """
    grid = V.grid
    op = assemble_operator(p, grid)
    # weighted operator W*A_unsym equals h * A_sym, which is symmetric
    AV = np.empty_like(V.V)
    for j in range(V.m):
        AV[:, j] = apply(op, V.V[:, j])
    S = grid.h * (V.V.T @ AV)
    M = V.V.T @ (grid.weights[:, None] * V.V)
    b = V.V[0, :].copy()
    return S, M, b


def _continuum_transfer(pieces, lams: np.ndarray, L: float) -> np.ndarray:
    """F = u(0) / -u'(0) of -u'' + p u + lam u = 0 on (0, L) with u'(L) = 0, per complex lam.

    pieces are StepPotential's (lo, hi, value), applied in order onto zero. (u, u')
    is carried from x = L, where it is (1, 0), to x = 0 by one transfer matrix per
    constant stretch of width d: [[cosh kd, -sinh(kd)/k], [-k sinh kd, cosh kd]],
    k = sqrt(p + lam). Its entries are even in k, so the branch of the complex
    square root does not matter, and below -p the cosh and sinh turn into cos and sin.
    """
    edges = np.unique(np.clip([0.0, L, *(x for lo, hi, _ in pieces for x in (lo, hi))], 0.0, L))
    middles = 0.5 * (edges[:-1] + edges[1:])
    values = np.zeros(middles.size)
    for lo, hi, value in pieces:
        values[(middles >= lo) & (middles <= hi)] = value
    u, du = np.ones_like(lams), np.zeros_like(lams)
    for d, p in zip(np.diff(edges)[::-1], values[::-1]):
        k = np.sqrt(p + lams)
        c, s = np.cosh(k * d), np.sinh(k * d)
        u, du = c * u - s / k * du, -k * s * u + c * du
    return u / -du


def continuum_dataset(pieces, lambdas, L: float) -> DataSet:
    """The exact (F, dF) of the piecewise-constant medium `pieces` on (0, L), at sorted lambdas.

    The continuum counterpart of generate_dataset(StepPotential(pieces), lambdas, grid),
    free of discretization error. dF is the complex-step derivative
    Im F(lam + i h) / h with h = 1e-30 max(1, |lam|), exact to roundoff.
    """
    lams = np.sort(np.asarray(lambdas, dtype=float))
    h = 1e-30 * np.maximum(1.0, np.abs(lams))
    F = _continuum_transfer(pieces, lams.astype(complex), L).real
    dF = _continuum_transfer(pieces, lams + 1j * h, L).imag / h
    return DataSet(L, np.column_stack((lams, F, dF)), label="continuum")


def gaussian_staircase(pieces: int = 500, L: float = 1.0) -> StepPotential:
    """The gaussian preset at the midpoint of each of `pieces` equal pieces of (0, L), as a
    StepPotential: a smooth-looking medium with exact data from continuum_dataset, its own p_true.
    The edges and midpoints are the even and odd nodes of Grid(L, 2 * pieces + 1)."""
    fine = Grid(L, 2 * pieces + 1)
    values = preset_potential("gaussian", L).evaluate(fine)[1::2]
    return StepPotential(tuple(zip(fine.nodes[:-1:2], fine.nodes[2::2], values)))


def add_noise(dataset: DataSet, level: float, seed: int) -> DataSet:
    """The dataset with F and dF each multiplied by 1 + level * z, z standard normal
    from numpy.random.default_rng(seed): first one draw per F, then one per dF."""
    z = np.random.default_rng(seed).standard_normal((2, dataset.m))
    F, dF = np.array((dataset.F, dataset.dF)) * (1.0 + level * z)
    return DataSet(dataset.L, np.column_stack((dataset.lambdas, F, dF)), dataset.label)


# The package's former public helpers.


class PoleError(_NearResonanceError):
    """Closed-form background transfer function evaluated at one of its poles."""

    what = "a background resonance -(k*pi/L)^2 where the transfer function has a pole"


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


def measure_transfer(snapshot: Snapshot, grid: Grid) -> float:
    """Transfer value F(lambda) = u(x_0, lambda), the boundary-node value."""
    if snapshot.values.shape != (grid.n,):
        raise ValueError("snapshot is not defined on this grid")
    return float(snapshot.values[0])


def transfer_derivative(snapshot: Snapshot, grid: Grid) -> float:
    """dF/dlambda via the resolvent identity: minus the weighted squared norm."""
    if snapshot.values.shape != (grid.n,):
        raise ValueError("snapshot is not defined on this grid")
    u = snapshot.values
    return float(-np.sum(grid.weights * u * u))


def apply(op: TridiagonalOperator, v: np.ndarray) -> np.ndarray:
    """Matrix-vector product A v."""
    out = op.diag * v
    out[:-1] += op.off * v[1:]
    out[1:] += op.off * v[:-1]
    return out


def toarray(op: TridiagonalOperator) -> np.ndarray:
    return (
        np.diag(op.diag)
        + np.diag(op.off, 1)
        + np.diag(op.off, -1)
    )


def samples(data: DataSet) -> Tuple[SpectralSample, ...]:
    """The rows as records; they were checked when the dataset was built."""
    rows = zip(data.lambdas.tolist(), data.F.tolist(), data.dF.tolist())
    return tuple(map(SpectralSample._make, rows))


def solve_forward_operator(op: TridiagonalOperator, lam: float, grid: Grid) -> Snapshot:
    """Like solve_forward, reusing an already-assembled operator."""
    return Snapshot(lam=float(lam), values=resolvent_apply(op, grid, lam, _boundary_source(grid)))


def constant_potential(value: float, L: float) -> StepPotential:
    """p(x) = value everywhere on (0, L), as a single full-domain step piece."""
    return StepPotential(((0.0, L, float(value)),))
