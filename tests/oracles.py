"""Independent oracles used by the test suite.

Everything here deliberately avoids the code paths under test: the
tridiagonal solves use a hand-written Thomas elimination in 80-bit
extended precision instead of LAPACK, the background fields come from
closed forms, and eigenvalue references come from dense solvers. The
Gram pencil is the one exception: it reads the snapshots the inverse
problem cannot see, through the package's operator. continuum_dataset
gives the exact data of a piecewise-constant medium, with no grid.
"""
from __future__ import annotations

import numpy as np
from scipy.linalg import lapack

from lslimaging import (
    RESONANCE_RTOL,
    DataSet,
    Grid,
    Potential,
    ResonanceProximityError,
    SnapshotMatrix,
    TridiagonalOperator,
    assemble_operator,
)
from lslimaging.forward import _STURM_SLACK


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
        AV[:, j] = op.apply(V.V[:, j])
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
