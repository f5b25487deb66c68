"""Data-driven reduced-order model: Loewner pencil, Lanczos factors, internal fields.

The pencil (S, M, b) is filled purely from boundary data (F, dF) through
divided differences; it coincides with the Gram matrices of the inaccessible
solution snapshots. Lanczos tridiagonalization in the M-inner product then
yields a basis whose orthogonalized snapshots depend only weakly on the
medium, which is what lets the background basis stand in for the true one
when estimating internal fields.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np
import scipy.linalg

from .errors import (
    DegenerateMassError,
    DegenerateSourceError,
    DimensionMismatchError,
    RomResonanceError,
)
from .forward import RESONANCE_RTOL, Snapshot, SnapshotMatrix, assemble_operator, compute_snapshot_matrix
from .grid import Grid
from .potentials import Potential, ZeroPotential
from .transfer import DataSet

# Relative eigenvalue floor for the mass matrix, and the Lanczos stopping
# threshold on the next off-diagonal entry. Kept small: the retained rank
# limits both the interpolation quality of the reduced model and the
# resolution of the reconstructions.
DEFAULT_TRUNCATION_TOL = 1e-14

# The mass matrix is declared indefinite (bad data) only beyond this
# relative level; forward-solver roundoff routinely produces spurious
# negative eigenvalues around -1e-11 * lambda_max on exact data.
_INDEFINITE_RTOL = 1e-8


@dataclass(frozen=True, eq=False)
class LoewnerPencil:
    """Data-driven stiffness S, mass M, and source vector b at the samples."""

    S: np.ndarray
    M: np.ndarray
    b: np.ndarray
    lambdas: np.ndarray

    @property
    def m(self) -> int:
        return self.b.size


@dataclass(frozen=True, eq=False)
class LanczosFactors:
    """Tridiagonal T and M-orthonormal basis Q with the canonical signs.

    Invariants: Q^T M Q = I_k and Q^T S Q = T (k x k tridiagonal with
    strictly positive off-diagonals); normfactor = sqrt(b^T M^+ b) with the
    first basis vector a positive multiple of M^+ b.
    """

    T: np.ndarray
    Q: np.ndarray
    normfactor: float
    k: int


def build_loewner(data: DataSet) -> LoewnerPencil:
    """Fill the pencil from transfer data via the Loewner divided differences.

    Off-diagonals:  S_ij = (l_i F_i - l_j F_j) / (l_i - l_j),
                    M_ij = (F_j - F_i) / (l_i - l_j);
    diagonals:      S_ii = F_i + l_i dF_i  (the derivative of lambda*F),
                    M_ii = -dF_i;
    source:         b_i = F_i.
    Each (i, j) pair is assigned once, so both matrices are exactly symmetric.
    """
    lams, F, dF = data.lambdas, data.F, data.dF
    m = data.m
    S = np.empty((m, m))
    M = np.empty((m, m))
    for i in range(m):
        S[i, i] = F[i] + lams[i] * dF[i]
        M[i, i] = -dF[i]
        for j in range(i + 1, m):
            gap = lams[i] - lams[j]
            M[i, j] = M[j, i] = (F[j] - F[i]) / gap
            S[i, j] = S[j, i] = (lams[i] * F[i] - lams[j] * F[j]) / gap
    return LoewnerPencil(S=S, M=M, b=F.copy(), lambdas=lams.copy())


def gram_oracle(V: SnapshotMatrix, p: Potential) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Compute the same pencil from internal snapshots, as a test oracle.

    M_ij = <u_i, u_j> by quadrature, S_ij = <u_i, L u_j> by applying the
    assembled operator, b_i = u_i(0). This route needs the snapshots the
    inverse problem cannot see; it exists only to validate build_loewner
    and must never be used in the data-driven path.
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


def lanczos(pencil: LoewnerPencil, truncation_tol: float = DEFAULT_TRUNCATION_TOL) -> LanczosFactors:
    """Generalized Lanczos factorization of the pencil (S, M) started at b.

    Runs the three-term recursion for M^{-1} S in the M-inner product with
    the starting vector q_1 = M^{-1} b / sqrt(b^T M^{-1} b), fully
    reorthogonalizing against all previous vectors at every step (two
    classical Gram-Schmidt passes). M is handled through its eigenvalue
    decomposition: eigenvalues below truncation_tol * lambda_max(M) are
    discarded and the recursion runs in the surviving subspace, so the
    effective rank bounds k. The recursion stops early when the next
    off-diagonal falls below truncation_tol * ||T||. All off-diagonals are
    positive and q_1 is a positive multiple of M^{-1} b; this canonical
    sign choice makes factorizations of different media directly
    comparable column by column.

    Raises DegenerateMassError when M is indefinite beyond roundoff level
    and DegenerateSourceError when b has no component in the retained
    subspace.
    """
    if not (0.0 < truncation_tol < 1.0):
        raise ValueError(f"truncation_tol must lie in (0, 1), got {truncation_tol}")
    m = pencil.m
    eigvals, U = np.linalg.eigh(pencil.M)
    lam_max = eigvals[-1]
    if lam_max <= 0.0:
        raise DegenerateMassError("mass matrix has no positive eigenvalues")
    if eigvals[0] < -_INDEFINITE_RTOL * lam_max:
        raise DegenerateMassError(
            f"mass matrix is indefinite: min eigenvalue {eigvals[0]:.3e} "
            f"vs max {lam_max:.3e}"
        )
    keep = eigvals >= truncation_tol * lam_max
    r = int(np.count_nonzero(keep))
    if r == 0:
        raise DegenerateMassError("eigenvalue flooring removed every direction")
    # coordinates y with q = Z y turn the M-inner product into the plain one
    Z = U[:, keep] / np.sqrt(eigvals[keep])
    S_r = Z.T @ pencil.S @ Z
    b_r = Z.T @ pencil.b
    norm2 = float(b_r @ b_r)
    if norm2 <= 0.0:
        raise DegenerateSourceError("b^T M^+ b <= 0 after flooring")
    normfactor = float(np.sqrt(norm2))

    basis = np.empty((r, r))
    basis[:, 0] = b_r / normfactor
    alphas: list = []
    betas: list = []
    for step in range(r):
        q = basis[:, step]
        v = S_r @ q
        alphas.append(float(q @ v))
        v = v - alphas[-1] * q
        if betas:
            v = v - betas[-1] * basis[:, step - 1]
        Y = basis[:, : step + 1]
        for _ in range(2):
            v = v - Y @ (Y.T @ v)
        beta = float(np.sqrt(v @ v))
        t_scale = max(max(abs(a) for a in alphas), max(betas, default=0.0))
        if step == r - 1 or beta <= truncation_tol * t_scale:
            break
        betas.append(beta)
        basis[:, step + 1] = v / beta
    k = len(alphas)
    T = np.diag(alphas)
    if betas:
        T += np.diag(betas, 1) + np.diag(betas, -1)
    Q = Z @ basis[:, :k]
    return LanczosFactors(T=T, Q=Q, normfactor=normfactor, k=k)


def _rom_solve(T: np.ndarray, lam: float) -> np.ndarray:
    """First column of (T + lam I)^{-1}, via a tridiagonal solve."""
    k = T.shape[0]
    off = np.diag(T, 1)
    theta = scipy.linalg.eigvalsh_tridiagonal(np.diag(T), off)
    distance = float(np.min(np.abs(lam + theta)))
    if distance < RESONANCE_RTOL * max(1.0, abs(lam)):
        raise RomResonanceError(lam, distance)
    e1 = np.zeros(k)
    e1[0] = 1.0
    ab = np.zeros((3, k))
    ab[0, 1:] = off
    ab[1, :] = np.diag(T) + lam
    ab[2, :-1] = off
    return scipy.linalg.solve_banded((1, 1), ab, e1)


def galerkin_internal(V: SnapshotMatrix, factors: LanczosFactors, lam: float) -> Snapshot:
    """Reduced-model internal field normfactor * V Q (T + lam I)^{-1} e_1.

    At the sample points this reproduces the snapshot columns (Galerkin
    interpolation); between them it is the projection-based approximation.
    It is lsl_internal with the medium's own snapshots and factors.
    """
    return lsl_internal(V, factors, factors, lam)


def lsl_internal(
    V0: SnapshotMatrix,
    factors0: LanczosFactors,
    factors: LanczosFactors,
    lam: float,
) -> Snapshot:
    """Internal-field estimate from boundary data of the unknown medium.

    Replaces the inaccessible product V Q by the background V0 Q0 while
    keeping the measured medium's T and normfactor:
    normfactor * V0 Q0 (T + lam I)^{-1} e_1, truncated to the common rank.
    Both factorizations must come from the same sample points and carry the
    canonical sign convention, otherwise columns pair up wrongly.
    """
    if V0.m != factors0.Q.shape[0] or factors.Q.shape[0] != factors0.Q.shape[0]:
        raise DimensionMismatchError(
            f"incompatible shapes: V0 has {V0.m} columns, Q0 is "
            f"{factors0.Q.shape}, Q is {factors.Q.shape}"
        )
    k = min(factors.k, factors0.k)
    if k < 1:
        raise DimensionMismatchError("no common retained rank")
    y = _rom_solve(factors.T[:k, :k], lam)
    values = factors.normfactor * (V0.V @ (factors0.Q[:, :k] @ y))
    return Snapshot(lam=float(lam), values=values)


def background_rom(data0: DataSet, grid: Grid, truncation_tol: float = DEFAULT_TRUNCATION_TOL):
    """Convenience: snapshots and Lanczos factors of the zero-potential medium."""
    V0 = compute_snapshot_matrix(ZeroPotential(), data0.lambdas, grid)
    factors0 = lanczos(build_loewner(data0), truncation_tol)
    return V0, factors0
