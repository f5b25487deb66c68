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
from typing import Sequence

import numpy as np

from ._lapack import one_blas_thread
from .errors import (
    DegenerateMassError,
    DegenerateSourceError,
    DimensionMismatchError,
    RomResonanceError,
)
from .forward import RESONANCE_RTOL, Snapshot, SnapshotMatrix
from .grid import _check_fraction
from .transfer import DataSet

# Relative eigenvalue floor for the mass matrix, and the Lanczos stopping
# threshold on the next off-diagonal entry. Kept small: the retained rank
# limits both the interpolation quality of the reduced model and the
# resolution of the reconstructions.
DEFAULT_TRUNCATION_TOL = 1e-14

# The mass matrix is declared indefinite (bad data) only below
# -max(_INDEFINITE_RTOL, truncation_tol) * lambda_max: forward-solver roundoff
# routinely produces spurious negative eigenvalues around -1e-11 * lambda_max
# on exact data, and a negative band within what the truncation drops goes with it.
_INDEFINITE_RTOL = 1e-8


@dataclass(frozen=True, eq=False)
class LoewnerPencil:
    """Data-driven stiffness S, mass M, and source vector b at the samples."""

    S: np.ndarray
    M: np.ndarray
    b: np.ndarray

    @property
    def m(self) -> int:
        return self.b.size


@dataclass(frozen=True, eq=False)
class LanczosFactors:
    """Tridiagonal T and M-orthonormal basis Q with the canonical signs.

    Invariants: Q^T M Q = I_k and Q^T S Q = T (k x k tridiagonal with
    strictly positive off-diagonals); normfactor = sqrt(b^T M^+ b) with the
    first basis vector a positive multiple of M^+ b. They hold to roundoff of
    about eps * kappa, kappa = lambda_max(M) / the smallest retained
    eigenvalue of M, since Q scales the retained eigenvectors by
    1/sqrt(eigenvalue): max|Q^T M Q - I_k| reached 0.025 on drawn Gaussian
    media at f >= 2 with the default truncation_tol (4e-13 at f = 1).
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
    Entry (j, i) negates numerator and denominator of entry (i, j), which is
    exact in floating point, so both matrices are exactly symmetric.
    """
    lams, F, dF = data.lambdas, data.F, data.dF
    gap = lams[:, None] - lams[None, :]
    np.fill_diagonal(gap, 1.0)
    lF = lams * F
    M = (F[None, :] - F[:, None]) / gap
    S = (lF[:, None] - lF[None, :]) / gap
    np.fill_diagonal(S, F + lams * dF)
    np.fill_diagonal(M, -dF)
    return LoewnerPencil(S=S, M=M, b=F.copy())


@one_blas_thread
def lanczos(pencil: LoewnerPencil, truncation_tol: float = DEFAULT_TRUNCATION_TOL) -> LanczosFactors:
    """Generalized Lanczos factorization of the pencil (S, M) started at b.

    Runs the three-term recursion for M^{-1} S in the M-inner product with
    the starting vector q_1 = M^{-1} b / sqrt(b^T M^{-1} b), fully
    reorthogonalizing against all previous vectors at every step (two
    classical Gram-Schmidt passes). M is handled through its eigenvalue
    decomposition: eigenvalues below truncation_tol * lambda_max(M) are
    discarded and the recursion runs in the surviving subspace, so the
    effective rank bounds k. The recursion stops early when the next
    off-diagonal is at most truncation_tol times the largest |entry| of T
    so far (not ||T||). All off-diagonals are positive and q_1 is a
    positive multiple of M^{-1} b; this canonical sign choice makes
    factorizations of different media directly comparable column by column.

    Raises ValueError when S, M or b holds a non-finite entry,
    DegenerateMassError when M's smallest eigenvalue is below
    -max(1e-8, truncation_tol) * lambda_max(M) (indefinite beyond roundoff and
    beyond what the truncation drops) or its spectrum overflows, and
    DegenerateSourceError when b has no component in the retained subspace.
    """
    _check_fraction("truncation_tol", truncation_tol)
    if not all(np.all(np.isfinite(a)) for a in (pencil.S, pencil.M, pencil.b)):  # eigh would return NaNs
        raise ValueError("the pencil's S, M and b must be finite")
    eigvals, U = np.linalg.eigh(pencil.M)
    lam_max = eigvals[-1]
    if not np.isfinite(lam_max):  # a finite M whose spectrum overflows
        raise DegenerateMassError(f"mass matrix's largest eigenvalue is {lam_max}, not finite")
    if lam_max <= 0.0:
        raise DegenerateMassError("mass matrix has no positive eigenvalues")
    if eigvals[0] < -max(_INDEFINITE_RTOL, truncation_tol) * lam_max:
        raise DegenerateMassError(
            f"mass matrix is indefinite: min eigenvalue {eigvals[0]:.3e} "
            f"vs max {lam_max:.3e}"
        )
    keep = eigvals >= truncation_tol * lam_max
    r = int(np.count_nonzero(keep))  # at least 1: lam_max itself is kept
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
    scale = 0.0  # the largest |entry| of T so far
    for step in range(r):
        q = basis[:, step]
        v = S_r @ q
        alpha = float(q @ v)
        scale = max(scale, abs(alpha))
        alphas.append(alpha)
        v = v - alpha * q
        if betas:
            v = v - betas[-1] * basis[:, step - 1]
        Y = basis[:, : step + 1]
        for _ in range(2):
            v = v - Y @ (Y.T @ v)
        beta = float(np.sqrt(v @ v))
        if step == r - 1 or beta <= truncation_tol * scale:
            break
        scale = max(scale, beta)
        betas.append(beta)
        basis[:, step + 1] = v / beta
    k = len(alphas)
    T = np.diag(alphas) + np.diag(betas, 1) + np.diag(betas, -1)
    Q = Z @ basis[:, :k]
    return LanczosFactors(T=T, Q=Q, normfactor=normfactor, k=k)


@one_blas_thread
def lsl_fields(
    V0: SnapshotMatrix,
    factors0: LanczosFactors,
    factors: LanczosFactors,
    lams: Sequence[float],
) -> np.ndarray:
    """Internal-field estimates from boundary data of the unknown medium, one column per lam.

    Replaces the inaccessible product V Q by the background V0 Q0 while
    keeping the measured medium's T and normfactor:
    normfactor * V0 Q0 (T + lam I)^{-1} e_1, truncated to the common rank k.
    Both factorizations must come from the same sample points and carry the
    canonical sign convention, otherwise columns pair up wrongly. One
    eigendecomposition T = S diag(theta) S^T, numpy's eigh, serves every lam;
    the first lam within RESONANCE_RTOL * max(1, |lam|) of some -theta raises
    RomResonanceError. A non-finite lam or T raises ValueError. S enters S @ y in
    Fortran order, as LAPACK returns it: eigh hands back a C-ordered copy, which
    sends the one-lam product through another BLAS kernel and changes the last bits.
    """
    if V0.m != factors0.Q.shape[0] or factors.Q.shape[0] != factors0.Q.shape[0]:
        raise DimensionMismatchError(
            f"incompatible shapes: V0 has {V0.m} columns, Q0 is "
            f"{factors0.Q.shape}, Q is {factors.Q.shape}"
        )
    k = min(factors.k, factors0.k)
    if k < 1:
        raise DimensionMismatchError("no common retained rank")
    lams = np.asarray(lams, dtype=float)
    if not np.all(np.isfinite(lams)):
        raise ValueError(f"spectral parameters must be finite, got {lams[~np.isfinite(lams)].tolist()}")
    T = factors.T[:k, :k]
    if not np.all(np.isfinite(T)):  # eigh would return NaNs without raising
        raise ValueError("the reduced model's T must be finite")
    theta, S = np.linalg.eigh(T)
    shifted = theta[:, None] + lams
    distance = np.min(np.abs(shifted), axis=0)
    near = np.flatnonzero(distance < RESONANCE_RTOL * np.maximum(1.0, np.abs(lams)))
    if near.size:
        raise RomResonanceError(float(lams[near[0]]), float(distance[near[0]]))
    Y = np.asfortranarray(S) @ (S[0][:, None] / shifted)
    return factors.normfactor * (V0.V @ (factors0.Q[:, :k] @ Y))


def lsl_internal(
    V0: SnapshotMatrix,
    factors0: LanczosFactors,
    factors: LanczosFactors,
    lam: float,
) -> Snapshot:
    """The internal-field estimate of lsl_fields at the single point lam."""
    return Snapshot(lam=float(lam), values=lsl_fields(V0, factors0, factors, [lam])[:, 0])
