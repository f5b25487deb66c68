"""Property tests of the identities the method rests on, over drawn media and plans.

Loewner = Gram: the data-driven pencil equals the snapshot Gram matrices,
exactly at the discrete level, so only roundoff separates them. The Lanczos
contract: Q^T M Q = I and Q^T S Q = T with positive off-diagonals, to the
accuracy the retained mass-matrix directions allow.
"""
import numpy as np
from hypothesis import given, settings, strategies as st

from lslimaging import (
    DEFAULT_TRUNCATION_TOL,
    GaussianPotential,
    Grid,
    build_loewner,
    compute_snapshot_matrix,
    gram_oracle,
    lanczos,
    measure_dataset,
    weyl_sample,
)

PROPERTY_SETTINGS = settings(max_examples=25, derandomize=True, database=None, deadline=None)

EPS = np.finfo(float).eps

media = st.builds(
    GaussianPotential,
    amplitude=st.floats(-10.0, 10.0),
    center=st.floats(0.1, 0.9),
    width=st.floats(0.02, 0.3),
)
plans = st.builds(weyl_sample, N=st.integers(1, 8), f=st.integers(1, 4), L=st.just(1.0))
grids = st.sampled_from([51, 101, 201, 401]).map(lambda n: Grid(L=1.0, n=n))


def _sweep(medium, plan, grid):
    V = compute_snapshot_matrix(medium, plan.lambdas, grid)
    return V, build_loewner(measure_dataset(V, "drawn"))


@PROPERTY_SETTINGS
@given(media, plans, grids)
def test_loewner_equals_gram(medium, plan, grid):
    # 600 draws of these strategies gave at most 1.4e-11 (S) and 1.1e-11 (M)
    V, pencil = _sweep(medium, plan, grid)
    S, M, b = gram_oracle(V, medium)
    assert np.max(np.abs(pencil.S - S)) < 1e-9 * np.max(np.abs(S))
    assert np.max(np.abs(pencil.M - M)) < 1e-9 * np.max(np.abs(M))
    assert np.array_equal(pencil.b, b)


@PROPERTY_SETTINGS
@given(media, plans, grids)
def test_lanczos_contract(medium, plan, grid):
    # Q = Z y scales the retained eigenvectors of M by 1/sqrt(eigenvalue), so
    # roundoff grows with kappa = max / smallest retained eigenvalue; 600 draws
    # gave at most 2.0 eps kappa (M) and 0.4 eps kappa ||T|| (S)
    _, pencil = _sweep(medium, plan, grid)
    factors = lanczos(pencil)
    eigvals = np.linalg.eigvalsh(pencil.M)
    kappa = eigvals[-1] / eigvals[eigvals >= DEFAULT_TRUNCATION_TOL * eigvals[-1]][0]
    Q, T = factors.Q, factors.T
    assert np.max(np.abs(Q.T @ pencil.M @ Q - np.eye(factors.k))) < 20 * EPS * kappa
    assert np.max(np.abs(Q.T @ pencil.S @ Q - T)) < 20 * EPS * kappa * np.max(np.abs(T))
    assert np.all(np.diag(T, 1) > 0)
