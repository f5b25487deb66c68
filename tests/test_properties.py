"""Property tests of the identities the method rests on, over drawn media and plans.

Loewner = Gram: the data-driven pencil equals the snapshot Gram matrices,
exactly at the discrete level, so only roundoff separates them. The Lanczos
contract: Q^T M Q = I and Q^T S Q = T with positive off-diagonals, to the
accuracy the retained mass-matrix directions allow. dF = -||u||^2: the
measured derivative is that of the discrete transfer function. The forward guard: every
eigenvalue lies in its Weyl enclosure, so skipping the Sturm count outside
the enclosure decides and solves exactly as counting every time.
"""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import lslimaging.rom
import oracles
from lslimaging import (
    DEFAULT_TRUNCATION_TOL,
    DegenerateMassError,
    RESONANCE_RTOL,
    GaussianPotential,
    Grid,
    ResonanceProximityError,
    StepPotential,
    TabulatedPotential,
    TridiagonalOperator,
    assemble_operator,
    build_loewner,
    compute_snapshot_matrix,
    lanczos,
    measure_dataset,
    operator_eigenvalues,
    resolvent_apply,
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
    S, M, b = oracles.gram_oracle(V, medium)
    assert np.max(np.abs(pencil.S - S)) < 1e-9 * np.max(np.abs(S))
    assert np.max(np.abs(pencil.M - M)) < 1e-9 * np.max(np.abs(M))
    assert np.array_equal(pencil.b, b)


@PROPERTY_SETTINGS
@given(media, plans, grids, st.sampled_from([0.0, 1e-10, 1e-8]), st.integers(1, 1000))
def test_lanczos_contract(medium, plan, grid, level, seed):
    # Q = Z y scales the retained eigenvectors of M by 1/sqrt(eigenvalue), so
    # roundoff grows with kappa = max / smallest retained eigenvalue; 600 draws
    # gave at most 2.0 eps kappa (M) and 0.4 eps kappa ||T|| (S) on exact data,
    # and 1,000 at noise 1e-10 or 1e-8 at most 1.0 and 0.37. Noise may make M
    # indefinite beyond the gate: N = 3, f = 4, n = 51 at 1e-8, seed 11, gives
    # min / max eigenvalue -1.2e-8. Such a draw must be refused, and no other.
    data = measure_dataset(compute_snapshot_matrix(medium, plan.lambdas, grid), "drawn")
    pencil = build_loewner(oracles.add_noise(data, level, seed))
    eigvals = np.linalg.eigvalsh(pencil.M)
    if level and eigvals[0] < -lslimaging.rom._INDEFINITE_RTOL * eigvals[-1]:
        with pytest.raises(DegenerateMassError, match="indefinite"):
            lanczos(pencil)
        return
    factors = lanczos(pencil)
    kappa = eigvals[-1] / eigvals[eigvals >= DEFAULT_TRUNCATION_TOL * eigvals[-1]][0]
    Q, T = factors.Q, factors.T
    assert np.max(np.abs(Q.T @ pencil.M @ Q - np.eye(factors.k))) < 20 * EPS * kappa
    assert np.max(np.abs(Q.T @ pencil.S @ Q - T)) < 20 * EPS * kappa * np.max(np.abs(T))
    assert np.all(np.diag(T, 1) > 0)


heights = st.floats(-50.0, 400.0)
steps = st.builds(lambda lo, width, height: StepPotential(((lo, lo + width, height),)),
                  st.floats(0.0, 0.9), st.floats(0.01, 0.5), heights)


@PROPERTY_SETTINGS
@given(st.one_of(media, steps), plans, grids)
def test_dF_is_minus_the_squared_norm(medium, plan, grid):
    # dF against the centred difference of an extended-precision F, as test_transfer checks on one
    # Gaussian; 150 draws of each kind gave at most 4.2e-6 (Gaussians, 1,441 samples) and 7.6e-7
    # (steps, 1,173 samples)
    data = measure_dataset(compute_snapshot_matrix(medium, plan.lambdas, grid), "drawn")
    for sample in oracles.samples(data):
        eps = 1e-6 * max(1.0, abs(sample.lam))
        fd = oracles.centered_difference(lambda lam: oracles.transfer_value_extended(medium, lam, grid),
                                         sample.lam, eps)
        assert abs(fd - sample.dF) / abs(sample.dF) < 1e-5, sample.lam


@st.composite
def operators(draw):
    """A grid and the operator of a drawn Gaussian, step or tabulated medium.

    Some draws also perturb the off-diagonal, which the enclosure covers by
    the norm of the deviation, or flip its sign, which keeps the spectrum and
    reverses the order of the closed-form eigenvalues.
    """
    grid = draw(grids)
    kind = draw(st.sampled_from(["gaussian", "step", "tabulated"]))
    if kind == "gaussian":
        medium = GaussianPotential(draw(heights), draw(st.floats(0.1, 0.9)), draw(st.floats(0.02, 0.3)))
    elif kind == "step":
        pieces = draw(st.lists(st.tuples(st.floats(0.0, 0.9), st.floats(0.01, 0.5), heights), min_size=1, max_size=3))
        medium = StepPotential(tuple((lo, lo + width, v) for lo, width, v in pieces))
    else:
        knots = draw(st.lists(heights, min_size=2, max_size=12))
        medium = TabulatedPotential(np.interp(grid.nodes, np.linspace(0.0, 1.0, len(knots)), knots))
    op = assemble_operator(medium, grid)
    scale = draw(st.sampled_from([0.0, 0.0, 1e-12, 1e-3]))
    sign = draw(st.sampled_from([1.0, 1.0, 1.0, -1.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    off = sign * op.off * (1.0 + scale * rng.standard_normal(grid.n - 1))
    return grid, TridiagonalOperator(diag=op.diag, off=off)


def _solve_or_raise(solve, op, grid, lam, source):
    try:
        return solve(op, grid, lam, source)
    except ResonanceProximityError as error:
        return error


@PROPERTY_SETTINGS
@given(operators())
def test_eigenvalues_lie_in_their_enclosure(case):
    grid, op = case
    ev = operator_eigenvalues(op, grid)
    *_, mu, lo, hi = op._pencil
    mu = np.array(mu)
    assert np.all(mu + lo <= ev)
    assert np.all(ev <= mu + hi)


@PROPERTY_SETTINGS
@given(operators(), st.data())
def test_guard_decides_as_the_always_counted_reference(case, data):
    grid, op = case
    ev = operator_eigenvalues(op, grid)
    k = data.draw(st.integers(0, grid.n - 2))
    tol = RESONANCE_RTOL * max(1.0, abs(ev[k]))
    source = np.zeros(grid.n)
    source[0] = 2.0 / grid.h
    # at and around eigenvalue k, and halfway to the next, where the count is mostly skipped
    shifts = [0.0, tol / 2, -tol / 2, 2 * tol, -2 * tol, 1e-6, -1e-6, (ev[k] - ev[k + 1]) / 2]
    for lam in (-ev[k] + delta for delta in shifts):
        expected = _solve_or_raise(oracles.resolvent_apply_always_counted, op, grid, lam, source)
        got = _solve_or_raise(resolvent_apply, op, grid, lam, source)
        if isinstance(expected, ResonanceProximityError):
            assert isinstance(got, ResonanceProximityError), lam
            assert got.distance == expected.distance
        else:
            assert isinstance(got, np.ndarray) and np.array_equal(got, expected), lam
