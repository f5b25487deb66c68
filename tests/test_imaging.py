"""Imaging system assembly, the truncated-SVD solve, and reconstructions."""
import numpy as np
import pytest

from lslimaging import (
    DegenerateSystemError,
    GaussianPotential,
    Grid,
    ImagingSystem,
    SampleAlignmentError,
    ZeroPotential,
    assemble_system,
    compute_snapshot_matrix,
    generate_dataset,
    reconstruct,
    relative_l2_error,
    solve_forward,
    solve_regularized,
    weyl_sample,
)


@pytest.fixture(scope="module")
def g():
    return Grid(L=1.0, n=2001)


@pytest.fixture(scope="module")
def gaussian():
    return GaussianPotential(5.0, 0.5, 0.1)


@pytest.fixture(scope="module")
def lambdas():
    return weyl_sample(5, 3, 1.0).lambdas


@pytest.fixture(scope="module")
def gaussian_data(g, gaussian, lambdas):
    return generate_dataset(gaussian, lambdas, g)


@pytest.fixture(scope="module")
def background_data(g, lambdas):
    return generate_dataset(ZeroPotential(), lambdas, g)


@pytest.fixture(scope="module")
def V0(g, lambdas):
    return compute_snapshot_matrix(ZeroPotential(), lambdas, g)


class TestAssembleSystem:
    def test_zero_contrast_right_hand_side_vanishes(self, background_data, V0):
        system = assemble_system(background_data, background_data,
                                 V0, V0.V, method="born")
        assert np.all(system.d == 0.0)

    def test_born_rows_are_weighted_squared_background(self, g, gaussian_data, background_data, V0):
        system = assemble_system(gaussian_data, background_data,
                                 V0, V0.V, method="born")
        for j in (0, 7):
            u0 = solve_forward(ZeroPotential(), gaussian_data.lambdas[j], g).values
            assert np.allclose(system.A[j], g.weights * u0 * u0, rtol=1e-13, atol=0)

    def test_right_hand_side_is_transfer_difference(self, gaussian_data, background_data, V0):
        system = assemble_system(gaussian_data, background_data,
                                 V0, V0.V)
        assert np.array_equal(system.d, background_data.F - gaussian_data.F)

    def test_mismatched_samples_rejected(self, g, gaussian, gaussian_data, lambdas, V0):
        other = generate_dataset(ZeroPotential(), lambdas[:-1], g)
        with pytest.raises(SampleAlignmentError):
            assemble_system(gaussian_data, other, V0, V0.V)

    def test_wrong_provider_shape_rejected(self, gaussian_data, background_data, lambdas, V0):
        small = Grid(1.0, 11)
        bad = compute_snapshot_matrix(ZeroPotential(), lambdas, small).V
        with pytest.raises(SampleAlignmentError):
            assemble_system(gaussian_data, background_data, V0, bad)


class TestSolveRegularized:
    def test_zero_rhs_gives_zero_solution(self, g):
        A = np.vstack([np.ones(g.n), np.linspace(0, 1, g.n)])
        system = ImagingSystem(A=A, d=np.zeros(2), grid=g, method="born")
        result = solve_regularized(system)
        assert np.all(result.p_est == 0.0)
        assert result.residual_norm == 0.0

    def test_identity_system_returns_rhs(self):
        g = Grid(1.0, 5)
        d = np.array([1.0, -2.0, 3.0, 0.5, 0.0])
        system = ImagingSystem(A=np.eye(5), d=d, grid=g, method="born")
        result = solve_regularized(system, rel_threshold=0.5)
        assert np.allclose(result.p_est, d, rtol=1e-14)

    def test_rank_one_system_hand_svd(self):
        g = Grid(1.0, 6)
        rng = np.random.default_rng(3)
        u = rng.standard_normal(4)
        u /= np.linalg.norm(u)
        v = rng.standard_normal(6)
        v /= np.linalg.norm(v)
        sigma = 3.0
        A = sigma * np.outer(u, v)
        d = A @ (2.0 * v)
        result = solve_regularized(ImagingSystem(A=A, d=d, grid=g, method="lsl"))
        expected = (u @ d / sigma) * v
        assert np.allclose(result.p_est, expected, rtol=1e-12)
        assert result.rank == 1

    def test_all_zero_matrix_rejected(self):
        g = Grid(1.0, 4)
        system = ImagingSystem(A=np.zeros((3, 4)), d=np.ones(3), grid=g, method="born")
        with pytest.raises(DegenerateSystemError):
            solve_regularized(system)

    def test_threshold_validated(self, g):
        system = ImagingSystem(A=np.ones((2, g.n)), d=np.ones(2), grid=g, method="born")
        with pytest.raises(ValueError):
            solve_regularized(system, rel_threshold=0.0)
        with pytest.raises(ValueError):
            solve_regularized(system, rel_threshold=1.0)

    def test_result_records_match_recomputation(self, gaussian_data, background_data, V0):
        system = assemble_system(gaussian_data, background_data,
                                 V0, V0.V, method="born")
        result = solve_regularized(system, rel_threshold=1e-6)
        assert result.residual_norm == pytest.approx(
            float(np.linalg.norm(system.A @ result.p_est - system.d)), rel=1e-12, abs=1e-15
        )
        assert result.singular_values.size == gaussian_data.m
        assert np.all(np.diff(result.singular_values) <= 0)
        assert result.regularization == 1e-6

    def test_residual_nonincreasing_as_threshold_decreases(self, gaussian_data, background_data, V0):
        system = assemble_system(gaussian_data, background_data,
                                 V0, V0.V, method="born")
        residuals = [
            solve_regularized(system, rel_threshold=thr).residual_norm
            for thr in (1e-2, 1e-4, 1e-6, 1e-8, 1e-10)
        ]
        assert all(b <= a * (1 + 1e-12) for a, b in zip(residuals, residuals[1:]))


class TestReconstruct:
    def test_zero_contrast_both_methods(self, g, background_data):
        for method in ("born", "lsl"):
            result = reconstruct(background_data, background_data, method, grid=g)
            assert np.max(np.abs(result.p_est)) < 1e-6

    def test_oracle_provider_recovers_the_potential(self, g, gaussian, gaussian_data, background_data,
                                                    lambdas, V0):
        # true internal fields make the equations exactly linear in p
        W = compute_snapshot_matrix(gaussian, lambdas, g).V
        system = assemble_system(gaussian_data, background_data, V0, W, method="oracle")
        result = solve_regularized(system, rel_threshold=1e-8)
        p_true = gaussian.evaluate(g)
        assert relative_l2_error(result.p_est, p_true, g) < 1e-2

    def test_lsl_beats_born_on_smooth_medium(self, g, gaussian, gaussian_data, background_data):
        p_true = gaussian.evaluate(g)
        err = {
            method: relative_l2_error(
                reconstruct(gaussian_data, background_data, method, grid=g).p_est, p_true, g
            )
            for method in ("born", "lsl")
        }
        assert err["lsl"] < err["born"]
        assert err["lsl"] < 0.05

    def test_default_grid_from_dataset_length(self, gaussian_data, background_data):
        result = reconstruct(gaussian_data, background_data, "lsl")
        assert result.p_est.size == 2001

    def test_unknown_method_rejected(self, gaussian_data, background_data):
        with pytest.raises(ValueError):
            reconstruct(gaussian_data, background_data, "tikhonov")

    def test_mismatched_datasets_rejected(self, g, gaussian, background_data, lambdas):
        other = generate_dataset(gaussian, lambdas[1:], g)
        with pytest.raises(SampleAlignmentError):
            reconstruct(other, background_data, "born", grid=g)

    @pytest.mark.parametrize("method", ["born", "lsl"])
    def test_precomputed_background_is_bitwise_equal(self, g, gaussian_data, background_data, V0, method):
        plain = reconstruct(gaussian_data, background_data, method, grid=g)
        reused = reconstruct(gaussian_data, background_data, method, grid=g, background=V0)
        assert np.array_equal(reused.p_est, plain.p_est)

    @pytest.mark.parametrize("method", ["born", "lsl"])
    def test_background_on_other_grid_or_samples_rejected(self, g, gaussian_data, background_data,
                                                          lambdas, method):
        other_grid = compute_snapshot_matrix(ZeroPotential(), lambdas, Grid(1.0, 1001))
        other_samples = compute_snapshot_matrix(ZeroPotential(), lambdas - 0.5, g)
        for background in (other_grid, other_samples):
            with pytest.raises(SampleAlignmentError):
                reconstruct(gaussian_data, background_data, method, grid=g, background=background)


class TestRelativeL2Error:
    def test_identical_arrays(self, g):
        p = np.sin(np.pi * g.nodes)
        assert relative_l2_error(p, p, g) == 0.0

    def test_double_is_unit_error(self, g):
        p = np.sin(np.pi * g.nodes) + 2.0
        assert relative_l2_error(2 * p, p, g) == pytest.approx(1.0, rel=1e-12)

    def test_zero_estimate_is_unit_error(self, g):
        p = np.cos(np.pi * g.nodes) + 1.5
        assert relative_l2_error(np.zeros(g.n), p, g) == pytest.approx(1.0, rel=1e-12)

    def test_zero_reference_returns_absolute_norm(self, g):
        p_est = np.full(g.n, 2.0)
        expected = 2.0  # sqrt(sum w) = sqrt(L) = 1
        assert relative_l2_error(p_est, np.zeros(g.n), g) == pytest.approx(expected, rel=1e-12)

    def test_shape_mismatch_rejected(self, g):
        with pytest.raises(ValueError):
            relative_l2_error(np.zeros(5), np.zeros(g.n), g)
