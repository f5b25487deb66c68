"""Imaging system assembly, the truncated-SVD solve, and reconstructions."""
import re
from dataclasses import replace

import numpy as np
import pytest

import lslimaging.forward
from lslimaging import (
    DEFAULT_REL_THRESHOLD,
    DegenerateSystemError,
    GaussianPotential,
    Grid,
    ImagingSystem,
    SampleAlignmentError,
    ZeroPotential,
    assemble_system,
    build_loewner,
    compute_snapshot_matrix,
    generate_dataset,
    lanczos,
    lsl_fields,
    measure_dataset,
    preset_potential,
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
                                 V0, V0.V)
        assert np.all(system.d == 0.0)

    def test_rows_match_the_per_sample_loop(self, g, gaussian, gaussian_data, background_data, V0):
        W = compute_snapshot_matrix(gaussian, gaussian_data.lambdas, g).V
        system = assemble_system(gaussian_data, background_data, V0, W)
        A = np.empty((gaussian_data.m, g.n))
        for j in range(gaussian_data.m):
            A[j, :] = g.weights * V0.V[:, j] * W[:, j]
        assert np.array_equal(system.A, A)

    def test_born_rows_are_weighted_squared_background(self, g, gaussian_data, background_data, V0):
        system = assemble_system(gaussian_data, background_data,
                                 V0, V0.V)
        for j in (0, 7):
            u0 = solve_forward(ZeroPotential(), gaussian_data.lambdas[j], g).values
            assert np.allclose(system.A[j], g.weights * u0 * u0, rtol=1e-13, atol=0)

    def test_right_hand_side_is_transfer_difference(self, gaussian_data, background_data, V0):
        system = assemble_system(gaussian_data, background_data,
                                 V0, V0.V)
        assert np.array_equal(system.d, background_data.F - gaussian_data.F)

    def test_mismatched_samples_rejected(self, g, gaussian, gaussian_data, background_data, lambdas, V0):
        other = generate_dataset(ZeroPotential(), lambdas[:-1], g)
        with pytest.raises(SampleAlignmentError):
            assemble_system(gaussian_data, other, V0, V0.V)
        shifted = compute_snapshot_matrix(ZeroPotential(), lambdas - 0.5, g)
        with pytest.raises(SampleAlignmentError):
            assemble_system(gaussian_data, background_data, shifted, shifted.V)

    def test_wrong_provider_shape_rejected(self, gaussian_data, background_data, lambdas, V0):
        small = Grid(1.0, 11)
        bad = compute_snapshot_matrix(ZeroPotential(), lambdas, small).V
        with pytest.raises(SampleAlignmentError):
            assemble_system(gaussian_data, background_data, V0, bad)


class TestImagingSystem:
    def test_non_finite_d_rejected(self):
        with pytest.raises(ValueError, match="^the right-hand side d must be finite$"):
            ImagingSystem(A=np.eye(3), d=np.array([1.0, np.nan, 0.0]))

    @pytest.mark.parametrize("A, d", [(np.eye(3), np.ones(2)), (np.ones(3), np.ones(3))], ids=["short-d", "1-D-A"])
    def test_shapes_checked(self, A, d):
        message = f"need a 2-D A and a d of one entry per row, got shapes {A.shape} and {d.shape}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            ImagingSystem(A=A, d=d)


class TestSolveRegularized:
    def test_zero_rhs_gives_zero_solution(self, g):
        A = np.vstack([np.ones(g.n), np.linspace(0, 1, g.n)])
        system = ImagingSystem(A=A, d=np.zeros(2))
        result = solve_regularized(system)
        assert np.all(result.p_est == 0.0)
        assert result.residual_norm == 0.0

    def test_identity_system_returns_rhs(self):
        d = np.array([1.0, -2.0, 3.0, 0.5, 0.0])
        system = ImagingSystem(A=np.eye(5), d=d)
        result = solve_regularized(system, rel_threshold=0.5)
        assert np.allclose(result.p_est, d, rtol=1e-14)

    def test_rank_one_system_hand_svd(self):
        rng = np.random.default_rng(3)
        u = rng.standard_normal(4)
        u /= np.linalg.norm(u)
        v = rng.standard_normal(6)
        v /= np.linalg.norm(v)
        sigma = 3.0
        A = sigma * np.outer(u, v)
        d = A @ (2.0 * v)
        result = solve_regularized(ImagingSystem(A=A, d=d))
        expected = (u @ d / sigma) * v
        assert np.allclose(result.p_est, expected, rtol=1e-12)
        assert result.rank == 1

    def test_matches_svd_of_the_wide_matrix(self):
        # reference: the SVD of A itself, as the solve computed it before
        rng = np.random.default_rng(7)
        A = rng.standard_normal((30, 200))
        d = rng.standard_normal(30)
        result = solve_regularized(ImagingSystem(A=A, d=d))
        U, s, Vt = np.linalg.svd(A, full_matrices=False)
        keep = s >= DEFAULT_REL_THRESHOLD * s[0]
        p_ref = Vt[keep].T @ ((U[:, keep].T @ d) / s[keep])
        assert result.rank == np.count_nonzero(keep) == 30
        np.testing.assert_allclose(result.singular_values, s, rtol=1e-10)
        assert np.linalg.norm(result.p_est - p_ref) <= 1e-10 * np.linalg.norm(p_ref)

    @pytest.mark.parametrize("m, n, rank", [(30, 200, 30), (40, 40, 40), (200, 30, 30), (60, 120, 12),
                                            (120, 60, 12)],
                             ids=["tall", "square", "wide-in-unknowns", "rank-deficient",
                                  "rank-deficient-wide-in-unknowns"])
    def test_matches_an_explicit_svd_reference(self, m, n, rank):
        # A = P diag(sigma) Q^T with sigma over two decades, so both solves stay well conditioned
        rng = np.random.default_rng(m + n + rank)
        P = np.linalg.qr(rng.standard_normal((m, rank)))[0]
        Q = np.linalg.qr(rng.standard_normal((n, rank)))[0]
        A = (P * np.logspace(0, -2, rank)) @ Q.T
        d = rng.standard_normal(m)
        result = solve_regularized(ImagingSystem(A=A, d=d))
        U, s, Vt = np.linalg.svd(A, full_matrices=False)
        keep = s >= DEFAULT_REL_THRESHOLD * s[0]
        p_ref = Vt[keep].T @ ((U[:, keep].T @ d) / s[keep])
        assert result.rank == np.count_nonzero(keep) == rank
        assert result.singular_values.shape == s.shape
        assert np.max(np.abs(result.singular_values - s)) <= 1e-13 * s[0]
        assert np.linalg.norm(result.p_est - p_ref) <= 1e-12 * np.linalg.norm(p_ref)
        assert result.residual_norm == pytest.approx(np.linalg.norm(A @ p_ref - d), rel=1e-12)

    def test_all_zero_tall_matrix_rejected(self):
        system = ImagingSystem(A=np.zeros((4, 3)), d=np.ones(4))
        with pytest.raises(DegenerateSystemError):
            solve_regularized(system)

    def test_all_zero_matrix_rejected(self):
        system = ImagingSystem(A=np.zeros((3, 4)), d=np.ones(3))
        with pytest.raises(DegenerateSystemError):
            solve_regularized(system)

    def test_threshold_validated(self, g):
        system = ImagingSystem(A=np.ones((2, g.n)), d=np.ones(2))
        with pytest.raises(ValueError):
            solve_regularized(system, rel_threshold=0.0)
        with pytest.raises(ValueError):
            solve_regularized(system, rel_threshold=1.0)

    def test_result_records_match_recomputation(self, gaussian_data, background_data, V0):
        system = assemble_system(gaussian_data, background_data,
                                 V0, V0.V)
        result = solve_regularized(system, rel_threshold=1e-6)
        assert result.residual_norm == pytest.approx(
            float(np.linalg.norm(system.A @ result.p_est - system.d)), rel=1e-12, abs=1e-15
        )
        assert result.singular_values.size == gaussian_data.m
        assert np.all(np.diff(result.singular_values) <= 0)
        assert result.regularization == 1e-6

    def test_residual_nonincreasing_as_threshold_decreases(self, gaussian_data, background_data, V0):
        system = assemble_system(gaussian_data, background_data,
                                 V0, V0.V)
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
        system = assemble_system(gaussian_data, background_data, V0, W)
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
    def test_precomputed_background_is_bitwise_equal(self, g, gaussian_data, V0, method):
        """README's recipe: the public pieces on the caller's C-ordered zero sweep give reconstruct's p_est."""
        V0 = replace(V0, V=np.ascontiguousarray(V0.V))
        data0 = measure_dataset(V0, label="background")
        W = V0.V
        if method == "lsl":
            factors = (lanczos(build_loewner(data0)), lanczos(build_loewner(gaussian_data)))
            W = lsl_fields(V0, *factors, gaussian_data.lambdas)
        recipe = solve_regularized(assemble_system(gaussian_data, data0, V0, W))
        plain = reconstruct(gaussian_data, data0, method, grid=g)
        assert np.array_equal(recipe.p_est, plain.p_est)

    @pytest.mark.parametrize("method", ["born", "lsl"])
    def test_grid_of_other_length_rejected(self, gaussian_data, background_data, method):
        with pytest.raises(SampleAlignmentError):
            reconstruct(gaussian_data, background_data, method, grid=Grid(2.0, 101))

    @pytest.mark.parametrize("method", ["born", "lsl"])
    @pytest.mark.parametrize("name", ["rel_threshold", "truncation_tol"])
    @pytest.mark.parametrize("value", [0.0, 1.0, 5.0, -1e-8, np.nan])
    def test_fractions_checked_before_any_sweep(self, g, gaussian_data, background_data, monkeypatch,
                                                method, name, value):
        solves = []
        resolvent_apply = lslimaging.forward.resolvent_apply

        def counting(*args, **kwargs):
            solves.append(args[2])
            return resolvent_apply(*args, **kwargs)

        monkeypatch.setattr(lslimaging.forward, "resolvent_apply", counting)
        with pytest.raises(ValueError, match=rf"^{name} must lie in \(0, 1\), got {value}$"):
            reconstruct(gaussian_data, background_data, method, grid=g, **{name: value})
        assert solves == []


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


class TestResolution:
    """The paper's claim: resonance-domain samples resolve finer than diffusion-domain ones.

    The Born system of the zero medium, A, needs no true medium and no
    Lanczos. With V_r the right singular vectors that the default TSVD
    threshold keeps, the image of a point at x0 is the column V_r V_r[j0]^T;
    its FWHM is the width, in nodes times h, of the contiguous run around the
    column's largest |value| where |value| >= half of it. Measured at
    x0 = 0.1 / 0.3 / 0.5 / 0.7 / 0.9:
      Weyl plan N = 10, f = 4 (rank 26): 0.042 / 0.0515 / 0.0535 / 0.0555 / 0.052
      40 log-spaced lambda in [0.1, 1e4] (rank 9): 0.0785 / 0.1695 / 0.234 / 0.26 / 0.183
    """

    DEPTHS = (0.1, 0.3, 0.5, 0.7, 0.9)

    @staticmethod
    def widths(lambdas, g):
        V0 = compute_snapshot_matrix(ZeroPotential(), lambdas, g)
        data0 = measure_dataset(V0, label="background")
        A = assemble_system(data0, data0, V0, V0.V).A
        _, s, Vt = np.linalg.svd(A, full_matrices=False)
        Vr = Vt[s >= DEFAULT_REL_THRESHOLD * s[0]].T
        widths = []
        for x0 in TestResolution.DEPTHS:
            image = np.abs(Vr @ Vr[int(round(x0 / g.h))])
            peak = int(np.argmax(image))
            below = np.flatnonzero(image < 0.5 * image[peak])
            lo = below[below < peak].max(initial=-1) + 1
            hi = below[below > peak].min(initial=g.n) - 1
            widths.append((hi - lo + 1) * g.h)
        return np.array(widths)

    def test_resonance_samples_resolve_finer_than_diffusion_samples(self, g):
        weyl = self.widths(weyl_sample(10, 4, g.L).lambdas, g)
        diffusion = self.widths(np.logspace(-1, 4, 40), g)
        assert np.all(weyl < 0.07), weyl
        assert np.all(diffusion[1:4] > 0.15), diffusion
        assert np.all(diffusion >= 1.5 * weyl), (diffusion, weyl)


class TestSamplingDensity:
    """The paper's other claim: Weyl sampling images sharply without oversampling.

    LSL err of the presets at the defaults (n = 2001, N = 10, cutoff 1e-8,
    truncation_tol 1e-14) for f = 1 to 5, measured:
      gaussian: 0.787 / 0.169 / 2.35e-3 / 2.31e-3 / 2.07e-3
      step:     0.872 / 0.259 / 0.221 / 0.219 / 0.219
    The error collapses up to f = 3 and stays flat from there.
    """

    MEASURED = {"gaussian": (0.787, 0.169, 2.35e-3, 2.31e-3, 2.07e-3), "step": (0.872, 0.259, 0.221, 0.219, 0.219)}

    @pytest.mark.parametrize("name", MEASURED)
    def test_error_saturates_at_three_points_per_interval(self, g, name):
        p, errs = preset_potential(name, g.L), []
        for f in range(1, 6):
            lams = weyl_sample(10, f, g.L).lambdas
            data, data0 = generate_dataset(p, lams, g), generate_dataset(ZeroPotential(), lams, g)
            errs.append(relative_l2_error(reconstruct(data, data0, "lsl", grid=g).p_est, p.evaluate(g), g))
        # the plateau: from f = 3 on, each error within 1.1x its measured value
        assert all(err <= 1.1 * bound for err, bound in zip(errs[2:], self.MEASURED[name][2:])), errs
        # the collapse: below f = 3 each error exceeds 1.1x every error of the plateau
        assert min(errs[:2]) > 1.1 * max(errs[2:]), errs
