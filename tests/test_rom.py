"""Reduced-order model: Loewner pencil, Lanczos factorization, internal fields."""
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg

import oracles
from conftest import weighted_rel_err
from lslimaging import (
    DataSet,
    DegenerateMassError,
    DegenerateSourceError,
    DimensionMismatchError,
    GaussianPotential,
    Grid,
    LoewnerPencil,
    PRESETS,
    RomResonanceError,
    StepPotential,
    ZeroPotential,
    assemble_operator,
    background_rom,
    build_loewner,
    compute_snapshot_matrix,
    generate_dataset,
    lanczos,
    lsl_fields,
    lsl_internal,
    operator_eigenvalues,
    preset_potential,
    solve_forward,
    weyl_sample,
)
from lslimaging._lapack import one_blas_thread
from lslimaging.experiment import default_internal_lambda
from oracles import analytic_background_transfer

# orders of the random tridiagonals on both sides of stedc's branch at 25
RANDOM_ORDERS = (1, 2, 25, 26, 60, 120)


@pytest.fixture(scope="module")
def g():
    return Grid(L=1.0, n=2001)


@pytest.fixture(scope="module")
def gaussian():
    return GaussianPotential(5.0, 0.5, 0.1)


@pytest.fixture(scope="module")
def gaussian_data(g, gaussian):
    return generate_dataset(gaussian, weyl_sample(5, 3, 1.0).lambdas, g)


@pytest.fixture(scope="module")
def background_data(g):
    return generate_dataset(ZeroPotential(), weyl_sample(5, 3, 1.0).lambdas, g)


class TestBuildLoewner:
    def test_single_sample_uses_diagonal_formulas(self, g):
        data = generate_dataset(ZeroPotential(), [-5.0], g)
        pencil = build_loewner(data)
        s = oracles.samples(data)[0]
        assert pencil.S[0, 0] == s.F + s.lam * s.dF
        assert pencil.M[0, 0] == -s.dF
        assert pencil.b[0] == s.F

    def test_matrices_exactly_symmetric(self, gaussian_data):
        pencil = build_loewner(gaussian_data)
        assert np.array_equal(pencil.S, pencil.S.T)
        assert np.array_equal(pencil.M, pencil.M.T)

    def test_offdiagonal_consistency_identity(self, gaussian_data):
        # S_ij = F_i - l_j M_ij off the diagonal, by L u_j = delta - l_j u_j
        pencil = build_loewner(gaussian_data)
        lams, F = gaussian_data.lambdas, gaussian_data.F
        m = gaussian_data.m
        for i in range(m):
            for j in range(m):
                if i == j:
                    continue
                expected = F[i] - lams[j] * pencil.M[i, j]
                assert pencil.S[i, j] == pytest.approx(expected, rel=1e-10, abs=1e-12)

    def test_mass_entry_from_analytic_transfer(self, g):
        # divided difference of the closed-form background transfer
        lams = np.array([-4.9348, -2.4674])
        data = generate_dataset(ZeroPotential(), lams, g)
        pencil = build_loewner(data)
        F0 = [analytic_background_transfer(lam, 1.0) for lam in lams]
        expected = (F0[1] - F0[0]) / (lams[0] - lams[1])
        assert pencil.M[0, 1] == pytest.approx(expected, rel=1e-5)

    @pytest.mark.parametrize("N", [10, 40])
    def test_matches_the_double_loop(self, g, gaussian, N):
        # the per-entry loop the broadcast fill replaced, at m = 40 and m = 160
        data = generate_dataset(gaussian, weyl_sample(N, 4, 1.0).lambdas, g)
        lams, F, dF = data.lambdas, data.F, data.dF
        S = np.empty((data.m, data.m))
        M = np.empty((data.m, data.m))
        for i in range(data.m):
            S[i, i] = F[i] + lams[i] * dF[i]
            M[i, i] = -dF[i]
            for j in range(i + 1, data.m):
                gap = lams[i] - lams[j]
                M[i, j] = M[j, i] = (F[j] - F[i]) / gap
                S[i, j] = S[j, i] = (lams[i] * F[i] - lams[j] * F[j]) / gap
        pencil = build_loewner(data)
        assert np.array_equal(pencil.S, S)
        assert np.array_equal(pencil.M, M)

    def test_mass_matrix_positive_definite_for_real_data(self, gaussian_data):
        eigvals = np.linalg.eigvalsh(build_loewner(gaussian_data).M)
        assert eigvals[-1] > 0
        assert eigvals[0] > -1e-10 * eigvals[-1]


class TestGramOracle:
    def test_pencil_matches_gram_matrices(self, g, gaussian, gaussian_data):
        pencil = build_loewner(gaussian_data)
        V = compute_snapshot_matrix(gaussian, gaussian_data.lambdas, g)
        S, M, b = oracles.gram_oracle(V, gaussian)
        assert np.max(np.abs(pencil.M - M) / np.abs(M)) < 1e-6
        assert np.max(np.abs(pencil.S - S) / np.abs(S)) < 1e-6
        assert np.array_equal(pencil.b, b)

    def test_single_snapshot_norm_positive(self, g):
        V = compute_snapshot_matrix(ZeroPotential(), [-5.0], g)
        _, M, b = oracles.gram_oracle(V, ZeroPotential())
        assert M[0, 0] > 0
        assert b[0] == V.V[0, 0]

    def test_snapshot_columns_solve_the_forward_problem(self, g, gaussian):
        lams = weyl_sample(2, 2, 1.0).lambdas
        V = compute_snapshot_matrix(gaussian, lams, g)
        op = assemble_operator(gaussian, g)
        dw = g.weights / g.h
        source = np.zeros(g.n)
        source[0] = 1.0 / g.h
        for j, lam in enumerate(lams):
            u = V.V[:, j]
            residual = oracles.apply(op, u) + lam * dw * u - source
            assert np.max(np.abs(residual)) < 1e-7 * np.max(np.abs(oracles.apply(op, u)))


class TestLanczos:
    def test_scalar_pencil(self, g):
        data = generate_dataset(ZeroPotential(), [-5.0], g)
        pencil = build_loewner(data)
        factors = lanczos(pencil)
        S00, M00, b0 = pencil.S[0, 0], pencil.M[0, 0], pencil.b[0]
        assert b0 > 0  # this sample sits where the transfer value is positive
        assert factors.k == 1
        assert factors.T[0, 0] == pytest.approx(S00 / M00, rel=1e-14)
        assert factors.Q[0, 0] == pytest.approx(1.0 / np.sqrt(M00), rel=1e-14)
        assert factors.normfactor == pytest.approx(abs(b0) / np.sqrt(M00), rel=1e-14)

    def test_two_step_recursion_on_diagonal_pencil(self):
        pencil = LoewnerPencil(
            S=np.diag([1.0, 2.0]), M=np.eye(2), b=np.array([1.0, 1.0]),
            lambdas=np.array([-1.0, -2.0]),
        )
        factors = lanczos(pencil)
        assert np.allclose(factors.T, [[1.5, 0.5], [0.5, 1.5]], rtol=1e-14, atol=1e-14)
        assert np.allclose(np.linalg.eigvalsh(factors.T), [1.0, 2.0], rtol=1e-14)
        assert factors.normfactor == pytest.approx(np.sqrt(2.0), rel=1e-14)

    def test_contract_on_well_conditioned_data(self, g, gaussian):
        data = generate_dataset(gaussian, weyl_sample(8, 1, 1.0).lambdas, g)
        pencil = build_loewner(data)
        factors = lanczos(pencil)
        k = factors.k
        assert k == pencil.m
        assert np.max(np.abs(factors.Q.T @ pencil.M @ factors.Q - np.eye(k))) < 1e-12
        assert np.max(np.abs(factors.Q.T @ pencil.S @ factors.Q - factors.T)) < 1e-11
        assert np.all(np.diag(factors.T, 1) > 0)
        # eigenvalues approximate the dense generalized spectrum
        dense = scipy.linalg.eigh(pencil.S, pencil.M, eigvals_only=True)
        assert np.max(np.abs(np.sort(np.linalg.eigvalsh(factors.T)) - np.sort(dense))) < 1e-9

    def test_tridiagonal_pattern_exact(self, gaussian_data):
        factors = lanczos(build_loewner(gaussian_data))
        T = factors.T
        off_pattern = np.triu(np.abs(T), 2)
        assert np.all(off_pattern == 0.0)

    def test_deterministic_bitwise(self, gaussian_data):
        pencil = build_loewner(gaussian_data)
        f1 = lanczos(pencil)
        f2 = lanczos(pencil)
        assert np.array_equal(f1.T, f2.T)
        assert np.array_equal(f1.Q, f2.Q)
        assert f1.normfactor == f2.normfactor

    def test_background_self_consistency(self, g, background_data):
        # two independent measurements of the same medium
        data_again = generate_dataset(ZeroPotential(), background_data.lambdas, g)
        f1 = lanczos(build_loewner(background_data))
        f2 = lanczos(build_loewner(data_again))
        assert f1.k == f2.k
        assert np.max(np.abs(f1.T - f2.T)) < 1e-8
        assert abs(f1.normfactor - f2.normfactor) < 1e-8

    def test_indefinite_mass_rejected(self):
        pencil = LoewnerPencil(
            S=np.eye(2), M=np.diag([1.0, -1e-3]), b=np.array([1.0, 1.0]),
            lambdas=np.array([-1.0, -2.0]),
        )
        with pytest.raises(DegenerateMassError):
            lanczos(pencil)

    def test_mass_without_a_positive_eigenvalue_rejected(self):
        pencil = LoewnerPencil(S=np.eye(2), M=-np.eye(2), b=np.ones(2), lambdas=np.array([-1.0, -2.0]))
        with pytest.raises(DegenerateMassError, match="^mass matrix has no positive eigenvalues$"):
            lanczos(pencil)

    def test_source_outside_retained_range_rejected(self):
        pencil = LoewnerPencil(
            S=np.eye(2), M=np.diag([1.0, 1e-20]), b=np.array([0.0, 1.0]),
            lambdas=np.array([-1.0, -2.0]),
        )
        with pytest.raises(DegenerateSourceError):
            lanczos(pencil, truncation_tol=1e-12)

    @pytest.mark.parametrize("alphas, betas", [
        # betas set the scale of T: 5e-4 is below 1e-3 * max(beta), far above 1e-3 * max|alpha|
        ([0.01] * 5, [1.0, 1.0, 5e-4, 1.0]),
        # the first alpha sets it: 5e-3 is below 1e-3 * 10, far above 1e-3 * max(later |alpha|, beta)
        ([10.0, 0.01, 0.01, 0.01, 0.01], [1.0, 1.0, 5e-3, 1.0]),
    ])
    def test_early_stop_against_the_largest_entry_so_far(self, alphas, betas):
        # with M = I and b = e_1 the recursion reproduces the tridiagonal S; it
        # stops at the third beta, the first below truncation_tol * max(|alpha|, beta)
        S = np.diag(alphas) + np.diag(betas, 1) + np.diag(betas, -1)
        pencil = LoewnerPencil(S=S, M=np.eye(5), b=np.eye(5)[0], lambdas=-np.arange(1.0, 6.0))
        factors = lanczos(pencil, truncation_tol=1e-3)
        assert factors.k == 3
        assert np.allclose(factors.T, S[:3, :3], rtol=1e-12, atol=1e-12)

    def test_overflowing_divided_differences_rejected(self):
        # a valid DataSet whose Loewner differences overflow to inf and nan
        data = DataSet(1.0, [(-30.0, 1e308, -1.0), (-20.0, -1e308, -1.0), (-10.0, 1.0, -1.0)])
        with np.errstate(all="ignore"):
            pencil = build_loewner(data)
            with pytest.raises(ValueError, match="^the pencil's S, M and b must be finite$"):
                lanczos(pencil)

    def test_overflowing_mass_spectrum_rejected(self):
        # the pencil is finite, but eigh(M) returns [0, inf]
        data = DataSet(1.0, [(-0.5, -1.25e307, -1e308), (-0.25, 1.25e307, -1e308)])
        pencil = build_loewner(data)
        assert all(np.all(np.isfinite(a)) for a in (pencil.S, pencil.M, pencil.b))
        with np.errstate(all="ignore"), pytest.raises(
                DegenerateMassError, match="^mass matrix's largest eigenvalue is inf, not finite$"):
            lanczos(pencil)

    @pytest.mark.parametrize("name, index, bad", [
        ("M", (0, 0), np.nan),  # eigh would return NaNs, and k = 1 with no error
        ("S", (1, 2), np.inf),
        ("b", (2,), np.nan),
    ])
    def test_non_finite_pencil_rejected(self, name, index, bad):
        arrays = {"S": np.eye(3), "M": np.eye(3), "b": np.ones(3)}
        arrays[name][index] = bad
        pencil = LoewnerPencil(**arrays, lambdas=-np.arange(1.0, 4.0))
        with np.errstate(all="ignore"), pytest.raises(ValueError, match="^the pencil's S, M and b must be finite$"):
            lanczos(pencil)

    def test_truncation_tol_validated(self, gaussian_data):
        pencil = build_loewner(gaussian_data)
        with pytest.raises(ValueError):
            lanczos(pencil, truncation_tol=0.0)
        with pytest.raises(ValueError):
            lanczos(pencil, truncation_tol=1.5)


class TestRomPoles:
    # Max of min_j |e - t_j| / max(1, |e|) over the band, measured at n = 2001,
    # N = 10 and default tolerances:
    #   f = 4: gaussian 6.85e-9, step 1.33e-9, zero 4.5e-8
    #   f = 2: gaussian 1.63e-7, step 1.68e-7, zero 2.41e-8
    # (N = 40, f = 4: gaussian 1.13e-8, step 8.18e-9, zero 6.72e-9).
    BOUND = {4: 1e-7, 2: 4e-7}
    N = 10

    def _band_and_data(self, g, name, f):
        """The discrete eigenvalues below (N pi / L)^2, and the medium's data at the Weyl points."""
        p = preset_potential(name)
        spectrum = operator_eigenvalues(assemble_operator(p, g), g)
        band = spectrum[spectrum < (self.N * np.pi / g.L) ** 2]
        assert band.size >= self.N
        return band, generate_dataset(p, weyl_sample(self.N, f, g.L).lambdas, g)

    @staticmethod
    def _worst_gap(band, data):
        poles = np.linalg.eigvalsh(lanczos(build_loewner(data)).T)
        gaps = [np.min(np.abs(poles - e)) / max(1.0, abs(e)) for e in band]
        return band[np.argmax(gaps)], max(gaps)

    @pytest.mark.parametrize("f", [4, 2])
    @pytest.mark.parametrize("name", PRESETS)
    def test_eigenvalues_of_t_recover_the_discrete_spectrum_in_the_band(self, g, name, f):
        eigenvalue, gap = self._worst_gap(*self._band_and_data(g, name, f))
        assert gap < self.BOUND[f], (eigenvalue, gap)

    # Worst gap over seeds 1 to 5 at noise 1e-10 / 1e-8: gaussian 1.91e-8 / 3.01e-8, step 5.0e-8 /
    # 1.93e-7. At 1e-6 and above lanczos refuses the data as an indefinite mass matrix.
    @pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("level", [1e-10, 1e-8])
    @pytest.mark.parametrize("name", ["gaussian", "step"])
    def test_noisy_data_move_the_poles_by_about_the_noise_level(self, g, name, level, seed):
        band, data = self._band_and_data(g, name, 4)
        eigenvalue, gap = self._worst_gap(band, oracles.add_noise(data, level, seed))
        assert gap < self.BOUND[4] + 50 * level, (eigenvalue, gap)


class TestGalerkinInternal:
    def test_interpolates_snapshots_at_sample_points(self, g, gaussian, gaussian_data):
        V = compute_snapshot_matrix(gaussian, gaussian_data.lambdas, g)
        factors = lanczos(build_loewner(gaussian_data))
        for j, lam in enumerate(gaussian_data.lambdas):
            est = lsl_internal(V, factors, factors, lam)
            assert weighted_rel_err(est.values, V.V[:, j], g) < 1e-5

    def test_single_sample_is_exactly_interpolatory(self, g):
        data = generate_dataset(ZeroPotential(), [-5.0], g)
        V = compute_snapshot_matrix(ZeroPotential(), data.lambdas, g)
        factors = lanczos(build_loewner(data))
        est = lsl_internal(V, factors, factors, -5.0)
        assert weighted_rel_err(est.values, V.V[:, 0], g) < 1e-12

    def test_residual_smaller_than_background_between_samples(self, g, gaussian, gaussian_data):
        V = compute_snapshot_matrix(gaussian, gaussian_data.lambdas, g)
        factors = lanczos(build_loewner(gaussian_data))
        lams = gaussian_data.lambdas
        lam_mid = 0.5 * (lams[6] + lams[7])
        op = assemble_operator(gaussian, g)
        dw = g.weights / g.h
        source = np.zeros(g.n)
        source[0] = 1.0 / g.h

        def residual(u):
            return np.linalg.norm(oracles.apply(op, u) + lam_mid * dw * u - source)

        u_hat = lsl_internal(V, factors, factors, lam_mid).values
        u_bg = solve_forward(ZeroPotential(), lam_mid, g).values
        assert residual(u_hat) < residual(u_bg)

    def test_rom_resonance_error(self, g, gaussian, gaussian_data):
        V = compute_snapshot_matrix(gaussian, gaussian_data.lambdas, g)
        factors = lanczos(build_loewner(gaussian_data))
        theta = np.linalg.eigvalsh(factors.T)[2]
        with pytest.raises(RomResonanceError):
            lsl_internal(V, factors, factors, -theta)

    def test_dimension_mismatch_rejected(self, g, gaussian, gaussian_data):
        V = compute_snapshot_matrix(gaussian, gaussian_data.lambdas[:-1], g)
        factors = lanczos(build_loewner(gaussian_data))
        with pytest.raises(DimensionMismatchError):
            lsl_internal(V, factors, factors, -5.0)


class TestLslInternal:
    def test_reduces_to_galerkin_for_background_data(self, g, background_data):
        V0, factors0 = background_rom(background_data, g)
        for j, lam in enumerate(background_data.lambdas):
            est = lsl_internal(V0, factors0, factors0, lam)
            gal = lsl_internal(V0, factors0, factors0, lam)
            assert np.array_equal(est.values, gal.values)
            assert weighted_rel_err(est.values, V0.V[:, j], g) < 1e-5

    def test_estimates_true_internal_field(self, g, gaussian, gaussian_data, background_data):
        V0, factors0 = background_rom(background_data, g)
        factors = lanczos(build_loewner(gaussian_data))
        lams = gaussian_data.lambdas
        lam_mid = 0.5 * (lams[6] + lams[7])
        u_true = solve_forward(gaussian, lam_mid, g).values
        u_bg = solve_forward(ZeroPotential(), lam_mid, g).values
        est = lsl_internal(V0, factors0, factors, lam_mid)
        assert weighted_rel_err(est.values, u_true, g) < 0.2 * weighted_rel_err(u_bg, u_true, g)

    def test_sign_flip_ablation(self, g, gaussian, gaussian_data, background_data):
        # flipping one background basis column keeps M-orthonormality but
        # breaks the column pairing; the canonical convention is load-bearing
        V0, factors0 = background_rom(background_data, g)
        factors = lanczos(build_loewner(gaussian_data))
        pencil0 = build_loewner(background_data)
        lams = gaussian_data.lambdas
        lam_mid = 0.5 * (lams[6] + lams[7])
        u_true = solve_forward(gaussian, lam_mid, g).values

        k0 = factors0.k
        flipped_Q = factors0.Q.copy()
        flipped_Q[:, 2] *= -1.0
        dev_canonical = np.abs(factors0.Q.T @ pencil0.M @ factors0.Q - np.eye(k0))
        dev_flipped = np.abs(flipped_Q.T @ pencil0.M @ flipped_Q - np.eye(k0))
        assert np.allclose(dev_flipped, dev_canonical, rtol=0, atol=1e-15)

        flipped0 = type(factors0)(T=factors0.T, Q=flipped_Q,
                                  normfactor=factors0.normfactor, k=k0)
        err_good = weighted_rel_err(lsl_internal(V0, factors0, factors, lam_mid).values, u_true, g)
        err_flip = weighted_rel_err(lsl_internal(V0, flipped0, factors, lam_mid).values, u_true, g)
        assert err_flip > 2.0 * err_good

    def test_rank_mismatch_uses_common_columns(self, g, gaussian, background_data):
        # different truncation levels give different ranks; the common prefix is used
        V0, factors0 = background_rom(background_data, g, truncation_tol=1e-14)
        data = generate_dataset(gaussian, background_data.lambdas, g)
        factors = lanczos(build_loewner(data), truncation_tol=1e-6)
        assert factors.k < factors0.k
        est = lsl_internal(V0, factors0, factors, -30.0)
        assert np.all(np.isfinite(est.values))

    def test_incompatible_sample_counts_rejected(self, g, gaussian, background_data):
        V0, factors0 = background_rom(background_data, g)
        short = generate_dataset(gaussian, background_data.lambdas[:-2], g)
        factors = lanczos(build_loewner(short))
        with pytest.raises(DimensionMismatchError):
            lsl_internal(V0, factors0, factors, -5.0)


class TestLslFields:
    @staticmethod
    def per_lambda_field(V0, factors0, factors, lam):
        """Reference: one tridiagonal solve (T + lam I) y = e_1 per sample point."""
        k = min(factors.k, factors0.k)
        T = factors.T[:k, :k]
        ab = np.zeros((3, k))
        ab[0, 1:] = np.diag(T, 1)
        ab[1, :] = np.diag(T) + lam
        ab[2, :-1] = np.diag(T, 1)
        e1 = np.zeros(k)
        e1[0] = 1.0
        y = scipy.linalg.solve_banded((1, 1), ab, e1)
        return factors.normfactor * (V0.V @ (factors0.Q[:, :k] @ y))

    @staticmethod
    def scipy_route_fields(V0, factors0, factors, lams):
        """lsl_fields' expression on scipy's eigh_tridiagonal factors, which come in Fortran order."""
        k = min(factors.k, factors0.k)
        T = factors.T[:k, :k]
        theta, S = scipy.linalg.eigh_tridiagonal(np.diag(T), np.diag(T, 1))
        with one_blas_thread:
            Y = S @ (S[0][:, None] / (theta[:, None] + np.asarray(lams)))
            return factors.normfactor * (V0.V @ (factors0.Q[:, :k] @ Y))

    @pytest.mark.parametrize("p, N", [(GaussianPotential(5.0, 0.5, 0.1), 10), (StepPotential(((0.4, 0.6, 4.0),)), 40)],
                             ids=["gaussian-m40", "step-m160"])
    def test_fields_equal_the_scipy_route_bitwise(self, g, p, N):
        # the one-lam product S @ y sees S's memory layout, so a C-ordered S fails here
        lams = weyl_sample(N, 4, 1.0).lambdas
        V0, factors0 = background_rom(generate_dataset(ZeroPotential(), lams, g), g)
        factors = lanczos(build_loewner(generate_dataset(p, lams, g)))
        lam = default_internal_lambda(lams)
        single = lsl_internal(V0, factors0, factors, lam).values
        assert np.array_equal(single, self.scipy_route_fields(V0, factors0, factors, [lam])[:, 0])
        assert np.array_equal(lsl_fields(V0, factors0, factors, lams), self.scipy_route_fields(V0, factors0, factors, lams))

    @pytest.mark.parametrize("truncation_tol", [1e-14, 1e-6])  # k = k0 and k < k0
    def test_columns_match_per_lambda_solves(self, g, gaussian_data, background_data, truncation_tol):
        V0, factors0 = background_rom(background_data, g)
        factors = lanczos(build_loewner(gaussian_data), truncation_tol)
        lams = gaussian_data.lambdas
        probes = np.concatenate([lams, 0.5 * (lams[1:] + lams[:-1]), [-30.0, 7.5]])
        W = lsl_fields(V0, factors0, factors, probes)
        assert W.shape == (g.n, probes.size)
        for j, lam in enumerate(probes):
            ref = self.per_lambda_field(V0, factors0, factors, lam)
            assert np.linalg.norm(W[:, j] - ref) <= 1e-10 * np.linalg.norm(ref)
            single = lsl_internal(V0, factors0, factors, lam).values
            assert np.linalg.norm(single - ref) <= 1e-10 * np.linalg.norm(ref)

    # p None stands for a random tridiagonal T of order N; LAPACK's stedc, under
    # both eigh routes, takes one branch at order <= 25 and another above it
    @pytest.mark.parametrize("p, N", [(ZeroPotential(), 0), (GaussianPotential(5.0, 0.5, 0.1), 10),
                                      (StepPotential(((0.4, 0.6, 4.0),)), 40),
                                      *((None, k) for k in RANDOM_ORDERS)],
                             ids=["k1", "gaussian", "step-m160", *(f"random-{k}" for k in RANDOM_ORDERS)])
    def test_eigendecomposition_equals_scipys_eigh_tridiagonal(self, g, p, N):
        if p is None:
            d, e = np.random.default_rng(N).standard_normal((2, N))
            T = np.diag(d) + np.diag(e[1:], 1) + np.diag(e[1:], -1)
        else:
            lams = weyl_sample(N, 4, 1.0).lambdas if N else [-5.0]
            T = lanczos(build_loewner(generate_dataset(p, lams, g))).T
            assert (T.shape[0] == 1) == (N == 0)
        theta, S = np.linalg.eigh(T)
        ref_theta, ref_S = scipy.linalg.eigh_tridiagonal(np.diag(T), np.diag(T, 1))
        assert np.array_equal(theta, ref_theta)
        assert np.array_equal(S, ref_S)

    def test_resonance_error_names_first_offending_lambda(self, g, gaussian_data, background_data):
        V0, factors0 = background_rom(background_data, g)
        factors = lanczos(build_loewner(gaussian_data))
        theta = np.linalg.eigvalsh(factors.T[:factors0.k, :factors0.k])
        lams = [-30.0, -theta[4], -theta[1]]
        with pytest.raises(RomResonanceError) as excinfo:
            lsl_fields(V0, factors0, factors, lams)
        assert excinfo.value.lam == -theta[4]

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_lambda_rejected(self, g, gaussian_data, background_data, bad):
        V0, factors0 = background_rom(background_data, g)
        factors = lanczos(build_loewner(gaussian_data))
        with pytest.raises(ValueError, match=rf"finite, got \[{bad}\]"):
            lsl_fields(V0, factors0, factors, [-30.0, bad])
        with pytest.raises(ValueError, match="finite"):
            lsl_internal(V0, factors0, factors, bad)

    def test_non_finite_T_rejected(self, g, gaussian_data, background_data):
        # numpy's eigh returns NaNs for it without raising
        V0, factors0 = background_rom(background_data, g)
        factors = lanczos(build_loewner(gaussian_data))
        T = factors.T.copy()
        T[1, 2] = T[2, 1] = np.nan
        with pytest.raises(ValueError, match="^the reduced model's T must be finite$"):
            lsl_fields(V0, factors0, replace(factors, T=T), [-30.0])

    def test_factors_without_a_common_rank_rejected(self, g, gaussian_data, background_data):
        V0, factors0 = background_rom(background_data, g)
        factors = lanczos(build_loewner(gaussian_data))
        with pytest.raises(DimensionMismatchError, match="^no common retained rank$"):
            lsl_fields(V0, factors0, replace(factors, k=0), [-30.0])
