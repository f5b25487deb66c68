"""Forward-solver checks against closed forms and independent recomputations."""
import math
import re

import numpy as np
import pytest
import scipy.linalg

import lslimaging.forward
import oracles
from lslimaging import (
    GaussianPotential,
    Grid,
    ResonanceProximityError,
    SnapshotMatrix,
    StepPotential,
    TabulatedPotential,
    TridiagonalOperator,
    ZeroPotential,
    assemble_operator,
    compute_snapshot_matrix,
    operator_eigenvalues,
    resolvent_apply,
    solve_forward,
    weyl_sample,
)
from oracles import PoleError, analytic_background_transfer, constant_potential, measure_transfer

COTH_1 = math.cosh(1.0) / math.sinh(1.0)  # 1.3130352854993312


class TestOperatorAssembly:
    def test_three_node_stencil_matches_hand_arithmetic(self):
        # h = 1/2: unsymmetrized rows are [8,-8,0; -4,8,-4; 0,-8,8];
        # halving the boundary rows gives the symmetric form.
        g = Grid(L=1.0, n=3)
        op = assemble_operator(ZeroPotential(), g)
        expected = np.array([[4.0, -4.0, 0.0], [-4.0, 8.0, -4.0], [0.0, -4.0, 4.0]])
        assert np.allclose(oracles.toarray(op), expected, rtol=0, atol=0)
        unsym = oracles.toarray(op) * np.array([2.0, 1.0, 2.0])[:, None]
        # row scaling restores the ghost-point rows, off-diagonals included
        assert np.allclose(
            unsym, [[8.0, -8.0, 0.0], [-4.0, 8.0, -4.0], [0.0, -8.0, 8.0]], rtol=0, atol=0
        )

    def test_operator_matrix_is_symmetric(self):
        g = Grid(L=1.0, n=17)
        op = assemble_operator(constant_potential(3.0, 1.0), g)
        dense = oracles.toarray(op)
        assert np.array_equal(dense, dense.T)

    def test_constant_shift_adds_weighted_identity(self):
        g = Grid(L=1.0, n=17)
        base = oracles.toarray(assemble_operator(ZeroPotential(), g))
        shifted = oracles.toarray(assemble_operator(constant_potential(2.0, 1.0), g))
        dw = g.weights / g.h
        assert np.allclose(shifted, base + 2.0 * np.diag(dw), rtol=1e-15, atol=1e-12)

    def test_first_eigenvalue_converges_to_pi_squared(self):
        g = Grid(L=1.0, n=2001)
        mu = operator_eigenvalues(assemble_operator(ZeroPotential(), g), g)
        # the k = 0 eigenvalue is 0; the solver resolves it to ~||A|| * eps
        assert abs(mu[0]) < 1e-6
        assert abs(mu[1] - np.pi**2) / np.pi**2 < 1e-5

    @pytest.mark.parametrize("p", [ZeroPotential(), GaussianPotential(5.0, 0.5, 0.1), StepPotential(((0.4, 0.6, 4.0),))],
                             ids=["zero", "gaussian", "step"])
    def test_spectrum_equals_scipys_eigvalsh_tridiagonal(self, p):
        g = Grid(L=1.0, n=2001)
        op = assemble_operator(p, g)
        dw = g.weights / g.h
        reference = scipy.linalg.eigvalsh_tridiagonal(op.diag / dw, op.off / np.sqrt(dw[:-1] * dw[1:]))
        assert np.array_equal(operator_eigenvalues(op, g), reference)

    def test_apply_matches_dense_product(self):
        g = Grid(L=1.0, n=31)
        op = assemble_operator(constant_potential(1.5, 1.0), g)
        rng = np.random.default_rng(11)
        v = rng.standard_normal(g.n)
        assert np.allclose(oracles.apply(op, v), oracles.toarray(op) @ v, rtol=1e-13, atol=1e-13)


class TestAnalyticBackgroundTransfer:
    def test_positive_lambda_coth(self):
        assert analytic_background_transfer(1.0, 1.0) == pytest.approx(COTH_1, rel=1e-14)

    def test_zero_of_the_transfer_function(self):
        # cot(pi/2) = 0
        assert analytic_background_transfer(-((np.pi / 2) ** 2), 1.0) == pytest.approx(0.0, abs=1e-15)

    def test_quarter_pi_value(self):
        lam = -((np.pi / 4) ** 2)
        assert analytic_background_transfer(lam, 1.0) == pytest.approx(-4.0 / np.pi, rel=1e-14)

    @pytest.mark.parametrize("lam", [0.0, -np.pi**2, -4 * np.pi**2])
    def test_pole_error_at_resonances(self, lam):
        with pytest.raises(PoleError):
            analytic_background_transfer(lam, 1.0)

    def test_pole_error_within_tolerance_only(self):
        lam = -np.pi**2
        with pytest.raises(PoleError):
            analytic_background_transfer(lam + 1e-12, 1.0)
        assert np.isfinite(analytic_background_transfer(lam + 1e-3, 1.0))

    @pytest.mark.parametrize("lam", [np.nan, np.inf, -np.inf])
    def test_non_finite_lambda_is_named(self, lam):
        with pytest.raises(ValueError, match=f"finite, got {lam}"):
            analytic_background_transfer(lam, 1.0)

    def test_large_lambda_does_not_overflow(self):
        value = analytic_background_transfer(1e9, 1.0)
        assert value == pytest.approx(1.0 / math.sqrt(1e9), rel=1e-12)


class TestSolveForward:
    def test_boundary_value_converges_to_coth(self):
        g = Grid(L=1.0, n=2001)
        snap = solve_forward(ZeroPotential(), 1.0, g)
        assert measure_transfer(snap, g) == pytest.approx(COTH_1, rel=1e-6)

    def test_field_matches_closed_form(self):
        g = Grid(L=1.0, n=2001)
        for lam in (1.0, -7.3, -30.0):
            snap = solve_forward(ZeroPotential(), lam, g)
            exact = oracles.background_field_closed_form(lam, g)
            rel = np.max(np.abs(snap.values - exact)) / np.max(np.abs(exact))
            assert rel < 1e-5, f"lam={lam}: rel={rel}"

    def test_boundary_value_near_transfer_zero(self):
        g = Grid(L=1.0, n=2001)
        snap = solve_forward(ZeroPotential(), -((np.pi / 2) ** 2), g)
        assert abs(measure_transfer(snap, g)) < 1e-6

    def test_constant_shift_identity(self):
        g = Grid(L=1.0, n=501)
        u1 = solve_forward(constant_potential(2.0, 1.0), -7.3, g).values
        u2 = solve_forward(ZeroPotential(), -7.3 + 2.0, g).values
        assert np.max(np.abs(u1 - u2)) < 1e-12 * np.max(np.abs(u1))

    def test_grid_convergence_is_second_order(self):
        lam = -7.4
        errors = []
        for n in (251, 501, 1001):
            g = Grid(1.0, n)
            F = measure_transfer(solve_forward(ZeroPotential(), lam, g), g)
            errors.append(abs(F - analytic_background_transfer(lam, 1.0)))
        orders = [math.log2(errors[i] / errors[i + 1]) for i in range(len(errors) - 1)]
        assert all(1.8 <= order <= 2.2 for order in orders), orders

    def test_solution_matches_extended_precision_oracle(self):
        g = Grid(L=1.0, n=401)
        p = constant_potential(2.0, 1.0)
        for lam in (-5.0, -43.0):
            u = solve_forward(p, lam, g).values
            u_ref = oracles.forward_solve_extended(p, lam, g)
            assert np.max(np.abs(u - u_ref)) < 1e-9 * max(1.0, np.max(np.abs(u_ref)))

    def test_resonance_proximity_raises(self):
        g = Grid(L=1.0, n=501)
        op = assemble_operator(ZeroPotential(), g)
        mu1 = operator_eigenvalues(op, g)[1]
        with pytest.raises(ResonanceProximityError) as excinfo:
            solve_forward(ZeroPotential(), -mu1 + 1e-13, g)
        assert excinfo.value.distance < 1e-10

    def test_near_but_legal_lambda_still_solves(self):
        g = Grid(L=1.0, n=501)
        op = assemble_operator(ZeroPotential(), g)
        mu1 = operator_eigenvalues(op, g)[1]
        snap = solve_forward(ZeroPotential(), -mu1 + 1e-6, g)
        assert np.all(np.isfinite(snap.values))

    def test_exact_guard_at_interior_eigenvalue_of_gaussian(self):
        g = Grid(L=1.0, n=2001)
        p = GaussianPotential(5.0, 0.5, 0.1)
        mu7 = operator_eigenvalues(assemble_operator(p, g), g)[7]
        with pytest.raises(ResonanceProximityError) as excinfo:
            solve_forward(p, -mu7, g)
        assert excinfo.value.distance < 1e-10 * mu7
        snap = solve_forward(p, -mu7 + 1e-6, g)
        assert np.all(np.isfinite(snap.values))


class TestResolventApply:
    def test_matches_dense_solve(self):
        g = Grid(L=1.0, n=51)
        p = constant_potential(1.0, 1.0)
        op = assemble_operator(p, g)
        rng = np.random.default_rng(5)
        rhs = rng.standard_normal(g.n)
        lam = -3.0
        u = resolvent_apply(op, g, lam, rhs)
        # dense reference in the symmetrized formulation
        dw = g.weights / g.h
        dense = oracles.toarray(op) + lam * np.diag(dw)
        u_ref = np.linalg.solve(dense, dw * rhs)
        assert np.allclose(u, u_ref, rtol=1e-10, atol=1e-12)

    def test_self_adjointness_in_weighted_inner_product(self):
        g = Grid(L=1.0, n=2001)
        p = TabulatedPotential(np.sin(3 * np.pi * g.nodes) + 1.5)
        op = assemble_operator(p, g)
        rng = np.random.default_rng(7)
        f, h = rng.standard_normal(g.n), rng.standard_normal(g.n)
        lam = -7.3
        lhs = np.sum(g.weights * f * resolvent_apply(op, g, lam, h))
        rhs = np.sum(g.weights * h * resolvent_apply(op, g, lam, f))
        assert abs(lhs - rhs) <= 1e-9 * max(abs(lhs), abs(rhs))

    @pytest.mark.parametrize("lam", [np.nan, np.inf, -np.inf])
    def test_non_finite_lambda_is_named(self, lam):
        g = Grid(L=1.0, n=51)
        op = assemble_operator(ZeroPotential(), g)
        with pytest.raises(ValueError, match=f"finite, got {lam}"):
            resolvent_apply(op, g, lam, np.ones(g.n))
        with pytest.raises(ValueError, match=f"finite, got {lam}"):
            solve_forward(ZeroPotential(), lam, g)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_source_or_operator_rejected(self, bad):
        g = Grid(L=1.0, n=51)
        op = assemble_operator(ZeroPotential(), g)
        source = np.ones(g.n)
        source[7] = bad
        with pytest.raises(ValueError):
            resolvent_apply(op, g, -3.0, source)
        diag = op.diag.copy()
        diag[7] = bad
        with pytest.raises(ValueError):
            resolvent_apply(TridiagonalOperator(diag=diag, off=op.off), g, -3.0, np.ones(g.n))

    @pytest.mark.parametrize("source", [np.ones(1), 1.0, np.ones(50)], ids=["length-1", "scalar", "length-50"])
    def test_source_of_another_shape_rejected(self, source):
        # numpy would broadcast the first two into a constant source
        g = Grid(L=1.0, n=51)
        op = assemble_operator(ZeroPotential(), g)
        with pytest.raises(ValueError, match="^source must be 51 finite values$"):
            resolvent_apply(op, g, -3.0, source)

    @pytest.mark.parametrize("diag_shape, off_size", [((51,), 1), ((51,), 51), ((51,), 49), ((1, 51), 50)])
    def test_operator_of_mismatched_shapes_rejected(self, diag_shape, off_size):
        # an off-diagonal of length 1 would otherwise broadcast into a constant one
        diag, off = np.full(diag_shape, 2.0), np.full(off_size, -1.0)
        with pytest.raises(ValueError, match=re.escape(f"got shapes {diag_shape} and {(off_size,)}")):
            TridiagonalOperator(diag=diag, off=off)

    def test_operator_of_another_grid_rejected(self):
        g = Grid(L=1.0, n=51)
        op = assemble_operator(ZeroPotential(), Grid(L=1.0, n=41))
        with pytest.raises(ValueError, match="operator has 41 rows, the grid 51 nodes"):
            resolvent_apply(op, g, -3.0, np.ones(g.n))
        with pytest.raises(ValueError, match="operator has 41 rows, the grid 51 nodes"):
            operator_eigenvalues(op, g)

    def test_operator_is_not_overwritten(self):
        g = Grid(L=1.0, n=51)
        op = assemble_operator(constant_potential(1.0, 1.0), g)
        diag, off = op.diag.copy(), op.off.copy()
        resolvent_apply(op, g, -3.0, np.ones(g.n))
        assert np.array_equal(op.diag, diag) and np.array_equal(op.off, off)

    def test_operator_keeps_read_only_copies(self):
        # the guard's enclosure is derived from diag and off once, so they must not change after
        g = Grid(L=1.0, n=201)
        zero = assemble_operator(ZeroPotential(), g)
        diag, off = np.array(zero.diag), np.array(zero.off)
        op = TridiagonalOperator(diag=diag, off=off)
        source = np.ones(g.n)
        resolvent_apply(op, g, -3.0, source)
        for a in (op.diag, op.off):
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 0.0
        # the caller's arrays stay writable: 50 D shifts the spectrum by 50, and op does not see it
        dw = np.ones(g.n)
        dw[0] = dw[-1] = 0.5
        diag += 50.0 * dw
        assert np.array_equal(op.diag, zero.diag) and np.array_equal(op.off, zero.off)
        shifted = TridiagonalOperator(diag=diag, off=off)
        lam = -float(operator_eigenvalues(shifted, g)[0])
        assert lam == pytest.approx(-50.0)
        with pytest.raises(ResonanceProximityError):
            resolvent_apply(shifted, g, lam, source)
        assert np.array_equal(resolvent_apply(op, g, lam, source), resolvent_apply(zero, g, lam, source))


class TestSturmCountOnlyWhenUndecided:
    @pytest.fixture
    def stebz_calls(self, monkeypatch):
        calls = []
        stebz = lslimaging.forward._STEBZ

        def counting(*args):
            calls.append(args)
            return stebz(*args)

        monkeypatch.setattr(lslimaging.forward, "_STEBZ", counting)
        return calls

    def test_zero_potential_sweep_counts_nothing(self, stebz_calls):
        compute_snapshot_matrix(ZeroPotential(), weyl_sample(10, 4, 1.0).lambdas, Grid(L=1.0, n=2001))
        assert stebz_calls == []

    def test_strong_gaussian_counts_every_sample(self, stebz_calls):
        # the medium's range, 400, exceeds every resonance gap of the plan
        lams = weyl_sample(10, 4, 1.0).lambdas
        compute_snapshot_matrix(GaussianPotential(400.0, 0.5, 0.1), lams, Grid(L=1.0, n=2001))
        assert len(stebz_calls) == lams.size

    def test_perturbed_off_diagonal_still_raises_at_its_eigenvalue(self, stebz_calls):
        g = Grid(L=1.0, n=401)
        op = assemble_operator(GaussianPotential(5.0, 0.5, 0.1), g)
        off = op.off * (1.0 + 1e-3 * np.random.default_rng(3).standard_normal(op.off.size))
        perturbed = TridiagonalOperator(diag=op.diag, off=off)
        ev = operator_eigenvalues(perturbed, g)
        for k in (0, 1, 7, 200, g.n - 1):
            with pytest.raises(ResonanceProximityError) as excinfo:
                resolvent_apply(perturbed, g, -ev[k], np.ones(g.n))
            assert excinfo.value.distance == 0.0
        assert len(stebz_calls) == 5


class TestSnapshotMatrix:
    @pytest.mark.parametrize("p", [GaussianPotential(5.0, 0.5, 0.1), StepPotential(((0.4, 0.6, 4.0),))],
                             ids=["gaussian", "step"])
    def test_columns_equal_the_banded_solver(self, p):
        # reference: scipy's solve_banded column by column, as the solver called it before
        g = Grid(L=1.0, n=2001)
        lams = weyl_sample(40, 4, 1.0).lambdas
        V = compute_snapshot_matrix(p, lams, g).V
        op = assemble_operator(p, g)
        dw = g.weights / g.h
        source = np.zeros(g.n)
        source[0] = 2.0 / g.h
        for j, lam in enumerate(lams):
            ab = np.zeros((3, g.n))
            ab[0, 1:] = op.off
            ab[1, :] = op.diag + lam * dw
            ab[2, :-1] = op.off
            assert np.array_equal(V[:, j], scipy.linalg.solve_banded((1, 1), ab, dw * source)), lam

    @pytest.mark.parametrize("shape", [(51, 2), (50, 3), (51,)], ids=["few-columns", "few-rows", "1-D"])
    def test_v_of_another_shape_rejected(self, shape):
        # numpy would fail later, inside measure_dataset's stack or lsl_fields' product
        g, lams = Grid(L=1.0, n=51), np.array([-30.0, -20.0, -10.0])
        with pytest.raises(ValueError, match=re.escape(f"= (51, 3), got {shape}")):
            SnapshotMatrix(V=np.ones(shape), grid=g, lambdas=lams)
