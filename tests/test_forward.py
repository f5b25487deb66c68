"""Forward-solver checks against closed forms and independent recomputations."""
import math

import numpy as np
import pytest

import oracles
from lslimaging import (
    GaussianPotential,
    Grid,
    PoleError,
    ResonanceProximityError,
    TabulatedPotential,
    ZeroPotential,
    analytic_background_transfer,
    assemble_operator,
    constant_potential,
    measure_transfer,
    operator_eigenvalues,
    resolvent_apply,
    solve_forward,
)

COTH_1 = math.cosh(1.0) / math.sinh(1.0)  # 1.3130352854993312


class TestOperatorAssembly:
    def test_three_node_stencil_matches_hand_arithmetic(self):
        # h = 1/2: unsymmetrized rows are [8,-8,0; -4,8,-4; 0,-8,8];
        # halving the boundary rows gives the symmetric form.
        g = Grid(L=1.0, n=3)
        op = assemble_operator(ZeroPotential(), g)
        expected = np.array([[4.0, -4.0, 0.0], [-4.0, 8.0, -4.0], [0.0, -4.0, 4.0]])
        assert np.allclose(op.toarray(), expected, rtol=0, atol=0)
        unsym = op.toarray() * np.array([2.0, 1.0, 2.0])[:, None]
        # row scaling restores the ghost-point rows, off-diagonals included
        assert np.allclose(
            unsym, [[8.0, -8.0, 0.0], [-4.0, 8.0, -4.0], [0.0, -8.0, 8.0]], rtol=0, atol=0
        )

    def test_operator_matrix_is_symmetric(self):
        g = Grid(L=1.0, n=17)
        op = assemble_operator(constant_potential(3.0, 1.0), g)
        dense = op.toarray()
        assert np.array_equal(dense, dense.T)

    def test_constant_shift_adds_weighted_identity(self):
        g = Grid(L=1.0, n=17)
        base = assemble_operator(ZeroPotential(), g).toarray()
        shifted = assemble_operator(constant_potential(2.0, 1.0), g).toarray()
        dw = g.weights / g.h
        assert np.allclose(shifted, base + 2.0 * np.diag(dw), rtol=1e-15, atol=1e-12)

    def test_first_eigenvalue_converges_to_pi_squared(self):
        g = Grid(L=1.0, n=2001)
        mu = operator_eigenvalues(assemble_operator(ZeroPotential(), g), g)
        # the k = 0 eigenvalue is 0; the solver resolves it to ~||A|| * eps
        assert abs(mu[0]) < 1e-6
        assert abs(mu[1] - np.pi**2) / np.pi**2 < 1e-5

    def test_apply_matches_dense_product(self):
        g = Grid(L=1.0, n=31)
        op = assemble_operator(constant_potential(1.5, 1.0), g)
        rng = np.random.default_rng(11)
        v = rng.standard_normal(g.n)
        assert np.allclose(op.apply(v), op.toarray() @ v, rtol=1e-13, atol=1e-13)


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
        dense = op.toarray() + lam * np.diag(dw)
        u_ref = np.linalg.solve(dense, dw * rhs)
        assert np.allclose(u, u_ref, rtol=1e-10, atol=1e-12)

    def test_self_adjointness_in_weighted_inner_product(self):
        g = Grid(L=1.0, n=2001)
        p = TabulatedPotential(np.sin(3 * np.pi * g.nodes) + 1.5)
        op = assemble_operator(p, g)
        rng = np.random.default_rng(7)
        f, h = rng.standard_normal(g.n), rng.standard_normal(g.n)
        lam = -7.3
        lhs = g.inner(f, resolvent_apply(op, g, lam, h))
        rhs = g.inner(h, resolvent_apply(op, g, lam, f))
        assert abs(lhs - rhs) <= 1e-9 * max(abs(lhs), abs(rhs))
