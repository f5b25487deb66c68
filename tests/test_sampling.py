"""Resonance-interval sampling plans."""
import numpy as np
import pytest

from lslimaging import approximate_resonances, weyl_sample

PI2 = np.pi**2


def test_single_interval_single_point_is_the_midpoint():
    plan = weyl_sample(1, 1, 1.0)
    assert np.allclose(plan.lambdas, [-PI2 / 2], rtol=1e-14)


def test_single_interval_three_points():
    plan = weyl_sample(1, 3, 1.0)
    assert np.allclose(plan.lambdas, [-0.75 * PI2, -0.5 * PI2, -0.25 * PI2], rtol=1e-14)


def test_two_intervals_midpoints():
    plan = weyl_sample(2, 1, 1.0)
    assert np.allclose(plan.lambdas, [-2.5 * PI2, -0.5 * PI2], rtol=1e-14)


def test_resonances_are_squared_multiples():
    r = approximate_resonances(3, 2.0)
    assert np.allclose(r, [0.0, -(np.pi / 2) ** 2, -(np.pi) ** 2, -(1.5 * np.pi) ** 2])


@pytest.mark.parametrize("N,f,L", [(0, 1, 1.0), (1, 0, 1.0), (1, 1, 0.0), (2.5, 1, 1.0), (1, 1, -3.0),
                                   (np.inf, 1, 1.0), (np.nan, 1, 1.0), (1, np.inf, 1.0), (1, np.nan, 1.0),
                                   (10, 4, 1e-160)])
def test_invalid_arguments_rejected(N, f, L):
    with pytest.raises(ValueError, match="must be"):  # the module's message, not int()'s
        weyl_sample(N, f, L)


@pytest.mark.parametrize("N", [1, 2, 5, 10])
@pytest.mark.parametrize("f", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("L", [1.0, 0.5, 3.0])
def test_plan_properties(N, f, L):
    plan = weyl_sample(N, f, L)
    lams = plan.lambdas
    r = approximate_resonances(N, L)
    assert lams.size == N * f
    assert np.all(np.diff(lams) > 0)
    assert np.all(lams < 0.0)
    for lam in lams:
        # strictly inside exactly one interval (r_{k+1}, r_k)
        inside = [(r[k + 1] < lam < r[k]) for k in range(N)]
        assert sum(inside) == 1
        k = inside.index(True)
        margin = abs(r[k + 1] - r[k]) / (f + 1)
        gap = min(abs(lam - r[k]), abs(lam - r[k + 1]))
        assert gap >= margin * (1 - 1e-12)
        assert np.min(np.abs(lam - r)) > 0.0


@pytest.mark.parametrize("N,L", [(-1, 1.0), (2.5, 1.0), (np.inf, 1.0), (np.nan, 1.0), (3, 0.0), (3, -1.0),
                                 (3, np.inf), (3, np.nan),
                                 # r_N overflows: refused, with no overflow warning on the way
                                 pytest.param(10, 1e-160, marks=pytest.mark.filterwarnings("error"))],
                         ids=["N-negative", "N-fraction", "N-inf", "N-nan", "L-zero", "L-negative", "L-inf", "L-nan",
                              "L-tiny"])
def test_resonances_reject_invalid_arguments(N, L):
    with pytest.raises(ValueError, match="must be"):
        approximate_resonances(N, L)


@pytest.mark.parametrize("L", [0, -3, np.inf, np.nan])
def test_both_report_a_bad_L_as_the_grid_does(L):
    message = f"^domain length must be positive and finite, got {float(L)}$"
    with pytest.raises(ValueError, match=message):
        weyl_sample(1, 1, L)
    with pytest.raises(ValueError, match=message):
        approximate_resonances(1, L)


def test_resonances_take_an_integral_float_count_and_zero():
    assert np.array_equal(approximate_resonances(3.0, 2.0), approximate_resonances(3, 2.0))
    assert np.array_equal(approximate_resonances(0, 1.0), [0.0])
