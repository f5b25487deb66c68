import numpy as np
import pytest

from lslimaging import Grid


def test_nodes_span_the_domain_exactly():
    g = Grid(L=2.5, n=11)
    assert g.nodes[0] == 0.0
    assert g.nodes[-1] == 2.5
    assert np.all(np.diff(g.nodes) > 0)
    assert g.h == pytest.approx(0.25)


def test_weights_are_trapezoid_and_sum_to_L():
    g = Grid(L=1.0, n=2001)
    assert g.weights[0] == pytest.approx(g.h / 2)
    assert g.weights[-1] == pytest.approx(g.h / 2)
    assert np.all(g.weights[1:-1] == g.h)
    assert np.sum(g.weights) == pytest.approx(1.0, rel=1e-14)


@pytest.mark.parametrize("L,n", [(1.0, 3), (0.1, 100), (7.0, 257)])
def test_weight_sum_across_sizes(L, n):
    g = Grid(L, n)
    assert np.sum(g.weights) == pytest.approx(L, rel=1e-13)


def test_inner_product_of_ones_is_L():
    g = Grid(L=3.0, n=301)
    ones = np.ones(g.n)
    assert g.inner(ones, ones) == pytest.approx(3.0, rel=1e-13)
    assert g.norm(ones) == pytest.approx(np.sqrt(3.0), rel=1e-13)


@pytest.mark.parametrize("L,n", [(0.0, 11), (-1.0, 11), (np.inf, 11), (1.0, 2), (1.0, 2.5), (1.0, np.inf),
                                 (1.0, np.nan)])
def test_invalid_arguments_rejected(L, n):
    with pytest.raises(ValueError, match="must be"):  # the module's message, not int()'s
        Grid(L, n)


def test_equality_by_parameters():
    assert Grid(1.0, 11) == Grid(1.0, 11)
    assert Grid(1.0, 11) != Grid(1.0, 12)


def test_hash_follows_equality():
    assert hash(Grid(1, 5)) == hash(Grid(1.0, 5))
    assert {Grid(1, 5): 0}[Grid(1.0, 5)] == 0
    assert len({Grid(1.0, 5), Grid(1.0, 6), Grid(2.0, 5)}) == 3
