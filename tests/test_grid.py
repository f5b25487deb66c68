import dataclasses
import re

import numpy as np
import pytest

from lslimaging import (DataSet, ExperimentConfig, GaussianPotential, Grid, LoewnerPencil, StepPotential,
                        ZeroPotential, approximate_resonances, lanczos, reconstruct, weyl_sample)

# one sample of a dataset, enough for the checks that run before any solve
SAMPLE = DataSet(L=1.0, samples=[(-6.0, 0.2, -0.1)])


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


@pytest.mark.parametrize("call", [
    lambda: Grid("2", 5),
    lambda: weyl_sample(1, 1, "2"),
    lambda: approximate_resonances(1, "2"),
    lambda: DataSet(L="2", samples=[(-6.0, 0.2, -0.1)]),
], ids=["Grid", "weyl_sample", "approximate_resonances", "DataSet"])
def test_a_domain_length_that_is_not_a_number_is_rejected(call):
    with pytest.raises(ValueError, match="^domain length must be a number, got '2'$"):
        call()


@pytest.mark.parametrize("call, message", [
    (lambda: ExperimentConfig(ZeroPotential(), n="401"), "node count must be a number, got '401'"),
    (lambda: ExperimentConfig(ZeroPotential(), N="3"), "interval count N must be a number, got '3'"),
    (lambda: ExperimentConfig(ZeroPotential(), f="4"), "points per interval f must be a number, got '4'"),
    (lambda: ExperimentConfig(ZeroPotential(), rel_threshold="0.5"), "rel_threshold must be a number, got '0.5'"),
    (lambda: ExperimentConfig(ZeroPotential(), truncation_tol="1e-8"), "truncation_tol must be a number, got '1e-8'"),
    (lambda: ExperimentConfig(ZeroPotential(), methods=5), "methods must be a sequence of method names, got 5"),
    (lambda: Grid(1.0, "401"), "node count must be a number, got '401'"),
    (lambda: weyl_sample("3", 2, 1.0), "interval count N must be a number, got '3'"),
    (lambda: approximate_resonances("3", 1.0), "resonance index N must be a number, got '3'"),
    (lambda: lanczos(LoewnerPencil(np.eye(1), np.eye(1), np.ones(1)), "1e-8"),
     "truncation_tol must be a number, got '1e-8'"),
    (lambda: reconstruct(SAMPLE, SAMPLE, "lsl", rel_threshold="1e-8"), "rel_threshold must be a number, got '1e-8'"),
    (lambda: GaussianPotential(5.0, 0.5, "0.1"), "width must be a number, got '0.1'"),
    # a bool is an int to Python, but not a count, length or parameter
    (lambda: weyl_sample(True, True, 1.0), "interval count N must be a number, got True"),
    (lambda: ExperimentConfig(ZeroPotential(), N=True, n=401), "interval count N must be a number, got True"),
    (lambda: Grid(True, 5), "domain length must be a number, got True"),
    (lambda: GaussianPotential(True, 0.5, 0.1), "amplitude must be a number, got True"),
    (lambda: StepPotential(((0.4, "0.6", True),)),
     "step piece must be three numbers (lo, hi, value), got (0.4, '0.6', True)"),
    (lambda: StepPotential(((0.4, 0.6, True),)),
     "step piece must be three numbers (lo, hi, value), got (0.4, 0.6, True)"),
], ids=["config-n", "config-N", "config-f", "config-rel_threshold", "config-truncation_tol", "config-methods",
        "Grid", "weyl_sample", "approximate_resonances", "lanczos", "reconstruct", "GaussianPotential",
        "bool-weyl_sample", "bool-config-N", "bool-Grid", "bool-GaussianPotential", "text-and-bool-StepPotential",
        "bool-StepPotential"])
def test_a_count_fraction_or_parameter_of_the_wrong_type_is_rejected_by_name(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):  # not a bare TypeError from the check
        call()


def test_equality_by_parameters():
    assert Grid(1.0, 11) == Grid(1.0, 11)
    assert Grid(1.0, 11) != Grid(1.0, 12)


def test_hash_follows_equality():
    assert hash(Grid(1, 5)) == hash(Grid(1.0, 5))
    assert {Grid(1, 5): 0}[Grid(1.0, 5)] == 0
    assert len({Grid(1.0, 5), Grid(1.0, 6), Grid(2.0, 5)}) == 3


def test_repr_names_the_parameters():
    assert repr(Grid(1, 5)) == "Grid(L=1.0, n=5)"


def test_a_grid_is_immutable():
    # it keys the kept background model and output columns, so a changed grid would hit a stale entry
    g = Grid(1.0, 11)
    for name, value in (("L", 2.0), ("n", 12), ("h", 0.5), ("nodes", np.zeros(11)), ("weights", np.zeros(11))):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(g, name, value)
    for a in (g.nodes, g.weights):
        with pytest.raises(ValueError, match="read-only"):
            a[1] = 0.0
    assert (g.L, g.n, g.h) == (1.0, 11, 0.1) and g.nodes[1] == 0.1 and g.weights[1] == 0.1
