import numpy as np
import pytest

from lslimaging import (
    GaussianPotential,
    Grid,
    StepPotential,
    TabulatedPotential,
    ZeroPotential,
    assemble_operator,
)
from oracles import constant_potential


@pytest.fixture
def g():
    return Grid(L=1.0, n=101)


def test_zero_evaluates_to_zeros(g):
    assert np.all(ZeroPotential().evaluate(g) == 0.0)


def test_gaussian_peak_and_symmetry(g):
    p = GaussianPotential(amplitude=5.0, center=0.5, width=0.1)
    values = p.evaluate(g)
    mid = g.n // 2
    assert values[mid] == pytest.approx(5.0)
    assert values[mid - 10] == pytest.approx(values[mid + 10], rel=1e-12)
    assert np.all(np.isfinite(values))


def test_gaussian_invalid_width():
    with pytest.raises(ValueError):
        GaussianPotential(amplitude=1.0, center=0.5, width=0.0)
    with pytest.raises(ValueError):
        GaussianPotential(amplitude=np.nan, center=0.5, width=0.1)


def test_step_pieces_and_override(g):
    p = StepPotential(((0.2, 0.8, 1.0), (0.4, 0.6, 4.0)))
    values = p.evaluate(g)
    x = g.nodes
    assert np.all(values[(x >= 0.4) & (x <= 0.6)] == 4.0)
    assert np.all(values[(x >= 0.2) & (x < 0.4)] == 1.0)
    assert np.all(values[x < 0.2] == 0.0)


def test_step_validation():
    with pytest.raises(ValueError):
        StepPotential(((0.6, 0.4, 1.0),))
    with pytest.raises(ValueError):
        StepPotential(((0.0, np.inf, 1.0),))
    with pytest.raises(ValueError, match="step piece"):
        StepPotential(((0.1, 0.2),))


def test_constant_potential_covers_domain(g):
    p = constant_potential(2.0, 1.0)
    assert np.all(p.evaluate(g) == 2.0)


def test_tabulated_roundtrip_and_size_check(g):
    values = np.linspace(0, 1, g.n) ** 2
    p = TabulatedPotential(values)
    assert np.array_equal(p.evaluate(g), values)
    with pytest.raises(ValueError):
        p.evaluate(Grid(1.0, g.n + 1))


def test_nonfinite_tabulated_rejected_at_assembly(g):
    values = np.zeros(g.n)
    values[3] = np.nan
    with pytest.raises(ValueError):
        assemble_operator(TabulatedPotential(values), g)


def test_labels_are_deterministic():
    assert ZeroPotential().label == "zero"
    assert "gaussian" in GaussianPotential(5.0, 0.5, 0.1).label
    assert StepPotential(((0.4, 0.6, 4.0),)).label == StepPotential(((0.4, 0.6, 4.0),)).label
