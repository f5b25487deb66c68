"""Transfer data: measurement, the resolvent-identity derivative, file format."""
import math

import numpy as np
import pytest

import oracles
from lslimaging import (
    DataSet,
    GaussianPotential,
    Grid,
    ResonanceProximityError,
    Snapshot,
    SpectralSample,
    ZeroPotential,
    analytic_background_transfer,
    assemble_operator,
    generate_dataset,
    load_dataset,
    measure_transfer,
    operator_eigenvalues,
    save_dataset,
    solve_forward,
    transfer_derivative,
    weyl_sample,
)


@pytest.fixture(scope="module")
def g():
    return Grid(L=1.0, n=2001)


class TestMeasureTransfer:
    def test_equals_first_entry(self, g):
        snap = Snapshot(lam=-1.0, values=np.arange(g.n, dtype=float))
        assert measure_transfer(snap, g) == 0.0

    def test_background_value_at_positive_lambda(self, g):
        snap = solve_forward(ZeroPotential(), 1.0, g)
        expected = math.cosh(1.0) / math.sinh(1.0)
        assert measure_transfer(snap, g) == pytest.approx(expected, rel=1e-6)

    def test_background_value_near_transfer_zero(self, g):
        snap = solve_forward(ZeroPotential(), -((np.pi / 2) ** 2), g)
        assert measure_transfer(snap, g) == pytest.approx(0.0, abs=1e-6)

    def test_wrong_grid_rejected(self, g):
        snap = Snapshot(lam=-1.0, values=np.zeros(7))
        with pytest.raises(ValueError):
            measure_transfer(snap, g)


class TestTransferDerivative:
    def test_zero_field(self, g):
        assert transfer_derivative(Snapshot(lam=-1.0, values=np.zeros(g.n)), g) == 0.0

    def test_unit_field_gives_minus_L(self, g):
        value = transfer_derivative(Snapshot(lam=-1.0, values=np.ones(g.n)), g)
        assert value == pytest.approx(-1.0, rel=1e-13)

    def test_matches_finite_difference_of_analytic_transfer(self, g):
        # dF0/dlambda at lambda = 1 via the closed form
        snap = solve_forward(ZeroPotential(), 1.0, g)
        dF = transfer_derivative(snap, g)
        eps = 1e-6
        fd = oracles.centered_difference(
            lambda lam: analytic_background_transfer(lam, 1.0), 1.0, eps
        )
        assert abs(dF - fd) / abs(fd) < 1e-6

    def test_matches_finite_difference_of_discrete_transfer(self, g):
        # independent oracle: two extra forward solves in extended precision
        p = GaussianPotential(5.0, 0.5, 0.1)
        data = generate_dataset(p, weyl_sample(10, 3, 1.0).lambdas, g)
        for sample in data.samples:
            eps = 1e-6 * max(1.0, abs(sample.lam))
            fd = oracles.centered_difference(
                lambda lam: oracles.transfer_value_extended(p, lam, g), sample.lam, eps
            )
            assert abs(fd - sample.dF) / abs(sample.dF) < 1e-5, sample.lam


class TestGenerateDataset:
    def test_background_matches_analytic_to_grid_accuracy(self, g):
        lams = weyl_sample(3, 3, 1.0).lambdas
        data = generate_dataset(ZeroPotential(), lams, g)
        assert data.m == 9
        for sample in data.samples:
            exact = analytic_background_transfer(sample.lam, 1.0)
            # mixed tolerance: the f = 3 plans contain -pi^2/4, a zero of
            # the transfer function, where a relative test is meaningless
            assert abs(sample.F - exact) < 1e-4 * max(abs(exact), 1e-2)

    def test_derivatives_always_negative(self, g):
        for p in (ZeroPotential(), GaussianPotential(5.0, 0.5, 0.1)):
            data = generate_dataset(p, weyl_sample(5, 3, 1.0).lambdas, g)
            assert np.all(data.dF < 0.0)

    def test_sorts_sample_points(self, g):
        data = generate_dataset(ZeroPotential(), [-5.0, -20.0, -1.0], g)
        assert np.array_equal(data.lambdas, [-20.0, -5.0, -1.0])

    def test_empty_list_rejected(self, g):
        with pytest.raises(ValueError):
            generate_dataset(ZeroPotential(), [], g)

    def test_duplicates_rejected(self, g):
        with pytest.raises(ValueError):
            generate_dataset(ZeroPotential(), [-5.0, -5.0, -1.0], g)

    def test_label_defaults_to_potential_label(self, g):
        data = generate_dataset(ZeroPotential(), [-5.0], g)
        assert data.label == "zero"
        data = generate_dataset(ZeroPotential(), [-5.0], g, label="run-1")
        assert data.label == "run-1"

    def test_sample_on_resonance_is_named(self, g):
        on_resonance = -operator_eigenvalues(assemble_operator(ZeroPotential(), g), g)[2]
        with pytest.raises(ResonanceProximityError) as excinfo:
            generate_dataset(ZeroPotential(), [-60.0, on_resonance, -1.0], g)
        assert excinfo.value.lam == on_resonance


class TestValidation:
    def test_sample_requires_negative_derivative(self):
        with pytest.raises(ValueError):
            SpectralSample(lam=-1.0, F=0.5, dF=0.1)
        with pytest.raises(ValueError):
            SpectralSample(lam=-1.0, F=np.nan, dF=-0.1)

    def test_dataset_requires_sorted_distinct_points(self):
        s1 = SpectralSample(lam=-2.0, F=0.5, dF=-0.1)
        s2 = SpectralSample(lam=-1.0, F=0.4, dF=-0.2)
        DataSet(L=1.0, samples=(s1, s2))
        with pytest.raises(ValueError):
            DataSet(L=1.0, samples=(s2, s1))
        with pytest.raises(ValueError):
            DataSet(L=1.0, samples=(s1, s1))
        with pytest.raises(ValueError):
            DataSet(L=1.0, samples=())


class TestFileFormat:
    def test_roundtrip_is_exact_and_stable(self, g, tmp_path):
        data = generate_dataset(
            GaussianPotential(5.0, 0.5, 0.1), weyl_sample(2, 3, 1.0).lambdas, g,
            label="gaussian run with spaces",
        )
        path = tmp_path / "data.txt"
        save_dataset(data, path)
        loaded = load_dataset(path)
        assert loaded.L == data.L
        assert loaded.label == data.label
        assert np.array_equal(loaded.lambdas, data.lambdas)
        assert np.array_equal(loaded.F, data.F)
        assert np.array_equal(loaded.dF, data.dF)
        second = tmp_path / "data2.txt"
        save_dataset(loaded, second)
        assert path.read_bytes() == second.read_bytes()

    def test_header_format(self, g, tmp_path):
        data = generate_dataset(ZeroPotential(), [-5.0, -2.0], g)
        path = tmp_path / "data.txt"
        save_dataset(data, path)
        lines = path.read_text().splitlines()
        assert lines[0].startswith("# L=1 m=2 label=")
        assert len(lines) == 3
        assert len(lines[1].split()) == 3

    def test_malformed_files_rejected(self, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("-5.0 0.3 -0.1\n")
        with pytest.raises(ValueError):
            load_dataset(bad)
        bad.write_text("# L=1 m=3 label=x\n-5.0 0.3 -0.1\n")
        with pytest.raises(ValueError):
            load_dataset(bad)
