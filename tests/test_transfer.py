"""Transfer data: measurement, the resolvent-identity derivative, file format."""
import codecs
import math
import os
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import oracles
import lslimaging
from lslimaging import (
    DataSet,
    GaussianPotential,
    Grid,
    ResonanceProximityError,
    Snapshot,
    SnapshotMatrix,
    SpectralSample,
    ZeroPotential,
    assemble_operator,
    compute_snapshot_matrix,
    generate_dataset,
    load_dataset,
    measure_dataset,
    operator_eigenvalues,
    save_dataset,
    solve_forward,
    weyl_sample,
)
from oracles import analytic_background_transfer, measure_transfer, transfer_derivative


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

    def test_wrong_grid_rejected(self, g):
        with pytest.raises(ValueError, match="snapshot is not defined on this grid"):
            transfer_derivative(Snapshot(lam=-1.0, values=np.zeros(7)), g)

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
        for sample in oracles.samples(data):
            eps = 1e-6 * max(1.0, abs(sample.lam))
            fd = oracles.centered_difference(
                lambda lam: oracles.transfer_value_extended(p, lam, g), sample.lam, eps
            )
            assert abs(fd - sample.dF) / abs(sample.dF) < 1e-5, sample.lam


class TestContinuumData:
    """oracles.continuum_dataset: the exact data of a piecewise-constant medium, with no grid."""

    LAMS = weyl_sample(10, 4, 1.0).lambdas

    def test_zero_medium_is_the_closed_form(self):
        data = oracles.continuum_dataset((), self.LAMS, 1.0)
        exact = np.array([analytic_background_transfer(lam, 1.0) for lam in self.LAMS])
        assert np.max(np.abs(data.F - exact) / np.abs(exact)) < 1e-15  # measured 3.1e-16
        fd = np.array([oracles.centered_difference(lambda x: analytic_background_transfer(x, 1.0), lam, 1e-6)
                       for lam in self.LAMS])
        assert np.max(np.abs(data.dF - fd) / np.abs(fd)) < 1e-6  # the difference's own error: measured 1.1e-7

    @staticmethod
    def _gaps(p, reference, nodes):
        """Each grid's max relative F and dF gap to the reference data, one row per n."""
        rows = []
        for n in nodes:
            data = generate_dataset(p, reference.lambdas, Grid(1.0, n))
            rows.append([np.max(np.abs(data.F - reference.F) / np.abs(reference.F)),
                         np.max(np.abs(data.dF - reference.dF) / np.abs(reference.dF))])
        return np.array(rows)

    def test_step_preset_grid_data_converges_at_first_order(self, step_preset):
        # StepPotential gives both jump nodes the piece's full value, an O(h) error in the
        # medium, so the grid data gains one digit per tenfold refinement
        exact = oracles.continuum_dataset(step_preset.pieces, self.LAMS, 1.0)
        gaps = self._gaps(step_preset, exact, (501, 1001, 2001, 4001))
        # measured: F 0.0150, 6.06e-3, 3.03e-3, 1.51e-3; dF 0.0142, 6.22e-3, 3.10e-3, 1.55e-3
        assert np.all(gaps < 1.1 * np.array([[0.0150, 0.0142], [6.06e-3, 6.22e-3], [3.03e-3, 3.10e-3],
                                             [1.51e-3, 1.55e-3]]))
        order = np.log2(gaps[1] / gaps[3]) / 2  # two halvings of h from n = 1001
        assert np.all(order > 0.95), order

    def test_gaussian_staircase_grid_data_converges_at_first_order(self, staircase):
        # 500 small jumps, each node on one taking the later piece's value: F gains one
        # binary digit per halving of h, dF (a norm of u) more
        exact = oracles.continuum_dataset(staircase.pieces, self.LAMS, 1.0)
        gaps = self._gaps(staircase, exact, (1001, 2001, 4001, 8001))
        # measured: F 6.62e-3, 3.31e-3, 1.66e-3, 8.28e-4; dF 3.65e-3, 9.11e-4, 2.28e-4, 7.95e-5
        assert np.all(gaps < 1.1 * np.array([[6.62e-3, 3.65e-3], [3.31e-3, 9.11e-4], [1.66e-3, 2.28e-4],
                                             [8.28e-4, 7.95e-5]]))
        order = np.log2(gaps[1] / gaps[3]) / 2  # two halvings of h from n = 2001
        assert np.all(order > 0.95), order

    def test_staircase_is_the_gaussian_preset_at_piece_midpoints(self, staircase):
        assert len(staircase.pieces) == 500
        lo, hi, values = np.array(staircase.pieces).T
        assert lo[0] == 0.0 and hi[-1] == 1.0 and np.array_equal(lo[1:], hi[:-1])
        mids = Grid(1.0, 1001).nodes[1::2]
        np.testing.assert_allclose(0.5 * (lo + hi), mids, rtol=0, atol=1e-15)
        assert np.array_equal(values, 5.0 * np.exp(-((mids - 0.5) ** 2) / (2.0 * 0.1**2)))

    @pytest.mark.parametrize("name, measured", [("gaussian", (8.96e-4, 8.54e-4)), ("step", (2.27e-3, 2.33e-3))])
    def test_fine_data_carry_the_imaging_grids_discretization_error(self, grid, fine_data, test_potentials,
                                                                    name, measured):
        # n = 8001 data imaged on n = 2001 are off the imaging grid's model by about
        # its discretization error: second order for the gaussian, first for the step
        fine = fine_data[name]
        assert np.array_equal(fine.lambdas, self.LAMS)
        gaps = self._gaps(test_potentials[name], fine, (grid.n,))[0]
        assert gaps == pytest.approx(measured, rel=0.05)


class TestGenerateDataset:
    def test_background_matches_analytic_to_grid_accuracy(self, g):
        lams = weyl_sample(3, 3, 1.0).lambdas
        data = generate_dataset(ZeroPotential(), lams, g)
        assert data.m == 9
        for sample in oracles.samples(data):
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

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_sample_points_rejected(self, g, bad):
        with pytest.raises(ValueError, match=f"finite, got \\[{bad}\\]"):
            compute_snapshot_matrix(ZeroPotential(), [bad, -5.0], g)

    def test_matches_the_per_snapshot_measurements(self, g):
        # reference: one Snapshot and one measure_transfer/transfer_derivative per column
        V = compute_snapshot_matrix(GaussianPotential(5.0, 0.5, 0.1), weyl_sample(10, 4, 1.0).lambdas, g)
        data = measure_dataset(V, "gaussian")
        snaps = [Snapshot(lam=lam, values=V.V[:, j]) for j, lam in enumerate(V.lambdas)]
        assert np.array_equal(data.lambdas, V.lambdas)
        assert np.array_equal(data.F, [measure_transfer(s, g) for s in snaps])
        assert np.array_equal(data.dF, [transfer_derivative(s, g) for s in snaps])

    def test_equals_a_measurement_of_the_snapshot_matrix(self, g):
        p, lams = GaussianPotential(5.0, 0.5, 0.1), weyl_sample(10, 4, 1.0).lambdas
        data, V = generate_dataset(p, lams, g), compute_snapshot_matrix(p, lams, g)
        assert V.V.flags.f_contiguous
        # the background model measures a C-ordered copy: the same bits
        for layout in (V, replace(V, V=np.ascontiguousarray(V.V))):
            reference = measure_dataset(layout, "gaussian")
            for name in ("lambdas", "F", "dF"):
                assert np.array_equal(getattr(data, name), getattr(reference, name))

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


@st.composite
def snapshot_matrices(draw):
    """A SnapshotMatrix of random finite columns: n from 3 past numpy's 8,192-element
    buffer to 20,001, m from 1 to 32, increasing distinct sample points."""
    n, m = draw(st.integers(3, 20001)), draw(st.integers(1, 32))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = 10.0 ** rng.uniform(-100.0, 100.0, m)  # nonzero columns whose weighted squares stay finite
    V = rng.standard_normal((n, m)) * scale
    lams = np.cumsum(rng.uniform(0.01, 10.0, m)) - 100.0
    return SnapshotMatrix(V=np.asfortranarray(V), grid=Grid(L=draw(st.floats(0.1, 10.0)), n=n), lambdas=lams)


@settings(max_examples=20, derandomize=True, database=None, deadline=None)
@given(snapshot_matrices())
@example(V=SnapshotMatrix(V=np.asfortranarray(np.arange(1.0, 2 * 8193 + 1).reshape(8193, 2)),
                          grid=Grid(L=1.0, n=8193), lambdas=np.array([-2.0, -1.0])))
def test_measurement_is_the_per_column_oracle(V):
    # bitwise, for a Fortran-ordered and a C-ordered copy of the same V
    for layout in (V, replace(V, V=np.ascontiguousarray(V.V))):
        data = measure_dataset(layout, "drawn")
        snaps = [Snapshot(lam=lam, values=layout.V[:, j]) for j, lam in enumerate(V.lambdas)]
        assert np.array_equal(data.lambdas, V.lambdas)
        assert np.array_equal(data.F, [measure_transfer(s, V.grid) for s in snaps])
        assert np.array_equal(data.dF, [transfer_derivative(s, V.grid) for s in snaps])


class TestAddNoise:
    """oracles.add_noise: seeded multiplicative noise on F and dF, for the robustness harness."""

    LAMS = weyl_sample(10, 4, 1.0).lambdas

    @pytest.fixture(scope="class")
    def datasets(self, grid, gaussian_preset, step_preset):
        media = {"gaussian": gaussian_preset, "step": step_preset}
        return {name: generate_dataset(p, self.LAMS, grid) for name, p in media.items()}

    @staticmethod
    def _columns(data):
        return np.column_stack((data.lambdas, data.F, data.dF))

    def test_same_seed_same_bits_other_seed_differs(self, datasets):
        data = datasets["gaussian"]
        first, again, other = (oracles.add_noise(data, 1e-6, seed) for seed in (1, 1, 2))
        assert np.array_equal(self._columns(first), self._columns(again))
        assert (first.L, first.label) == (data.L, data.label)
        assert not np.array_equal(first.F, other.F) and not np.array_equal(first.dF, other.dF)
        assert np.array_equal(first.lambdas, data.lambdas)

    def test_level_zero_returns_the_input_bytes(self, datasets):
        for data in datasets.values():
            assert self._columns(oracles.add_noise(data, 0.0, 3)).tobytes() == self._columns(data).tobytes()

    @pytest.mark.parametrize("level", [1e-8, 1e-6, 1e-4])
    def test_derivative_stays_negative(self, datasets, level):
        for data in datasets.values():
            for seed in range(1, 6):
                assert np.all(oracles.add_noise(data, level, seed).dF < 0.0)


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

    def test_infinite_domain_length_named_as_the_grid_names_it(self):
        with pytest.raises(ValueError, match=r"^domain length must be positive and finite, got inf$"):
            DataSet(L=np.inf, samples=[(-1.0, 0.5, -0.1)])


finite = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def dataset_rows(draw):
    """m x 3 rows (lam, F, dF) of a valid dataset: lam increasing, every entry finite, dF < 0."""
    lams = sorted(draw(st.lists(finite, min_size=1, max_size=12, unique=True)))
    F = draw(st.lists(finite, min_size=len(lams), max_size=len(lams)))
    dF = draw(st.lists(st.floats(max_value=0.0, exclude_max=True, allow_infinity=False),
                       min_size=len(lams), max_size=len(lams)))
    return np.column_stack((lams, F, dF))


ROW_SETTINGS = settings(max_examples=50, derandomize=True, database=None, deadline=None)


def _first_fault_one_row_at_a_time(rows):
    """Reference: the message of the first faulty row, fields in order, then the order check."""
    for lam, F, dF in rows.tolist():
        for name, v in (("lam", lam), ("F", F), ("dF", dF)):
            if not math.isfinite(v):
                return f"sample field {name} must be finite, got {v}"
        if dF >= 0.0:
            return f"dF must be negative, got {dF} at lam={lam}"
    return "sample points must be strictly increasing and distinct"


def _raised(build):
    with pytest.raises(ValueError) as excinfo:
        build()
    return str(excinfo.value)


class TestDataSetRows:
    @ROW_SETTINGS
    @given(dataset_rows())
    def test_records_and_array_give_the_same_dataset(self, rows):
        records = [SpectralSample(*row) for row in rows.tolist()]
        from_records = DataSet(L=1.0, samples=records, label="r")
        from_array = DataSet(L=1.0, samples=rows, label="r")
        for name in ("lambdas", "F", "dF"):
            assert np.array_equal(getattr(from_records, name), getattr(from_array, name))
            assert np.array_equal(getattr(from_array, name), rows[:, ("lambdas", "F", "dF").index(name)])
        assert oracles.samples(from_records) == oracles.samples(from_array) == tuple(records)
        assert from_array.m == rows.shape[0]

    @ROW_SETTINGS
    @given(dataset_rows(), st.data())
    def test_both_routes_reject_a_bad_row_alike(self, rows, data):
        if rows.shape[0] == 1:
            rows = np.vstack((rows, rows - [0.0, 0.0, 1.0]))
            rows[1, 0] = np.nextafter(rows[0, 0], np.inf)
        for _ in range(data.draw(st.integers(1, 3))):
            i = data.draw(st.integers(0, rows.shape[0] - 1))
            fault = data.draw(st.sampled_from(["nan", "inf", "dF", "order"]))
            if fault in ("nan", "inf"):
                rows[i, data.draw(st.integers(0, 2))] = np.nan if fault == "nan" else -np.inf
            elif fault == "dF":
                rows[i, 2] = data.draw(st.floats(min_value=0.0, allow_infinity=False))
            else:
                rows[i, 0] = rows[i - 1, 0]
        array_message = _raised(lambda: DataSet(L=1.0, samples=rows))
        record_message = _raised(lambda: DataSet(L=1.0, samples=[SpectralSample(*r) for r in rows.tolist()]))
        assert array_message == record_message == _first_fault_one_row_at_a_time(rows)

    @ROW_SETTINGS
    @given(dataset_rows(), st.floats(min_value=1e-300, max_value=1e300),
           st.text(st.characters(codec="ascii", categories=("L", "N", "P", "S", "Zs"))))
    @example(rows=np.array([[-1.0, 0.3, -0.1]]), L=1.0, label=" a b ")
    def test_save_load_save_is_byte_identical(self, tmp_path_factory, rows, L, label):
        tmp_path = tmp_path_factory.mktemp("roundtrip")
        first, second = tmp_path / "first.txt", tmp_path / "second.txt"
        save_dataset(DataSet(L=L, samples=rows, label=label), first)
        loaded = load_dataset(first)
        save_dataset(loaded, second)
        assert first.read_bytes() == second.read_bytes()
        assert loaded.L == L and loaded.label == label
        assert np.array_equal(np.column_stack((loaded.lambdas, loaded.F, loaded.dF)), rows)

    def test_columns_are_stored_and_read_only(self, g):
        data = generate_dataset(ZeroPotential(), [-5.0, -2.0], g)
        for name in ("lambdas", "F", "dF"):
            column = getattr(data, name)
            assert column is getattr(data, name)
            with pytest.raises(ValueError, match="read-only"):
                column[0] = 1.0

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_array_rows_are_copied(self, order):
        rows = np.array([[-2.0, 0.5, -0.1], [-1.0, 0.4, -0.2]], order=order)
        data = DataSet(L=1.0, samples=rows)
        rows[0, 1] = 7.0
        assert data.F[0] == 0.5

    def test_rows_must_have_three_columns(self):
        with pytest.raises(ValueError, match=r"rows \(lam, F, dF\), got shape \(2, 2\)"):
            DataSet(L=1.0, samples=np.ones((2, 2)))

    def test_measure_and_load_build_no_records(self, g, tmp_path, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a SpectralSample was built")

        path = tmp_path / "data.txt"
        save_dataset(generate_dataset(ZeroPotential(), [-5.0, -2.0], g), path)
        monkeypatch.setattr(SpectralSample, "__new__", refuse)
        monkeypatch.setattr(SpectralSample, "_make", refuse)
        V = compute_snapshot_matrix(ZeroPotential(), [-5.0, -2.0], g)
        assert measure_dataset(V, "bg").m == 2
        assert load_dataset(path).m == 2


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
        save_dataset(DataSet(L=1 / 3, samples=[(-6.0, 0.2, -0.1)]), path)
        assert path.read_text().startswith("# L=0.33333333333333331 m=1 label=\n")  # '%.17g', as every number

    def test_malformed_files_rejected(self, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("-5.0 0.3 -0.1\n")
        with pytest.raises(ValueError):
            load_dataset(bad)
        bad.write_text("# L=1 m=3 label=x\n-5.0 0.3 -0.1\n")
        with pytest.raises(ValueError):
            load_dataset(bad)

    def test_file_that_is_not_utf8_names_file_and_byte_offset(self, tmp_path):
        bad = tmp_path / "bad.txt"
        head = b"# L=1 m=2 label=x\n-6.0 0.2 -0.1\n"
        bad.write_bytes(head + b"\xff\xfe\n-5.0 0.3 -0.1\n")
        with pytest.raises(ValueError, match=f"^{re.escape(str(bad))}: byte offset {len(head)}: ") as excinfo:
            load_dataset(bad)
        assert not isinstance(excinfo.value, UnicodeError)

    def test_file_with_a_byte_order_mark_loads_as_the_plain_file(self, g, tmp_path):
        plain, bom = tmp_path / "plain.txt", tmp_path / "bom.txt"
        save_dataset(generate_dataset(ZeroPotential(), [-5.0, -2.0], g, label="zero"), plain)
        bom.write_bytes(codecs.BOM_UTF8 + plain.read_bytes())
        a, b = load_dataset(plain), load_dataset(bom)
        assert (a.L, a.label) == (b.L, b.label)
        for name in ("lambdas", "F", "dF"):
            assert np.array_equal(getattr(a, name), getattr(b, name))

    def test_files_are_utf8_whatever_the_locale(self, tmp_path):
        # written as under a UTF-8 locale, read and rewritten by an interpreter whose locale is ASCII
        text = "# L=1 m=1 label=\u00b5-medium\n-1 0.29999999999999999 -0.10000000000000001\n"
        good, bad, copy = tmp_path / "mu.txt", tmp_path / "ff.txt", tmp_path / "copy.txt"
        good.write_bytes(text.encode("utf-8"))
        bad.write_bytes(b"# L=1 m=1 label=\xff\n-1 0.3 -0.1\n")
        code = (
            "import locale, sys\n"
            "from lslimaging import load_dataset, save_dataset\n"
            "assert locale.getpreferredencoding(False).lower() not in ('utf-8', 'utf8')\n"
            f"data = load_dataset({str(good)!r})\n"
            "assert data.label == '\\u00b5-medium', data.label\n"
            f"save_dataset(data, {str(copy)!r})\n"
            "try:\n"
            f"    load_dataset({str(bad)!r})\n"
            "except ValueError as exc:\n"
            "    assert 'byte offset 16: not utf-8 text' in str(exc), exc\n"
            "else:\n"
            "    sys.exit('the non-UTF-8 file loaded')\n"
        )
        src = Path(lslimaging.__file__).resolve().parents[1]
        env = dict(os.environ, LC_ALL="C", PYTHONCOERCECLOCALE="0", PYTHONUTF8="0", PYTHONPATH=str(src))
        result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
        assert result.returncode == 0, result.stderr
        assert copy.read_bytes() == good.read_bytes()

    @pytest.mark.parametrize("label", ["a\nb", "a\rb", "a\r\nb", "a\x0bb", "a\x0cb", "a\x1cb", "a\x1eb",
                                       "a\x85b", "a\u2028b", "a\u2029b", "a\n"])
    def test_label_with_a_line_break_rejected(self, label):
        with pytest.raises(ValueError, match=f"label must be one line of text, got {re.escape(repr(label))}"):
            DataSet(L=1.0, samples=[[-1.0, 0.3, -0.1]], label=label)
        with pytest.raises(ValueError, match="label must be one line"):
            generate_dataset(ZeroPotential(), [-5.0], Grid(1.0, 11), label=label)

    @pytest.mark.parametrize("label", [None, 5, b"a"])
    def test_label_must_be_text(self, label):
        with pytest.raises(ValueError, match=f"label must be one line of text, got {re.escape(repr(label))}"):
            DataSet(L=1.0, samples=[[-1.0, 0.3, -0.1]], label=label)

    @pytest.mark.parametrize("row", ["-5.0 0.3", "-5.0 0.3 -0.1 2.0"])
    def test_row_without_three_numbers_names_file_and_line(self, tmp_path, row):
        bad = tmp_path / "bad.txt"
        bad.write_text(f"# L=1 m=2 label=x\n-6.0 0.2 -0.1\n\n{row}\n")
        with pytest.raises(ValueError, match=f"bad.txt: line 4: expected 3 numbers 'lambda F dF', got '{row}'"):
            load_dataset(bad)

    @pytest.mark.parametrize("header, message", [
        ("# L=1 m=1 bogus label=x", "header token 'bogus' is not key=value"),
        ("# L=1 L=2 m=1 label=a", "header key 'L' is repeated"),
        ("# L=1 m=one label=x", "header token 'm=one' is not an integer"),
        ("# L=1.0 m=1.0 label=x", "header token 'm=1.0' is not an integer"),
        ("# L=wide m=1 label=x", "header token 'L=wide' is not a number"),
        ("# L=1 m=1", "malformed header 'L=1 m=1'"),
        ("# m=1 L=1 label=x", "malformed header 'm=1 L=1 label=x'"),
    ])
    def test_malformed_header_token_names_file_and_token(self, tmp_path, header, message):
        bad = tmp_path / "bad.txt"
        bad.write_text(f"{header}\n-6.0 0.2 -0.1\n")
        with pytest.raises(ValueError, match=f"^{re.escape(str(bad))}: {re.escape(message)}$"):
            load_dataset(bad)

    @pytest.mark.parametrize("header, rows, message", [
        ("L=1 m=2", "-6.0 0.2 -0.1\n-5.0 abc -0.1", "line 3: could not convert string to float: 'abc'"),
        ("L=1 m=2", "-6.0 0.2 -0.1\n\n-5.0 0.3 0.0", "line 4: dF must be negative, got 0.0 at lam=-5.0"),
        ("L=1 m=2", "-6.0 0.2 0.5\n-5.0 0.3 -0.1", "line 2: dF must be negative, got 0.5 at lam=-6.0"),
        ("L=1 m=3", "-6.0 0.2 -0.1\n-5.0 0.3 -0.1\n-5.0 0.4 -0.2",
         "line 4: sample points must be strictly increasing and distinct"),
        ("L=nan m=1", "-6.0 0.2 -0.1", "domain length must be positive and finite, got nan"),
        ("L=inf m=1", "-6.0 0.2 -0.1", "domain length must be positive and finite, got inf"),
    ], ids=["non-numeric", "dF-zero", "dF-positive-first-row", "lambda-repeated", "L-nan", "L-inf"])
    def test_malformed_value_names_file_and_line(self, tmp_path, header, rows, message):
        bad = tmp_path / "bad.txt"
        bad.write_text(f"# {header} label=x\n{rows}\n")
        with pytest.raises(ValueError, match=f"^{re.escape(str(bad))}: {re.escape(message)}$"):
            load_dataset(bad)
