"""The background model cached per sampling plan: reuse, keying and bitwise equality with cold runs."""
import hashlib
import sys
from dataclasses import replace

import numpy as np
import pytest

import lslimaging.experiment
import lslimaging.forward
import lslimaging.imaging
import lslimaging.rom
from lslimaging import (
    DataSet,
    Grid,
    SampleAlignmentError,
    ZeroPotential,
    background_rom,
    generate_dataset,
    preset_config,
    preset_potential,
    reconstruct,
    run_experiment,
    solve_forward,
    weyl_sample,
)
from lslimaging.experiment import _background_columns, default_internal_lambda
from lslimaging.transfer import _FMT, measure_dataset

FAST = dict(n=401, N=3, f=3)
GRID = Grid(1.0, FAST["n"])
PLAN = weyl_sample(FAST["N"], FAST["f"], 1.0)


def digests(paths):
    return {name: hashlib.sha256(path.read_bytes()).hexdigest() for name, path in paths.items()}


def clear_caches():
    """Drop the kept background model and output columns, so the next run is cold."""
    lslimaging.imaging._BACKGROUND.clear()
    lslimaging.experiment._background_columns.cache_clear()


def cached_model():
    (model,) = lslimaging.imaging._BACKGROUND.values()
    return model


def cold_datasets(kind):
    data = generate_dataset(preset_potential(kind), PLAN.lambdas, GRID)
    data0 = generate_dataset(ZeroPotential(), PLAN.lambdas, GRID)
    return data, data0


def assert_same_result(a, b):
    assert np.array_equal(a.p_est, b.p_est)
    assert np.array_equal(a.singular_values, b.singular_values)
    assert (a.residual_norm, a.rank) == (b.residual_norm, b.rank)


@pytest.mark.parametrize("first, second", [("gaussian", "step"), ("step", "gaussian")])
def test_warm_run_writes_the_bytes_of_a_cold_run(tmp_path, first, second):
    run_experiment(preset_config(first, outdir=tmp_path / "first", **FAST))
    warm = digests(run_experiment(preset_config(second, outdir=tmp_path / "warm", **FAST)))
    clear_caches()
    cold = digests(run_experiment(preset_config(second, outdir=tmp_path / "cold", **FAST)))
    assert warm == cold


@pytest.mark.parametrize("first, second", [(None, -30.0), (-30.0, None)])
def test_warm_run_with_another_internal_lambda_writes_the_bytes_of_a_cold_run(tmp_path, first, second):
    run_experiment(preset_config("gaussian", outdir=tmp_path / "first", internal_lambda=first, **FAST))
    config = preset_config("step", outdir=tmp_path / "warm", internal_lambda=second, **FAST)
    warm = digests(run_experiment(config))
    clear_caches()
    cold = digests(run_experiment(replace(config, outdir=tmp_path / "cold")))
    assert warm == cold


# the second case keeps internal_lambda and changes L only, so a field kept without L in its key shows
@pytest.mark.parametrize("first, second", [
    pytest.param({}, {"n": 201}, id="another-n"),
    pytest.param({"internal_lambda": -30.0}, {"L": 2.0, "internal_lambda": -30.0}, id="another-L"),
])
def test_warm_run_on_another_grid_writes_the_bytes_of_a_cold_run(tmp_path, first, second):
    run_experiment(preset_config("gaussian", outdir=tmp_path / "first", **FAST, **first))
    config = preset_config("step", outdir=tmp_path / "warm", **{**FAST, **second})
    warm = digests(run_experiment(config))
    clear_caches()
    cold = digests(run_experiment(replace(config, outdir=tmp_path / "cold")))
    assert warm == cold


def test_kept_text_is_the_format_of_the_kept_arrays(tmp_path):
    run_experiment(preset_config("gaussian", outdir=tmp_path, **FAST))
    lam = default_internal_lambda(PLAN.lambdas)
    nodes_text, u, text = _background_columns(GRID, lam)
    assert _background_columns(GRID, lam)[2] is text  # the field at the last lam is kept
    assert np.array_equal(u, solve_forward(ZeroPotential(), lam, GRID).values)
    assert text == tuple(_FMT % v for v in u.tolist())
    assert nodes_text == tuple(_FMT % v for v in GRID.nodes.tolist())
    _, other, other_text = _background_columns(GRID, -30.0)  # a new lam replaces it
    assert other_text == tuple(_FMT % v for v in other.tolist())
    _, again, again_text = _background_columns(GRID, lam)
    assert again_text is not text and again_text == text and np.array_equal(again, u)


def test_equal_grids_share_the_kept_columns():
    lam = default_internal_lambda(PLAN.lambdas)
    kept = _background_columns(Grid(1.0, FAST["n"]), lam)
    assert _background_columns(Grid(1, FAST["n"]), lam) is kept


@pytest.mark.parametrize("method", ["born", "lsl"])
def test_warm_reconstruct_equals_a_cold_one(method):
    data, data0 = cold_datasets("gaussian")
    cold = reconstruct(data, data0, method, grid=GRID)
    warm = reconstruct(data, data0, method, grid=GRID)
    assert_same_result(warm, cold)


def test_changed_background_data_is_not_matched_to_the_cached_factors():
    data, data0 = cold_datasets("gaussian")
    cached = reconstruct(data, data0, "lsl", grid=GRID).factors[0]
    rows = np.column_stack((data0.lambdas, data0.F, data0.dF))
    rows[4, 1] = np.nextafter(rows[4, 1], np.inf)
    changed = DataSet(data0.L, rows, label=data0.label)

    warm = reconstruct(data, changed, "lsl", grid=GRID)
    assert warm.factors[0] is not cached
    lslimaging.imaging._BACKGROUND.clear()
    cold = reconstruct(data, changed, "lsl", grid=GRID)
    assert_same_result(warm, cold)
    for a, b in zip(warm.factors, cold.factors):
        assert np.array_equal(a.T, b.T) and np.array_equal(a.Q, b.Q)


def test_every_cached_array_is_read_only(tmp_path):
    run_experiment(preset_config("gaussian", outdir=tmp_path, **FAST))
    _, factors = background_rom(cached_model().data0, GRID, truncation_tol=1e-10)
    model = cached_model()
    assert "born" in vars(model)  # kept by run_experiment's Born reconstruct
    _, field, _ = _background_columns(GRID, default_internal_lambda(PLAN.lambdas))
    arrays = [model.V0.V, model.V0.lambdas, model.data0.lambdas, model.data0.F, model.data0.dF,
              factors.T, factors.Q, *model.born, field]
    for a in arrays:
        assert not a.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            a[(0,) * a.ndim] = 1.0


@pytest.mark.parametrize("L, n, N, f", [(1.0, 401, 3, 3), (1.0, 2001, 10, 4), (2.0, 51, 3, 1)])
def test_kept_data0_is_the_measurement_of_the_kept_v0(L, n, N, f):
    # data0 is measured from the column-major sweep, V0 is its C-order copy
    model = lslimaging.imaging._background(Grid(L, n), weyl_sample(N, f, L).lambdas)
    assert model.V0.V.flags.c_contiguous
    measured = measure_dataset(model.V0, label="")
    for name in ("lambdas", "F", "dF"):
        assert getattr(model.data0, name).tobytes() == getattr(measured, name).tobytes()


def test_one_plan_is_kept():
    data, data0 = cold_datasets("gaussian")
    reconstruct(data, data0, "born", grid=GRID)
    other = weyl_sample(2, 2, 1.0)
    reconstruct(*(generate_dataset(p, other.lambdas, GRID) for p in (preset_potential("step"), ZeroPotential())),
                "born", grid=GRID)
    assert np.array_equal(cached_model().V0.lambdas, other.lambdas)
    # the key is the grid too: the same plan on another grid is another model
    reconstruct(*cold_datasets("gaussian"), "born", grid=GRID)
    first = cached_model()
    grid = Grid(1.0, 201)
    reconstruct(*(generate_dataset(p, PLAN.lambdas, grid) for p in (preset_potential("step"), ZeroPotential())),
                "born", grid=grid)
    assert cached_model() is not first and cached_model().V0.grid == grid


def test_warm_experiment_solves_only_the_true_medium(tmp_path, monkeypatch):
    run_experiment(preset_config("step", outdir=tmp_path / "cold", **FAST))
    solves, lanczos_calls, factor_calls = [], [], []
    resolvent_apply, lanczos = lslimaging.forward.resolvent_apply, lslimaging.rom.lanczos
    factor = lslimaging.imaging._factor

    def counting_solve(*args, **kwargs):
        solves.append(args[2])
        return resolvent_apply(*args, **kwargs)

    def counting_lanczos(*args, **kwargs):
        lanczos_calls.append(args)
        return lanczos(*args, **kwargs)

    def counting_factor(A):
        factor_calls.append(A.shape)
        return factor(A)

    monkeypatch.setattr(lslimaging.forward, "resolvent_apply", counting_solve)
    monkeypatch.setattr(lslimaging.imaging, "_factor", counting_factor)
    for name, module in list(sys.modules.items()):
        if name.startswith("lslimaging.") and getattr(module, "lanczos", None) is lanczos:
            monkeypatch.setattr(module, "lanczos", counting_lanczos)
    run_experiment(preset_config("gaussian", outdir=tmp_path / "warm", **FAST))
    assert len(solves) == FAST["N"] * FAST["f"] + 1
    assert len(lanczos_calls) == 1
    assert len(factor_calls) == 1  # the LSL system's; the Born factorization is the kept one


def test_one_factorization_is_kept():
    _, data0 = cold_datasets("gaussian")
    first = background_rom(data0, GRID)[1]
    assert background_rom(data0, GRID)[1] is first  # a repeated key returns the same object
    other = background_rom(data0, GRID, 1e-10)[1]
    assert other is not first and background_rom(data0, GRID, 1e-10)[1] is other  # a new key replaces it
    again = background_rom(data0, GRID)[1]
    assert again is not first  # so going back recomputes, bit for bit
    assert np.array_equal(again.T, first.T) and np.array_equal(again.Q, first.Q)


def test_background_rom_rejects_data_of_another_length():
    data0 = generate_dataset(ZeroPotential(), weyl_sample(2, 2, 2.0).lambdas, Grid(2.0, 101))
    with pytest.raises(SampleAlignmentError):
        background_rom(data0, GRID)


@pytest.mark.parametrize("call", ["reconstruct", "background_rom"])
def test_misaligned_call_neither_sweeps_nor_replaces_the_kept_plan(call, monkeypatch):
    data, data0 = cold_datasets("gaussian")
    reconstruct(data, data0, "born", grid=GRID)
    kept = cached_model()
    other = generate_dataset(ZeroPotential(), weyl_sample(2, 2, 2.0).lambdas, Grid(2.0, 101))
    solves = []
    resolvent_apply = lslimaging.forward.resolvent_apply

    def counting_solve(*args, **kwargs):
        solves.append(args[2])
        return resolvent_apply(*args, **kwargs)

    monkeypatch.setattr(lslimaging.forward, "resolvent_apply", counting_solve)
    with pytest.raises(SampleAlignmentError):
        if call == "reconstruct":
            reconstruct(data, other, "lsl", grid=GRID)
        else:
            background_rom(other, GRID)
    assert solves == []
    assert cached_model() is kept
