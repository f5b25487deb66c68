"""The pipeline's dense algebra runs on one OpenBLAS thread, whatever count the caller set.

At m = 160 OpenBLAS threads the Lanczos products, the LSL fields, the blocked QR and
the SVD, and a second thread changes the roundoff of all but the LSL fields; inside the
limit the bits are the same at every count, and the caller's count comes back afterwards.
"""
import threading
from types import SimpleNamespace

import numpy as np
import pytest

import lslimaging.experiment
import lslimaging.imaging
from lslimaging import (
    Grid,
    ZeroPotential,
    assemble_system,
    background_rom,
    build_loewner,
    compute_snapshot_matrix,
    generate_dataset,
    lanczos,
    lsl_fields,
    lsl_internal,
    preset_config,
    reconstruct,
    run_experiment,
    solve_regularized,
    weyl_sample,
)
from lslimaging._lapack import one_blas_thread

get_num_threads, set_num_threads = one_blas_thread.get, one_blas_thread.set

# the step preset at m = N f = 160, where OpenBLAS runs these steps on more than one thread
N, F = 40, 4


@pytest.fixture
def counts():
    """Set the caller's count to each of 1 and 2 in turn; restores the count the test found.

    Skips when OpenBLAS caps the count at 1, as on a one-core machine."""
    before = get_num_threads()
    set_num_threads(2)
    capped = get_num_threads() != 2
    set_num_threads(before)
    if capped:
        pytest.skip("OpenBLAS caps the thread count at 1")

    def each():
        for n in (1, 2):
            set_num_threads(n)
            lslimaging.imaging._BACKGROUND.clear()
            lslimaging.experiment._background_columns.cache_clear()
            yield n

    yield each
    set_num_threads(before)


@pytest.fixture(scope="module")
def step_m160(step_preset):
    grid = Grid(1.0, 2001)
    lams = weyl_sample(N, F, 1.0).lambdas
    data, data0 = generate_dataset(step_preset, lams, grid), generate_dataset(ZeroPotential(), lams, grid)
    V0 = compute_snapshot_matrix(ZeroPotential(), lams, grid)
    factors = (lanczos(build_loewner(data0)), lanczos(build_loewner(data)))
    system = assemble_system(data, data0, V0, lsl_fields(V0, *factors, lams))
    return SimpleNamespace(grid=grid, data=data, data0=data0, V0=V0, factors=factors, system=system)


def _arrays(value):
    """The arrays a result is made of, in a fixed order."""
    if isinstance(value, np.ndarray):
        return [value]
    if isinstance(value, tuple):
        return [a for v in value for a in _arrays(v)]
    return [getattr(value, f) for f in ("p_est", "singular_values", "T", "Q", "values", "V") if hasattr(value, f)]


# each public function under the limit, on fixed inputs
CALLS = {
    "lanczos": lambda s: lanczos(build_loewner(s.data)),
    "lsl_fields": lambda s: lsl_fields(s.V0, *s.factors, s.data.lambdas),
    "lsl_internal": lambda s: lsl_internal(s.V0, *s.factors, -30.0),
    "solve_regularized": lambda s: solve_regularized(s.system),
    "reconstruct-born": lambda s: reconstruct(s.data, s.data0, "born", grid=s.grid),
    "reconstruct-lsl": lambda s: reconstruct(s.data, s.data0, "lsl", grid=s.grid),
    "background_rom": lambda s: background_rom(s.data0, s.grid),
}


@pytest.mark.parametrize("name", CALLS)
def test_bits_do_not_depend_on_the_callers_count(name, step_m160, counts):
    first, second = (_arrays(CALLS[name](step_m160)) for _ in counts())
    assert len(first) == len(second) > 0
    for a, b in zip(first, second):
        assert np.array_equal(a, b)


def test_run_experiment_files_do_not_depend_on_the_callers_count(tmp_path, counts):
    outputs = []
    for n in counts():
        paths = run_experiment(preset_config("step", N=N, f=F, outdir=tmp_path / str(n)))
        outputs.append({name: path.read_bytes() for name, path in paths.items()})
    assert outputs[0] == outputs[1]


def test_callers_count_comes_back_after_a_return_and_a_raise(step_m160, counts):
    s = step_m160
    for n in counts():
        reconstruct(s.data, s.data0, "lsl", grid=s.grid)
        assert get_num_threads() == n
        with pytest.raises(ValueError, match="finite"):
            lsl_fields(s.V0, *s.factors, [np.nan])
        assert get_num_threads() == n


def test_nested_and_concurrent_entries_keep_one_thread_until_the_last_exits(counts):
    for n in counts():
        with one_blas_thread:
            with one_blas_thread:
                assert get_num_threads() == 1
            assert get_num_threads() == 1
        assert get_num_threads() == n

        # another Python thread enters first and leaves first; the count stays 1 until this one leaves
        entered, leave, seen = threading.Event(), threading.Event(), []

        def other():
            with one_blas_thread:
                entered.set()
                leave.wait(30)
            seen.append(get_num_threads())

        worker = threading.Thread(target=other)
        worker.start()
        assert entered.wait(30)
        with one_blas_thread:
            leave.set()
            worker.join(30)
            assert seen == [1] and get_num_threads() == 1
        assert get_num_threads() == n
