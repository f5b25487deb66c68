"""The LAPACK binding: numpy's own library, no scipy, a loud failure, and the QR route of the TSVD."""
import _ctypes
import inspect
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import lslimaging
from lslimaging import GaussianPotential, Grid, ZeroPotential, _lapack, generate_dataset, save_dataset, weyl_sample

SRC = Path(lslimaging.__file__).resolve().parents[1]


def run_fresh(code, path):
    """Run `code` in a fresh interpreter with `path` as its PYTHONPATH."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(str(p) for p in path))
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)


def test_cli_reconstruct_never_imports_scipy(tmp_path):
    g = Grid(L=1.0, n=401)
    lams = weyl_sample(3, 3, 1.0).lambdas
    data, data0 = tmp_path / "true.txt", tmp_path / "bg.txt"
    save_dataset(generate_dataset(GaussianPotential(5.0, 0.5, 0.1), lams, g), data)
    save_dataset(generate_dataset(ZeroPotential(), lams, g), data0)
    recon = tmp_path / "recon.txt"
    code = (
        "import sys\n"
        "import lslimaging.cli\n"
        f"status = lslimaging.cli.main(['reconstruct', '--data', {str(data)!r}, '--background', {str(data0)!r},"
        f" '--method', 'lsl', '--out', {str(recon)!r}, '--nodes', '401'])\n"
        "assert status == 0, status\n"
        "scipy = sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.'))\n"
        "assert not scipy, scipy\n"
        "assert 'numpy.ma' not in sys.modules\n"
    )
    result = run_fresh(code, [SRC])
    assert result.returncode == 0, result.stderr
    assert recon.is_file()


PUBLIC_API = [
    "DEFAULT_GRID_NODES", "DEFAULT_REL_THRESHOLD", "DEFAULT_TRUNCATION_TOL", "DataSet", "DegenerateMassError",
    "DegenerateSourceError", "DegenerateSystemError", "DimensionMismatchError", "ExperimentConfig",
    "ExperimentError", "GaussianPotential", "Grid", "ImagingError", "ImagingSystem", "LanczosFactors",
    "LoewnerPencil", "METHODS", "PRESETS", "Potential", "RESONANCE_RTOL", "ReconstructionResult",
    "ResonanceProximityError", "RomResonanceError", "SampleAlignmentError", "SamplingPlan", "Snapshot",
    "SnapshotMatrix", "SpectralSample", "StepPotential", "TabulatedPotential", "TridiagonalOperator",
    "ZeroPotential", "approximate_resonances", "assemble_operator", "assemble_system", "background_rom",
    "build_loewner", "compute_snapshot_matrix", "constant_potential", "generate_dataset", "lanczos",
    "load_config", "load_dataset", "lsl_fields", "lsl_internal", "measure_dataset", "operator_eigenvalues",
    "preset_config", "preset_potential", "read_summary", "reconstruct", "relative_l2_error", "resolvent_apply",
    "run_experiment", "save_dataset", "solve_forward", "solve_regularized", "weyl_sample", "write_table",
]


def test_public_api_is_the_listed_names():
    names = sorted(n for n in dir(lslimaging) if not n.startswith("_") and not inspect.ismodule(getattr(lslimaging, n)))
    assert names == PUBLIC_API


def test_names_load_their_submodule_on_first_use():
    code = (
        "import sys\n"
        "import lslimaging\n"
        "assert sorted(lslimaging.__all__) == sorted(set(lslimaging.__all__)), 'duplicate names'\n"
        "assert 'lslimaging.grid' not in sys.modules\n"
        "from lslimaging import Grid\n"
        "assert Grid is lslimaging.grid.Grid and 'lslimaging.experiment' not in sys.modules\n"
        "assert lslimaging.experiment.run_experiment is lslimaging.run_experiment\n"
        "assert all(getattr(lslimaging, name) is not None for name in lslimaging.__all__)\n"
        "try:\n"
        "    lslimaging.no_such_name\n"
        "except AttributeError as exc:\n"
        "    assert 'no_such_name' in str(exc)\n"
        "else:\n"
        "    raise AssertionError('no AttributeError')\n"
    )
    result = run_fresh(code, [SRC])
    assert result.returncode == 0, result.stderr
    assert sorted(lslimaging.__all__) == PUBLIC_API


def test_library_without_the_symbols_raises_naming_symbol_and_file():
    path = _ctypes.__file__  # a shared library that exports no LAPACK
    with pytest.raises(ImportError) as info:
        _lapack._bind(path, "dgtsv", "dgeqrt")
    assert "scipy_dgtsv_64_" in str(info.value) and path in str(info.value)


def test_library_without_the_thread_count_raises_naming_symbol_and_file():
    path = _ctypes.__file__
    with pytest.raises(ImportError) as info:
        _lapack._OneThread(path)
    assert "scipy_openblas_get_num_threads64_" in str(info.value) and path in str(info.value)


@pytest.mark.parametrize("shape", [(200, 70), (64, 64), (30, 200), (200, 1)],
                         ids=["tall-three-blocks", "square-two-blocks", "wide", "one-column"])
def test_blocked_qr_applies_numpys_q(shape):
    # the TSVD's route: dgeqrt of A^T, then Q y by dgemqrt
    rng = np.random.default_rng(sum(shape))
    At = rng.standard_normal(shape)
    y = rng.standard_normal(shape[0])
    V = np.array(At, order="F")
    T = _lapack.dgeqrt(V, min(32, *shape))
    Q, R = np.linalg.qr(At, mode="complete")
    Qy = _lapack.dgemqrt(V, T, y.copy())
    assert np.max(np.abs(Qy - Q @ y)) <= 1e-13 * np.linalg.norm(y)
    assert np.linalg.norm(Qy) == pytest.approx(np.linalg.norm(y), rel=1e-13)
    k = min(shape)
    np.testing.assert_allclose(np.abs(np.triu(V[:k])), np.abs(R[:k]), rtol=0, atol=1e-13 * np.abs(R).max())


def test_arrays_lapack_would_misread_are_refused():
    d, e = np.full(5, 4.0), np.ones(4)
    with pytest.raises(ValueError):
        _lapack.dgeqrt(np.ones((5, 3)), 3)  # row-major
    with pytest.raises(ValueError):
        _lapack.dgtsv(e.copy(), d.astype(np.float32), e.copy(), d.copy())
    with pytest.raises(ValueError):
        _lapack.dgtsv(e.copy(), d.copy(), e[:3].copy(), d.copy())
    d.flags.writeable = False
    with pytest.raises(TypeError):
        _lapack.dgtsv(e.copy(), d, e.copy(), np.ones(5))
