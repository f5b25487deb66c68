"""The LAPACK loader: no scipy.linalg package initialization, and a loud failure."""
import os
import subprocess
import sys
from pathlib import Path

import lslimaging
from lslimaging import GaussianPotential, Grid, ZeroPotential, generate_dataset, save_dataset, weyl_sample

SRC = Path(lslimaging.__file__).resolve().parents[1]


def run_fresh(code, path):
    """Run `code` in a fresh interpreter with `path` as its PYTHONPATH."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(str(p) for p in path))
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)


def test_cli_reconstruct_never_imports_scipy_linalg(tmp_path):
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
        "assert 'scipy.linalg' not in sys.modules, 'scipy.linalg was imported'\n"
    )
    result = run_fresh(code, [SRC])
    assert result.returncode == 0, result.stderr
    assert recon.is_file()


def test_missing_extension_raises_naming_the_directory(tmp_path):
    # a scipy package whose linalg directory is empty; executing its
    # __init__ would fail differently, so the test also shows it is not run
    fake = tmp_path / "scipy"
    (fake / "linalg").mkdir(parents=True)
    (fake / "__init__.py").write_text("raise RuntimeError('scipy/__init__ was executed')\n")
    code = (
        "import sys\n"
        "try:\n"
        "    import lslimaging\n"
        "except ImportError as exc:\n"
        "    print(exc)\n"
        "else:\n"
        "    sys.exit('no ImportError')\n"
        "assert 'scipy.linalg' not in sys.modules and 'scipy' not in sys.modules, sorted(sys.modules)\n"
    )
    result = run_fresh(code, [tmp_path, SRC])
    assert result.returncode == 0, result.stderr + result.stdout
    assert str(fake / "linalg") in result.stdout
