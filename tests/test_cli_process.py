"""The CLI's process entry and the modules a command loads, each checked in a fresh interpreter.

A process (`python -m lslimaging.cli` or the `lslimaging` script) enters through
cli.run(): it exits with main()'s status after gc.freeze(), so the collections at
shutdown skip the objects it holds. main() stays the library call and never freezes.
"""
import ast
import json
from pathlib import Path

import pytest

import lslimaging.cli
from lslimaging import ExperimentConfig
from lslimaging.cli import main
from test_lapack import SRC, run_fresh

# runs the module as `python -m lslimaging.cli ARGS` does, then reports the status and the frozen count
AS_MAIN = (
    "import gc, json, runpy, sys\n"
    "sys.argv = ['lslimaging', *ARGS]\n"
    "try:\n"
    "    runpy.run_module('lslimaging.cli', run_name='__main__')\n"
    "except SystemExit as exc:\n"
    "    status = exc.code\n"
    "print(json.dumps({'status': status, 'frozen': gc.get_freeze_count(),"
    " 'loaded': sorted(m for m in sys.modules if m.startswith('lslimaging'))}))\n"
)


def run_as_main(args):
    result = run_fresh(f"ARGS = {args!r}\n" + AS_MAIN, [SRC])
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout.splitlines()[-1])


@pytest.mark.parametrize("what, status", [("run", 0), ("stage-error", 1), ("usage-error", 2)])
def test_the_main_path_exits_with_mains_status_after_freezing(what, status, reconstruct_args, tmp_path):
    args = reconstruct_args + ["--out", str(tmp_path / "process.txt")]
    if what == "stage-error":
        args[args.index("--data") + 1] = str(tmp_path / "absent.txt")
    elif what == "usage-error":
        args = args[:-2]  # no --out
    report = run_as_main(args)
    assert report["status"] == status
    assert report["frozen"] > 0
    if what == "run":
        # reconstruct loads only the modules it runs
        assert "lslimaging._commands" in report["loaded"]
        assert not {"lslimaging.experiment", "lslimaging.sampling"} & set(report["loaded"])
        assert main(reconstruct_args + ["--out", str(tmp_path / "in-process.txt")]) == 0
        assert (tmp_path / "process.txt").read_bytes() == (tmp_path / "in-process.txt").read_bytes()


@pytest.mark.parametrize("enabled", [True, False])
def test_main_in_process_neither_freezes_nor_toggles_the_collector(enabled, reconstruct_args, tmp_path):
    args = reconstruct_args + ["--out", str(tmp_path / "o.txt")]
    code = (
        f"import gc, json, sys\nARGS = {args!r}\n"
        f"{'' if enabled else 'gc.disable()'}\n"
        "from lslimaging.cli import main\n"
        "assert 'numpy' not in sys.modules, 'numpy loaded'\n"
        "status = main(ARGS)\n"
        "print(json.dumps({'status': status, 'frozen': gc.get_freeze_count(), 'enabled': gc.isenabled()}))\n"
    )
    result = run_fresh(code, [SRC])
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout.splitlines()[-1]) == {"status": 0, "frozen": 0, "enabled": enabled}


def test_simulate_and_experiment_still_run_in_a_fresh_process(tmp_path):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("potential = gaussian\nn = 401\nN = 3\nf = 3\n")
    report = run_as_main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "true.txt")])
    assert report["status"] == 0 and (tmp_path / "true.txt").exists()
    assert {"lslimaging.experiment", "lslimaging.sampling"} <= set(report["loaded"])
    report = run_as_main(["experiment", "zero", "--nodes", "401", "--intervals", "3", "--f", "3",
                          "--outdir", str(tmp_path / "run")])
    assert report["status"] == 0 and (tmp_path / "run" / "summary.txt").exists()


def test_experiment_help_shows_the_config_defaults(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["experiment", "--help"])
    assert excinfo.value.code == 0
    text = " ".join(capsys.readouterr().out.split())
    for flag, name in (("--f", "f"), ("--intervals", "N"), ("--nodes", "n"), ("--threshold", "rel_threshold")):
        assert f"(default {getattr(ExperimentConfig, name):g})" in text, flag
    assert "(default auto)" in text and f"(default {','.join(ExperimentConfig.methods)})" in text


def _main_block_call(path: Path) -> str:
    """The name of the function the module's `if __name__ == "__main__":` block calls."""
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.If) and ast.unparse(node.test) == "__name__ == '__main__'":
            (stmt,) = node.body
            return stmt.value.func.id
    raise AssertionError(f"{path} has no __main__ block")


def test_the_console_script_runs_what_the_main_block_runs():
    tomllib = pytest.importorskip("tomllib", reason="tomllib is new in Python 3.11")
    pyproject = SRC.parent / "pyproject.toml"
    scripts = tomllib.loads(pyproject.read_text(encoding="utf-8"))["project"]["scripts"]
    name = _main_block_call(Path(lslimaging.cli.__file__))
    assert scripts["lslimaging"] == f"lslimaging.cli:{name}"
    assert callable(getattr(lslimaging.cli, name))

