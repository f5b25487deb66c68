"""One benchmark process: set-up, a closed loop of requests, output checks.

Started by perfbench/run.py with `src` on PYTHONPATH; it prints one JSON
object on stdout. With --setup-only it stops once set-up is done, so the
caller can time set-up several times in one run.

Set-up is the timed import of the package, the seeded inputs and one small
warm-up request. The loop then sends one request at a time (a closed loop,
one client) until --seconds have passed. Each request is checked: it must
not raise, the CLI must exit 0, every output file must exist and be
byte-identical to the first request's, and err_lsl must be finite and below
err_born. A failed request is counted and the loop goes on. After the loop
one reference request on the preset medium gives the reported errors; its
err_lsl is the median of the roundoff ensemble in accuracy.py.
"""
from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import accuracy as acc
import workloads as wl
from tracer import Tracer, layer_metrics

HERE = Path(__file__).resolve().parent
CLI_TIMEOUT_S = 120.0
MIN_REQUESTS = 2
EXPERIMENT_FILES = ("dataset_true", "dataset_background", "reconstruction",
                    "internal_solution", "summary")


def digest(paths) -> dict:
    """sha256 of each file; None marks a missing file."""
    out = {}
    for key, path in paths.items():
        try:
            out[key] = hashlib.sha256(Path(path).read_bytes()).hexdigest()
        except FileNotFoundError:
            out[key] = None
    return out


def experiment_paths(outdir: Path) -> dict:
    return {name: outdir / f"{name}.txt" for name in EXPERIMENT_FILES}


def table_errors(lsl, np, potential, path) -> dict:
    """err_born and err_lsl of a reconstruction table (x p_true p_born p_lsl)."""
    grid = lsl.Grid(wl.L, wl.N_NODES)
    p_true = potential.evaluate(grid)
    table = np.loadtxt(path, skiprows=1)
    return {"err_born": lsl.relative_l2_error(table[:, 2], p_true, grid),
            "err_lsl": lsl.relative_l2_error(table[:, 3], p_true, grid)}


def experiment_errors(lsl, np, potential, paths) -> dict:
    """Relative L2 errors of run_experiment outputs against the true medium."""
    grid = lsl.Grid(wl.L, wl.N_NODES)
    lam = float(lsl.read_summary(paths["summary"])["internal_lambda"])
    u_true = lsl.solve_forward(potential, lam, grid).values
    internal = np.loadtxt(paths["internal_solution"], skiprows=1)
    return {**table_errors(lsl, np, potential, paths["reconstruction"]),
            "err_internal_lsl": lsl.relative_l2_error(internal[:, 3], u_true, grid)}


def accuracy_problem(errors: dict):
    err_lsl, err_born = errors["err_lsl"], errors["err_born"]
    if not math.isfinite(err_lsl):
        return f"err_lsl is {err_lsl}"
    if not err_lsl < err_born:
        return f"err_lsl {err_lsl:.6g} is not below err_born {err_born:.6g}"
    return None


class Checker:
    """Judges each request against the first one whose files all exist."""

    def __init__(self, errors_of):
        self.errors_of = errors_of
        self.reference = None
        self.errors = None

    def __call__(self, paths) -> str | None:
        got = digest(paths)
        missing = [key for key, value in got.items() if value is None]
        if missing:
            return f"missing output {', '.join(missing)}"
        if self.reference is None:
            try:
                errors = self.errors_of(paths)
            except (ValueError, KeyError, IndexError) as exc:
                return f"unreadable output: {exc}"
            self.reference, self.errors = got, errors
        elif got != self.reference:
            changed = [key for key in got if got[key] != self.reference[key]]
            return f"output differs from the first request: {', '.join(changed)}"
        return accuracy_problem(self.errors)


def cpu_seconds() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


class ExperimentWorkload:
    """run_experiment on a seeded medium, both methods, all five files."""

    def __init__(self, lsl, np, name, medium, workdir: Path):
        self.lsl, self.np, self.workdir = lsl, np, workdir
        self.potential = wl.make_potential(lsl, medium)
        self.config = wl.make_config(lsl, name, medium, workdir / "out")
        self.check = Checker(lambda paths: experiment_errors(lsl, np, self.potential, paths))

    def setup(self) -> None:
        warm = dataclasses.replace(self.config, N=2, f=2, outdir=self.workdir / "warm")
        self.lsl.run_experiment(warm)

    def request(self, tracer):
        shutil.rmtree(self.config.outdir, ignore_errors=True)
        error = None
        cpu0, t0 = cpu_seconds(), time.perf_counter()
        if tracer:
            tracer.install(self.lsl)
        try:
            self.lsl.run_experiment(self.config)
        except Exception as exc:  # a failed request is counted, the loop goes on
            error = f"raised {type(exc).__name__}: {exc}"
        finally:
            if tracer:
                tracer.uninstall()
        wall, cpu = time.perf_counter() - t0, cpu_seconds() - cpu0
        return wall, cpu, error or self.check(experiment_paths(self.config.outdir))

    def reference(self, kind: str):
        """Errors of the preset medium at the workload's size.

        err_born and err_internal_lsl are those of run_experiment's files;
        err_lsl is the ensemble median over its datasets and their
        perturbed copies.
        """
        lsl = self.lsl
        potential = lsl.preset_potential(kind, wl.L)
        outdir = self.workdir / "reference"
        lsl.run_experiment(dataclasses.replace(self.config, potential=potential, outdir=outdir))
        paths = experiment_paths(outdir)
        errors = experiment_errors(lsl, self.np, potential, paths)
        problem = accuracy_problem(errors)
        grid = lsl.Grid(wl.L, wl.N_NODES)
        data = lsl.load_dataset(paths["dataset_true"])
        data0 = lsl.load_dataset(paths["dataset_background"])
        errors["err_lsl"] = acc.ensemble_err_lsl(lsl, self.np, potential, grid, data, data0,
                                                 errors["err_lsl"])
        return errors, problem or accuracy_problem(errors)

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def seeded_errors(self):
        return self.check.errors


class CliWorkload:
    """`reconstruct --method lsl` in a fresh interpreter per request."""

    def __init__(self, lsl, np, name, medium, workdir: Path):
        self.lsl, self.np, self.name, self.workdir = lsl, np, name, workdir
        self.medium = medium
        self.spans_path = workdir / "cli-spans.json"
        self.child_rss_kb = 0
        self.check = None

    def _inputs(self, potential, outdir: Path):
        """Writes both dataset files as `lslimaging.cli simulate` does."""
        _, intervals = wl.WORKLOADS[self.name]
        measured = acc.datasets(self.lsl, potential, intervals)
        outdir.mkdir(parents=True, exist_ok=True)
        self.lsl.save_dataset(measured[2], outdir / "dataset_true.txt")
        self.lsl.save_dataset(measured[3], outdir / "dataset_background.txt")
        return measured

    def setup(self) -> None:
        self.potential = wl.make_potential(self.lsl, self.medium)
        self.inputs = self.workdir / "inputs"
        self.measured = self._inputs(self.potential, self.inputs)
        self.check = Checker(self._seeded_errors)
        # a failing warm-up shows again in every timed request, where it is counted
        self._run_cli(self.inputs, self.workdir / "warm.txt", traced=False)

    def _seeded_errors(self, paths) -> dict:
        """err_lsl of the CLI's output; the CLI computes no Born image, so
        err_born comes from reconstruct() on the same data, outside set-up."""
        grid, _, data, data0 = self.measured
        return {
            "err_lsl": table_errors(self.lsl, self.np, self.potential, paths["reconstruction"])["err_lsl"],
            "err_born": acc.reconstruction_error(self.lsl, self.potential, grid, data, data0, "born"),
        }

    def _run_cli(self, inputs: Path, out: Path, traced: bool):
        args = ["reconstruct", "--data", str(inputs / "dataset_true.txt"),
                "--background", str(inputs / "dataset_background.txt"),
                "--method", "lsl", "--out", str(out)]
        if traced:
            cmd = [sys.executable, str(HERE / "cli_launcher.py"), str(self.spans_path)] + args
        else:
            cmd = [sys.executable, "-m", "lslimaging.cli"] + args
        stderr_path = self.workdir / "cli-stderr.txt"
        before = cpu_seconds()
        t0 = time.perf_counter()
        with open(stderr_path, "wb") as stderr:
            proc = subprocess.Popen(cmd, stdout=subprocess.DEVNULL, stderr=stderr)
            # a blocking wait keeps the wall time exact; the timer only guards a hang
            watchdog = threading.Timer(CLI_TIMEOUT_S, proc.kill)
            watchdog.start()
            try:
                code = proc.wait()
            finally:
                watchdog.cancel()
        wall, cpu = time.perf_counter() - t0, cpu_seconds() - before
        self.child_rss_kb = max(self.child_rss_kb,
                                resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
        err = stderr_path.read_text(errors="replace").strip()[-300:] if code else ""
        return code, wall, cpu, err

    def request(self, tracer):
        out = self.workdir / "reconstruction.txt"
        out.unlink(missing_ok=True)
        self.spans_path.unlink(missing_ok=True)
        code, wall, cpu, err = self._run_cli(self.inputs, out, traced=bool(tracer))
        if code != 0:
            return wall, cpu, f"CLI exited {code}: {err}"
        if tracer:
            tracer.extend(json.loads(self.spans_path.read_text()), tracer.request)
        return wall, cpu, self.check({"reconstruction": out})

    def reference(self, kind: str):
        """Errors of the preset medium at the workload's size.

        err_lsl is the ensemble median over the CLI's output on the preset's
        dataset files and reconstruct() on perturbed copies of them. The CLI
        computes no Born image or internal field, so err_born and
        err_internal_lsl come from the public API on the same data.
        """
        lsl = self.lsl
        potential = lsl.preset_potential(kind, wl.L)
        inputs = self.workdir / "reference"
        grid, plan, data, data0 = self._inputs(potential, inputs)
        errors = {"err_lsl": math.nan,
                  "err_born": acc.reconstruction_error(lsl, potential, grid, data, data0, "born"),
                  "err_internal_lsl": acc.internal_error(lsl, potential, grid, plan, data, data0)}
        out = self.workdir / "reference.txt"
        code, _, _, err = self._run_cli(inputs, out, traced=False)
        if code != 0:
            return errors, f"CLI exited {code}: {err}"
        errors["err_lsl"] = table_errors(lsl, self.np, potential, out)["err_lsl"]
        problem = accuracy_problem(errors)
        errors["err_lsl"] = acc.ensemble_err_lsl(lsl, self.np, potential, grid, data, data0,
                                                 errors["err_lsl"])
        return errors, problem or accuracy_problem(errors)

    def peak_rss_mb(self) -> float:
        return self.child_rss_kb / 1024.0

    def seeded_errors(self):
        return self.check.errors


def blas_threads() -> dict:
    """Thread count of each loaded OpenBLAS, read through its own API."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return {}
    out = {}
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads"):
            if hasattr(lib, symbol):
                getter = getattr(lib, symbol)
                getter.restype = ctypes.c_int
                getter.argtypes = []
                out[Path(path).name] = getter()
                break
    return out


def environment(np) -> dict:
    import scipy

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    cpu_model = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu_model = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    affinity = getattr(os, "sched_getaffinity", None)
    return {
        "nproc": len(affinity(0)) if affinity else os.cpu_count(),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "blas_threads": blas_threads(),
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    t0 = time.perf_counter()
    import lslimaging as lsl
    import lslimaging.cli  # noqa: F401  the CLI import a user pays
    import_s = time.perf_counter() - t0
    import numpy as np

    args.workdir.mkdir(parents=True, exist_ok=True)
    medium = wl.draw_medium(args.workload, args.seed)
    kind = wl.WORKLOADS[args.workload][0]
    cls = CliWorkload if args.workload == "cli-reconstruct" else ExperimentWorkload
    workload = cls(lsl, np, args.workload, medium, args.workdir)
    workload.setup()
    ready = time.monotonic()
    if args.setup_only:
        print(json.dumps({"ready": ready}))
        return 0

    tracer = Tracer() if args.trace else None
    requests = []
    deadline = ready + args.seconds
    # in a traced run, untraced and traced requests alternate; stop on a pair
    while len(requests) < MIN_REQUESTS or time.monotonic() < deadline or (tracer and len(requests) % 2):
        traced = bool(tracer) and len(requests) % 2 == 1
        if traced:
            tracer.request = len(requests)
        wall, cpu, error = workload.request(tracer if traced else None)
        requests.append({"wall": wall, "cpu": cpu, "traced": traced, "error": error})
    try:
        errors, problem = workload.reference(kind)
    except Exception as exc:  # counted as a failed request
        errors = dict.fromkeys(("err_lsl", "err_born", "err_internal_lsl"), math.nan)
        problem = f"raised {type(exc).__name__}: {exc}"

    result = {
        "ready": ready,
        "import_s": import_s,
        "medium": medium,
        "requests": requests,
        "reference": {"errors": errors, "error": problem},
        "seeded_errors": workload.seeded_errors(),
        "peak_rss_mb": workload.peak_rss_mb(),
        "env": environment(np),
    }
    if tracer:
        tracer.finish()
        tracer.write(args.workdir.parent / f"spans-{args.workload}.json")
        traced = [i for i, r in enumerate(requests) if r["traced"]]
        layers = layer_metrics(tracer.spans, traced, import_s)
        walls = {flag: statistics.median(r["wall"] for r in requests if r["traced"] == flag)
                 for flag in (False, True)}
        layers["trace.overhead_s"] = walls[True] - walls[False]
        result["layers"] = layers
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
