"""lslimaging benchmark.

Usage, from the root of a checkout of the repository:

    python3 perfbench/run.py --workload NAME --seed N --seconds T --trace 0|1

Runs one workload (see perfbench/workloads.py and perfbench/README.md) in a
fresh worker process for T seconds, then prints a record line (environment,
seed, drawn medium, sample counts, failures) and, as the last line, the
result: {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
metrics are the end-to-end ones, with --trace 1 the per-layer ones from the
traced run. Exits non-zero without a result when src/lslimaging is missing.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import LAYER_METRICS
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
# set-up is timed this many times per untraced run (the main worker included)
SETUP_SAMPLES = 3
# the whole run must end well within 180 s
RUN_BUDGET_S = 170.0
TAIL_BEYOND = 10


def run_worker(argv, env, deadline: float, workdir: Path) -> dict:
    """Start a worker, wait for it and return its JSON plus its set-up time."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workdir", str(workdir)] + argv
    start = time.monotonic()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - start))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RuntimeError("worker ran past the time budget")
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}")
    result = json.loads(out.decode().strip().splitlines()[-1])
    result["setup_s"] = result["ready"] - start
    return result


def tail(walls):
    """Highest percentile with TAIL_BEYOND samples beyond it, never below p50."""
    ordered = sorted(walls)
    n = len(ordered)
    index = max(n - TAIL_BEYOND - 1, (n - 1) // 2)
    if index == (n - 1) // 2:
        return statistics.median(ordered), 50.0
    return ordered[index], 100.0 * (index + 1) / n


def finite(value):
    return value if isinstance(value, (int, float)) and math.isfinite(value) else None


def end_to_end(result, setups) -> tuple[dict, dict]:
    timed = [r for r in result["requests"] if not r["traced"]]
    # a failed request misses any latency limit
    walls = [r["wall"] if r["error"] is None else math.inf for r in timed]
    tail_value, tail_pct = tail(walls)
    errors = result["reference"]["errors"]
    metrics = {
        "wall_s.p50": (statistics.median(walls), "s"),
        "wall_s.tail": (tail_value, "s"),
        "cpu_s.p50": (statistics.median(r["cpu"] for r in timed), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (result["peak_rss_mb"], "MB"),
        "err_lsl": (errors["err_lsl"], "rel"),
        "err_born": (errors["err_born"], "rel"),
        "err_internal_lsl": (errors["err_internal_lsl"], "rel"),
    }
    extra = {"tail_percentile": tail_pct, "samples": len(walls), "setup_samples": setups}
    return {k: {"value": finite(v), "unit": u} for k, (v, u) in metrics.items()}, extra


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = Path.cwd()
    src = root / "src"
    if not (src / "lslimaging" / "__init__.py").is_file():
        print("perfbench: src/lslimaging not found; run from the repository root",
              file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_BUDGET_S
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    affinity = getattr(os, "sched_getaffinity", None)
    nproc = str(len(affinity(0)) if affinity else os.cpu_count())
    # fixed, so an inherited setting cannot change what runs are compared on
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        env[var] = nproc

    argv = ["--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace)]
    workdir = root / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    try:
        setups = []
        if not args.trace:
            for _ in range(SETUP_SAMPLES - 1):
                setups.append(run_worker(argv + ["--setup-only"], env, deadline, workdir)["setup_s"])
        result = run_worker(argv, env, deadline, workdir)
        setups.append(result["setup_s"])
    except (RuntimeError, ValueError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    requests = result["requests"]
    failures = [r["error"] for r in requests if r["error"]]
    if result["reference"]["error"]:
        failures.append("reference: " + result["reference"]["error"])
    attempted = len(requests) + 1  # the reference request counts too
    if args.trace:
        metrics = {name: {"value": finite(result["layers"][name]), "unit": unit}
                   for name, (unit, _) in LAYER_METRICS.items()}
        extra = {"samples": len(requests), "traced": sum(r["traced"] for r in requests)}
    else:
        metrics, extra = end_to_end(result, setups)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "medium": result["medium"],
        "seeded_errors": result["seeded_errors"],
        "failed_frac": len(failures) / attempted,
        "failures": failures[:5],
        "walls": [r["wall"] for r in requests],
        "env": {**result["env"], "OPENBLAS_NUM_THREADS": env["OPENBLAS_NUM_THREADS"]},
        **extra,
    }
    print(json.dumps({"record": record}))
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
