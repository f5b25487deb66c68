"""Workload definitions and seeded media, shared by the benchmark scripts.

Importing this module does not import lslimaging, so the orchestrator and
the worker can load it before the timed import of the package.
"""
from __future__ import annotations

import random

L = 1.0
N_NODES = 2001
F_PER_INTERVAL = 4

# name -> (medium kind, resonance intervals N); m = N * F_PER_INTERVAL
WORKLOADS = {
    "experiment-gaussian": ("gaussian", 10),
    "experiment-step-m160": ("step", 40),
    "cli-reconstruct": ("gaussian", 10),
}

# Ranges the seed draws from, around the presets (amplitude 5, width 0.1 L,
# centre L/2; height 4 on [0.4 L, 0.6 L]). They are narrow so that the
# accuracy metrics compare like with like across seeds; perfbench/roundoff.json
# records how much the errors move across seeds and under data roundoff.
GAUSSIAN_RANGES = {
    "amplitude": (4.975, 5.025),
    "center": (0.499 * L, 0.501 * L),
    "width": (0.0995 * L, 0.1005 * L),
}
STEP_RANGES = {
    "height": (3.98, 4.02),
    "lo": (0.399 * L, 0.401 * L),
    "hi": (0.599 * L, 0.601 * L),
}


def draw_medium(workload: str, seed: int) -> dict:
    """Medium parameters drawn from the workload's ranges by the seed."""
    kind, _ = WORKLOADS[workload]
    rng = random.Random(f"{workload}/{seed}")
    ranges = GAUSSIAN_RANGES if kind == "gaussian" else STEP_RANGES
    params = {key: rng.uniform(lo, hi) for key, (lo, hi) in ranges.items()}
    return {"kind": kind, **params}


def make_potential(lsl, medium: dict):
    """The lslimaging Potential for drawn parameters (lsl is the package)."""
    if medium["kind"] == "gaussian":
        return lsl.GaussianPotential(
            amplitude=medium["amplitude"], center=medium["center"], width=medium["width"]
        )
    return lsl.StepPotential(((medium["lo"], medium["hi"], medium["height"]),))


def make_config(lsl, workload: str, medium: dict, outdir):
    """ExperimentConfig of one request of the workload (both methods)."""
    _, intervals = WORKLOADS[workload]
    return lsl.ExperimentConfig(
        potential=make_potential(lsl, medium),
        L=L,
        n=N_NODES,
        N=intervals,
        f=F_PER_INTERVAL,
        outdir=outdir,
        label=workload,
    )
