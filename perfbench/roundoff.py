"""How the accuracy metrics respond to roundoff and to the seeded medium.

Usage, from the repository root:

    PYTHONPATH=src python3 perfbench/roundoff.py > perfbench/roundoff.json

The outputs are bit-reproducible, so repeated runs of one commit show no
spread in err_*; a change that only reorders floating-point work still moves
them. For each distinct (medium, size) of the workloads, on the preset
medium the end-to-end err_* metrics report, this records:

- the relative change of each error under each single perturbation of the
  benchmark's ensemble (F and dF times (1 + 1e-15 z), see accuracy.py);
- the reported err_lsl, the ensemble median, and how far that median moves
  when the ensemble's perturbation seeds are replaced by other seeds;
- how the unperturbed errors spread across the workload seeds' media, which
  is why the reported errors use the preset medium.
"""
from __future__ import annotations

import json
import statistics
import sys

import numpy as np

import accuracy as acc
import lslimaging as lsl
import workloads as wl

ALTERNATIVE_SETS = 5
WORKLOAD_SEEDS = range(10)


def errors(potential, grid, plan, data, data0) -> dict:
    """err_lsl, err_born, err_internal_lsl as run_experiment computes them."""
    return {"err_lsl": acc.reconstruction_error(lsl, potential, grid, data, data0, "lsl"),
            "err_born": acc.reconstruction_error(lsl, potential, grid, data, data0, "born"),
            "err_internal_lsl": acc.internal_error(lsl, potential, grid, plan, data, data0)}


def spread(values) -> dict:
    q = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "iqr_over_median": (q[2] - q[0]) / median,
            "min": min(values), "max": max(values)}


def medium_report(name: str, kind: str, intervals: int) -> dict:
    preset = lsl.preset_potential(kind, wl.L)
    grid, plan, data, data0 = acc.datasets(lsl, preset, intervals)
    base = errors(preset, grid, plan, data, data0)
    singles = [errors(preset, grid, plan, acc.perturbed(lsl, np, data, seed), data0)
               for seed in acc.ENSEMBLE_SEEDS]

    size = len(acc.ENSEMBLE_SEEDS)
    first = max(acc.ENSEMBLE_SEEDS) + 1
    seed_sets = [list(range(first + k * size, first + (k + 1) * size)) for k in range(ALTERNATIVE_SETS)]
    reported = acc.ensemble_err_lsl(lsl, np, preset, grid, data, data0, base["err_lsl"])
    alternatives = [acc.ensemble_err_lsl(lsl, np, preset, grid, data, data0, base["err_lsl"], seeds)
                    for seeds in seed_sets]

    seeded = []
    for seed in WORKLOAD_SEEDS:
        potential = wl.make_potential(lsl, wl.draw_medium(name, seed))
        seeded.append(errors(potential, *acc.datasets(lsl, potential, intervals)))

    report = {
        key: {
            "preset": base[key],
            "roundoff_rel_change": [run[key] / base[key] - 1.0 for run in singles],
            "max_abs_roundoff_rel_change": max(abs(run[key] / base[key] - 1.0) for run in singles),
            "across_seeds": spread([row[key] for row in seeded]),
        }
        for key in base
    }
    report["err_lsl"]["reported_ensemble_median"] = reported
    report["err_lsl"]["alternative_seed_sets"] = seed_sets
    report["err_lsl"]["alternative_medians_rel_change"] = [m / reported - 1.0 for m in alternatives]
    report["err_lsl"]["max_abs_alternative_rel_change"] = max(abs(m / reported - 1.0) for m in alternatives)
    return report


def main() -> int:
    # workloads that share a medium kind and size share one entry
    media = {}
    for name, (kind, intervals) in wl.WORKLOADS.items():
        media.setdefault(f"{kind}-N{intervals}", (name, kind, intervals))
    report = {"relative_noise": acc.RELATIVE_NOISE,
              "ensemble_seeds": list(acc.ENSEMBLE_SEEDS),
              "workload_seeds": list(WORKLOAD_SEEDS),
              "workloads": {name: f"{kind}-N{intervals}"
                            for name, (kind, intervals) in wl.WORKLOADS.items()},
              "media": {}}
    for key, (name, kind, intervals) in media.items():
        report["media"][key] = medium_report(name, kind, intervals)
        print(f"{key}: done", file=sys.stderr)
    print(json.dumps(report, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
