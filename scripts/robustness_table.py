"""Robustness table: both reconstructions on imperfect data, one line per case.

Images on the n = 2001 grid of (0, 1) from N = 10 resonance intervals at
f = 4 (m = 40 sample points), against the imaging grid's own background
data, as run_experiment does. The cases are every combination of

- medium: the gaussian and step presets, two Gaussians (amplitude 5, width
  0.05, centres 0.2 and 0.8) and the 500-piece Gaussian staircase of
  tests/oracles.py;
- data: exact data on the imaging grid; the same with F and dF under
  multiplicative noise 1e-8, 1e-6 and 1e-4, seeds 1 to 5 (oracles.add_noise);
  data simulated on n = 8001; and, for the piecewise-constant media (step and
  staircase), the exact continuum data (oracles.continuum_dataset);
- settings: the defaults, and truncation_tol = 1e-8 with rel_threshold = 1e-3.

Each line gives, per method, the relative L2 error against the medium on
the imaging grid and the TSVD rank, and for LSL the Lanczos ranks k (data)
and k0 (background); or the class of the error the method raised. The output
is deterministic, so two trees can be diffed as with output_digest.py:

    PYTHONPATH=<tree>/src python scripts/robustness_table.py > table.txt
"""
from __future__ import annotations

import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterator, Sequence, Tuple

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))

import oracles  # noqa: E402
from lslimaging import (  # noqa: E402
    DataSet,
    GaussianPotential,
    Grid,
    ImagingError,
    Potential,
    StepPotential,
    ZeroPotential,
    generate_dataset,
    preset_potential,
    reconstruct,
    relative_l2_error,
    weyl_sample,
)

L, NODES, FINE_NODES, N, F = 1.0, 2001, 8001, 10, 4
LEVELS = (1e-8, 1e-6, 1e-4)
SEEDS = (1, 2, 3, 4, 5)
SETTINGS = {"default": {}, "tol1e-8": {"truncation_tol": 1e-8, "rel_threshold": 1e-3}}


@dataclass(frozen=True)
class SumPotential(Potential):
    """The sum of the media `parts`."""

    parts: Tuple[Potential, ...]

    def evaluate(self, grid: Grid) -> np.ndarray:
        return sum(p.evaluate(grid) for p in self.parts)

    @property
    def label(self) -> str:
        return "+".join(p.label for p in self.parts)


MEDIA: Dict[str, Potential] = {
    "gaussian": preset_potential("gaussian", L),
    "step": preset_potential("step", L),
    "two-gaussians": SumPotential(tuple(GaussianPotential(5.0, c, 0.05) for c in (0.2, 0.8))),
    "staircase": oracles.gaussian_staircase(500, L),
}


def datasets(p: Potential, lams: np.ndarray, grid: Grid,
             levels: Sequence[float] = LEVELS, seeds: Sequence[int] = SEEDS) -> Iterator[Tuple[str, DataSet]]:
    """(name, data) for each kind of data of medium p at the sample points lams."""
    exact = generate_dataset(p, lams, grid)
    yield "exact", exact
    for level in levels:
        for seed in seeds:
            yield f"noise={level:g} seed={seed}", oracles.add_noise(exact, level, seed)
    yield f"n={FINE_NODES}", generate_dataset(p, lams, Grid(grid.L, FINE_NODES))
    if isinstance(p, StepPotential):
        yield "continuum", oracles.continuum_dataset(p.pieces, lams, grid.L)


def outcome(data: DataSet, data0: DataSet, p_true: np.ndarray, grid: Grid, method: str, **settings) -> str:
    """One method's cell: its error, ranks and TSVD rank, or the class of what it raised."""
    try:
        result = reconstruct(data, data0, method, grid=grid, **settings)
    except (ImagingError, ValueError, np.linalg.LinAlgError) as exc:
        return f"{method} {type(exc).__name__}"
    ranks = "" if result.factors is None else f" k={result.factors[1].k} k0={result.factors[0].k}"
    return f"{method} err={relative_l2_error(result.p_est, p_true, grid):.4g}{ranks} rank={result.rank}"


def table(media: Dict[str, Potential] = MEDIA, **kinds) -> Iterator[str]:
    """The table's lines for `media`; `kinds` passes levels and seeds on to datasets."""
    grid = Grid(L, NODES)
    lams = weyl_sample(N, F, L).lambdas
    data0 = generate_dataset(ZeroPotential(), lams, grid)
    for name, p in media.items():
        p_true = p.evaluate(grid)
        for kind, data in datasets(p, lams, grid, **kinds):
            for setting, values in SETTINGS.items():
                cells = (outcome(data, data0, p_true, grid, method, **values) for method in ("lsl", "born"))
                yield f"{name:<13} {kind:<22} {setting:<8} " + "  ".join(cells)


if __name__ == "__main__":
    for line in table():
        print(line)
