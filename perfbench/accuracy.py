"""Errors against the true medium, and the roundoff ensemble behind err_lsl.

The outputs are bit-reproducible, so repeated runs of one commit give the
same err_*. A change that only reorders floating-point work still moves
them: on the smooth Gaussian, multiplying F and dF by (1 + 1e-15 z),
z ~ N(0, 1), moves err_lsl by up to a factor of 2 (see roundoff.json). The
reported err_lsl is therefore the median over the unperturbed data and
ENSEMBLE_SEEDS perturbed copies of it; roundoff.py records how far that
median moves when the perturbation seeds change.

Every function takes the imported package as `lsl`, so importing this module
does not import lslimaging.
"""
from __future__ import annotations

import statistics

import workloads as wl

RELATIVE_NOISE = 1e-15
# perturbation seeds of the err_lsl ensemble; with the unperturbed draw the
# ensemble has an odd size, so its median is one of its members
ENSEMBLE_SEEDS = range(1, 9)


def datasets(lsl, potential, intervals: int):
    """Grid, sampling plan and the measured true and background datasets."""
    grid = lsl.Grid(wl.L, wl.N_NODES)
    plan = lsl.weyl_sample(intervals, wl.F_PER_INTERVAL, wl.L)
    data = lsl.generate_dataset(potential, plan.lambdas, grid)
    data0 = lsl.generate_dataset(lsl.ZeroPotential(), plan.lambdas, grid)
    return grid, plan, data, data0


def perturbed(lsl, np, data, seed: int):
    """data with F and dF each multiplied by (1 + RELATIVE_NOISE z)."""
    rng = np.random.default_rng(seed)
    F = data.F * (1.0 + RELATIVE_NOISE * rng.standard_normal(data.m))
    dF = data.dF * (1.0 + RELATIVE_NOISE * rng.standard_normal(data.m))
    samples = [lsl.SpectralSample(lam=float(a), F=float(b), dF=float(c))
               for a, b, c in zip(data.lambdas, F, dF)]
    return lsl.DataSet(L=data.L, samples=samples, label=data.label)


def reconstruction_error(lsl, potential, grid, data, data0, method: str) -> float:
    """err_<method> of reconstruct() with the CLI's and run_experiment's defaults."""
    result = lsl.reconstruct(data, data0, method, grid=grid)
    return lsl.relative_l2_error(result.p_est, potential.evaluate(grid), grid)


def internal_error(lsl, potential, grid, plan, data, data0) -> float:
    """err_internal_lsl at run_experiment's default internal lambda."""
    lam = lsl.experiment.default_internal_lambda(plan.lambdas)
    V0, factors0 = lsl.background_rom(data0, grid)
    factors = lsl.lanczos(lsl.build_loewner(data))
    u_lsl = lsl.lsl_internal(V0, factors0, factors, lam).values
    u_true = lsl.solve_forward(potential, lam, grid).values
    return lsl.relative_l2_error(u_lsl, u_true, grid)


def ensemble_err_lsl(lsl, np, potential, grid, data, data0, base: float,
                     seeds=ENSEMBLE_SEEDS) -> float:
    """The reported err_lsl: median of the unperturbed draw `base` and the
    err_lsl of reconstruct() on each perturbed copy of data."""
    draws = [reconstruction_error(lsl, potential, grid, perturbed(lsl, np, data, seed), data0, "lsl")
             for seed in seeds]
    return statistics.median([base, *draws])
