"""Shared fixtures and the acceptance-suite pass/fail summary."""
import re

import numpy as np
import pytest

import lslimaging.experiment
import lslimaging.imaging
from lslimaging import (GaussianPotential, Grid, StepPotential, ZeroPotential, constant_potential, generate_dataset,
                        save_dataset, weyl_sample)

# One line per acceptance criterion, printed after every run that touched
# tests/test_acceptance.py.
ACCEPTANCE_TITLES = {
    1: "forward-solver oracle vs closed form, grid-convergence order",
    2: "Loewner pencil matches snapshot Gram matrices",
    3: "reduced-model interpolation at the sample points",
    4: "Lanczos contract: M-orthonormality, tridiagonality, eigenvalues, determinism",
    5: "zero-contrast data reconstructs the zero potential",
    6: "imaging solve is exact with true internal fields",
    7: "estimated internal field beats the background field",
    8: "smooth medium: method ordering and sampling-density ordering",
    9: "discontinuous medium: method ordering and overshoot localization",
    10: "experiment presets finish within the time budget",
}

_CRITERION_RE = re.compile(r"test_criterion_(\d+)")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    lines = {}
    for outcome in ("passed", "failed", "error"):
        for report in terminalreporter.stats.get(outcome, []):
            if "test_acceptance" not in report.nodeid:
                continue
            match = _CRITERION_RE.search(report.nodeid)
            if not match:
                continue
            num = int(match.group(1))
            status = "PASS" if outcome == "passed" else "FAIL"
            lines[num] = f"criterion {num:2d}: {status}  {ACCEPTANCE_TITLES.get(num, '')}"
    if lines:
        terminalreporter.section("acceptance criteria")
        for num in sorted(lines):
            terminalreporter.write_line(lines[num])


@pytest.fixture(autouse=True)
def cold_background():
    """Every test starts with no kept background model or output columns, so call counts are a cold run's."""
    lslimaging.imaging._BACKGROUND.clear()
    lslimaging.experiment._background_columns.cache_clear()


@pytest.fixture(scope="session")
def grid():
    """The default reconstruction grid."""
    return Grid(L=1.0, n=2001)


@pytest.fixture(scope="session")
def coarse_grid():
    return Grid(L=1.0, n=401)


@pytest.fixture(scope="session")
def gaussian_preset():
    return GaussianPotential(amplitude=5.0, center=0.5, width=0.1)


@pytest.fixture(scope="session")
def step_preset():
    return StepPotential(((0.4, 0.6, 4.0),))


@pytest.fixture(scope="session")
def test_potentials(gaussian_preset, step_preset):
    """The four media exercised throughout: zero, constant 2, smooth, discontinuous."""
    return {
        "zero": ZeroPotential(),
        "constant2": constant_potential(2.0, 1.0),
        "gaussian": gaussian_preset,
        "step": step_preset,
    }


@pytest.fixture(scope="session")
def reconstruct_args(tmp_path_factory):
    """`reconstruct` arguments on small datasets; --out is left to the test."""
    tmp = tmp_path_factory.mktemp("cli-inputs")
    grid, lams = Grid(1.0, 401), weyl_sample(3, 3, 1.0).lambdas
    save_dataset(generate_dataset(GaussianPotential(5.0, 0.5, 0.1), lams, grid), tmp / "true.txt")
    save_dataset(generate_dataset(ZeroPotential(), lams, grid), tmp / "background.txt")
    return ["reconstruct", "--data", str(tmp / "true.txt"), "--background", str(tmp / "background.txt"),
            "--method", "lsl", "--nodes", "401"]


def weighted_rel_err(a: np.ndarray, b: np.ndarray, grid: Grid) -> float:
    """Quadrature-weighted relative L2 distance used across the tests."""
    num = np.sqrt(np.sum(grid.weights * (a - b) ** 2))
    den = np.sqrt(np.sum(grid.weights * b * b))
    return float(num / den)
