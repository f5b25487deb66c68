"""Acceptance suite: one test per published criterion of the build.

Each test pins its tolerances directly; a summary line per criterion is
printed by the conftest hook at the end of the run. Criteria 1-10 cover:
forward-solver accuracy and convergence order, the equality of the
data-driven pencil with the snapshot Gram matrices, reduced-model
interpolation, the Lanczos contract, zero-contrast sanity, oracle imaging
exactness, internal-field estimation quality, the method orderings on the
smooth and discontinuous media, and the end-to-end runtime budget.
"""
import time

import numpy as np
import scipy.linalg

import oracles
from conftest import weighted_rel_err
from oracles import constant_potential
from lslimaging import (
    GaussianPotential,
    Grid,
    StepPotential,
    ZeroPotential,
    assemble_operator,
    background_rom,
    build_loewner,
    compute_snapshot_matrix,
    generate_dataset,
    lanczos,
    lsl_internal,
    preset_config,
    read_summary,
    reconstruct,
    relative_l2_error,
    run_experiment,
    solve_forward,
    assemble_system,
    solve_regularized,
    weyl_sample,
)
from lslimaging.experiment import default_internal_lambda
from oracles import analytic_background_transfer, measure_transfer, solve_forward_operator

L = 1.0
N_INTERVALS = 10
GRID = Grid(L, 2001)
GAUSSIAN = GaussianPotential(amplitude=5.0, center=0.5, width=0.1)
STEP = StepPotential(((0.4, 0.6, 4.0),))

_dataset_cache = {}


def dataset_pair(potential, f):
    """True and background datasets at the standard sampling plan (cached)."""
    key = (potential.label, f)
    if key not in _dataset_cache:
        lams = weyl_sample(N_INTERVALS, f, L).lambdas
        data = generate_dataset(potential, lams, GRID)
        data0 = generate_dataset(ZeroPotential(), lams, GRID)
        _dataset_cache[key] = (data, data0)
    return _dataset_cache[key]


def reconstruction_error(potential, f, method):
    data, data0 = dataset_pair(potential, f)
    result = reconstruct(data, data0, method, grid=GRID)
    return relative_l2_error(result.p_est, potential.evaluate(GRID), GRID)


def test_criterion_01_forward_solver_oracle():
    """Transfer values match the closed form at every sample of the
    five-interval plan, with second-order grid convergence, within 1 s."""
    start = time.perf_counter()
    lams = weyl_sample(5, 4, L).lambdas
    assert lams.size == 20

    errors_by_n = {}
    for n in (251, 501, 1001, 2001):
        grid = Grid(L, n)
        op = assemble_operator(ZeroPotential(), grid)
        rel = []
        for lam in lams:
            F = measure_transfer(solve_forward_operator(op, lam, grid), grid)
            F0 = analytic_background_transfer(lam, L)
            rel.append(abs(F - F0) / abs(F0))
        errors_by_n[n] = np.array(rel)

    worst = errors_by_n[2001]
    elapsed = time.perf_counter() - start

    max_err = [errors_by_n[n].max() for n in (251, 501, 1001, 2001)]
    orders = [np.log2(a / b) for a, b in zip(max_err, max_err[1:])]
    assert all(1.8 <= order <= 2.2 for order in orders), f"orders {orders}"
    assert elapsed < 1.0, f"took {elapsed:.2f}s"
    assert np.all(worst < 1e-4), (
        f"max rel err {worst.max():.4e} at lambda="
        f"{lams[int(np.argmax(worst))]:.4f} (n=2001); "
        f"{int(np.sum(worst >= 1e-4))} of 20 points exceed 1e-4"
    )


def test_criterion_02_loewner_gram_equivalence():
    """Data-driven S, M, b agree elementwise with the snapshot Gram matrices
    for all four test media at the ten-interval, three-point plan."""
    start = time.perf_counter()
    media = {
        "zero": ZeroPotential(),
        "constant2": constant_potential(2.0, L),
        "gaussian": GAUSSIAN,
        "step": STEP,
    }
    lams = weyl_sample(N_INTERVALS, 3, L).lambdas
    for name, potential in media.items():
        data = generate_dataset(potential, lams, GRID)
        pencil = build_loewner(data)
        V = compute_snapshot_matrix(potential, lams, GRID)
        S, M, b = oracles.gram_oracle(V, potential)
        rel_S = np.max(np.abs(pencil.S - S) / np.abs(S))
        rel_M = np.max(np.abs(pencil.M - M) / np.abs(M))
        rel_b = np.max(np.abs(pencil.b - b) / np.abs(b))
        assert rel_S < 1e-5, f"{name}: S deviates by {rel_S:.2e}"
        assert rel_M < 1e-5, f"{name}: M deviates by {rel_M:.2e}"
        assert rel_b < 1e-5, f"{name}: b deviates by {rel_b:.2e}"
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"took {elapsed:.2f}s"


def test_criterion_03_galerkin_interpolation():
    """The reduced model reproduces the true snapshot at every sample point."""
    start = time.perf_counter()
    lams = weyl_sample(N_INTERVALS, 3, L).lambdas
    for potential in (ZeroPotential(), constant_potential(2.0, L), GAUSSIAN, STEP):
        data = generate_dataset(potential, lams, GRID)
        V = compute_snapshot_matrix(potential, lams, GRID)
        factors = lanczos(build_loewner(data))
        for j, lam in enumerate(lams):
            est = lsl_internal(V, factors, factors, lam)
            err = weighted_rel_err(est.values, V.V[:, j], GRID)
            assert err < 1e-5, f"{potential.label} at lambda={lam:.3f}: {err:.2e}"
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"took {elapsed:.2f}s"


def test_criterion_04_lanczos_contract():
    """M-orthonormality and tridiagonal reduction to 1e-10, eigenvalue
    agreement with the dense pencil to 1e-8, bit-identical reruns.

    Exercised in the full-rank regime (one sample per resonance interval),
    where the mass matrix is well conditioned and the identities are
    meaningful at these tolerances in double precision.
    """
    for potential in (ZeroPotential(), GAUSSIAN):
        lams = weyl_sample(N_INTERVALS, 1, L).lambdas
        pencil = build_loewner(generate_dataset(potential, lams, GRID))
        factors = lanczos(pencil)
        k = factors.k
        assert k == pencil.m, "expected the full-rank regime"
        dev_M = np.max(np.abs(factors.Q.T @ pencil.M @ factors.Q - np.eye(k)))
        dev_S = np.max(np.abs(factors.Q.T @ pencil.S @ factors.Q - factors.T))
        assert dev_M < 1e-10, f"{potential.label}: Q^T M Q - I = {dev_M:.2e}"
        assert dev_S < 1e-10, f"{potential.label}: Q^T S Q - T = {dev_S:.2e}"
        assert np.all(np.diag(factors.T, 1) > 0)

        dense = np.sort(scipy.linalg.eigh(pencil.S, pencil.M, eigvals_only=True))
        reduced = np.sort(np.linalg.eigvalsh(factors.T))
        assert np.max(np.abs(dense - reduced)) < 1e-8

        again = lanczos(pencil)
        assert np.array_equal(factors.T, again.T)
        assert np.array_equal(factors.Q, again.Q)
        assert factors.normfactor == again.normfactor


def test_criterion_05_zero_contrast():
    """Measuring the background against itself reconstructs the zero potential."""
    data, data0 = dataset_pair(ZeroPotential(), 3)
    for method in ("born", "lsl"):
        result = reconstruct(data, data0, method, grid=GRID)
        peak = np.max(np.abs(result.p_est))
        assert peak < 1e-6, f"{method}: |p_est|_inf = {peak:.2e}"


def test_criterion_06_oracle_imaging_exactness():
    """With the true internal fields supplied, the assembled system and the
    regularized solve recover the smooth potential to 1e-2."""
    start = time.perf_counter()
    data, data0 = dataset_pair(GAUSSIAN, 4)
    V0 = compute_snapshot_matrix(ZeroPotential(), data.lambdas, GRID)
    W = compute_snapshot_matrix(GAUSSIAN, data.lambdas, GRID).V
    system = assemble_system(data, data0, V0, W)
    result = solve_regularized(system, rel_threshold=1e-8)
    err = relative_l2_error(result.p_est, GAUSSIAN.evaluate(GRID), GRID)
    elapsed = time.perf_counter() - start
    assert err < 1e-2, f"oracle-provider reconstruction error {err:.2e}"
    assert elapsed < 30.0, f"took {elapsed:.2f}s"


def test_criterion_07_internal_field_estimate():
    """Between samples, the data-driven internal field is at least five times
    closer to the true field than the background field is."""
    data, data0 = dataset_pair(GAUSSIAN, 4)
    V0, factors0 = background_rom(data0, GRID)
    factors = lanczos(build_loewner(data))
    lam_star = default_internal_lambda(data.lambdas)
    u_true = solve_forward(GAUSSIAN, lam_star, GRID).values
    u_bg = solve_forward(ZeroPotential(), lam_star, GRID).values
    u_est = lsl_internal(V0, factors0, factors, lam_star).values
    err_est = weighted_rel_err(u_est, u_true, GRID)
    err_bg = weighted_rel_err(u_bg, u_true, GRID)
    assert err_est < 0.2 * err_bg, f"{err_est:.3e} !< 0.2 * {err_bg:.3e}"


def test_criterion_08_smooth_medium_orderings():
    """LSL beats Born for f = 3, 4, 5 on the smooth medium, and the denser
    sampling is at least as accurate as the sparser one."""
    errs = {}
    for f in (3, 4, 5):
        errs[("lsl", f)] = reconstruction_error(GAUSSIAN, f, "lsl")
        errs[("born", f)] = reconstruction_error(GAUSSIAN, f, "born")
        assert errs[("lsl", f)] < errs[("born", f)], (
            f"f={f}: lsl {errs[('lsl', f)]:.3e} !< born {errs[('born', f)]:.3e}"
        )
    assert errs[("lsl", 5)] <= errs[("lsl", 3)], (
        f"err(lsl, f=5) = {errs[('lsl', 5)]:.3e} !<= err(lsl, f=3) = {errs[('lsl', 3)]:.3e}"
    )


def test_criterion_09_step_medium_orderings_and_gibbs():
    """LSL beats Born for f = 3, 4, 5 on the discontinuous medium, and the
    ringing overshoot stays within ten nodes of each jump.

    Overshoot is counted where the reconstruction leaves the true value
    range by more than 5% of the jump height.
    """
    p_true = STEP.evaluate(GRID)
    jump_height = 4.0
    jump_nodes = np.array([
        int(np.argmin(np.abs(GRID.nodes - 0.4))),
        int(np.argmin(np.abs(GRID.nodes - 0.6))),
    ])
    worst_distance = 0
    for f in (3, 4, 5):
        err_lsl = reconstruction_error(STEP, f, "lsl")
        err_born = reconstruction_error(STEP, f, "born")
        assert err_lsl < err_born, f"f={f}: {err_lsl:.3e} !< {err_born:.3e}"

        data, data0 = dataset_pair(STEP, f)
        p_est = reconstruct(data, data0, "lsl", grid=GRID).p_est
        exceed = np.maximum(p_est - p_true.max(), p_true.min() - p_est)
        overshoot = np.where(exceed > 0.05 * jump_height)[0]
        if overshoot.size:
            distances = np.min(np.abs(overshoot[:, None] - jump_nodes[None, :]), axis=1)
            worst_distance = max(worst_distance, int(distances.max()))
    assert worst_distance <= 10, (
        f"overshoot extends to {worst_distance} nodes from the nearest jump"
    )


def test_criterion_10_experiment_runtime(tmp_path):
    """Every preset completes end to end within 60 s on the default grid."""
    for preset in ("gaussian", "step", "zero"):
        start = time.perf_counter()
        paths = run_experiment(preset_config(preset, f=4, outdir=tmp_path / preset))
        elapsed = time.perf_counter() - start
        assert elapsed < 60.0, f"{preset} took {elapsed:.1f}s"
        summary = read_summary(paths["summary"])
        assert summary["m"] == "40"
