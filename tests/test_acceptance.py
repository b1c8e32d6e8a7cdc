"""Acceptance suite: one test per acceptance criterion, one printed line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
PASS/FAIL lines as they execute.

Three checks are known not to hold for this construction and are kept
verbatim rather than weakened (see README, "Known acceptance-check failures"):

* criterion 2a: products of step matrices over a fully-observing window are
  strictly contractive but are NOT bounded by the per-member factor psi when
  member kernels overlap (measured window norms ~1 - 1e-6 vs psi ~0.83);
* criterion 2b: consequently the noiseless error can decay slower than
  psi^floor(t/tau), and late steps overshoot that envelope on some sequences
  (worst observed ratio ~1.64 at t=100);
* criterion 5b: the bound-optimal inertia weight does not coincide with the
  empirically best one (the steady-state error curve bottoms out near
  gamma ~ 0.08 while the bound argmin sits near 0.20).
"""

import json
import os
import subprocess
import sys
import time

import numpy as np
import pytest

import wlstrack
from wlstrack import analysis, simulation
from wlstrack.analysis import ErrorMoments
from wlstrack.estimator import (
    EstimatorConfig,
    EstimatorState,
    MeasurementBatch,
    information_matrix,
    lambda_matrix,
    update,
    update_gradient_form,
)
from wlstrack.simulation import NoiseModel, ScenarioConfig

from helpers import (
    closed_form_covariance,
    dense_update_oracle,
    random_spd,
    rel_err,
)

SEED = 20260808


def _report(tag, ok, detail):
    print(f"[criterion {tag}] {'PASS' if ok else 'FAIL'} - {detail}")


def bounded_scenario(gamma=0.25, n_runs=500, horizon=200, **overrides):
    base = dict(
        n_states=15,
        n_meas=3,
        horizon=horizon,
        library_size=10,
        delta_x=1.0,
        noise=NoiseModel("bounded", 1.0),
        gamma=gamma,
        n_runs=n_runs,
        seed=SEED,
    )
    base.update(overrides)
    return ScenarioConfig(**base)


@pytest.fixture(scope="module")
def experiment_ensemble():
    return simulation.build_ensemble(bounded_scenario())


@pytest.fixture(scope="module")
def bounded_sweep(experiment_ensemble):
    """Steady-state statistics of the five-gamma sweep at 500 runs each."""
    consts = analysis.ensemble_constants(experiment_ensemble)
    star = analysis.gamma_star_bounded(consts.c, consts.lambda_bar, 1.0, 1.0)
    gammas = [0.01, 0.05, star, 1.0, 2.0]
    curves = []
    for gamma in gammas:
        summary = simulation.monte_carlo(bounded_scenario(gamma=gamma), n_jobs=2)
        curves.append(summary.mean_error)
    steadies = [float(curve[150:].mean()) for curve in curves]
    return gammas, steadies, curves


# --------------------------------------------------------------- criterion 1

def test_criterion_1_closed_form_matches_dense_solve():
    # 100 random instances (N <= 15, M <= 5, gamma in [1e-2, 10]): the update
    # must match a dense normal-equations solve to 1e-10 relative, and the
    # descent-form rewriting must match the update to the same tolerance.
    rng = np.random.default_rng(SEED)
    start = time.time()
    worst_solve = 0.0
    worst_grad = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 16))
        m = int(rng.integers(1, 6))
        gamma = float(np.exp(rng.uniform(np.log(1e-2), np.log(10.0))))
        A = rng.standard_normal((m, n))
        Q = random_spd(rng, m)
        x_prev = rng.standard_normal(n)
        y = rng.standard_normal(m)
        state = EstimatorState(x_prev, 0)
        batch = MeasurementBatch(1, y, A, Q)
        config = EstimatorConfig(gamma, n)
        got = update(state, batch, config).x_hat
        worst_solve = max(worst_solve, rel_err(got, dense_update_oracle(x_prev, y, A, Q, gamma)))
        alt = update_gradient_form(state, batch, config).x_hat
        worst_grad = max(worst_grad, rel_err(alt, got))
    elapsed = time.time() - start
    ok = worst_solve <= 1e-10 and worst_grad <= 1e-10 and elapsed < 5.0
    _report(
        "1",
        ok,
        f"closed-form correctness: max rel err vs oracle {worst_solve:.2e}, "
        f"descent form {worst_grad:.2e}, {elapsed:.2f}s",
    )
    assert worst_solve <= 1e-10
    assert worst_grad <= 1e-10
    assert elapsed < 5.0


# --------------------------------------------------------------- criterion 2

def _contraction_sequences(ensemble, horizon=100, count=50):
    out = []
    for k in range(count):
        seq = simulation.generate_sequence(
            ensemble, horizon, "window", simulation.derive_seed(SEED, 1000 + k), window=5
        )
        tau = analysis.observability_window(seq, ensemble)
        assert tau is not None
        out.append((seq, tau))
    return out


def test_criterion_2a_window_products_within_psi(experiment_ensemble):
    # Verbatim check: every tau-window product norm <= psi < 1, with tau the
    # computed observability window.  Strict contraction (norm < 1) does hold,
    # but the psi bound does not for this geometry; kept unweakened.
    gamma = 0.25
    psi_value = analysis.psi(experiment_ensemble, gamma)
    assert 0 < psi_value < 1
    lams = {
        i: experiment_ensemble.member_lambda(i, gamma)
        for i in range(len(experiment_ensemble.members))
    }
    violations = 0
    windows = 0
    max_norm = 0.0
    for seq, tau in _contraction_sequences(experiment_ensemble):
        for start in range(len(seq) - tau + 1):
            window = [lams[int(i)] for i in seq[start : start + tau]]
            norm = analysis.contraction_norm(window)
            windows += 1
            max_norm = max(max_norm, norm)
            if norm > psi_value + 1e-12:
                violations += 1
    strictly_contractive = max_norm < 1.0
    ok = violations == 0 and strictly_contractive
    _report(
        "2a",
        ok,
        f"window products: {violations}/{windows} exceed psi={psi_value:.4f}, "
        f"max norm {max_norm:.8f} (strictly below 1: {strictly_contractive})",
    )
    assert strictly_contractive
    assert violations == 0, (
        f"{violations} of {windows} fully-observing window products exceed psi={psi_value:.4f} "
        f"(max norm {max_norm:.8f}). The products are strictly contractive (all norms < 1) but "
        "the per-member factor psi does not bound them when consecutive member kernels overlap, "
        "which is unavoidable with 3x15 members. Kept verbatim; see README "
        "'Known acceptance-check failures' and the per-window strict-contraction checks in "
        "tests/test_analysis.py."
    )


def test_criterion_2b_noiseless_decay_within_psi_rate(experiment_ensemble):
    # Noiseless static runs: ||xi(t)|| <= psi^floor(t/tau) * ||xi(0)|| at
    # every t, for the same 50 window-constrained sequences.
    gamma = 0.25
    psi_value = analysis.psi(experiment_ensemble, gamma)
    x0 = tuple(np.random.default_rng(1).uniform(-0.5, 0.5, 15))
    scenario = bounded_scenario(
        gamma=gamma, n_runs=1, horizon=100, delta_x=0.0, noise=NoiseModel("bounded", 0.0), x0=x0
    )
    xi0 = float(np.linalg.norm(np.array(x0)))
    violations = 0
    worst_ratio = 0.0
    for k, (seq, tau) in enumerate(_contraction_sequences(experiment_ensemble)):
        run = simulation.simulate_run(
            scenario,
            simulation.seed_for_run(scenario, k),
            ensemble=experiment_ensemble,
            member_sequence=seq,
        )
        t = np.arange(1, scenario.horizon + 1)
        bound = psi_value ** (t // tau) * xi0
        ratio = run.per_step_error / bound
        worst_ratio = max(worst_ratio, float(ratio.max()))
        violations += int(np.sum(run.per_step_error > bound * (1 + 1e-9)))
    ok = violations == 0
    _report(
        "2b",
        ok,
        f"noiseless static decay: {violations} violations over 50 runs x 100 steps, "
        f"worst err/bound ratio {worst_ratio:.4f}",
    )
    assert ok, (
        f"{violations} late-step violations of the psi^floor(t/tau) decay envelope "
        f"(worst err/bound ratio {worst_ratio:.4f}). The error does decay to zero, but its "
        "realized rate per window (~0.90 here) is slower than psi (~0.83) because the window "
        "products are not bounded by psi (criterion 2a). Kept verbatim; see README 'Known "
        "acceptance-check failures'."
    )


# --------------------------------------------------------------- criterion 3

def test_criterion_3_bounded_noise_bound_never_violated(experiment_ensemble):
    # 500 bounded-noise runs (N=15, M=3, T=200): the realized error norm never
    # exceeds the finite-horizon bound evaluated with the per-step recorded
    # increment and noise norms and the computed observability window.
    scenario = bounded_scenario()
    start = time.time()
    psi_value = analysis.psi(experiment_ensemble, scenario.gamma)
    c_members = [
        float(np.linalg.norm(np.linalg.solve(Q, A), 2)) for A, Q in experiment_ensemble.members
    ]
    violations = 0
    min_slack = np.inf
    for i in range(scenario.n_runs):
        run = simulation.simulate_run(
            scenario,
            simulation.seed_for_run(scenario, i),
            ensemble=experiment_ensemble,
            keep_details=True,
        )
        tau = analysis.observability_window(run.member_indices, experiment_ensemble)
        per_step = np.column_stack(
            [
                np.linalg.norm(run.deltas, axis=1),
                np.array([c_members[int(j)] for j in run.member_indices]),
                np.linalg.norm(run.noises, axis=1),
            ]
        )
        xi0 = float(np.linalg.norm(run.estimates[0] - run.states[0]))
        series = analysis.bound_series_bounded(tau, psi_value, xi0, per_step, scenario.gamma)
        slack = series - run.per_step_error
        min_slack = min(min_slack, float(slack.min()))
        violations += int(np.sum(run.per_step_error > series * (1 + 1e-9)))
    elapsed = time.time() - start
    ok = violations == 0 and elapsed < 120.0
    _report(
        "3",
        ok,
        f"finite-horizon bound: {violations} violations over 500 runs x 200 steps, "
        f"min slack {min_slack:.3f}, {elapsed:.1f}s",
    )
    assert violations == 0
    assert elapsed < 120.0


# --------------------------------------------------------------- criterion 4

def test_criterion_4_covariance_recursions_and_empirical_match():
    # Static state, Gaussian noise (N=6, M=2): step recursion, closed-form
    # accumulation and vectorized system agree pairwise to 1e-10; the
    # empirical covariance over 5000 runs matches within 10 percent Frobenius
    # relative error at t in {5, 10, 20}.
    scenario = ScenarioConfig(
        n_states=6,
        n_meas=2,
        horizon=20,
        library_size=6,
        delta_x=0.0,
        noise=NoiseModel("gaussian", 0.25),
        gamma=0.5,
        n_runs=5000,
        seed=424242,
    )
    ensemble = simulation.build_ensemble(scenario)
    seq = simulation.generate_sequence(
        ensemble, scenario.horizon, "window", simulation.derive_seed(SEED, 99), window=3
    )
    gamma = scenario.gamma
    moments = ErrorMoments(np.zeros(6), np.zeros((6, 6)), 0)
    sigma_vec = np.zeros(36)
    theory = []
    worst_vec = 0.0
    for t in range(1, scenario.horizon + 1):
        A, Q = ensemble.members[seq[t - 1]]
        batch = MeasurementBatch(t, np.zeros(2), A, Q)
        moments = analysis.propagate_error_moments(moments, batch, np.zeros(6), gamma)
        sigma_vec = analysis.vectorized_sigma_step(sigma_vec, batch, gamma)
        worst_vec = max(worst_vec, rel_err(sigma_vec.reshape(6, 6), moments.sigma))
        theory.append(moments.sigma)
    lams = [ensemble.member_lambda(int(i), gamma) for i in seq]
    infos = [information_matrix(*ensemble.members[int(i)]) for i in seq]
    closed = closed_form_covariance(lams, infos, gamma)
    closed_err = rel_err(closed, theory[-1])

    summary = simulation.monte_carlo(scenario, n_jobs=2, track_covariance=True, member_sequence=seq)
    emp_errs = {}
    for t in (5, 10, 20):
        emp_errs[t] = float(
            np.linalg.norm(summary.empirical_cov[t - 1] - theory[t - 1])
            / np.linalg.norm(theory[t - 1])
        )
    ok = worst_vec <= 1e-10 and closed_err <= 1e-10 and all(v <= 0.10 for v in emp_errs.values())
    _report(
        "4",
        ok,
        f"covariance: recursion/vectorized {worst_vec:.2e}, closed form {closed_err:.2e}, "
        f"empirical rel err {({t: round(v, 4) for t, v in emp_errs.items()})}",
    )
    assert worst_vec <= 1e-10
    assert closed_err <= 1e-10
    for t, v in emp_errs.items():
        assert v <= 0.10, f"empirical covariance off by {v:.3f} at t={t}"


# --------------------------------------------------------------- criterion 5

def test_criterion_5a_gamma_star_formula_matches_grid_argmin(experiment_ensemble):
    consts = analysis.ensemble_constants(experiment_ensemble)
    star = analysis.gamma_star_bounded(consts.c, consts.lambda_bar, 1.0, 1.0)
    grid = np.geomspace(1e-3, 1e3, 10_000)
    values = [analysis.h_bounded(g, 5, 1.0, consts.c, 1.0, consts.lambda_bar) for g in grid]
    k = int(np.argmin(values))
    cell = grid[min(k + 1, grid.size - 1)] - grid[max(k - 1, 0)]
    ok = abs(star - grid[k]) <= cell
    _report(
        "5a",
        ok,
        f"gamma* formula {star:.6f} vs grid argmin {grid[k]:.6f} (cell {cell:.2e})",
    )
    assert ok


def test_criterion_5b_sweep_ranks_bound_optimal_gamma_lowest(bounded_sweep):
    # Verbatim check: among {0.01, 0.05, gamma*, 1, 2} at 500 runs each, the
    # bound-optimal gamma* must have the lowest steady-state mean error.
    # Empirically the curve bottoms out below gamma*; kept unweakened.
    gammas, steadies, _ = bounded_sweep
    ranking = dict(zip([f"{g:.4g}" for g in gammas], [round(s, 4) for s in steadies]))
    best = int(np.argmin(steadies))
    ok = best == 2
    _report(
        "5b",
        ok,
        f"sweep steady-state means {ranking}; lowest at gamma={gammas[best]:.4g}, "
        f"bound-optimal gamma*={gammas[2]:.4g}",
    )
    assert ok, (
        f"the bound-optimal gamma*={gammas[2]:.4g} does not rank lowest: steady-state mean "
        f"errors {ranking} put gamma={gammas[best]:.4g} first (gap ~6 standard errors at 500 "
        "runs, reproduced across library seeds). The worst-case-bound argmin and the empirical "
        "optimum genuinely differ for this construction. Kept verbatim; see README 'Known "
        "acceptance-check failures'."
    )


def test_criterion_5c_stochastic_gamma_star_consistent():
    # Stochastic analogue: the minimizer of the stochastic bound (the root of
    # its stationarity condition) must match a dense grid argmin.
    ensemble = simulation.generate_library(
        15, 3, 10, simulation.derive_seed(SEED, 0), q_scale=0.25
    )
    consts = analysis.ensemble_constants(ensemble)
    star = analysis.gamma_star_stochastic(consts.capital_c, consts.m, 1.0, consts.lambda_bar)
    grid = np.geomspace(1e-3, 1e3, 10_000)
    values = [
        analysis.h_stochastic(g, 5, consts.capital_c, consts.m, 1.0, consts.lambda_bar)
        for g in grid
    ]
    k = int(np.argmin(values))
    cell = grid[min(k + 1, grid.size - 1)] - grid[max(k - 1, 0)]
    ok = abs(star - grid[k]) <= cell
    _report(
        "5c",
        ok,
        f"stochastic gamma* {star:.4f} vs grid argmin {grid[k]:.4f}",
    )
    assert ok


# --------------------------------------------------------------- criterion 6

def test_criterion_6_sweep_qualitative_shape(bounded_sweep):
    # Steady-state mean error is non-monotone in gamma with an interior
    # minimum; the largest swept gamma has the slowest transient (largest t
    # to come within 10 percent of its own steady state).
    gammas, steadies, curves = bounded_sweep
    best = int(np.argmin(steadies))
    interior = 0 < best < len(gammas) - 1
    non_monotone = steadies[0] > steadies[best] and steadies[-1] > steadies[best]
    settles = []
    for curve, steady in zip(curves, steadies):
        in_band = np.abs(curve - steady) <= 0.1 * steady
        settles.append(int(np.argmax(in_band)) + 1)
    slowest_last = settles[-1] == max(settles) and settles[-1] > max(settles[:-1])
    ok = interior and non_monotone and slowest_last
    _report(
        "6",
        ok,
        f"steady means {[round(s, 3) for s in steadies]}, settle times {settles} "
        f"for gammas {[round(g, 4) for g in gammas]}",
    )
    assert interior and non_monotone
    assert slowest_last


# --------------------------------------------------------------- criterion 7

def run_cli(args):
    # The child imports wlstrack from this checkout's src, as the suite does.
    src = os.path.dirname(os.path.dirname(wlstrack.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run(
        [sys.executable, "-m", "wlstrack.cli", *args], capture_output=True, timeout=300, env=env
    )
    return proc.returncode, proc.stdout, proc.stderr


def test_criterion_7_cli_determinism(tmp_path):
    # Repeated invocation of every subcommand with identical inputs produces
    # byte-identical outputs, including under varying parallelism.
    config = {
        "n_states": 4,
        "n_meas": 2,
        "horizon": 12,
        "library_size": 5,
        "delta_x": 1.0,
        "noise": {"kind": "bounded", "delta_n": 1.0},
        "gamma": 0.5,
        "n_runs": 6,
        "seed": 987,
    }
    cfg = tmp_path / "sc.json"
    cfg.write_text(json.dumps(config))
    checks = []

    sim = [tmp_path / f"sim{i}.csv" for i in range(3)]
    meas = tmp_path / "meas.jsonl"
    code, _, err1 = run_cli(["simulate", str(cfg), str(sim[0]), "--dump-measurements", str(meas)])
    assert code == 0
    code, _, err2 = run_cli(["simulate", str(cfg), str(sim[1])])
    assert code == 0
    code, _, _ = run_cli(["simulate", str(cfg), str(sim[2]), "--jobs", "2"])
    assert code == 0
    checks.append(("simulate", sim[0].read_bytes() == sim[1].read_bytes() == sim[2].read_bytes()))
    checks.append(("simulate-stderr", err1 == err2))

    sw = [tmp_path / f"sw{i}.csv" for i in range(2)]
    assert run_cli(["sweep", str(cfg), "0.25,1", str(sw[0])])[0] == 0
    assert run_cli(["sweep", str(cfg), "0.25,1", str(sw[1]), "--jobs", "2"])[0] == 0
    checks.append(("sweep", sw[0].read_bytes() == sw[1].read_bytes()))

    bo = [tmp_path / f"bo{i}.csv" for i in range(2)]
    for path in bo:
        assert run_cli(["bounds", str(cfg), str(path), "--gamma-grid", "0.01", "10", "40"])[0] == 0
    checks.append(("bounds", bo[0].read_bytes() == bo[1].read_bytes()))
    checks.append(
        (
            "bounds-report",
            (tmp_path / "bo0.csv.report.json").read_bytes()
            == (tmp_path / "bo1.csv.report.json").read_bytes(),
        )
    )

    outs = [run_cli(["gamma-star", str(cfg)]) for _ in range(2)]
    assert all(code == 0 for code, _, _ in outs)
    checks.append(("gamma-star", outs[0][1] == outs[1][1]))

    rp = [tmp_path / f"rp{i}.csv" for i in range(2)]
    for path in rp:
        assert run_cli(["replay", str(meas), str(path), "--gamma", "0.5"])[0] == 0
    checks.append(("replay", rp[0].read_bytes() == rp[1].read_bytes()))

    ver = [run_cli(["verify", str(cfg)]) for _ in range(2)]
    assert all(code == 0 for code, _, _ in ver)
    checks.append(("verify", ver[0][1] == ver[1][1]))

    failed = [name for name, same in checks if not same]
    ok = not failed
    _report("7", ok, f"byte-identical outputs for {[name for name, _ in checks]}")
    assert ok, f"non-deterministic outputs: {failed}"


# --------------------------------------------------------------- criterion 8

def test_criterion_8_kron_spectrum_pairwise_products():
    # For random instances (N <= 5) the eigenvalue multiset of the Kronecker
    # square equals all pairwise products of the step matrix's eigenvalues.
    rng = np.random.default_rng(SEED + 8)
    worst = 0.0
    for _ in range(20):
        n = int(rng.integers(2, 6))
        m = int(rng.integers(1, n + 1))
        A = rng.standard_normal((m, n))
        Q = random_spd(rng, m)
        gamma = float(rng.uniform(0.05, 5.0))
        lam = lambda_matrix(A, Q, gamma)
        eigs = np.linalg.eigvalsh(lam)
        pairwise = np.sort(np.outer(eigs, eigs).reshape(-1))
        kron_eigs = np.sort(np.linalg.eigvalsh(np.kron(lam, lam)))
        worst = max(worst, float(np.abs(kron_eigs - pairwise).max()))
    ok = worst <= 1e-8
    _report("8", ok, f"Kronecker-square spectrum: max multiset deviation {worst:.2e}")
    assert ok
