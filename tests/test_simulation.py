import math

import numpy as np
import pytest

from wlstrack import analysis, simulation
from wlstrack.analysis import ErrorMoments, observability_window, propagate_error_moments, psi
from wlstrack.estimator import EstimatorConfig, MeasurementBatch, initial_state, run_stream
from wlstrack.simulation import (
    NoiseModel,
    ScenarioConfig,
    build_ensemble,
    derive_seed,
    generate_library,
    generate_noise,
    generate_sequence,
    generate_trajectory,
    iter_runs,
    monte_carlo,
    seed_for_run,
    simulate_run,
)

from helpers import count_calls, rel_err


def small_scenario(**overrides):
    base = dict(
        n_states=4,
        n_meas=2,
        horizon=30,
        library_size=5,
        delta_x=1.0,
        noise=NoiseModel("bounded", 1.0),
        gamma=0.5,
        n_runs=4,
        seed=314159,
    )
    base.update(overrides)
    return ScenarioConfig(**base)


# ----------------------------------------------------------------- seeding

def test_derive_seed_is_deterministic_and_spreads():
    assert derive_seed(1, 2) == derive_seed(1, 2)
    seeds = {derive_seed(99, i) for i in range(1000)}
    assert len(seeds) == 1000
    assert all(0 <= s < 2**64 for s in seeds)


# ----------------------------------------------------------------- library

def test_library_members_have_unit_frobenius_norm():
    ens = generate_library(15, 3, 10, 7)
    for A, Q in ens.members:
        assert np.linalg.norm(A) == pytest.approx(1.0, abs=1e-12)
        assert np.array_equal(Q, np.eye(3))


def test_library_is_bit_reproducible():
    a = generate_library(8, 2, 4, 123)
    b = generate_library(8, 2, 4, 123)
    for (A1, Q1), (A2, Q2) in zip(a.members, b.members):
        assert np.array_equal(A1, A2)
        assert np.array_equal(Q1, Q2)


def test_library_members_have_full_row_rank():
    ens = generate_library(15, 3, 10, 11)
    for A, _ in ens.members:
        assert np.linalg.matrix_rank(A) == 3


def test_library_q_scale():
    ens = generate_library(6, 2, 3, 5, q_scale=0.25)
    for _, Q in ens.members:
        assert np.array_equal(Q, 0.25 * np.eye(2))


# ----------------------------------------------------------------- sequence

def test_sequence_single_full_rank_member():
    ens = generate_library(3, 3, 1, 2)
    for policy in ("uniform", "window"):
        seq = generate_sequence(ens, 10, policy, 1, window=1)
        assert np.array_equal(seq, np.zeros(10, dtype=int))
        assert observability_window(seq, ens) == 1


def test_sequence_window_policy_stacks_full_rank():
    ens = generate_library(15, 3, 10, 20260808)
    seq = generate_sequence(ens, 60, "window", 5, window=5)
    assert len(seq) == 60
    for start in range(60 - 5 + 1):
        window = seq[start : start + 5]
        assert len(set(window.tolist())) == 5  # no repeats inside the window
        stacked = np.vstack([ens.members[i][0] for i in window])
        assert np.linalg.matrix_rank(stacked) == 15


def test_sequence_uniform_policy_allows_repeats():
    ens = generate_library(15, 3, 10, 20260808)
    seq = generate_sequence(ens, 80, "uniform", 3)
    assert np.any(seq[1:] == seq[:-1])


def test_sequence_window_infeasible_raises_before_sampling():
    ens = generate_library(15, 3, 10, 1)
    with pytest.raises(ValueError, match="full column rank"):
        generate_sequence(ens, 10, "window", 1, window=4)  # 4*3 < 15
    small = generate_library(4, 2, 1, 1)
    with pytest.raises(ValueError, match="without repeats"):
        generate_sequence(small, 10, "window", 1, window=2)


# ----------------------------------------------------------------- trajectory

def test_trajectory_zero_variation_is_constant():
    states, deltas = generate_trajectory(5, 10, 0.0, 3)
    assert np.array_equal(deltas, np.zeros((10, 5)))
    assert np.array_equal(states, np.tile(states[0], (11, 1)))


def test_trajectory_increments_within_half_range():
    states, deltas = generate_trajectory(15, 200, 1.0, 4)
    assert np.all(np.abs(deltas) <= 0.5)
    assert np.all(np.abs(states[0]) <= 0.5)
    # norm bound sqrt(N) * delta_x / 2
    assert np.all(np.linalg.norm(deltas, axis=1) <= np.sqrt(15) * 0.5 + 1e-12)
    assert np.allclose(states[1:], states[0] + np.cumsum(deltas, axis=0))


def test_trajectory_explicit_start():
    x0 = np.arange(3.0)
    states, _ = generate_trajectory(3, 5, 1.0, 9, x0=x0)
    assert np.array_equal(states[0], x0)


# ----------------------------------------------------------------- noise

def test_noise_zero_scale():
    assert np.array_equal(generate_noise(NoiseModel("bounded", 0.0), 3, 7, 1), np.zeros((7, 3)))


def test_noise_bounded_range():
    n = generate_noise(NoiseModel("bounded", 1.0), 3, 1000, 2)
    assert np.all(np.abs(n) <= 0.5)


def test_noise_gaussian_sample_covariance():
    n = generate_noise(NoiseModel("gaussian", 0.25), 3, 100_000, 3)
    cov = np.cov(n.T)
    assert np.all(np.abs(np.diag(cov) - 0.25) <= 0.05 * 0.25)
    off = cov - np.diag(np.diag(cov))
    assert np.abs(off).max() <= 0.05 * 0.25


def test_noise_model_validation():
    with pytest.raises(ValueError):
        NoiseModel("poisson", 1.0)
    with pytest.raises(ValueError):
        NoiseModel("gaussian", 0.0)
    with pytest.raises(ValueError):
        NoiseModel("bounded", -1.0)


# ----------------------------------------------------------------- simulate_run

def test_run_with_no_motion_no_noise_and_exact_start_has_zero_error():
    sc = small_scenario(delta_x=0.0, noise=NoiseModel("bounded", 0.0), x0=(0.0,) * 4)
    run = simulate_run(sc, seed_for_run(sc, 0))
    assert np.allclose(run.per_step_error, 0.0, atol=1e-14)


def test_noiseless_static_run_errors_shrink_monotonically():
    sc = small_scenario(
        delta_x=0.0,
        noise=NoiseModel("bounded", 0.0),
        x0=(0.9, -0.4, 0.2, 0.7),
        horizon=40,
    )
    run = simulate_run(sc, seed_for_run(sc, 1), keep_details=True)
    errors = np.concatenate([[np.linalg.norm(np.array(sc.x0))], run.per_step_error])
    assert np.all(np.diff(errors) <= 1e-12)
    assert errors[-1] < 0.1 * errors[0]


def test_run_is_deterministic_given_seeds():
    sc = small_scenario()
    a = simulate_run(sc, seed_for_run(sc, 2), keep_details=True)
    b = simulate_run(sc, seed_for_run(sc, 2), keep_details=True)
    assert np.array_equal(a.per_step_error, b.per_step_error)
    assert np.array_equal(a.estimates, b.estimates)
    assert np.array_equal(a.member_indices, b.member_indices)


def test_run_error_matches_error_recursion():
    # xi(t) from the simulation equals the error recursion driven by the
    # recorded increments and noises, to 1e-10 relative.
    sc = small_scenario(horizon=25)
    ens = build_ensemble(sc)
    run = simulate_run(sc, seed_for_run(sc, 0), ensemble=ens, keep_details=True)
    xi = (run.estimates - run.states)[1:]
    prev = run.estimates[0] - run.states[0]
    for t in range(1, sc.horizon + 1):
        A, Q = ens.members[run.member_indices[t - 1]]
        lam = ens.member_lambda(int(run.member_indices[t - 1]), sc.gamma)
        drive = A.T @ np.linalg.solve(Q, run.noises[t - 1]) / sc.gamma
        prev = lam @ (prev - run.deltas[t - 1] + drive)
        assert rel_err(xi[t - 1], prev) < 1e-10
        prev = xi[t - 1]


def test_run_respects_fixed_member_sequence():
    sc = small_scenario(horizon=12)
    seq = np.array([0, 1, 2, 3, 4] * 3)[:12]
    run = simulate_run(sc, seed_for_run(sc, 0), member_sequence=seq, keep_details=True)
    assert np.array_equal(run.member_indices, seq)


def test_bounded_run_stays_under_finite_horizon_bound():
    sc = small_scenario(horizon=60)
    ens = build_ensemble(sc)
    psi_v = psi(ens, sc.gamma)
    c_members = [float(np.linalg.norm(np.linalg.solve(Q, A), 2)) for A, Q in ens.members]
    run = simulate_run(sc, seed_for_run(sc, 3), ensemble=ens, keep_details=True)
    tau = observability_window(run.member_indices, ens)
    per = np.column_stack(
        [
            np.linalg.norm(run.deltas, axis=1),
            [c_members[i] for i in run.member_indices],
            np.linalg.norm(run.noises, axis=1),
        ]
    )
    xi0 = np.linalg.norm(run.estimates[0] - run.states[0])
    series = analysis.bound_series_bounded(tau, psi_v, xi0, per, sc.gamma)
    assert np.all(run.per_step_error <= series * (1 + 1e-9))


# ----------------------------------------------------------------- monte_carlo

def test_monte_carlo_single_run_equals_simulate_run():
    sc = small_scenario(n_runs=1)
    summary = monte_carlo(sc)
    run = simulate_run(sc, seed_for_run(sc, 0))
    assert np.array_equal(summary.mean_error, run.per_step_error)
    assert np.allclose(summary.rms_error, run.per_step_error, atol=1e-14)


def test_monte_carlo_prefix_property():
    sc4 = small_scenario(n_runs=4)
    sc8 = small_scenario(n_runs=8)
    runs4 = [simulate_run(sc4, seed_for_run(sc4, i)).per_step_error for i in range(4)]
    runs8 = [simulate_run(sc8, seed_for_run(sc8, i)).per_step_error for i in range(4)]
    for a, b in zip(runs4, runs8):
        assert np.array_equal(a, b)


def test_monte_carlo_parallel_matches_serial_bitwise():
    sc = small_scenario(n_runs=6)
    serial = monte_carlo(sc, n_jobs=1, track_covariance=True)
    parallel = monte_carlo(sc, n_jobs=2, track_covariance=True)
    assert np.array_equal(serial.mean_error, parallel.mean_error)
    assert np.array_equal(serial.rms_error, parallel.rms_error)
    assert np.array_equal(serial.empirical_cov, parallel.empirical_cov)


def test_monte_carlo_statistics_definitions():
    sc = small_scenario(n_runs=5, horizon=8)
    norms = np.stack(
        [simulate_run(sc, seed_for_run(sc, i)).per_step_error for i in range(5)]
    )
    summary = monte_carlo(sc)
    assert np.allclose(summary.mean_error, norms.mean(axis=0), atol=1e-14)
    assert np.allclose(summary.rms_error, np.sqrt((norms**2).mean(axis=0)), atol=1e-14)


def test_monte_carlo_empirical_covariance_matches_manual():
    sc = small_scenario(n_runs=6, horizon=5)
    summary = monte_carlo(sc, track_covariance=True)
    xi = []
    for i in range(6):
        run = simulate_run(sc, seed_for_run(sc, i), keep_details=True)
        xi.append((run.estimates - run.states)[1:])
    xi = np.stack(xi)
    for t in range(5):
        manual = np.cov(xi[:, t, :].T, ddof=1)
        assert np.allclose(summary.empirical_cov[t], manual, atol=1e-12)
        assert summary.empirical_cov_frob[t] == pytest.approx(np.linalg.norm(manual))


def test_empirical_covariance_approaches_exact_propagation():
    # Static state, Gaussian noise, shared member sequence: the cross-run
    # covariance of the error converges to the exact propagated covariance.
    sc = ScenarioConfig(
        n_states=4,
        n_meas=2,
        horizon=20,
        library_size=5,
        delta_x=0.0,
        noise=NoiseModel("gaussian", 0.25),
        gamma=0.5,
        n_runs=2000,
        seed=271828,
    )
    ens = build_ensemble(sc)
    seq = generate_sequence(ens, sc.horizon, "window", 5, window=2)
    summary = monte_carlo(sc, n_jobs=2, track_covariance=True, member_sequence=seq)
    moments = ErrorMoments(np.zeros(4), np.zeros((4, 4)), 0)
    for t in range(1, 21):
        A, Q = ens.members[seq[t - 1]]
        moments = propagate_error_moments(
            moments, MeasurementBatch(t, np.zeros(2), A, Q), np.zeros(4), sc.gamma
        )
        if t in (5, 10, 20):
            rel = np.linalg.norm(summary.empirical_cov[t - 1] - moments.sigma) / np.linalg.norm(
                moments.sigma
            )
            assert rel < 0.10


def test_convergence_time_nondecreasing_in_gamma():
    # Static, noiseless: larger inertia converges more slowly.  Time to reach
    # 1% of the initial error must be nondecreasing over gamma in {0.1, 1, 10}.
    x0 = (0.8, -0.5, 0.3, -0.2)
    times = []
    for gamma in (0.1, 1.0, 10.0):
        sc = small_scenario(
            delta_x=0.0,
            noise=NoiseModel("bounded", 0.0),
            x0=x0,
            gamma=gamma,
            horizon=1500,
        )
        run = simulate_run(sc, seed_for_run(sc, 0))
        threshold = 0.01 * np.linalg.norm(np.array(x0))
        below = run.per_step_error < threshold
        assert below.any(), f"gamma={gamma} never reached 1% of the initial error"
        times.append(int(np.argmax(below)) + 1)
    assert times[0] <= times[1] <= times[2]
    assert times[2] > times[0]


# ----------------------------------------------------------------- validation

def test_scenario_validation():
    with pytest.raises(ValueError):
        small_scenario(n_states=0)
    with pytest.raises(ValueError):
        small_scenario(gamma=0.0)
    with pytest.raises(ValueError):
        small_scenario(sequence_policy="banana")
    with pytest.raises(ValueError):
        small_scenario(x0=(1.0,))  # wrong length
    assert small_scenario(window=None).effective_window == 2  # ceil(4/2)
    assert small_scenario(n_states=15, n_meas=3).effective_window == 5


def test_track_covariance_needs_two_runs():
    with pytest.raises(ValueError):
        monte_carlo(small_scenario(n_runs=1), track_covariance=True)


# ----------------------------------------------------------------- lockstep engine

def update_fold(sc, ensemble, run):
    """Estimates of one recorded run, refolded through estimator.update."""
    batches = []
    for t, index in enumerate(run.member_indices, start=1):
        A, Q = ensemble.members[index]
        batches.append(MeasurementBatch(t, A @ run.states[t] + run.noises[t - 1], A, Q))
    fold = run_stream(initial_state(sc.n_states, sc.x_hat0), batches, EstimatorConfig(sc.gamma, sc.n_states))
    return np.stack([state.x_hat for state in fold])


@pytest.mark.parametrize("gamma", [1e-8, 0.25, 2.0])
def test_lockstep_runs_equal_update_fold_bitwise(gamma):
    sc = small_scenario(n_runs=7, horizon=25, gamma=gamma, x_hat0=(0.1, -0.2, 0.3, 0.0))
    ens = build_ensemble(sc)
    runs = list(iter_runs(sc, keep_details=True))
    assert len(runs) == 7
    for run in runs:
        estimates = update_fold(sc, ens, run)
        assert np.array_equal(run.estimates, estimates)
        errors = [np.linalg.norm(est - x) for est, x in zip(estimates[1:], run.states[1:])]
        assert np.array_equal(run.per_step_error, errors)
        assert np.array_equal(run.final_estimate, estimates[-1])


def assert_runs_equal(a, b):
    for field in ("per_step_error", "final_state", "final_estimate", "member_indices",
                  "states", "estimates", "deltas", "noises"):
        assert np.array_equal(getattr(a, field), getattr(b, field)), field
    assert a.seed_used == b.seed_used


def test_lockstep_runs_do_not_depend_on_block_size(monkeypatch):
    sc = small_scenario(n_runs=7)
    reference = list(iter_runs(sc, keep_details=True))
    monkeypatch.setattr(simulation, "BLOCK_RUNS", 3)
    blocked = list(iter_runs(sc, keep_details=True))
    assert len(blocked) == 7
    for a, b in zip(reference, blocked):
        assert_runs_equal(a, b)
    for i, run in enumerate(blocked):
        assert_runs_equal(run, simulate_run(sc, seed_for_run(sc, i), keep_details=True))


def test_lockstep_earlier_runs_do_not_change_when_n_runs_grows():
    few = list(iter_runs(small_scenario(n_runs=3), keep_details=True))
    many = list(iter_runs(small_scenario(n_runs=simulation.BLOCK_RUNS + 5), keep_details=True))
    for a, b in zip(few, many):
        assert_runs_equal(a, b)


def test_sweep_columns_equal_monte_carlo_bitwise():
    sc = small_scenario(n_runs=6)
    gammas = [0.1, 0.5, 2.0]
    summaries = simulation.sweep(sc, gammas, track_covariance=True)
    for gamma, summary in zip(gammas, summaries):
        single = monte_carlo(sc.with_gamma(gamma), track_covariance=True)
        assert np.array_equal(summary.mean_error, single.mean_error)
        assert np.array_equal(summary.rms_error, single.rms_error)
        assert np.array_equal(summary.empirical_cov, single.empirical_cov)


def test_sweep_draws_each_run_once(monkeypatch):
    calls = count_calls(monkeypatch, simulation, "generate_sequence")
    simulation.sweep(small_scenario(n_runs=5), [0.1, 0.5, 2.0])
    assert len(calls) == 5
    assert len({args[3] for args in calls}) == 5


def test_jobs_must_be_a_positive_integer():
    sc = small_scenario()
    for bad in (0, -1, 1.5):
        with pytest.raises(ValueError, match="n_jobs"):
            monte_carlo(sc, n_jobs=bad)
        with pytest.raises(ValueError, match="n_jobs"):
            next(iter_runs(sc, n_jobs=bad))


def test_run_sequence_is_the_sequence_each_run_uses():
    sc = small_scenario(n_runs=5)
    ens = build_ensemble(sc)
    for i, run in enumerate(iter_runs(sc, ensemble=ens)):
        assert np.array_equal(simulation.run_sequence(sc, ens, seed_for_run(sc, i)), run.member_indices)


def test_shared_rank_memo_draws_the_same_sequences(monkeypatch):
    # Window ranks are memoized per ensemble by member multiset; sequences
    # drawn through one shared ensemble equal those drawn through a fresh
    # one each, and the shared ensemble takes at most C(L, k) window SVDs.
    sc = ScenarioConfig(
        n_states=15, n_meas=3, horizon=100, library_size=10, delta_x=1.0,
        noise=NoiseModel("bounded", 1.0), gamma=0.25, n_runs=100, seed=20260808,
    )
    seeds = [derive_seed(seed_for_run(sc, i), 0) for i in range(sc.n_runs)]
    fresh = [generate_sequence(build_ensemble(sc), sc.horizon, "window", s, 5) for s in seeds]
    shared = build_ensemble(sc)  # factors its members before the count starts
    svd_calls = count_calls(monkeypatch, np.linalg, "svd")
    for seed, expected in zip(seeds, fresh):
        assert np.array_equal(generate_sequence(shared, sc.horizon, "window", seed, 5), expected)
    assert 0 < len(svd_calls) <= math.comb(10, 5)
