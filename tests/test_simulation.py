import hashlib
import itertools
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


# sha256 (first 16 hex digits) of the int64 member sequences for SEQUENCE_SEEDS,
# concatenated, recorded before candidates were drawn in bulk.  A change here
# changes every simulated run of those seeds.
SEQUENCE_SEEDS = tuple(range(12)) + (20260808, 2**64 - 1)
SEQUENCE_HASHES = {
    ("acceptance", 200, "window", None): "ca69af935abb746c",
    ("acceptance", 200, "uniform", None): "8540922bc29e7a20",
    ("small", 60, "window", None): "02f5c41caf79c36c",
    ("small", 60, "window", 3): "83ba71e7483cf24c",
    ("small", 60, "uniform", None): "93bea81fd5eb6b0a",
}


@pytest.mark.parametrize("library, horizon, policy, window", list(SEQUENCE_HASHES))
def test_sequences_of_fixed_seeds_are_unchanged(library, horizon, policy, window):
    if library == "acceptance":
        ens = build_ensemble(small_scenario(
            n_states=15, n_meas=3, library_size=10, gamma=0.25, seed=20260808))
    else:
        ens = generate_library(4, 2, 3, 11)  # L = 3
    digest = hashlib.sha256()
    for seed in SEQUENCE_SEEDS:
        seq = generate_sequence(ens, horizon, policy, seed, window)
        digest.update(np.asarray(seq, dtype=np.int64).tobytes())
    assert digest.hexdigest()[:16] == SEQUENCE_HASHES[library, horizon, policy, window]


@pytest.mark.parametrize("size", [3, 10, 17, 1000])
def test_bulk_integer_draws_equal_scalar_draws(size):
    # generate_sequence draws its candidates in chunks; the seed contract
    # needs a bulk draw to give the values of as many scalar draws, however
    # the draws are split.  A numpy release that broke this would change
    # every 'window' sequence, so it must fail here.
    for seed in (0, 5, 20260808, 2**63 + 11):
        scalar_rng = np.random.default_rng(seed)
        scalar = [int(scalar_rng.integers(0, size)) for _ in range(3000)]
        bulk_rng = np.random.default_rng(seed)
        assert bulk_rng.integers(0, size, size=3000).tolist() == scalar
        chunked_rng = np.random.default_rng(seed)
        chunks = [chunked_rng.integers(0, size, size=n).tolist() for n in (1, 512, 1000, 7, 1480)]
        assert sum(chunks, []) == scalar
        # the generators end in the same state, so later draws agree too
        after = [rng.integers(0, size, size=5).tolist() for rng in (scalar_rng, bulk_rng, chunked_rng)]
        assert after[0] == after[1] == after[2]


def reference_window_sequence(ensemble, horizon, seed, k):
    """The 'window' sampler as a plain loop: scalar draws, a membership test
    over the list of the last k - 1 members, and one rank test per sorted
    member tuple of a complete window."""
    rng = np.random.default_rng(seed)
    verdicts = {}
    indices = []
    for pos in range(horizon):
        forbidden = indices[-(k - 1):] if k > 1 else []
        while True:
            cand = int(rng.integers(0, len(ensemble)))
            if cand in forbidden:
                continue
            if pos >= k - 1:
                key = tuple(sorted(forbidden + [cand]))
                if key not in verdicts:
                    stacked = np.vstack([ensemble.members[i][0] for i in key])
                    verdicts[key] = analysis._full_column_rank(stacked)
                if not verdicts[key]:
                    continue
            break
        indices.append(cand)
    return indices


def row_library(rows, copies=1):
    """Ensemble of one-row members, `copies` members per row in turn."""
    return analysis.SystemEnsemble(
        tuple((np.array([row], dtype=float), np.eye(1)) for _ in range(copies) for row in rows),
        len(rows[0]),
    )


# Rows whose windows are often rank deficient, so rank verdicts reject candidates.
DEPENDENT_ROWS = [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1], [1, 1, 0, 0], [0, 0, 1, 1], [1, 0, 1, 0]]
# 70 pairwise independent integer rows in 3 states: any two extend to a full
# rank window of 3, and many thirds lie in their plane.
LINES = [
    row for row in itertools.product(range(-3, 4), repeat=3)
    if math.gcd(*row) == 1 and row > (0, 0, 0)
][:70]


@pytest.mark.parametrize(
    "make_ensemble, k",
    [
        (lambda: generate_library(3, 3, 4, 45), 1),
        (lambda: generate_library(6, 2, 3, 44), 3),
        (lambda: generate_library(15, 3, 10, 51), 10),
        (lambda: row_library(DEPENDENT_ROWS), 4),
        (lambda: row_library(DEPENDENT_ROWS), 7),
        (lambda: generate_library(8, 1, 70, 111), 8),
        (lambda: row_library(LINES), 3),
    ],
    ids=["k1", "k_equals_L3", "k_equals_L10", "rank_rejections", "rank_rejections_k_equals_L",
         "L70", "L70_rank_rejections"],
)
def test_bitmask_sampler_equals_reference_loop(make_ensemble, k):
    # The sampler keeps the last k - 1 members as a bitmask and looks rank
    # verdicts up by the window's bitmask; it must draw what the list and
    # sorted-tuple loop draws, for k = 1, for k = L, with rank rejections,
    # and for libraries whose bitmasks do not fit in 64 bits.
    ens = make_ensemble()
    for seed in (0, 3, 2**64 - 1):
        seq = generate_sequence(ens, 150, "window", seed, k)
        assert seq.tolist() == reference_window_sequence(ens, 150, seed, k)


def test_sequence_window_never_full_rank_raises_at_first_full_window():
    # Every member's row lies in the plane x3 = 0, so the window passes the
    # pre-checks (3 members of 1 row for 3 states, 4 >= 3 members) but no
    # window can reach full column rank: the first full window, step 3,
    # exhausts its 1000 * L candidates.
    members = tuple(
        (np.array([[np.cos(a), np.sin(a), 0.0]]), np.eye(1)) for a in (0.1, 0.9, 1.7, 2.5)
    )
    ens = analysis.SystemEnsemble(members, 3)
    with pytest.raises(RuntimeError) as err:
        generate_sequence(ens, 10, "window", 1)
    assert str(err.value) == (
        "could not extend the window-constrained sequence at step 3; "
        "the library may not contain enough jointly observing windows"
    )


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


def test_measurements_are_recorded_only_with_details():
    sc = small_scenario()
    plain = simulate_run(sc, seed_for_run(sc, 2))
    assert plain.measurements is None and plain.noises is None
    detailed = simulate_run(sc, seed_for_run(sc, 2), keep_details=True)
    assert detailed.measurements.shape == (sc.horizon, sc.n_meas)


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
    with pytest.raises(ValueError, match="x0 has length 1, expected 4"):
        small_scenario(x0=(1.0,))
    with pytest.raises(ValueError, match="x_hat0 contains non-finite entries"):
        small_scenario(x_hat0=(0.0, math.nan, 1.0, 2.0))
    assert small_scenario(x0=np.arange(4)).x0 == (0.0, 1.0, 2.0, 3.0)
    assert small_scenario(window=None).effective_window == 2  # ceil(4/2)
    assert small_scenario(n_states=15, n_meas=3).effective_window == 5


def test_track_covariance_needs_two_runs():
    with pytest.raises(ValueError):
        monte_carlo(small_scenario(n_runs=1), track_covariance=True)


# ----------------------------------------------------------------- lockstep engine

def block_runs(sc, ensemble=None, keep_details=False):
    """Runs 0 .. n_runs - 1 of sc, stepped together through the lockstep
    engine as cmd_simulate steps them."""
    ensemble = build_ensemble(sc) if ensemble is None else ensemble
    seeds = [seed_for_run(sc, i) for i in range(sc.n_runs)]
    return list(simulation._runs(sc, ensemble, seeds, keep_details=keep_details))


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
    runs = block_runs(sc, ens, keep_details=True)
    assert len(runs) == 7
    for run in runs:
        estimates = update_fold(sc, ens, run)
        assert np.array_equal(run.estimates, estimates)
        errors = [np.linalg.norm(est - x) for est, x in zip(estimates[1:], run.states[1:])]
        assert np.array_equal(run.per_step_error, errors)
        assert np.array_equal(run.final_estimate, estimates[-1])


def assert_runs_equal(a, b):
    for field in ("per_step_error", "final_state", "final_estimate", "member_indices",
                  "states", "estimates", "deltas", "noises", "measurements"):
        assert np.array_equal(getattr(a, field), getattr(b, field)), field
    assert a.seed_used == b.seed_used


def test_lockstep_runs_do_not_depend_on_block_size(monkeypatch):
    sc = small_scenario(n_runs=7)
    reference = block_runs(sc, keep_details=True)
    monkeypatch.setattr(simulation, "BLOCK_RUNS", 3)
    blocked = block_runs(sc, keep_details=True)
    assert len(blocked) == 7
    for a, b in zip(reference, blocked):
        assert_runs_equal(a, b)
    for i, run in enumerate(blocked):
        assert_runs_equal(run, simulate_run(sc, seed_for_run(sc, i), keep_details=True))


@pytest.mark.parametrize("horizon", [1, 2, 7, 8])
@pytest.mark.parametrize("keep_details", [False, True])
def test_final_estimate_is_the_estimate_at_the_horizon(horizon, keep_details):
    # Without details the engine keeps no estimate trajectory; the final
    # estimate must still be x_hat(T) for odd and even T.
    sc = small_scenario(horizon=horizon, n_runs=5)
    ens = build_ensemble(sc)
    detailed = block_runs(sc, ens, keep_details=True)
    runs = block_runs(sc, ens, keep_details=keep_details)
    for run, reference in zip(runs, detailed):
        estimates = update_fold(sc, ens, reference)
        assert np.array_equal(run.final_estimate, estimates[-1])
        assert np.array_equal(run.per_step_error, reference.per_step_error)
        if keep_details:
            assert np.array_equal(run.estimates, estimates)
        else:
            assert run.estimates is None and run.states is None
            assert run.deltas is None and run.noises is None


@pytest.mark.parametrize("track_covariance", [False, True])
def test_sweep_does_not_depend_on_block_size(monkeypatch, track_covariance):
    sc = small_scenario(n_runs=7)
    gammas = [0.1, 0.5, 2.0]
    reference = simulation.sweep(sc, gammas, track_covariance=track_covariance)
    monkeypatch.setattr(simulation, "BLOCK_RUNS", 3)
    blocked = simulation.sweep(sc, gammas, track_covariance=track_covariance)
    for a, b in zip(reference, blocked):
        assert np.array_equal(a.mean_error, b.mean_error)
        assert np.array_equal(a.rms_error, b.rms_error)
        if track_covariance:
            assert np.array_equal(a.empirical_cov, b.empirical_cov)


def test_lockstep_earlier_runs_do_not_change_when_n_runs_grows():
    few = block_runs(small_scenario(n_runs=3), keep_details=True)
    many = block_runs(small_scenario(n_runs=simulation.BLOCK_RUNS + 5), keep_details=True)
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


def test_sweep_kernel_calls_do_not_grow_with_gammas(monkeypatch):
    sc = small_scenario(n_runs=simulation.BLOCK_RUNS + 2)
    blocks = math.ceil(sc.n_runs / simulation.BLOCK_RUNS)
    calls = count_calls(monkeypatch, simulation, "_advance")
    for gammas in ([0.5], [0.01, 0.1, 0.5, 1.0, 2.0]):
        calls.clear()
        simulation.sweep(sc, gammas)
        assert len(calls) == sc.horizon * blocks


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


def test_run_sequence_is_the_sequence_each_run_uses():
    sc = small_scenario(n_runs=5)
    ens = build_ensemble(sc)
    for i, run in enumerate(block_runs(sc, ens)):
        assert np.array_equal(simulation.run_sequence(sc, ens, seed_for_run(sc, i)), run.member_indices)


def test_shared_rank_memo_draws_the_same_sequences(monkeypatch):
    # Window ranks are memoized per ensemble by member multiset; sequences
    # drawn through one shared ensemble equal those drawn through a fresh
    # one each, and the shared ensemble takes at most C(L, k) window-rank
    # evaluations.
    sc = ScenarioConfig(
        n_states=15, n_meas=3, horizon=100, library_size=10, delta_x=1.0,
        noise=NoiseModel("bounded", 1.0), gamma=0.25, n_runs=100, seed=20260808,
    )
    seeds = [derive_seed(seed_for_run(sc, i), 0) for i in range(sc.n_runs)]
    fresh = [generate_sequence(build_ensemble(sc), sc.horizon, "window", s, 5) for s in seeds]
    shared = build_ensemble(sc)  # factors its members before the count starts
    rank_calls = count_calls(monkeypatch, analysis, "_full_column_rank")
    for seed, expected in zip(seeds, fresh):
        assert np.array_equal(generate_sequence(shared, sc.horizon, "window", seed, 5), expected)
    assert 0 < len(rank_calls) <= math.comb(10, 5)
