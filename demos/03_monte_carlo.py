"""Reproducible Monte Carlo experiments and the inertia-weight trade-off.

Sweeps the inertia weight over the benchmark bounded-noise scenario
(scaled down to keep the demo quick), showing the characteristic trade-off:
tiny weights chase the noise, large weights lag the moving state.  Also
demonstrates seed reproducibility and the covariance tracker against the
exact covariance propagation.

Run:  python demos/03_monte_carlo.py   (about 1.2 seconds on a 2-core machine)
"""

import numpy as np

from wlstrack import (
    ErrorMoments,
    MeasurementBatch,
    NoiseModel,
    ScenarioConfig,
    build_ensemble,
    generate_sequence,
    monte_carlo,
    propagate_error_moments,
)
from wlstrack.simulation import derive_seed, sweep

scenario = ScenarioConfig(
    n_states=15,
    n_meas=3,
    horizon=200,
    library_size=10,
    delta_x=1.0,
    noise=NoiseModel("bounded", 1.0),
    gamma=0.25,
    n_runs=100,
    seed=20260808,
)

print("=== inertia-weight sweep (bounded noise, 100 runs each) ===")
print("   gamma    steady-state mean error    steps to settle")
# every run is drawn once and stepped at all five weights together; each
# summary equals monte_carlo(scenario.with_gamma(gamma)) bit for bit
gammas = (0.01, 0.05, 0.2, 1.0, 2.0)
for gamma, summary in zip(gammas, sweep(scenario, gammas)):
    steady = float(summary.mean_error[150:].mean())
    in_band = np.abs(summary.mean_error - steady) <= 0.1 * steady
    settle = int(np.argmax(in_band)) + 1
    print(f"  {gamma:>6.4g}    {steady:>12.4f}               {settle:>5}")
print("small weights are noise-sensitive, large weights settle slowly;")
print("the sweet spot sits in between.")

print()
print("=== reproducibility ===")
a = monte_carlo(scenario, n_jobs=1)
b = monte_carlo(scenario, n_jobs=2)
print(f"n_jobs=1 and n_jobs=2 runs bit-identical: "
      f"{np.array_equal(a.mean_error, b.mean_error)}")
# run seeds depend only on (scenario seed, run index), so growing n_runs
# leaves the earlier runs untouched
import dataclasses

from wlstrack import seed_for_run, simulate_run

small = dataclasses.replace(scenario, n_runs=50)
run_under_100 = simulate_run(scenario, seed_for_run(scenario, 7))
run_under_50 = simulate_run(small, seed_for_run(small, 7))
print("run 7 identical under n_runs=50 and n_runs=100: "
      f"{np.array_equal(run_under_100.per_step_error, run_under_50.per_step_error)}")

print()
print("=== empirical covariance vs exact propagation ===")
cov_scenario = ScenarioConfig(
    n_states=6,
    n_meas=2,
    horizon=20,
    library_size=6,
    delta_x=0.0,
    noise=NoiseModel("gaussian", 0.25),
    gamma=0.5,
    n_runs=3000,
    seed=424242,
)
ensemble = build_ensemble(cov_scenario)
# one shared measurement schedule across runs makes the cross-run covariance
# comparable to the exact propagation
sequence = generate_sequence(ensemble, 20, "window", derive_seed(20260808, 99), window=3)
summary = monte_carlo(cov_scenario, n_jobs=2, track_covariance=True, member_sequence=sequence)
moments = ErrorMoments(np.zeros(6), np.zeros((6, 6)), 0)
print("   t    ||Sigma_exact||_F    ||Sigma_empirical||_F    rel diff")
for t in range(1, 21):
    A, Q = ensemble.members[sequence[t - 1]]
    moments = propagate_error_moments(
        moments, MeasurementBatch(t, np.zeros(2), A, Q), np.zeros(6), cov_scenario.gamma
    )
    if t in (5, 10, 20):
        exact = float(np.linalg.norm(moments.sigma))
        emp = float(summary.empirical_cov_frob[t - 1])
        rel = np.linalg.norm(summary.empirical_cov[t - 1] - moments.sigma) / np.linalg.norm(
            moments.sigma
        )
        print(f"{t:>4}    {exact:>14.4f}    {emp:>18.4f}    {rel:>8.4f}")
