"""Error-bound theory on a generated measurement-matrix library.

Builds the benchmark matrix library (10 random 3x15 members
with unit Frobenius norm), computes every constant the bounds need, checks a
finite-horizon bound against a realized run, sweeps the asymptotic bounds
over the inertia weight, and reports the bound-optimal weights.

Run:  python demos/02_error_bounds.py
"""

import numpy as np

from wlstrack import (
    NoiseModel,
    ScenarioConfig,
    bound_series_bounded,
    build_ensemble,
    contraction_norm,
    ensemble_constants,
    gamma_star_bounded,
    gamma_star_stochastic,
    h_bounded,
    h_stochastic,
    observability_window,
    psi,
    seed_for_run,
    simulate_run,
)

scenario = ScenarioConfig(
    n_states=15,
    n_meas=3,
    horizon=200,
    library_size=10,
    delta_x=1.0,
    noise=NoiseModel("bounded", 1.0),
    gamma=0.25,
    n_runs=1,
    seed=20260808,
)
ensemble = build_ensemble(scenario)

print("=== ensemble constants ===")
consts = ensemble_constants(ensemble)
print(f"lambda_bar (smallest nonzero eigenvalue over members) = {consts.lambda_bar:.4f}")
print(f"c  (largest ||A^T Q^-1||)                             = {consts.c:.4f}")
print(f"C  (largest ||A||_F^2)                                = {consts.capital_c:.4f}")
print(f"m  (largest ||Q^-1||_F)                               = {consts.m:.4f}")

run = simulate_run(scenario, seed_for_run(scenario, 0), ensemble=ensemble, keep_details=True)
tau = observability_window(run.member_indices, ensemble)
psi_value = psi(ensemble, scenario.gamma)
print(f"observability window tau (computed from the sequence) = {tau}")
print(f"per-member contraction factor psi at gamma=0.25       = {psi_value:.4f}")

print()
print("=== window products: strict contraction, but psi is not their bound ===")
lams = [ensemble.member_lambda(int(i), scenario.gamma) for i in run.member_indices]
window_norms = [
    contraction_norm(lams[s : s + tau]) for s in range(len(lams) - tau + 1)
]
print(f"max norm over {len(window_norms)} fully-observing windows: {max(window_norms):.8f}")
print(f"(strictly below 1, yet well above psi = {psi_value:.4f}: overlapping member")
print(" kernels keep some directions nearly untouched within a single window)")
print(f"norm of the product over all 200 steps: {contraction_norm(lams):.2e}")

print()
print("=== finite-horizon worst-case bound on one bounded-noise run ===")
c_members = [float(np.linalg.norm(np.linalg.solve(Q, A), 2)) for A, Q in ensemble.members]
per_step = np.column_stack(
    [
        np.linalg.norm(run.deltas, axis=1),
        [c_members[int(i)] for i in run.member_indices],
        np.linalg.norm(run.noises, axis=1),
    ]
)
xi0 = float(np.linalg.norm(run.estimates[0] - run.states[0]))
series = bound_series_bounded(tau, psi_value, xi0, per_step, scenario.gamma)
print("   t    realized error    bound")
for t in (1, 10, 50, 100, 200):
    print(f"{t:>4}    {run.per_step_error[t - 1]:>12.4f}    {series[t - 1]:>8.4f}")
print(f"never violated: {bool(np.all(run.per_step_error <= series))}")

print()
print("=== asymptotic bounds over the inertia weight ===")
star_b = gamma_star_bounded(consts.c, consts.lambda_bar, 1.0, 1.0)
print("bounded noise (delta_x = delta_n = 1):")
print("   gamma     H_b")
for g in (0.01, 0.05, star_b, 1.0, 2.0):
    print(f"  {g:>6.4f}   {h_bounded(g, tau, 1.0, consts.c, 1.0, consts.lambda_bar):>8.2f}")
print(f"bound-optimal gamma* = sqrt(c * lambda_bar * dn / dx) = {star_b:.4f}")

gauss = build_ensemble(
    ScenarioConfig(
        n_states=15, n_meas=3, horizon=200, library_size=10, delta_x=1.0,
        noise=NoiseModel("gaussian", 0.25), gamma=0.4, n_runs=1, seed=20260808,
    )
)
cg = ensemble_constants(gauss)
star_s = gamma_star_stochastic(cg.capital_c, cg.m, 1.0, cg.lambda_bar)
print()
print("stochastic noise (covariance 0.25 I, so Q = 0.25 I):")
print("   gamma     H_s")
for g in (0.1, 0.4, 1.0, star_s, 10.0):
    print(f"  {g:>6.4f}   {h_stochastic(g, tau, cg.capital_c, cg.m, 1.0, cg.lambda_bar):>8.2f}")
print(f"bound-optimal gamma* (root of dx^2 g^5 = (C m)^2 (g + 2 lambda_bar)) = {star_s:.4f}")
