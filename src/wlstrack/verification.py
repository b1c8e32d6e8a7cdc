"""Numerical self-checks of the estimator/analysis invariants on a small instance.

Each check exercises one identity or bound the theory promises, on a freshly
generated system with a handful of states.  Used by the `verify` CLI
subcommand; also convenient as a smoke test after dependency upgrades.
"""

from __future__ import annotations

import numpy as np

from . import analysis, simulation
from .analysis import ErrorMoments
from .estimator import (
    EstimatorConfig,
    MeasurementBatch,
    decompose_lambda,
    information_matrix,
    initial_state,
    lambda_matrix,
    update,
    update_gradient_form,
)

REL_TOL = 1e-10
# Size of the instance the checks draw.
N_STATES, N_MEAS = 4, 2


def _rel_err(actual: np.ndarray, expected: np.ndarray) -> float:
    scale = max(float(np.linalg.norm(expected)), 1.0)
    return float(np.linalg.norm(np.asarray(actual) - np.asarray(expected)) / scale)


def _suffix_products(lams: list[np.ndarray]) -> list[np.ndarray]:
    """S_t = L(T) ... L(t) for t = 1..T (returned with index t-1), plus S_{T+1} = I."""
    n = lams[0].shape[0]
    out = [np.eye(n)] * (len(lams) + 1)
    acc = np.eye(n)
    for t in range(len(lams) - 1, -1, -1):
        acc = acc @ lams[t]
        out[t] = acc
    return out


def run_verification(seed: int = 0, gamma: float = 0.5):
    """Run every invariant check; returns a list of (name, passed, detail)."""
    n_states, horizon = N_STATES, 24
    noise = simulation.NoiseModel("gaussian", 0.25)
    scenario = simulation.ScenarioConfig(
        n_states=n_states,
        n_meas=N_MEAS,
        horizon=horizon,
        library_size=6,
        delta_x=1.0,
        noise=noise,
        gamma=gamma,
        n_runs=1,
        seed=seed,
    )
    ensemble = simulation.build_ensemble(scenario)
    rng = np.random.default_rng(simulation.derive_seed(seed, 99))
    run = simulation.simulate_run(
        scenario, simulation.seed_for_run(scenario, 0), ensemble=ensemble, keep_details=True
    )
    lams = [
        ensemble.member_lambda(int(i), gamma) for i in run.member_indices
    ]
    checks = []

    def record(name: str, err: float, tol: float = REL_TOL):
        checks.append((name, bool(err <= tol), f"err={err:.3e} tol={tol:.0e}"))

    # Identity (I - L) x = (1/gamma) L J x for the step matrix.
    worst = 0.0
    for A, Q in ensemble.members:
        lam = lambda_matrix(A, Q, gamma)
        J = information_matrix(A, Q)
        for _ in range(5):
            x = rng.standard_normal(n_states)
            worst = max(worst, _rel_err((np.eye(n_states) - lam) @ x, lam @ J @ x / gamma))
    record("step_matrix_identity", worst)

    # Update solves the regularized problem: stationarity + dense-solve oracle.
    worst_opt = 0.0
    worst_solve = 0.0
    worst_grad = 0.0
    config = EstimatorConfig(gamma, n_states)
    for i, (A, Q) in enumerate(ensemble.members):
        prev = initial_state(n_states, rng.standard_normal(n_states))
        y = rng.standard_normal(A.shape[0])
        batch = MeasurementBatch(prev.t + 1, y, A, Q)
        new = update(prev, batch, config)
        q_inv = np.linalg.inv(Q)
        grad = A.T @ q_inv @ (A @ new.x_hat - y) + gamma * (new.x_hat - prev.x_hat)
        worst_opt = max(worst_opt, float(np.linalg.norm(grad)) / max(np.linalg.norm(y), 1.0))
        oracle = np.linalg.solve(
            A.T @ q_inv @ A + gamma * np.eye(n_states),
            gamma * prev.x_hat + A.T @ q_inv @ y,
        )
        worst_solve = max(worst_solve, _rel_err(new.x_hat, oracle))
        alt = update_gradient_form(prev, batch, config)
        worst_grad = max(worst_grad, _rel_err(alt.x_hat, new.x_hat))
    record("update_stationarity", worst_opt)
    record("update_matches_dense_solve", worst_solve)
    record("gradient_form_matches_update", worst_grad)

    # Non-expansiveness and spectrum structure of the step matrix.
    worst_exp = 0.0
    worst_spec = 0.0
    for A, Q in ensemble.members:
        dec = decompose_lambda(A, Q, gamma)
        for _ in range(5):
            x = rng.standard_normal(n_states)
            growth = np.linalg.norm(dec.lambda_matrix @ x) / np.linalg.norm(x)
            worst_exp = max(worst_exp, growth - 1.0)
        expected = np.sort(
            np.concatenate([np.ones(dec.kernel_dim), gamma / (gamma + dec.nonzero_eigs)])
        )
        actual = np.sort(np.linalg.eigvalsh(dec.lambda_matrix))
        worst_spec = max(worst_spec, float(np.abs(actual - expected).max()))
    record("non_expansive", max(worst_exp, 0.0))
    record("spectrum_structure", worst_spec)

    # Kernel of the information matrix equals kernel of A.
    worst_ker = 0.0
    for A, Q in ensemble.members:
        dec = decompose_lambda(A, Q, gamma)
        J = information_matrix(A, Q)
        if dec.kernel_dim:
            worst_ker = max(worst_ker, float(np.abs(A @ dec.kernel_basis).max()))
            worst_ker = max(worst_ker, float(np.abs(J @ dec.kernel_basis).max()))
        if dec.image_dim:
            u = dec.image_basis @ rng.standard_normal(dec.image_dim)
            if np.linalg.norm(J @ u) <= 1e-8 * np.linalg.norm(u):
                worst_ker = max(worst_ker, 1.0)
    record("kernel_equivalence", worst_ker, tol=1e-8)

    # Window contraction: every fully-observing window contracts strictly,
    # the full-horizon product decays hard, and the Kronecker square of each
    # window product has exactly the squared norm.  (The per-member factor
    # psi is not a valid bound on the window products when member kernels
    # overlap, so only strict contraction is checked here.)
    tau = analysis.observability_window(run.member_indices, ensemble)
    psi_value = analysis.psi(ensemble, gamma)
    ok_tau = tau is not None and psi_value < 1.0
    max_win = np.inf
    worst_sq = np.inf
    if ok_tau:
        max_win = 0.0
        worst_sq = 0.0
        for start in range(horizon - tau + 1):
            window = lams[start : start + tau]
            norm = analysis.contraction_norm(window)
            max_win = max(max_win, norm)
            f_window = [np.kron(lam, lam) for lam in window]
            worst_sq = max(worst_sq, abs(analysis.contraction_norm(f_window) - norm**2))
    checks.append(
        (
            "window_contraction_strict",
            bool(ok_tau and max_win < 1.0 - 1e-9),
            f"tau={tau} psi={psi_value:.6f} max_window_norm={max_win:.8f}",
        )
    )
    checks.append(
        (
            "full_horizon_product_decays",
            bool(ok_tau and analysis.contraction_norm(lams) < 0.9),
            f"norm={analysis.contraction_norm(lams):.3e}",
        )
    )
    checks.append(
        (
            "kron_window_norm_squares",
            bool(ok_tau and worst_sq <= 1e-10),
            f"max_abs_dev={worst_sq:.3e}",
        )
    )

    # Kronecker-square spectrum = all pairwise products of step-matrix eigenvalues.
    worst_pair = 0.0
    for A, Q in ensemble.members:
        lam = lambda_matrix(A, Q, gamma)
        eigs = np.linalg.eigvalsh(lam)
        pairwise = np.sort(np.outer(eigs, eigs).reshape(-1))
        kron_eigs = np.sort(np.linalg.eigvalsh(np.kron(lam, lam)))
        worst_pair = max(worst_pair, float(np.abs(pairwise - kron_eigs).max()))
    record("kron_spectrum_pairwise_products", worst_pair, tol=1e-8)

    # Error recursion: simulated xi(t) matches the linear recursion fed with
    # the recorded increments and noises.
    xi = (run.estimates - run.states)[1:]
    xi_prev = run.estimates[0] - run.states[0]
    worst_rec = 0.0
    for t in range(1, horizon + 1):
        A, Q = ensemble.members[run.member_indices[t - 1]]
        lam = lams[t - 1]
        drive = A.T @ np.linalg.solve(Q, run.noises[t - 1]) / gamma
        xi_next = lam @ (xi_prev - run.deltas[t - 1] + drive)
        worst_rec = max(worst_rec, _rel_err(xi[t - 1], xi_next))
        xi_prev = xi_next
    record("error_recursion_consistency", worst_rec)

    # Closed-form error expansion (accumulated suffix products) vs recursion.
    suffix = _suffix_products(lams)
    acc = suffix[0] @ (run.estimates[0] - run.states[0])
    for t in range(1, horizon + 1):
        A, Q = ensemble.members[run.member_indices[t - 1]]
        drive = A.T @ np.linalg.solve(Q, run.noises[t - 1]) / gamma - run.deltas[t - 1]
        acc = acc + suffix[t - 1] @ drive
    record("error_expansion_closed_form", _rel_err(xi[-1], acc))

    # Covariance recursion vs closed-form sum vs vectorized step.
    moments = ErrorMoments(np.zeros(n_states), np.zeros((n_states, n_states)), 0)
    sigma_vec = np.zeros(n_states * n_states)
    worst_vec = 0.0
    for t in range(1, horizon + 1):
        A, Q = ensemble.members[run.member_indices[t - 1]]
        batch = MeasurementBatch(t, np.zeros(A.shape[0]), A, Q)
        moments = analysis.propagate_error_moments(moments, batch, np.zeros(n_states), gamma)
        sigma_vec = analysis.vectorized_sigma_step(sigma_vec, batch, gamma)
        worst_vec = max(worst_vec, _rel_err(sigma_vec.reshape(n_states, n_states), moments.sigma))
    closed = np.zeros((n_states, n_states))
    for t in range(1, horizon + 1):
        A, Q = ensemble.members[run.member_indices[t - 1]]
        S = suffix[t - 1]
        closed = closed + S @ (information_matrix(A, Q) / gamma**2) @ S.T
    record("covariance_closed_form", _rel_err(moments.sigma, closed))
    record("vectorized_sigma_consistency", worst_vec)

    # Mean bound holds along an exact moment propagation with state motion.
    mu = ErrorMoments(run.estimates[0] - run.states[0], np.zeros((n_states, n_states)), 0)
    xi0_norm = float(np.linalg.norm(mu.mu))
    per_step = [(float(np.linalg.norm(d)), 0.0, 0.0) for d in run.deltas]
    mu_bounds = analysis.bound_series_bounded(tau, psi_value, xi0_norm, per_step, gamma)
    worst_mu = -np.inf
    for t in range(1, horizon + 1):
        A, Q = ensemble.members[run.member_indices[t - 1]]
        batch = MeasurementBatch(t, np.zeros(A.shape[0]), A, Q)
        mu = analysis.propagate_error_moments(mu, batch, run.deltas[t - 1], gamma)
        worst_mu = max(worst_mu, float(np.linalg.norm(mu.mu)) - float(mu_bounds[t - 1]))
    checks.append(
        ("mean_bound_validity", bool(worst_mu <= 1e-12), f"max_excess={worst_mu:.3e}")
    )

    # Worst-case bounded-noise bound holds along the simulated run.
    c_per_member = []
    for A, Q in ensemble.members:
        c_per_member.append(float(np.linalg.norm(np.linalg.solve(Q, A), 2)))
    per_step_b = np.column_stack(
        [
            np.linalg.norm(run.deltas, axis=1),
            np.array([c_per_member[int(i)] for i in run.member_indices]),
            np.linalg.norm(run.noises, axis=1),
        ]
    )
    series = analysis.bound_series_bounded(tau, psi_value, xi0_norm, per_step_b, gamma)
    worst_b = float((run.per_step_error - series).max())
    checks.append(
        ("bounded_noise_bound_validity", bool(worst_b <= 1e-12), f"max_excess={worst_b:.3e}")
    )

    # The closed-form optimal gamma agrees with a dense grid argmin.
    consts = analysis.ensemble_constants(ensemble)
    star = analysis.gamma_star_bounded(consts.c, consts.lambda_bar, 1.0, 1.0)
    grid = np.geomspace(1e-3, 1e3, 10_000)
    values = [
        analysis.h_bounded(g, tau, 1.0, consts.c, 1.0, consts.lambda_bar) for g in grid
    ]
    k = int(np.argmin(values))
    cell = grid[min(k + 1, len(grid) - 1)] - grid[max(k - 1, 0)]
    checks.append(
        (
            "gamma_star_matches_grid",
            bool(abs(star - grid[k]) <= cell),
            f"star={star:.6f} grid={grid[k]:.6f}",
        )
    )
    return checks
