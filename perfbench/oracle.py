"""Plain-numpy reference results that the benchmark checks outputs against.

The references follow the documented recipe and the paper's formulas
through other code paths than wlstrack's: the seed mixing and the draws of
the scenario recipe are written out again, the estimator is a batched dense
solve of the normal equations, and the ensemble constants come from the
small generalized eigenproblem (A A^T, Q) instead of the N x N information
matrix.

close() is the comparison against these references: relative 1e-8, plus
1e-12 absolute for entries near zero.  Reordered sums and other solvers move
results at the 1e-15 level; a wrong member, seed, weight or formula moves
them by far more than 1e-8.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.linalg import eigh

RTOL = 1e-8
ATOL = 1e-12
RANK_TOL = 1e-10
_MASK64 = (1 << 64) - 1


def close(actual, reference) -> bool:
    return bool(np.allclose(actual, reference, rtol=RTOL, atol=ATOL))


def _mix64(z: int) -> int:
    z = (z + 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def derive_seed(master: int, index: int) -> int:
    return _mix64((master & _MASK64) ^ _mix64(index & _MASK64))


def _window_sequence(library, horizon, k, rng, full_rank: dict) -> list[int]:
    """Member per step: no repeat within k steps, every k-window of full column rank.

    full_rank is keyed by the window's member set: stacking the same rows in
    another order does not change the rank, so the cache is shared by runs.
    """
    n = library[0].shape[1]
    seq: list[int] = []
    for pos in range(horizon):
        recent = seq[-(k - 1):] if k > 1 else []
        for _ in range(1000 * len(library)):
            cand = int(rng.integers(0, len(library)))
            if cand in recent:
                continue
            if pos >= k - 1:
                key = frozenset(seq[pos - k + 1:] + [cand])
                if key not in full_rank:
                    s = np.linalg.svd(np.vstack([library[i] for i in key]), compute_uv=False)
                    full_rank[key] = bool(s.size >= n and s[n - 1] > RANK_TOL * s[0])
                if not full_rank[key]:
                    continue
            seq.append(cand)
            break
        else:
            raise RuntimeError(f"no admissible member at step {pos + 1}")
    return seq


def scenario_runs(sc: dict):
    """Library and per-run draws of a bounded-noise, window-policy scenario.

    Returns (library, sequences (R, T), states (R, T+1, N), noises (R, T, M)).
    """
    if sc["noise"]["kind"] != "bounded" or sc.get("sequence_policy", "window") != "window":
        raise ValueError("the reference covers bounded noise with the window policy only")
    n, m, horizon, seed = sc["n_states"], sc["n_meas"], sc["horizon"], sc["seed"]
    lib_rng = np.random.default_rng(derive_seed(seed, 0))
    library = []
    for _ in range(sc["library_size"]):
        G = lib_rng.standard_normal((m, n))
        library.append(G / np.linalg.norm(G))
    k = sc.get("window") or -(-n // m)
    half_x, half_n = sc["delta_x"] / 2.0, sc["noise"]["delta_n"] / 2.0
    full_rank: dict = {}
    seqs, states, noises = [], [], []
    for i in range(sc["n_runs"]):
        run_seed = derive_seed(seed, 1 + i)
        seqs.append(_window_sequence(library, horizon, k, np.random.default_rng(derive_seed(run_seed, 0)), full_rank))
        rng = np.random.default_rng(derive_seed(run_seed, 1))
        x0 = rng.uniform(-half_x, half_x, n)
        walk = x0 + np.cumsum(rng.uniform(-half_x, half_x, (horizon, n)), axis=0)
        states.append(np.vstack([x0, walk]))
        noises.append(np.random.default_rng(derive_seed(run_seed, 2)).uniform(-half_n, half_n, (horizon, m)))
    return np.stack(library), np.array(seqs), np.stack(states), np.stack(noises)


def scenario_estimates(library, seqs, states, noises, gamma: float) -> np.ndarray:
    """Estimates (R, T+1, N) from x_hat(0) = 0, with Q = I (bounded noise)."""
    runs, horizon = seqs.shape
    n = library.shape[2]
    H = np.einsum("lmi,lmj->lij", library, library) + gamma * np.eye(n)
    out = np.zeros((runs, horizon + 1, n))
    for t in range(horizon):
        A = library[seqs[:, t]]
        y = np.einsum("rmn,rn->rm", A, states[:, t + 1]) + noises[:, t]
        rhs = gamma * out[:, t] + np.einsum("rmn,rm->rn", A, y)
        out[:, t + 1] = np.linalg.solve(H[seqs[:, t]], rhs[..., None])[..., 0]
    return out


def error_norms(estimates, states) -> np.ndarray:
    """||x_hat(t) - x(t)|| for t = 1..T, shape (R, T)."""
    return np.linalg.norm(estimates[:, 1:] - states[:, 1:], axis=2)


def normal_equation_residual(record: dict, x_prev, x_new, gamma: float) -> float:
    """Relative residual of (A^T Q^-1 A + gamma I) x_new = gamma x_prev + A^T Q^-1 (y - b)."""
    A = np.asarray(record["A"], dtype=float)
    Q = np.asarray(record["Q"], dtype=float) if "Q" in record else np.eye(A.shape[0])
    y = np.asarray(record["y"], dtype=float) - np.asarray(record.get("b", 0.0), dtype=float)
    Qi = np.linalg.inv(Q)
    lhs = A.T @ (Qi @ (A @ x_new)) + gamma * x_new
    rhs = gamma * x_prev + A.T @ (Qi @ y)
    return float(np.linalg.norm(lhs - rhs) / (np.linalg.norm(lhs) + np.linalg.norm(rhs)))


def bound_constants(ensemble: dict) -> dict:
    """tau, lambda_bar, c, capital_c, m and the per-member lambda_1 of an ensemble file.

    tau is ceil(N / M): a round-robin window needs N stacked rows, and random
    Gaussian rows reach full rank as soon as there are N of them.
    """
    lam1, c, capital_c, m = [], 0.0, 0.0, 0.0
    rows = []
    for rec in ensemble["members"]:
        A = np.asarray(rec["A"], dtype=float)
        Q = np.asarray(rec["Q"], dtype=float)
        rows.append(A.shape[0])
        evals = eigh(A @ A.T, Q, eigvals_only=True)  # nonzero spectrum of A^T Q^-1 A
        lam1.append(float(evals[evals > RANK_TOL * evals.max()].min()))
        Qi = np.linalg.inv(Q)
        c = max(c, float(np.linalg.norm(Qi @ A, 2)))
        capital_c = max(capital_c, float(np.sum(A * A)))
        m = max(m, float(np.linalg.norm(Qi)))
    return {
        "tau": math.ceil(ensemble["n_states"] / min(rows)),
        "lambda_bar": min(lam1),
        "c": c,
        "capital_c": capital_c,
        "m": m,
        "lambda_1": np.array(lam1),
    }


def h_bounded(g, k: dict, delta_x: float, delta_n: float):
    return k["tau"] * (delta_x + k["c"] * delta_n / g) * (1.0 + g / k["lambda_bar"])


def h_stochastic(g, k: dict, delta_x: float):
    return k["tau"] * np.sqrt((k["capital_c"] * k["m"]) ** 2 / g**4 + delta_x**2) * (1.0 + g / k["lambda_bar"])


def bound_report(g: float, k: dict, delta_x: float, delta_n: float) -> dict:
    """Report fields at inertia weight g (gamma_star excluded)."""
    grow = 1.0 + g / k["lambda_bar"]
    return {
        "tau": k["tau"],
        "psi": float(np.max(g / (g + k["lambda_1"]))),
        "lambda_bar": k["lambda_bar"],
        "c": k["c"],
        "capital_c": k["capital_c"],
        "m": k["m"],
        "delta_x": delta_x,
        "delta_n": delta_n,
        "gamma": g,
        "h_b": h_bounded(g, k, delta_x, delta_n),
        "h_mu": k["tau"] * delta_x * grow,
        "h_sigma": k["tau"] * k["capital_c"] * k["m"] / g**2 * grow,
        "h_s": h_stochastic(g, k, delta_x),
    }
