"""Shared oracles and random-instance generators for the test suite.

Oracles deliberately use different code paths than the library (explicit
inverses, accumulated products, brute-force grids) so agreement is a real
cross-check rather than a tautology.
"""

import numpy as np


def random_spd(rng, m, shift=None):
    """Well-conditioned random symmetric positive definite matrix."""
    B = rng.standard_normal((m, m))
    return B @ B.T + (m if shift is None else shift) * np.eye(m)


def unit_frobenius(rng, m, n):
    G = rng.standard_normal((m, n))
    return G / np.linalg.norm(G)


def dense_update_oracle(x_prev, y, A, Q, gamma):
    """Minimizer of the regularized weighted least-squares step via an
    explicit inverse of Q and a dense solve of the normal equations."""
    Qi = np.linalg.inv(Q)
    n = A.shape[1]
    return np.linalg.solve(A.T @ Qi @ A + gamma * np.eye(n), gamma * x_prev + A.T @ Qi @ y)


def suffix_products(lams):
    """S_t = L(T) ... L(t) for t = 1..T; index t-1 holds S_t, index T holds I."""
    n = lams[0].shape[0]
    out = [np.eye(n)] * (len(lams) + 1)
    acc = np.eye(n)
    for t in range(len(lams) - 1, -1, -1):
        acc = acc @ lams[t]
        out[t] = acc
    return out


def closed_form_mean(lams, deltas, xi0):
    """Error mean from the accumulated-product expansion (zero-mean noise)."""
    suffix = suffix_products(lams)
    mu = suffix[0] @ xi0
    for t in range(1, len(lams) + 1):
        mu = mu - suffix[t - 1] @ deltas[t - 1]
    return mu


def closed_form_covariance(lams, infos, gamma):
    """Error covariance from the accumulated-product expansion:
    sum_t S_t (J_t / gamma^2) S_t^T with J_t = A_t^T Q_t^{-1} A_t."""
    n = lams[0].shape[0]
    suffix = suffix_products(lams)
    sigma = np.zeros((n, n))
    for t in range(1, len(lams) + 1):
        S = suffix[t - 1]
        sigma = sigma + S @ (infos[t - 1] / gamma**2) @ S.T
    return sigma


def rel_err(actual, expected):
    actual = np.asarray(actual, dtype=float)
    expected = np.asarray(expected, dtype=float)
    return float(np.linalg.norm(actual - expected) / max(np.linalg.norm(expected), 1.0))


def count_calls(monkeypatch, owner, name):
    """Wrap owner.name so that each call's positional arguments are recorded;
    return the (growing) list of records."""
    calls = []
    original = getattr(owner, name)

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counting)
    return calls
