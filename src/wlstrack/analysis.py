"""Contraction analysis and error bounds for the online estimator.

Everything here reasons about the estimation error xi(t) = x_hat(t) - x(t),
which obeys the linear recursion

    xi(t) = L(t) xi(t-1) - L(t) delta(t) + (1/gamma) L(t) A(t)^T Q_t^{-1} n(t)

with L(t) the step matrix from :mod:`wlstrack.estimator`, delta(t) the true
state variation and n(t) the measurement noise.  A single L(t) is only
non-expansive, but once every window of ``tau`` consecutive measurement
matrices jointly observes the whole state (their kernels intersect only at
the origin), the product of any ``tau`` consecutive step matrices contracts
by a factor

    psi = max_t gamma / (gamma + lambda_1(t)) < 1,

where lambda_1(t) is the smallest nonzero eigenvalue of A(t)^T Q_t^{-1} A(t).
From this follow worst-case error bounds for bounded noise, mean/covariance
bounds for zero-mean stochastic noise, and a tuning rule for the inertia
weight gamma.

Suprema over time reduce to maxima over the finite ensemble of (A, Q) pairs
the time-varying sequence is drawn from.
"""

from __future__ import annotations

import warnings
from dataclasses import asdict, dataclass, field
from typing import NamedTuple, Sequence

import numpy as np

from .estimator import (
    DEFAULT_RANK_TOL,
    LambdaDecomposition,
    MeasurementBatch,
    _as_float_array,
    _check_gamma,
    _gain,
    _read_only_copy,
    _spectral_rank,
    _step_matrix,
    _whitened_svd,
    _Whitened,
)
from .estimator import information_matrix, lambda_matrix  # noqa: F401  (span slots in perfbench/spans.py)

__all__ = [
    "SystemEnsemble",
    "EnsembleConstants",
    "ErrorMoments",
    "BoundReport",
    "kernel_basis",
    "smallest_nonzero_eig",
    "observability_window",
    "psi",
    "psi_from_lambda_bar",
    "ensemble_constants",
    "bound_finite_bounded",
    "bound_series_bounded",
    "h_bounded",
    "gamma_star_bounded",
    "propagate_error_moments",
    "vectorized_sigma_step",
    "bound_finite_stochastic",
    "h_stochastic",
    "gamma_star_stochastic",
    "contraction_norm",
    "bound_report",
]

# Above this state dimension the N^2 x N^2 Kronecker form is never
# materialized; the covariance step falls back to the matrix recursion.
KRONECKER_MAX_STATES = 8


@dataclass(frozen=True)
class SystemEnsemble:
    """Finite library of (A, Q) measurement models the sequence draws from.

    All members share the state dimension; each Q must be symmetric positive
    definite.  Worst-case constants over time (psi, lambda_bar, c, C, m) are
    maxima or minima over this list.

    Each member is validated and factored once, at construction (see
    estimator._whitened_svd), and `members` holds read-only copies of its A
    and Q, so results derived from them (window ranks, gains,
    ensemble_constants) are memoized on the instance.
    """

    members: tuple
    n_states: int
    _models: tuple = field(init=False, repr=False, compare=False)
    _memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if int(self.n_states) != self.n_states or self.n_states < 1:
            raise ValueError(f"n_states must be an integer >= 1, got {self.n_states}")
        object.__setattr__(self, "n_states", int(self.n_states))
        models = []
        for i, pair in enumerate(self.members):
            w = _whitened_svd(*pair)
            if w.A.shape[1] != self.n_states:
                raise ValueError(
                    f"member {i}: A has {w.A.shape[1]} columns, expected {self.n_states}"
                )
            models.append(w)
        if not models:
            raise ValueError("ensemble must contain at least one member")
        object.__setattr__(self, "members", tuple((w.A, w.Q) for w in models))
        object.__setattr__(self, "_models", tuple(models))

    def __len__(self) -> int:
        return len(self.members)

    def member_lambda(self, index: int, gamma: float) -> np.ndarray:
        return _step_matrix(self._models[index], _check_gamma(gamma))

    def member_gains(self, gamma: float) -> np.ndarray:
        """Every member's step gain K_i of estimator.update at this gamma,
        stacked into a read-only L x N x M array (the members must share M).
        Memoized per gamma; every gamma reads the same member factorizations."""
        gamma = _check_gamma(gamma)
        key = ("gains", gamma)
        gains = self._memo.get(key)
        if gains is None:
            gains = np.stack([_gain(w, gamma) for w in self._models])
            gains = self._memo[key] = _read_only_copy(gains)
        return gains

    def window_full_rank(self, window: Sequence[int]) -> bool:
        """Whether the members listed in `window`, stacked vertically, have
        full column rank, i.e. jointly observe the whole state.

        The stacked kernel is the intersection of the members' kernels, and
        the rank does not depend on the row order, so the result is memoized
        by the window's multiset of members and the SVD is taken in sorted
        member order.
        """
        key = ("rank", tuple(sorted(window)))
        good = self._memo.get(key)
        if good is None:
            stacked = np.vstack([self.members[i][0] for i in key[1]])
            s = np.linalg.svd(stacked, compute_uv=False)
            n = self.n_states
            good = bool(s.size >= n and s[n - 1] > DEFAULT_RANK_TOL * s[0])
            self._memo[key] = good
        return good


class EnsembleConstants(NamedTuple):
    """Worst-case constants over the ensemble (see ensemble_constants)."""

    lambda_bar: float
    c: float
    capital_c: float
    m: float


@dataclass(frozen=True)
class ErrorMoments:
    """Mean and covariance of the estimation error at step t."""

    mu: np.ndarray
    sigma: np.ndarray
    t: int

    def __post_init__(self):
        mu = _as_float_array(self.mu, "mu", 1)
        sigma = _as_float_array(self.sigma, "sigma", 2)
        n = mu.shape[0]
        if sigma.shape != (n, n):
            raise ValueError(f"sigma has shape {sigma.shape}, expected {(n, n)}")
        scale = max(float(np.abs(sigma).max()), 1.0) if sigma.size else 1.0
        if not np.allclose(sigma, sigma.T, rtol=0.0, atol=1e-10 * scale):
            raise ValueError("sigma is not symmetric")
        if sigma.size and np.linalg.eigvalsh(sigma).min() < -1e-10 * scale:
            raise ValueError("sigma is not positive semidefinite")
        if int(self.t) != self.t or self.t < 0:
            raise ValueError(f"t must be an integer >= 0, got {self.t}")
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "sigma", 0.5 * (sigma + sigma.T))
        object.__setattr__(self, "t", int(self.t))


def kernel_basis(A) -> np.ndarray:
    """Orthonormal basis (N x K columns) of the numerical kernel of A.

    K = N minus the numerical rank of A; singular values at or below
    DEFAULT_RANK_TOL times the largest count as zero.  An empty A (no rows)
    has kernel equal to the whole space.
    """
    A = _as_float_array(A, "A", 2)
    n = A.shape[1]
    if A.shape[0] == 0:
        return np.eye(n)
    _, s, vt = np.linalg.svd(A)
    rank = int(np.count_nonzero(s > DEFAULT_RANK_TOL * s[0])) if s.size and s[0] > 0 else 0
    return vt[rank:].T


def smallest_nonzero_eig(A, Q=None) -> float:
    """Smallest nonzero eigenvalue lambda_1 of A^T Q^{-1} A: the smallest squared
    singular value of the whitened C^{-1} A (Q = C C^T) above DEFAULT_RANK_TOL
    times the largest.  Raises numpy.linalg.LinAlgError when there is none."""
    return _lambda_1(_whitened_svd(A, Q))


def _lambda_1(w: _Whitened, name: str = "matrix") -> float:
    rank = _spectral_rank(w)
    if rank == 0:
        raise np.linalg.LinAlgError(f"{name} has numerical rank 0; smallest nonzero eigenvalue undefined")
    return float(w.sigma[rank - 1] ** 2)


def observability_window(sequence: Sequence[int], ensemble: SystemEnsemble, max_window: int | None = None):
    """Smallest tau such that every tau consecutive matrices of the sequence
    jointly observe the full state.

    The kernel-intersection condition is checked by
    SystemEnsemble.window_full_rank.  Returns None when no window length up to
    len(sequence) (or max_window) works.
    """
    seq = [int(i) for i in sequence]
    if not seq:
        raise ValueError("sequence must be nonempty")
    for i in seq:
        if i < 0 or i >= len(ensemble.members):
            raise ValueError(f"member index {i} out of range for ensemble of {len(ensemble.members)}")
    n = ensemble.n_states
    rows = np.array([ensemble.members[i][0].shape[0] for i in seq])
    prefix = np.concatenate([[0], np.cumsum(rows)])
    horizon = len(seq)
    hi = horizon if max_window is None else min(int(max_window), horizon)
    for tau in range(1, hi + 1):
        # A window with fewer rows than columns can never have full column rank.
        window_rows = prefix[tau:] - prefix[:-tau]
        if window_rows.min() < n:
            continue
        if all(
            ensemble.window_full_rank(seq[start : start + tau])
            for start in range(horizon - tau + 1)
        ):
            return tau
    return None


def psi(ensemble: SystemEnsemble, gamma: float) -> float:
    """Worst-case factor max_i gamma / (gamma + lambda_1_i) over the ensemble.

    This is the contraction rate of any fully-observing window of step
    matrices; it is strictly below 1 whenever every member has at least one
    nonzero eigenvalue.  The factor is monotone in lambda_1_i under rounding,
    so this equals psi_from_lambda_bar(gamma, lambda_bar) bit for bit.
    """
    return psi_from_lambda_bar(_check_gamma(gamma), ensemble_constants(ensemble).lambda_bar)


def psi_from_lambda_bar(gamma: float, lambda_bar: float) -> float:
    """gamma / (gamma + lambda_bar): psi of an ensemble with that lambda_bar."""
    return gamma / (gamma + lambda_bar)


def ensemble_constants(ensemble: SystemEnsemble) -> EnsembleConstants:
    """Worst-case constants used by the error bounds.

    lambda_bar: smallest nonzero eigenvalue of A^T Q^{-1} A over members.
    c:          largest spectral norm of A^T Q^{-1}.
    capital_c:  largest ||A^T (x) A^T||_F, which equals ||A||_F^2.
    m:          largest ||Q^{-1}||_F (the noise covariance is taken as Q).

    Computed once per ensemble instance and memoized on it.
    """
    if "constants" not in ensemble._memo:
        ensemble._memo["constants"] = _ensemble_constants(ensemble)
    return ensemble._memo["constants"]


def _ensemble_constants(ensemble: SystemEnsemble) -> EnsembleConstants:
    lam1 = []
    c = capital_c = m = 0.0
    for index, w in enumerate(ensemble._models):
        lam1.append(_lambda_1(w, f"ensemble member {index}"))
        q_inv = w.c_inv.T @ w.c_inv
        c = max(c, float(np.linalg.norm(q_inv @ w.A, 2)))  # equals ||A^T Q^{-1}||
        capital_c = max(capital_c, float(np.linalg.norm(w.A) ** 2))
        m = max(m, float(np.linalg.norm(q_inv)))
    return EnsembleConstants(float(min(lam1)), c, capital_c, m)


def _check_tau(tau) -> int:
    if int(tau) != tau or tau < 1:
        raise ValueError(f"tau must be an integer >= 1, got {tau}")
    return int(tau)


def _check_bound_args(T: int, tau: int, psi_value: float) -> tuple[int, int, float]:
    if int(T) != T or T < 1:
        raise ValueError(f"T must be an integer >= 1, got {T}")
    psi_value = float(psi_value)
    if not (0.0 <= psi_value < 1.0):
        raise ValueError(f"psi must lie in [0, 1), got {psi_value}")
    return int(T), _check_tau(tau), psi_value


def _per_step_array(per_step, T: int) -> np.ndarray:
    arr = np.asarray(per_step, dtype=float)
    if arr.ndim != 2 or arr.shape[1] != 3:
        raise ValueError(f"per_step must be a sequence of triples, got shape {arr.shape}")
    if arr.shape[0] < T:
        raise ValueError(f"per_step has {arr.shape[0]} entries, need at least {T}")
    return arr[:T]


def bound_finite_bounded(T, tau, psi_value, xi0_norm, per_step, gamma) -> float:
    """Worst-case error norm at step T under norm-bounded noise.

    per_step holds one (delta_x_t, c_t, delta_n_t) triple per step, where
    delta_x_t bounds the state variation norm, delta_n_t the noise norm and
    c_t = ||A(t)^T Q_t^{-1}||.  The bound is

        psi^floor(T/tau) ||xi(0)||
        + sum_{t=1..T} psi^floor((T+1-t)/tau) (delta_x_t + c_t delta_n_t / gamma).
    """
    T, tau, psi_value = _check_bound_args(T, tau, psi_value)
    gamma = _check_gamma(gamma)
    arr = _per_step_array(per_step, T)
    g = arr[:, 0] + arr[:, 1] * arr[:, 2] / gamma
    t = np.arange(1, T + 1)
    total = psi_value ** (T // tau) * float(xi0_norm)
    total += float(np.sum(psi_value ** ((T + 1 - t) // tau) * g))
    return float(total)


def bound_series_bounded(tau, psi_value, xi0_norm, per_step, gamma) -> np.ndarray:
    """bound_finite_bounded evaluated at every T = 1..len(per_step), vectorized.

    The inner sum is a discrete convolution of the per-step terms with the
    stepped powers of psi, so the whole series costs one convolution.
    """
    arr = np.asarray(per_step, dtype=float)
    T = arr.shape[0]
    _, tau, psi_value = _check_bound_args(max(T, 1), tau, psi_value)
    gamma = _check_gamma(gamma)
    if T == 0:
        return np.zeros(0)
    arr = _per_step_array(per_step, T)
    g = arr[:, 0] + arr[:, 1] * arr[:, 2] / gamma
    pw = psi_value ** (np.arange(T + 1) // tau)  # pw[s] = psi^floor(s/tau)
    sums = np.convolve(g, pw[1:])[:T]
    return pw[1:] * float(xi0_norm) + sums


def h_bounded(gamma, tau, delta_x, c, delta_n, lambda_bar) -> float:
    """Asymptotic worst-case error bound under norm-bounded noise:

        tau * (delta_x + c * delta_n / gamma) * (1 + gamma / lambda_bar)
    """
    gamma = _check_gamma(gamma)
    tau = _check_tau(tau)
    return float(tau * (delta_x + c * delta_n / gamma) * (1.0 + gamma / lambda_bar))


def gamma_star_bounded(c, lambda_bar, delta_n, delta_x) -> float:
    """Minimizer sqrt(c * lambda_bar * delta_n / delta_x) of the bounded-noise bound.

    delta_x must be positive (otherwise the bound is monotone in gamma and
    has no finite minimizer).  With delta_n = 0 the bound decreases toward
    gamma -> 0; 0.0 is returned and a warning issued.
    """
    if delta_x <= 0:
        raise ValueError("delta_x must be positive: the bound has no finite minimizer")
    if delta_n == 0:
        warnings.warn("delta_n is 0: bound is minimized as gamma -> 0, returning 0.0")
        return 0.0
    return float(np.sqrt(c * lambda_bar * delta_n / delta_x))


def _covariance_step(sigma: np.ndarray, batch: MeasurementBatch, gamma: float):
    """L and L sigma L^T + K Q K^T for the batch's gain K and step matrix L."""
    K, lam = _gain(batch._model, gamma), _step_matrix(batch._model, gamma)
    return lam, lam @ sigma @ lam.T + K @ batch.Q @ K.T


def propagate_error_moments(
    moments: ErrorMoments, batch: MeasurementBatch, delta, gamma: float
) -> ErrorMoments:
    """One step of the exact error mean/covariance recursion.

    With the noise covariance equal to the weighting matrix Q,

        mu'    = L (mu - delta)
        sigma' = L sigma L^T + (1/gamma^2) L (A^T Q^{-1} A) L^T = L sigma L^T + K Q K^T,

    with the estimator's gain K (L = I - K A).
    """
    gamma = _check_gamma(gamma)
    delta = _as_float_array(delta, "delta", 1)
    n = moments.mu.shape[0]
    if delta.shape[0] != n:
        raise ValueError(f"delta has length {delta.shape[0]}, expected {n}")
    if batch.n_states != n:
        raise ValueError(f"A has {batch.n_states} columns, expected {n}")
    if batch.t != moments.t + 1:
        raise ValueError(f"non-sequential step: moments at t={moments.t}, batch has t={batch.t}")
    lam, sigma = _covariance_step(moments.sigma, batch, gamma)
    return ErrorMoments(lam @ (moments.mu - delta), 0.5 * (sigma + sigma.T), batch.t)


def vectorized_sigma_step(sigma_vec, batch: MeasurementBatch, gamma: float) -> np.ndarray:
    """One covariance step on the flattened covariance sigma_vec = vec(Sigma):

        sigma' = F sigma + (K (x) K) vec(Q),  F = L (x) L,

    with the estimator's gain K.  The noise term equals (1/gamma^2) F C m,
    C = A^T (x) A^T, m = vec(Q^{-1}).

    vec() is the row-major flatten; for symmetric Sigma this coincides with
    the column-stacked convention.  For more than KRONECKER_MAX_STATES states
    the N^2 x N^2 matrices are not materialized and the covariance step of
    propagate_error_moments is used instead.
    """
    gamma = _check_gamma(gamma)
    v = _as_float_array(sigma_vec, "sigma_vec", 1)
    n = batch.n_states
    if v.shape[0] != n * n:
        raise ValueError(f"sigma_vec has length {v.shape[0]}, expected {n * n}")
    if n > KRONECKER_MAX_STATES:
        return _covariance_step(v.reshape(n, n), batch, gamma)[1].reshape(-1)
    K, lam = _gain(batch._model, gamma), _step_matrix(batch._model, gamma)
    return np.kron(lam, lam) @ v + np.kron(K, K) @ batch.Q.reshape(-1)


def bound_finite_stochastic(T, tau, psi_value, xi0_norm, sigma0_frob, per_step, gamma=None):
    """Bounds on the error mean norm and covariance Frobenius norm at step T.

    per_step holds one (delta_x_t, C_t, m_t) triple per step with
    C_t = ||A(t)^T (x) A(t)^T||_F and m_t = ||Q_t^{-1}||_F.  Returns
    (mu_bound, sigma_bound):

        mu_bound    = psi^floor(T/tau) ||xi(0)||
                      + sum psi^floor((T+1-t)/tau) delta_x_t
        sigma_bound = psi^floor(T/tau) ||Sigma(0)||_F
                      + sum psi^floor((T+1-t)/tau) C_t m_t [ / gamma^2 ]

    With gamma=None the covariance sum weighs the noise terms by C_t m_t
    alone; passing gamma applies the 1/gamma^2 factor that the covariance
    recursion itself carries (see the README note on the two variants).
    """
    T, tau, psi_value = _check_bound_args(T, tau, psi_value)
    arr = _per_step_array(per_step, T)
    t = np.arange(1, T + 1)
    w = psi_value ** ((T + 1 - t) // tau)
    head = psi_value ** (T // tau)
    mu_bound = head * float(xi0_norm) + float(np.sum(w * arr[:, 0]))
    scale = 1.0 if gamma is None else 1.0 / _check_gamma(gamma) ** 2
    sigma_bound = head * float(sigma0_frob) + scale * float(np.sum(w * arr[:, 1] * arr[:, 2]))
    return float(mu_bound), float(sigma_bound)


def h_stochastic(gamma, tau, capital_c, m, delta_x, lambda_bar) -> float:
    """Asymptotic bound on the root mean squared error under stochastic noise:

        tau * sqrt(C^2 m^2 / gamma^4 + delta_x^2) * (1 + gamma / lambda_bar)
    """
    gamma = _check_gamma(gamma)
    tau = _check_tau(tau)
    return float(
        tau * np.sqrt((capital_c * m) ** 2 / gamma**4 + delta_x**2) * (1.0 + gamma / lambda_bar)
    )


def gamma_star_stochastic(
    tau,
    capital_c,
    m,
    delta_x,
    lambda_bar,
    search_interval=(1e-3, 1e3),
    tolerance: float = 1e-8,
    n_probe: int = 129,
    grid_points: int = 10_000,
) -> float:
    """Minimizer of h_stochastic over search_interval.

    The profile is probed on a log-spaced sample first; if it looks unimodal
    (nonincreasing then nondecreasing), a golden-section search refines the
    bracket around the sampled minimum down to `tolerance`.  Otherwise the
    argmin of a dense log-spaced grid is returned and a warning issued.
    """
    tau = _check_tau(tau)
    lo, hi = float(search_interval[0]), float(search_interval[1])
    if not (0 < lo < hi):
        raise ValueError(f"search_interval must satisfy 0 < lo < hi, got {search_interval}")

    def f(g: float) -> float:
        return h_stochastic(g, tau, capital_c, m, delta_x, lambda_bar)

    xs = np.geomspace(lo, hi, n_probe)
    vals = np.array([f(x) for x in xs])
    diffs = np.diff(vals)
    slack = 1e-12 * float(np.abs(vals).max())
    rising = np.nonzero(diffs > slack)[0]
    first_rise = rising[0] if rising.size else len(diffs)
    unimodal = bool(
        np.all(diffs[:first_rise] <= slack) and np.all(diffs[first_rise:] >= -slack)
    )
    if not unimodal:
        warnings.warn("sampled bound profile is not unimodal; falling back to grid argmin")
        grid = np.geomspace(lo, hi, grid_points)
        return float(grid[np.argmin([f(g) for g in grid])])

    k = int(np.argmin(vals))
    a = xs[max(k - 1, 0)]
    b = xs[min(k + 1, len(xs) - 1)]
    inv_phi = (np.sqrt(5.0) - 1.0) / 2.0
    c_pt = b - inv_phi * (b - a)
    d_pt = a + inv_phi * (b - a)
    fc, fd = f(c_pt), f(d_pt)
    while b - a > tolerance:
        if fc <= fd:
            b, d_pt, fd = d_pt, c_pt, fc
            c_pt = b - inv_phi * (b - a)
            fc = f(c_pt)
        else:
            a, c_pt, fc = c_pt, d_pt, fd
            d_pt = a + inv_phi * (b - a)
            fd = f(d_pt)
    return float(0.5 * (a + b))


def contraction_norm(window) -> float:
    """Spectral norm of the time-ordered product of step matrices.

    The window lists matrices in increasing time order; the product applies
    the earliest matrix first, i.e. P = L(t+k-1) ... L(t+1) L(t).
    Accepts raw matrices or LambdaDecomposition objects.
    """
    mats = []
    for entry in window:
        if isinstance(entry, LambdaDecomposition):
            entry = entry.lambda_matrix
        mat = _as_float_array(entry, "window entry", 2)
        if mat.shape[0] != mat.shape[1]:
            raise ValueError(f"window entries must be square, got shape {mat.shape}")
        mats.append(mat)
    if not mats:
        raise ValueError("window must be nonempty")
    n = mats[0].shape[0]
    if any(m.shape != (n, n) for m in mats):
        raise ValueError("window entries have mismatched shapes")
    prod = mats[0]
    for mat in mats[1:]:
        prod = mat @ prod
    return float(np.linalg.norm(prod, 2))


@dataclass(frozen=True)
class BoundReport:
    """All theoretical constants and bound values for one gamma.

    h_b is the asymptotic bounded-noise bound, h_mu / h_sigma the asymptotic
    mean / covariance bounds under stochastic noise, h_s the asymptotic root
    mean squared error bound.  gamma_star is the bound-optimal inertia weight
    for the report's noise mode.
    """

    tau: int
    psi: float
    lambda_bar: float
    c: float
    capital_c: float
    m: float
    delta_x: float
    delta_n: float
    gamma: float
    h_b: float
    h_mu: float
    h_sigma: float
    h_s: float
    gamma_star: float

    def to_dict(self) -> dict:
        return asdict(self)


def bound_report(
    ensemble: SystemEnsemble,
    tau: int,
    gamma: float,
    delta_x: float,
    delta_n: float,
    noise_mode: str = "bounded",
    search_interval=(1e-3, 1e3),
) -> BoundReport:
    """Evaluate every bound at one gamma and attach the optimal gamma for the mode."""
    tau = _check_tau(tau)
    gamma = _check_gamma(gamma)
    if noise_mode not in ("bounded", "gaussian"):
        raise ValueError(f"noise_mode must be 'bounded' or 'gaussian', got {noise_mode!r}")
    consts = ensemble_constants(ensemble)
    lb = consts.lambda_bar
    psi_value = psi_from_lambda_bar(gamma, lb)
    h_b = h_bounded(gamma, tau, delta_x, consts.c, delta_n, lb)
    h_mu = float(tau * delta_x * (1.0 + gamma / lb))
    h_sigma = float(tau * consts.capital_c * consts.m / gamma**2 * (1.0 + gamma / lb))
    h_s = h_stochastic(gamma, tau, consts.capital_c, consts.m, delta_x, lb)
    if noise_mode == "bounded":
        gamma_star = gamma_star_bounded(consts.c, lb, delta_n, delta_x)
    else:
        gamma_star = gamma_star_stochastic(
            tau, consts.capital_c, consts.m, delta_x, lb, search_interval
        )
    return BoundReport(
        tau=tau,
        psi=psi_value,
        lambda_bar=lb,
        c=consts.c,
        capital_c=consts.capital_c,
        m=consts.m,
        delta_x=float(delta_x),
        delta_n=float(delta_n),
        gamma=gamma,
        h_b=h_b,
        h_mu=h_mu,
        h_sigma=h_sigma,
        h_s=h_s,
        gamma_star=float(gamma_star),
    )
