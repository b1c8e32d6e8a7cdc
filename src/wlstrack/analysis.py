"""Contraction analysis and error bounds for the online estimator.

Everything here reasons about the estimation error xi(t) = x_hat(t) - x(t),
which obeys the linear recursion

    xi(t) = L(t) xi(t-1) - L(t) delta(t) + (1/gamma) L(t) A(t)^T Q_t^{-1} n(t)

with L(t) the step matrix from :mod:`wlstrack.estimator`, delta(t) the true
state variation and n(t) the measurement noise.  A single L(t) is only
non-expansive, but once every window of ``tau`` consecutive measurement
matrices jointly observes the whole state (their kernels intersect only at
the origin), the product of any ``tau`` consecutive step matrices is
strictly contractive.  The paper's per-member factor

    psi = max_t gamma / (gamma + lambda_1(t)) < 1,

where lambda_1(t) is the smallest nonzero eigenvalue of A(t)^T Q_t^{-1} A(t),
bounds such a product only where consecutive members' kernels do not overlap
(README "Known acceptance-check failures": criteria 2a, 2b and verify's
mean_bound_validity).  From psi follow the paper's worst-case error bounds
for bounded noise, mean/covariance bounds for zero-mean stochastic noise,
and a tuning rule for the inertia weight gamma.

Suprema over time reduce to maxima over the finite ensemble of (A, Q) pairs
the time-varying sequence is drawn from.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import asdict, dataclass, field
from typing import NamedTuple, Sequence

import numpy as np

from .estimator import (
    DEFAULT_RANK_TOL,
    MeasurementBatch,
    _as_float_array,
    _check_gamma,
    _check_int,
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
    "smallest_nonzero_eig",
    "observability_window",
    "psi",
    "psi_from_lambda_bar",
    "ensemble_constants",
    "bound_series_bounded",
    "h_bounded",
    "gamma_star_bounded",
    "propagate_error_moments",
    "vectorized_sigma_step",
    "h_stochastic",
    "gamma_star_stochastic",
    "gamma_star",
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
    estimator._whitened_svd; an error names the member's index), and
    `members` holds read-only copies of its A and Q, so results derived from
    them (window ranks, gains, ensemble_constants) are memoized on the instance.
    """

    members: tuple
    n_states: int
    _models: tuple = field(init=False, repr=False, compare=False)
    # Window ranks are keyed by member-set bitmask (an int), or by
    # ("rank", sorted members) for a window that repeats a member.
    _memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "n_states", _check_int(self.n_states, "n_states", 1))
        models = []
        for i, pair in enumerate(self.members):
            try:
                w = _whitened_svd(*pair)
                if w.A.shape[1] != self.n_states:
                    raise ValueError(f"A has {w.A.shape[1]} columns, expected {self.n_states}")
            except (ValueError, np.linalg.LinAlgError) as exc:
                raise type(exc)(f"member {i}: {exc}") from exc
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
        by the window's multiset of members and the rows are stacked in
        sorted member order (see _full_column_rank).  A window without
        repeats is keyed by its member bitmask, as in generate_sequence,
        and only a window with repeats by its sorted member tuple.
        """
        mask = 0
        for i in window:
            i = int(i)
            if not 0 <= i < len(self.members):
                raise IndexError(f"member index {i} out of range for ensemble of {len(self.members)}")
            mask |= 1 << i
        if mask.bit_count() == len(window):
            return self._mask_full_rank(mask)
        key = ("rank", tuple(sorted(int(i) for i in window)))
        good = self._memo.get(key)
        if good is None:
            good = self._memo[key] = self._stack_full_rank(key[1])
        return good

    def _mask_full_rank(self, mask: int) -> bool:
        """window_full_rank of the members whose bits are set in mask, one row block each."""
        good = self._memo.get(mask)
        if good is None:
            good = self._memo[mask] = self._stack_full_rank(
                [i for i in range(mask.bit_length()) if mask >> i & 1]
            )
        return good

    def _stack_full_rank(self, ordered: Sequence[int]) -> bool:
        return _full_column_rank(np.vstack([self.members[i][0] for i in ordered]))


def _full_column_rank(stacked: np.ndarray) -> bool:
    """The window-rank test: sigma_N > DEFAULT_RANK_TOL * sigma_1 in the
    values-only SVD of the M x N stack (False when M < N).  A Gram-Cholesky
    certificate settles most full-rank stacks first; the SVD decides the rest."""
    m, n = stacked.shape
    if m < n:
        return False
    if _gram_certifies_full_rank(stacked):
        return True
    s = np.linalg.svd(stacked, compute_uv=False)
    return bool(s[n - 1] > DEFAULT_RANK_TOL * s[0])


_UNIT_ROUNDOFF = np.finfo(float).eps / 2
_SMALLEST_SUBNORMAL = np.finfo(float).smallest_subnormal


def _gram_certifies_full_rank(stacked: np.ndarray) -> bool:
    """True only when the SVD verdict of _full_column_rank is provably True.

    S is the stack scaled by a power of two to a largest |entry| in [0.5, 1),
    so G = fl(S^T S) and its Cholesky cannot overflow and t = trace(G) >= 1/4.
    The diagonal shift d = theta + g + r holds a margin theta =
    (2 DEFAULT_RANK_TOL)^2 t, the rounding of G, ||G - S^T S||_2 <= g =
    gamma_m t (m rows, gamma_k = k u / (1 - k u)), and r, Rump's bound on the
    backward error of a floating-point Cholesky of fl(G - d I), underflow
    included (S. M. Rump, BIT 46 (2006) 433-452).  So a finite factor proves
    sigma_N(S)^2 > theta, i.e. sigma_N > 2 DEFAULT_RANK_TOL ||S||_F >=
    2 DEFAULT_RANK_TOL sigma_1; second-order rounding terms and subnormals
    take a negligible part of the factor 2.  The computed singular values lie
    within a modest multiple of u sigma_1 of the exact ones, far inside that
    factor, so the SVD would return True as well.  False proves nothing.
    """
    m, n = stacked.shape
    u = _UNIT_ROUNDOFF
    S = np.ldexp(stacked, -np.frexp(np.abs(stacked).max())[1])
    G = S.T @ S
    t = float(G.trace())
    gamma_m, gamma_n1 = m * u / (1 - m * u), (n + 1) * u / (1 - (n + 1) * u)
    # Rump's underflow term takes max_i G_ii, which is at most m here.
    rump = gamma_n1 / (1 - 2 * gamma_n1) * t + 4 * _SMALLEST_SUBNORMAL * (n + 1) * (2 * (n + 1) + m)
    G.flat[:: n + 1] -= (2 * DEFAULT_RANK_TOL) ** 2 * t + gamma_m * t + rump
    try:
        return bool(np.isfinite(np.linalg.cholesky(G)).all())
    except np.linalg.LinAlgError:
        return False


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
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "sigma", 0.5 * (sigma + sigma.T))
        object.__setattr__(self, "t", _check_int(self.t, "t", 0))


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


def observability_window(sequence: Sequence[int], ensemble: SystemEnsemble):
    """Smallest tau such that every tau consecutive matrices of the sequence
    jointly observe the full state.

    The kernel-intersection condition is checked by
    SystemEnsemble.window_full_rank.  Returns None when no window length up to
    len(sequence) works.
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
    for tau in range(1, horizon + 1):
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

    The paper's per-member factor, strictly below 1 whenever every member has
    a nonzero eigenvalue.  It bounds a fully-observing window of step matrices
    only where consecutive members' kernels do not overlap (module docstring).
    The factor is monotone in lambda_1_i under rounding, so this equals
    psi_from_lambda_bar(gamma, lambda_bar) bit for bit.
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
    m:          largest ||Q^{-1}||_F (the noise covariance is taken as Q), taken
                of Q^{-1} scaled by a power of two (exact), so it has the bits of
                numpy.linalg.norm where that is finite and never overflows needlessly.

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
        e = np.frexp(np.abs(q_inv).max())[1]
        m = max(m, float(np.ldexp(np.linalg.norm(np.ldexp(q_inv, -e)), e)))
    return EnsembleConstants(float(min(lam1)), c, capital_c, m)


def _check_tau(tau) -> int:
    return _check_int(tau, "tau", 1)


def _psi_weighted_sums(tau: int, psi_value: float, head: float, g: np.ndarray) -> np.ndarray:
    """psi^floor(T/tau) head + sum_{t=1..T} psi^floor((T+1-t)/tau) g_t for every
    T = 1..len(g): a discrete convolution of g with the stepped powers of psi."""
    T = len(g)
    pw = psi_value ** (np.arange(T + 1) // tau)  # pw[s] = psi^floor(s/tau)
    return pw[1:] * float(head) + np.convolve(g, pw[1:])[:T]


def bound_series_bounded(tau, psi_value, xi0_norm, per_step, gamma) -> np.ndarray:
    """Finite-horizon error bound at every step T = 1..len(per_step).

    per_step holds one (delta_x_t, c_t, delta_n_t) triple per step, where
    delta_x_t bounds the state variation norm, delta_n_t the noise norm and
    c_t = ||A(t)^T Q_t^{-1}||.  Entry T - 1 is the worst-case error norm bound
    under norm-bounded noise,

        psi^floor(T/tau) ||xi(0)||
        + sum_{t=1..T} psi^floor((T+1-t)/tau) (delta_x_t + c_t delta_n_t / gamma).

    Under stochastic noise, triples (delta_x_t, 0, 0) give the error mean bound,
    and (0, C_t m_t, 1/gamma) with ||Sigma(0)||_F as head the covariance bound,
    whose terms C_t m_t / gamma^2 carry the recursion's 1/gamma^2 (see README).
    """
    psi_value = float(psi_value)
    if not (0.0 <= psi_value < 1.0):
        raise ValueError(f"psi must lie in [0, 1), got {psi_value}")
    tau = _check_tau(tau)
    gamma = _check_gamma(gamma)
    arr = np.asarray(per_step, dtype=float)
    if len(arr) == 0:
        return np.zeros(0)
    if arr.ndim != 2 or arr.shape[1] != 3:
        raise ValueError(f"per_step must be a sequence of triples, got shape {arr.shape}")
    return _psi_weighted_sums(tau, psi_value, xi0_norm, arr[:, 0] + arr[:, 1] * arr[:, 2] / gamma)


def h_bounded(gamma, tau, delta_x, c, delta_n, lambda_bar) -> float:
    """Asymptotic worst-case error bound under norm-bounded noise:

        tau * (delta_x + c * delta_n / gamma) * (1 + gamma / lambda_bar)
    """
    gamma = _check_gamma(gamma)
    return _grown(_check_tau(tau), delta_x + c * delta_n / gamma, gamma, lambda_bar)


def _grown(tau: int, g: float, gamma: float, lambda_bar: float) -> float:
    """tau * g * (1 + gamma / lambda_bar), the form of every asymptotic bound."""
    return float((tau * g) * (1.0 + gamma / lambda_bar))


def _check_finite(**values) -> None:
    for name, value in values.items():
        if not np.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")


def gamma_star_bounded(c, lambda_bar, delta_n, delta_x) -> float:
    """Minimizer sqrt(c * lambda_bar * delta_n / delta_x) of the bounded-noise bound.

    delta_x must be positive (otherwise the bound is monotone in gamma and
    has no finite minimizer).  With delta_n = 0 the bound decreases toward
    gamma -> 0; 0.0 is returned and a warning issued.

    The product under the root is formed from the factors' mantissas, and
    the sum of their binary exponents is applied to the root, so no
    intermediate overflows or underflows.  Scaling by a power of two is
    exact, so wherever every intermediate of the direct product is a normal
    float this gives the same bits as the direct form; the result is inf
    only when the minimizer itself is not representable.
    """
    _check_finite(c=c, lambda_bar=lambda_bar, delta_n=delta_n, delta_x=delta_x)
    if delta_x <= 0:
        raise ValueError("delta_x must be positive: the bound has no finite minimizer")
    if delta_n == 0:
        warnings.warn("delta_n is 0: bound is minimized as gamma -> 0, returning 0.0")
        return 0.0
    (mc, ec), (ml, el), (mn, en), (mx, ex) = map(math.frexp, (c, lambda_bar, delta_n, delta_x))
    half, odd = divmod(ec + el + en - ex, 2)
    with np.errstate(over="ignore", under="ignore"):
        return float(np.ldexp(np.sqrt(mc * ml * mn / mx * 2**odd), half))


def _moment_step(X, L, K, R, D):
    """L (X + D) L^T + K R K^T = E[e' e'^T] for e' = L (e - delta) + K n, E[e e^T] = X,
    Cov delta = D, Cov n = R, all independent.  Takes one mode (N x N) or a
    stack of modes (... x N x N); a stack gives each mode's one-mode bits."""
    return L @ (X + D) @ np.swapaxes(L, -1, -2) + K @ R @ np.swapaxes(K, -1, -2)


def propagate_error_moments(
    moments: ErrorMoments, batch: MeasurementBatch, delta, gamma: float
) -> ErrorMoments:
    """One step of the exact error mean/covariance recursion.

    With the noise covariance equal to the weighting matrix Q and delta deterministic,

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
    K, lam = _gain(batch._model, gamma), _step_matrix(batch._model, gamma)
    sigma = _moment_step(moments.sigma, lam, K, batch.Q, 0.0)
    return ErrorMoments(lam @ (moments.mu - delta), sigma, batch.t)


def vectorized_sigma_step(sigma_vec, batch: MeasurementBatch, gamma: float) -> np.ndarray:
    """One covariance step on the flattened covariance sigma_vec = vec(Sigma):

        sigma' = F sigma + (K (x) K) vec(Q),  F = L (x) L,

    with the estimator's gain K, under the assumptions of propagate_error_moments.
    The noise term equals (1/gamma^2) F C m, C = A^T (x) A^T, m = vec(Q^{-1}).

    vec() is the row-major flatten; for symmetric Sigma this coincides with
    the column-stacked convention.  For more than KRONECKER_MAX_STATES states
    the N^2 x N^2 matrices are not materialized and the matrix form of
    propagate_error_moments is taken instead.
    """
    gamma = _check_gamma(gamma)
    v = _as_float_array(sigma_vec, "sigma_vec", 1)
    n = batch.n_states
    if v.shape[0] != n * n:
        raise ValueError(f"sigma_vec has length {v.shape[0]}, expected {n * n}")
    K, lam = _gain(batch._model, gamma), _step_matrix(batch._model, gamma)
    if n > KRONECKER_MAX_STATES:
        return _moment_step(v.reshape(n, n), lam, K, batch.Q, 0.0).reshape(-1)
    return np.kron(lam, lam) @ v + np.kron(K, K) @ batch.Q.reshape(-1)


def h_stochastic(gamma, tau, capital_c, m, delta_x, lambda_bar) -> float:
    """Asymptotic bound on the root mean squared error under stochastic noise:

        tau * sqrt(C^2 m^2 / gamma^4 + delta_x^2) * (1 + gamma / lambda_bar)

    C m / gamma^2 is formed as a chain of quotients and products and the root
    by math.hypot, so no power of C m or gamma overflows or underflows.
    """
    gamma = _check_gamma(gamma)
    g = math.hypot(capital_c / gamma * m / gamma, delta_x)
    return _grown(_check_tau(tau), g, gamma, lambda_bar)


# gamma_star_stochastic returns its root clipped to this interval.
GAMMA_STAR_INTERVAL = (1e-3, 1e3)


def gamma_star_stochastic(capital_c, m, delta_x, lambda_bar) -> float:
    """Minimizer of h_stochastic over GAMMA_STAR_INTERVAL = [lo, hi].

    d log h_s / d gamma = 0 reduces to delta_x^2 gamma^5 = (C m)^2 (gamma + 2 lambda_bar),
    with exactly one positive root; tau only scales h_s and does not enter it.
    In u = log(gamma) the root is the fixed point of

        u = (2 log(|C m| / |delta_x|) + logaddexp(u, log(2 lambda_bar))) / 5,

    a map that contracts by at most 1/5, so 60 iterations from
    u = 2 log(|C m| / |delta_x|) / 5 converge, and no power of C m, delta_x
    or gamma is ever formed.  log h_s is convex in u, so the root clipped to
    the interval (in u) is the minimizer over it: lo when C m = 0 (h_s then
    grows with gamma), hi when delta_x = 0 (h_s then falls).
    """
    if not (0 < lambda_bar < np.inf):
        raise ValueError(f"lambda_bar must be positive and finite, got {lambda_bar}")
    _check_finite(capital_c=capital_c, m=m, delta_x=delta_x)
    lo, hi = GAMMA_STAR_INTERVAL
    if capital_c == 0 or m == 0:
        return lo
    if delta_x == 0:
        return hi
    k = 2.0 * (math.log(abs(capital_c)) + math.log(abs(m)) - math.log(abs(delta_x)))
    log_2lb = math.log(2.0) + math.log(lambda_bar)
    u = k / 5.0
    for _ in range(60):
        u = (k + np.logaddexp(u, log_2lb)) / 5.0
    if u <= math.log(lo):
        return lo
    if u >= math.log(hi):
        return hi
    return float(np.exp(u))


def gamma_star(noise_mode: str, consts: EnsembleConstants, delta_x, delta_n) -> float:
    """Bound-optimal inertia weight for noise_mode 'bounded' (gamma_star_bounded)
    or 'gaussian' (gamma_star_stochastic).  Neither depends on the observability
    window tau."""
    if noise_mode == "bounded":
        return gamma_star_bounded(consts.c, consts.lambda_bar, delta_n, delta_x)
    if noise_mode == "gaussian":
        return gamma_star_stochastic(consts.capital_c, consts.m, delta_x, consts.lambda_bar)
    raise ValueError(f"noise_mode must be 'bounded' or 'gaussian', got {noise_mode!r}")


def contraction_norm(window) -> float:
    """Spectral norm of the time-ordered product of step matrices.

    The window lists matrices in increasing time order; the product applies
    the earliest matrix first, i.e. P = L(t+k-1) ... L(t+1) L(t).
    """
    mats = [_as_float_array(entry, "window entry", 2) for entry in window]
    if not mats:
        raise ValueError("window must be nonempty")
    n = mats[0].shape[0]
    if any(m.shape != (n, n) for m in mats):
        raise ValueError("window entries must be square and of one shape")
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
) -> BoundReport:
    """Evaluate every bound at one gamma and attach the optimal gamma for the mode."""
    tau = _check_tau(tau)
    gamma = _check_gamma(gamma)
    consts = ensemble_constants(ensemble)
    star = gamma_star(noise_mode, consts, delta_x, delta_n)
    lb = consts.lambda_bar
    psi_value = psi_from_lambda_bar(gamma, lb)
    h_b = h_bounded(gamma, tau, delta_x, consts.c, delta_n, lb)
    h_mu = _grown(tau, delta_x, gamma, lb)
    h_sigma = _grown(tau, consts.capital_c / gamma * consts.m / gamma, gamma, lb)
    h_s = h_stochastic(gamma, tau, consts.capital_c, consts.m, delta_x, lb)
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
        gamma_star=float(star),
    )
