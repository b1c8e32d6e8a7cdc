"""Recursive online state estimation for time-varying linear measurement models.

Each step receives a batch of measurements ``y = A x + n`` (possibly far fewer
measurements than states, with ``A`` changing over time) and refreshes the
estimate by solving a weighted least-squares problem regularized toward the
previous estimate:

    minimize_w  (y - A w)^T Q^{-1} (y - A w) + gamma * ||w - x_prev||^2

The unique minimizer has the closed form

    x_new = L x_prev + (1/gamma) L A^T Q^{-1} y,
    L = gamma * (A^T Q^{-1} A + gamma I)^{-1},

so the estimate evolves as a linear dynamical system driven by the incoming
data.  Directions that the current batch does not observe pass through ``L``
unchanged (eigenvalue 1); observed directions are pulled toward the data with
a factor gamma / (gamma + lambda_i), where lambda_i are the nonzero
eigenvalues of the information matrix ``A^T Q^{-1} A``.

The step is computed in gain form x_new = x_prev + K (y - A x_prev), factoring
the smaller of the M x M and N x N positive definite systems (see _gain).

The inertia weight ``gamma`` trades responsiveness for noise rejection:
small gamma follows new data aggressively, large gamma trusts the previous
estimate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np
from scipy.linalg import cho_factor, cho_solve

DEFAULT_RANK_TOL = 1e-10

__all__ = [
    "DEFAULT_RANK_TOL",
    "MeasurementBatch",
    "EstimatorConfig",
    "EstimatorState",
    "LambdaDecomposition",
    "initial_state",
    "information_matrix",
    "lambda_matrix",
    "decompose_lambda",
    "update",
    "update_gradient_form",
    "run_stream",
]


def _as_float_array(value, name: str, ndim: int) -> np.ndarray:
    arr = np.asarray(value, dtype=float)
    if arr.ndim != ndim:
        raise ValueError(f"{name} must be {ndim}-dimensional, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite entries")
    return arr


def check_spd(Q: np.ndarray, name: str = "Q", sym_tol: float = 1e-10) -> None:
    """Raise unless Q is symmetric (within tolerance) and positive definite."""
    if Q.ndim != 2 or Q.shape[0] != Q.shape[1]:
        raise ValueError(f"{name} must be square, got shape {Q.shape}")
    if Q.size == 0:
        return
    scale = max(float(np.abs(Q).max()), 1.0)
    if not np.allclose(Q, Q.T, rtol=0.0, atol=sym_tol * scale):
        raise ValueError(f"{name} is not symmetric")
    try:
        np.linalg.cholesky(Q)
    except np.linalg.LinAlgError:
        raise np.linalg.LinAlgError(f"{name} is not positive definite") from None


def _validate_aq(A, Q) -> tuple[np.ndarray, np.ndarray]:
    A = _as_float_array(A, "A", 2)
    m = A.shape[0]
    if Q is None:
        Q = np.eye(m)
    else:
        Q = _as_float_array(Q, "Q", 2)
        if Q.shape != (m, m):
            raise ValueError(f"Q has shape {Q.shape}, expected {(m, m)}")
        check_spd(Q, "Q")
    return A, Q


def _check_gamma(gamma: float) -> float:
    if not (np.isfinite(gamma) and gamma > 0):
        raise ValueError(f"gamma must be positive and finite, got {gamma}")
    return float(gamma)


def _solve_spd(Q: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Q^{-1} B for symmetric positive definite Q, via Cholesky."""
    return cho_solve(cho_factor(Q, lower=True), B)


def _gain(A: np.ndarray, Q: np.ndarray, gamma: float):
    """N x M gain K = L A^T Q^{-1} / gamma of the step x + K (y - b - A x), and
    the Cholesky factor of A^T Q^{-1} A + gamma I when that is what was factored.

    With M < N it factors S = Q + A A^T / gamma (M x M); A^T Q^{-1} A + gamma I
    is then numerically singular once gamma << ||A||^2.  With M >= N it factors
    A^T Q^{-1} A + gamma I (N x N) instead, since S is singular once M > N.
    """
    m, n = A.shape
    if m < n:
        return _solve_spd(Q + (A @ A.T) / gamma, A).T / gamma, None
    W = _solve_spd(Q, A)  # Q^{-1} A
    factor = cho_factor(A.T @ W + gamma * np.eye(n), lower=True)
    return cho_solve(factor, W.T), factor


def _gain_and_step(A: np.ndarray, Q: np.ndarray, gamma: float) -> tuple[np.ndarray, np.ndarray]:
    """K and the symmetrized step matrix L for already validated A, Q and gamma.

    L is gamma (A^T Q^{-1} A + gamma I)^{-1} from the N x N factor when there is
    one (it stays positive definite when gamma << ||A||^2), else I - K A.
    """
    K, factor = _gain(A, Q, gamma)
    n = A.shape[1]
    lam = np.eye(n) - K @ A if factor is None else cho_solve(factor, gamma * np.eye(n))
    return K, 0.5 * (lam + lam.T)


def _information(A: np.ndarray, Q: np.ndarray) -> np.ndarray:
    """A^T Q^{-1} A, symmetrized, for already validated A and Q."""
    J = A.T @ _solve_spd(Q, A)
    return 0.5 * (J + J.T)


@dataclass(frozen=True)
class MeasurementBatch:
    """One time step's stacked measurements.

    Attributes:
        t: step index, integer >= 1.
        y: measurement vector, length M.
        A: measurement matrix, M x N.  M may vary across batches; N may not.
        Q: symmetric positive definite weighting matrix, M x M.  Defaults to
            the identity when omitted.
        b: optional affine offset, length M.  When present the estimator
            consumes y - b.

    M = 0 (nobody reported this step) is accepted; such a batch leaves the
    estimate unchanged.
    """

    t: int
    y: np.ndarray
    A: np.ndarray
    Q: np.ndarray | None = None
    b: np.ndarray | None = None

    def __post_init__(self):
        if int(self.t) != self.t or self.t < 1:
            raise ValueError(f"t must be an integer >= 1, got {self.t}")
        object.__setattr__(self, "t", int(self.t))
        A, Q = _validate_aq(self.A, self.Q)
        y = _as_float_array(self.y, "y", 1)
        m = A.shape[0]
        if y.shape[0] != m:
            raise ValueError(f"y has length {y.shape[0]} but A has {m} rows")
        b = None
        if self.b is not None:
            b = _as_float_array(self.b, "b", 1)
            if b.shape[0] != m:
                raise ValueError(f"b has length {b.shape[0]} but A has {m} rows")
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "Q", Q)
        object.__setattr__(self, "b", b)

    @property
    def n_meas(self) -> int:
        return self.A.shape[0]

    @property
    def n_states(self) -> int:
        return self.A.shape[1]

    def effective_y(self) -> np.ndarray:
        """Measurement with the affine offset removed: y - b (or y when b is None)."""
        return self.y if self.b is None else self.y - self.b


@dataclass(frozen=True)
class EstimatorConfig:
    """Estimator parameters: inertia weight gamma, state dimension, rank cutoff."""

    gamma: float
    n_states: int
    rank_tolerance: float = DEFAULT_RANK_TOL

    def __post_init__(self):
        _check_gamma(self.gamma)
        if int(self.n_states) != self.n_states or self.n_states < 1:
            raise ValueError(f"n_states must be an integer >= 1, got {self.n_states}")
        object.__setattr__(self, "n_states", int(self.n_states))
        if not (np.isfinite(self.rank_tolerance) and self.rank_tolerance > 0):
            raise ValueError("rank_tolerance must be positive and finite")


@dataclass(frozen=True)
class EstimatorState:
    """Current estimate and the step index of the last processed batch."""

    x_hat: np.ndarray
    t: int = 0

    def __post_init__(self):
        x = _as_float_array(self.x_hat, "x_hat", 1)
        if int(self.t) != self.t or self.t < 0:
            raise ValueError(f"t must be an integer >= 0, got {self.t}")
        object.__setattr__(self, "x_hat", x)
        object.__setattr__(self, "t", int(self.t))


def initial_state(n_states: int, x0=None) -> EstimatorState:
    """State before any batch: estimate x0 (zeros when omitted) at step 0."""
    if x0 is None:
        x0 = np.zeros(int(n_states))
    x0 = _as_float_array(x0, "x0", 1)
    if x0.shape[0] != n_states:
        raise ValueError(f"x0 has length {x0.shape[0]}, expected {n_states}")
    return EstimatorState(x0, 0)


@dataclass(frozen=True)
class LambdaDecomposition:
    """Spectral split of the step matrix L = gamma (J + gamma I)^{-1}, J = A^T Q^{-1} A.

    Attributes:
        lambda_matrix: the N x N matrix L itself.
        nonzero_eigs: eigenvalues of J above the rank cutoff, ascending.
        kernel_basis: orthonormal N x K basis of the numerical kernel of J
            (equivalently of A); L acts as the identity there.
        image_basis: orthonormal N x I basis of the observed subspace,
            where L has eigenvalues gamma / (gamma + lambda_i).
    """

    lambda_matrix: np.ndarray
    nonzero_eigs: np.ndarray
    kernel_basis: np.ndarray
    image_basis: np.ndarray

    @property
    def kernel_dim(self) -> int:
        return self.kernel_basis.shape[1]

    @property
    def image_dim(self) -> int:
        return self.image_basis.shape[1]


def information_matrix(A, Q=None) -> np.ndarray:
    """A^T Q^{-1} A: the positive semidefinite matrix whose nonzero spectrum
    determines how strongly each observed direction is corrected."""
    return _information(*_validate_aq(A, Q))


def lambda_matrix(A, Q, gamma: float) -> np.ndarray:
    """Step matrix gamma * (A^T Q^{-1} A + gamma I)^{-1} (I - K A when M < N).

    Symmetric positive definite with spectral norm <= 1.  Its eigenvalues are
    1 on the kernel of A and gamma / (gamma + lambda_i) on the observed
    directions; when M < N those below rounding of 1 are not resolved.
    """
    gamma = _check_gamma(gamma)
    A, Q = _validate_aq(A, Q)
    return _gain_and_step(A, Q, gamma)[1]


def decompose_lambda(A, Q, gamma: float, rank_tolerance: float = DEFAULT_RANK_TOL) -> LambdaDecomposition:
    """Eigen-split of the step matrix into kernel and observed subspaces.

    Eigenvalues of J = A^T Q^{-1} A at or below rank_tolerance times the
    largest are treated as zero.  The reconstruction
    U diag(gamma/(gamma+lambda_i)) U^T + V V^T equals lambda_matrix(A, Q, gamma).
    """
    gamma = _check_gamma(gamma)
    A, Q = _validate_aq(A, Q)
    evals, evecs = np.linalg.eigh(_information(A, Q))
    evals = np.clip(evals, 0.0, None)
    cutoff = rank_tolerance * evals[-1] if evals.size else 0.0
    nonzero = evals > cutoff
    return LambdaDecomposition(
        lambda_matrix=_gain_and_step(A, Q, gamma)[1],
        nonzero_eigs=evals[nonzero],
        kernel_basis=evecs[:, ~nonzero],
        image_basis=evecs[:, nonzero],
    )


def _check_step(state: EstimatorState, batch: MeasurementBatch, config: EstimatorConfig) -> None:
    if batch.t != state.t + 1:
        raise ValueError(f"non-sequential step: state at t={state.t}, batch has t={batch.t}")
    if state.x_hat.shape[0] != config.n_states:
        raise ValueError(
            f"state has {state.x_hat.shape[0]} entries but config.n_states={config.n_states}"
        )
    if batch.n_states != config.n_states:
        raise ValueError(f"A has {batch.n_states} columns but config.n_states={config.n_states}")


def update(state: EstimatorState, batch: MeasurementBatch, config: EstimatorConfig) -> EstimatorState:
    """Advance the estimate with one measurement batch.

    Solves (A^T Q^{-1} A + gamma I) x = gamma x_prev + A^T Q^{-1} (y - b) in
    gain form x_prev + K (y - b - A x_prev), factoring the smaller SPD system
    (see _gain) without forming any explicit inverse.
    """
    _check_step(state, batch, config)
    K = _gain(batch.A, batch.Q, config.gamma)[0]
    x_new = state.x_hat + K @ (batch.effective_y() - batch.A @ state.x_hat)
    return EstimatorState(x_new, batch.t)


def update_gradient_form(
    state: EstimatorState, batch: MeasurementBatch, config: EstimatorConfig
) -> EstimatorState:
    """Descent-style rewriting of the update:

        x_new = x_prev - (1/gamma) L A^T Q^{-1} (A x_prev - (y - b))

    Algebraically identical to update(); kept as an independent cross-check
    of the closed form.
    """
    _check_step(state, batch, config)
    lam = lambda_matrix(batch.A, batch.Q, config.gamma)
    residual = batch.A @ state.x_hat - batch.effective_y()
    grad = batch.A.T @ _solve_spd(batch.Q, residual)
    x_new = state.x_hat - (lam @ grad) / config.gamma
    return EstimatorState(x_new, batch.t)


def run_stream(
    initial: EstimatorState,
    batches: Iterable[MeasurementBatch],
    config: EstimatorConfig,
) -> list[EstimatorState]:
    """Fold update over an ordered batch sequence.

    Returns every intermediate state, the initial state first.  Batches must
    carry strictly sequential step indices starting at initial.t + 1; errors
    raised by update are re-raised with the offending step attached.
    """
    states = [initial]
    for batch in batches:
        try:
            states.append(update(states[-1], batch, config))
        except (ValueError, np.linalg.LinAlgError) as exc:
            raise type(exc)(f"step {getattr(batch, 't', '?')}: {exc}") from exc
    return states
