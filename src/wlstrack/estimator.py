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

Every quantity of the step comes from one thin SVD per (A, Q), that of the
whitened matrix C^{-1} A with Q = C C^T (see _whitened_svd), for any shape of A.
A MeasurementBatch validates and factors its model once, at construction, and
keeps read-only copies of A and Q with the factorization.

The inertia weight ``gamma`` trades responsiveness for noise rejection:
small gamma follows new data aggressively, large gamma trusts the previous
estimate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, NamedTuple

import numpy as np

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


def _check_gamma(gamma: float) -> float:
    if not (np.isfinite(gamma) and gamma > 0):
        raise ValueError(f"gamma must be positive and finite, got {gamma}")
    return float(gamma)


def _read_only_copy(M: np.ndarray) -> np.ndarray:
    M = np.array(M)
    M.flags.writeable = False
    return M


class _Whitened(NamedTuple):
    """A validated model (A, Q) and C^{-1} A = U diag(sigma) V^T for Q = C C^T,
    cut to its floating-point rank."""

    A: np.ndarray  # M x N, read-only copy
    Q: np.ndarray  # M x M, read-only copy
    c_inv: np.ndarray  # C^{-1}, M x M
    sigma: np.ndarray  # the kept singular values, descending
    u: np.ndarray  # M x rank left singular vectors
    v: np.ndarray  # N x min(M, N) right singular vectors (N x N when complete), kept ones first
    rank: int


def _whitened_svd(A, Q=None, complete: bool = False) -> _Whitened:
    """Validate A and Q (the identity when None; else symmetric within 1e-10 of
    its largest entry and positive definite) and take the one factorization
    that the gain, the step matrix and the spectrum read from, cut to
    floating-point rank sigma_i > max(M, N) * eps * sigma_1 (as
    numpy.linalg.matrix_rank): only directions that rounding cannot tell from
    zero, such as those of linearly dependent rows, count as unobserved."""
    A = _as_float_array(A, "A", 2)
    m = A.shape[0]
    if Q is None:
        Q = np.eye(m)
    else:
        Q = _as_float_array(Q, "Q", 2)
        if Q.shape != (m, m):
            raise ValueError(f"Q has shape {Q.shape}, expected {(m, m)}")
        scale = max(float(np.abs(Q).max(initial=0.0)), 1.0)
        if not np.allclose(Q, Q.T, rtol=0.0, atol=1e-10 * scale):
            raise ValueError("Q is not symmetric")
    try:
        C = np.linalg.cholesky(Q)
    except np.linalg.LinAlgError:
        raise np.linalg.LinAlgError("Q is not positive definite") from None
    c_inv = np.linalg.inv(C)
    v, s, ut = np.linalg.svd(A.T @ c_inv.T, full_matrices=complete)
    rank = int(np.count_nonzero(s > max(A.shape) * np.finfo(float).eps * s[:1]))
    return _Whitened(_read_only_copy(A), _read_only_copy(Q), c_inv, s[:rank], ut[:rank].T, v, rank)


def _spectral_rank(w: _Whitened) -> int:
    """Kept directions with sigma_i^2 > DEFAULT_RANK_TOL * sigma_1^2, the ones the spectrum reports."""
    return int(np.count_nonzero(w.sigma**2 > DEFAULT_RANK_TOL * w.sigma[:1] ** 2))


def _gain(w: _Whitened, gamma: float) -> np.ndarray:
    """N x M gain K = V diag(sigma / (sigma^2 + gamma)) U^T C^{-1} = L A^T Q^{-1} / gamma
    of the step x + K (y - b - A x).  K is C-contiguous, so that _advance runs
    the same BLAS kernel on it as on a row of a stack of gains."""
    return (w.v[:, : w.rank] * (w.sigma / (w.sigma**2 + gamma))) @ (w.u.T @ w.c_inv)


def _step_matrix(w: _Whitened, gamma: float) -> np.ndarray:
    """L = V diag(d) V^T + (projector onto ker A), d = gamma / (gamma + sigma^2),
    exactly symmetric: I - W W^T, W = V diag(sqrt(1 - d)), when A has a kernel or
    every d >= 1/2 (no eigenvalue exceeds 1 by rounding); else, at full column
    rank, W W^T, W = V diag(sqrt(d)) (rounding relative to each d keeps tiny ones positive)."""
    n, s2 = w.v.shape[0], w.sigma**2
    if w.rank < n or np.all(s2 <= gamma):
        W = w.v[:, : w.rank] * np.sqrt(s2 / (gamma + s2))
        return np.eye(n) - W @ W.T
    W = w.v * np.sqrt(gamma / (gamma + s2))
    return W @ W.T


def _advance(x: np.ndarray, K: np.ndarray, A: np.ndarray, y: np.ndarray) -> np.ndarray:
    """x + K (y - A x) for one run, or for a stack of runs along leading axes
    (x: ... x N, K: ... x N x M, A: ... x M x N, y: ... x M).

    Every run's products go through BLAS matrix-vector calls of its own, so a
    run's result does not depend on which runs it is stacked with.
    """
    residual = y - (A @ x[..., None])[..., 0]
    return x + (K @ residual[..., None])[..., 0]


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

    (A, Q) is validated and factored once, at construction (see
    _whitened_svd); A and Q are read-only copies of the caller's arrays, so
    the factorization the update reads always belongs to them.
    """

    t: int
    y: np.ndarray
    A: np.ndarray
    Q: np.ndarray | None = None
    b: np.ndarray | None = None
    _model: _Whitened = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if int(self.t) != self.t or self.t < 1:
            raise ValueError(f"t must be an integer >= 1, got {self.t}")
        object.__setattr__(self, "t", int(self.t))
        model = _whitened_svd(self.A, self.Q)
        y = _as_float_array(self.y, "y", 1)
        m = model.A.shape[0]
        if y.shape[0] != m:
            raise ValueError(f"y has length {y.shape[0]} but A has {m} rows")
        b = None
        if self.b is not None:
            b = _as_float_array(self.b, "b", 1)
            if b.shape[0] != m:
                raise ValueError(f"b has length {b.shape[0]} but A has {m} rows")
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "A", model.A)
        object.__setattr__(self, "Q", model.Q)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "_model", model)

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
    """Estimator parameters: inertia weight gamma and state dimension."""

    gamma: float
    n_states: int

    def __post_init__(self):
        _check_gamma(self.gamma)
        if int(self.n_states) != self.n_states or self.n_states < 1:
            raise ValueError(f"n_states must be an integer >= 1, got {self.n_states}")
        object.__setattr__(self, "n_states", int(self.n_states))


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
    w = _whitened_svd(A, Q)
    W = w.c_inv @ w.A
    return W.T @ W


def lambda_matrix(A, Q, gamma: float) -> np.ndarray:
    """Step matrix L = gamma * (A^T Q^{-1} A + gamma I)^{-1}, symmetric positive
    semidefinite with spectral norm <= 1: eigenvalues gamma / (gamma + sigma_i^2)
    on the directions the whitened C^{-1} A observes (see _whitened_svd) and 1 on
    its kernel, beside which eigenvalues below rounding of 1 are not resolved."""
    gamma = _check_gamma(gamma)
    return _step_matrix(_whitened_svd(A, Q), gamma)


def decompose_lambda(A, Q, gamma: float) -> LambdaDecomposition:
    """Eigen-split of the step matrix into kernel and observed subspaces, the
    nonzero eigenvalues of A^T Q^{-1} A being the squared singular values of the
    whitened C^{-1} A above DEFAULT_RANK_TOL times the largest.  The bases rebuild
    lambda_matrix(A, Q, gamma) unless some sigma_i^2 lies between that cutoff and
    floating-point rank: L observes such a direction, the split puts it in the kernel."""
    gamma = _check_gamma(gamma)
    w = _whitened_svd(A, Q, complete=True)
    rank = _spectral_rank(w)
    return LambdaDecomposition(
        lambda_matrix=_step_matrix(w, gamma),
        nonzero_eigs=w.sigma[:rank][::-1] ** 2,
        kernel_basis=w.v[:, rank:],
        image_basis=w.v[:, :rank][:, ::-1],
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
    gain form x_prev + K (y - b - A x_prev), with K from the whitened SVD the
    batch took at construction (see _gain).
    """
    _check_step(state, batch, config)
    K = _gain(batch._model, config.gamma)
    return EstimatorState(_advance(state.x_hat, K, batch.A, batch.effective_y()), batch.t)


def update_gradient_form(
    state: EstimatorState, batch: MeasurementBatch, config: EstimatorConfig
) -> EstimatorState:
    """Descent-style rewriting of the update:

        x_new = x_prev - (1/gamma) L A^T Q^{-1} (A x_prev - (y - b))

    Algebraically identical to update(); kept as an independent cross-check
    of the closed form.
    """
    _check_step(state, batch, config)
    lam = _step_matrix(batch._model, config.gamma)
    residual = batch.A @ state.x_hat - batch.effective_y()
    grad = batch.A.T @ np.linalg.solve(batch.Q, residual)
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
