"""Experiment generator and Monte Carlo harness for the online estimator.

Scenarios follow a fixed recipe: a library of random measurement matrices
with unit Frobenius norm, a random-walk true state with per-coordinate
uniform increments, and either uniform (norm-bounded) or Gaussian
measurement noise.  Each step picks one library member, forms
y(t) = A(t) x(t) + n(t) and feeds it to the estimator.

Reproducibility contract: all randomness comes from numpy's default
generator (PCG64) seeded through a splitmix64-style mixing function, so a
scenario seed fully determines the library, every run's member sequence,
trajectory and noise, independently of how many runs execute in parallel.
Run i draws its seed from (seed, i) alone, so extending n_runs keeps the
earlier runs identical.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from itertools import repeat
from typing import Iterator, Sequence

import numpy as np

from .analysis import SystemEnsemble
from .estimator import EstimatorConfig, MeasurementBatch, _check_gamma, initial_state, update

__all__ = [
    "NoiseModel",
    "ScenarioConfig",
    "RunResult",
    "McSummary",
    "derive_seed",
    "generate_library",
    "generate_sequence",
    "generate_trajectory",
    "generate_noise",
    "build_ensemble",
    "seed_for_run",
    "simulate_run",
    "iter_runs",
    "summarize",
    "monte_carlo",
]

_MASK64 = (1 << 64) - 1
_SPLITMIX_GAMMA = 0x9E3779B97F4A7C15


def _mix64(z: int) -> int:
    """splitmix64 finalizer: a bijective 64-bit scrambler."""
    z = (z + _SPLITMIX_GAMMA) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def derive_seed(master: int, index: int) -> int:
    """Sub-seed for stream `index` of a master seed.

    Defined as mix64(master ^ mix64(index)) with the splitmix64 finalizer,
    so each (master, index) pair maps to a fixed 64-bit seed regardless of
    execution order or parallelism.
    """
    return _mix64((int(master) & _MASK64) ^ _mix64(int(index) & _MASK64))


@dataclass(frozen=True)
class NoiseModel:
    """Measurement noise: 'bounded' uniform on [-delta_n/2, delta_n/2] per
    coordinate, or 'gaussian' with covariance delta_n * I."""

    kind: str
    delta_n: float

    def __post_init__(self):
        if self.kind not in ("bounded", "gaussian"):
            raise ValueError(f"noise kind must be 'bounded' or 'gaussian', got {self.kind!r}")
        if not (np.isfinite(self.delta_n) and self.delta_n >= 0):
            raise ValueError(f"delta_n must be nonnegative and finite, got {self.delta_n}")
        if self.kind == "gaussian" and self.delta_n <= 0:
            raise ValueError("gaussian noise requires delta_n > 0 (it is the covariance scale)")
        object.__setattr__(self, "delta_n", float(self.delta_n))

    @property
    def q_scale(self) -> float:
        """Scale of the weighting matrix Q = q_scale * I implied by the model."""
        return 1.0 if self.kind == "bounded" else self.delta_n


@dataclass(frozen=True)
class ScenarioConfig:
    """Everything that defines one Monte Carlo experiment.

    delta_x is the per-coordinate half-range scale of the uniform state
    increments (each coordinate of delta(t) is uniform on
    [-delta_x/2, delta_x/2]); the corresponding bound on ||delta(t)|| is
    sqrt(n_states) * delta_x / 2.

    sequence_policy 'window' forbids member repeats inside any sliding window
    of `window` steps and enforces full column rank of each stacked window
    (so a full-observability window provably exists); 'uniform' samples
    members independently and gives no such guarantee.  `window` defaults to
    ceil(n_states / n_meas).

    x0 fixes the initial true state (default: drawn per coordinate from the
    same uniform law as the increments); x_hat0 fixes the initial estimate
    (default: zero).
    """

    n_states: int
    n_meas: int
    horizon: int
    library_size: int
    delta_x: float
    noise: NoiseModel
    gamma: float
    n_runs: int
    seed: int
    sequence_policy: str = "window"
    window: int | None = None
    x0: tuple | None = None
    x_hat0: tuple | None = None

    def __post_init__(self):
        for name in ("n_states", "n_meas", "horizon", "library_size", "n_runs"):
            value = getattr(self, name)
            if int(value) != value or value < 1:
                raise ValueError(f"{name} must be an integer >= 1, got {value}")
            object.__setattr__(self, name, int(value))
        if not (np.isfinite(self.delta_x) and self.delta_x >= 0):
            raise ValueError(f"delta_x must be nonnegative and finite, got {self.delta_x}")
        if not isinstance(self.noise, NoiseModel):
            raise ValueError("noise must be a NoiseModel")
        _check_gamma(self.gamma)
        if int(self.seed) != self.seed:
            raise ValueError(f"seed must be an integer, got {self.seed}")
        object.__setattr__(self, "seed", int(self.seed))
        if self.sequence_policy not in ("window", "uniform"):
            raise ValueError(
                f"sequence_policy must be 'window' or 'uniform', got {self.sequence_policy!r}"
            )
        if self.window is not None:
            if int(self.window) != self.window or self.window < 1:
                raise ValueError(f"window must be an integer >= 1, got {self.window}")
            object.__setattr__(self, "window", int(self.window))
        for name in ("x0", "x_hat0"):
            value = getattr(self, name)
            if value is not None:
                vec = tuple(float(v) for v in value)
                if len(vec) != self.n_states:
                    raise ValueError(f"{name} has length {len(vec)}, expected {self.n_states}")
                if not all(math.isfinite(v) for v in vec):
                    raise ValueError(f"{name} contains non-finite entries")
                object.__setattr__(self, name, vec)

    @property
    def effective_window(self) -> int:
        """Window length used by the 'window' policy (default ceil(N/M))."""
        if self.window is not None:
            return self.window
        return -(-self.n_states // self.n_meas)

    def with_gamma(self, gamma: float) -> "ScenarioConfig":
        return replace(self, gamma=gamma)


@dataclass(frozen=True)
class RunResult:
    """One simulated run: per-step error norms, member sequence, optional recordings."""

    per_step_error: np.ndarray
    final_state: np.ndarray
    final_estimate: np.ndarray
    seed_used: int
    member_indices: np.ndarray | None = None
    states: np.ndarray | None = None
    estimates: np.ndarray | None = None
    deltas: np.ndarray | None = None
    noises: np.ndarray | None = None


@dataclass(frozen=True)
class McSummary:
    """Per-step statistics over a Monte Carlo ensemble.

    mean_error[t-1] is the run-average of ||xi(t)||, rms_error[t-1] the root
    of the run-average of ||xi(t)||^2.  When covariance tracking is on,
    empirical_cov[t-1] is the sample covariance of xi(t) across runs and
    empirical_cov_frob its Frobenius norm.
    """

    mean_error: np.ndarray
    rms_error: np.ndarray
    empirical_cov_frob: np.ndarray | None = None
    empirical_cov: np.ndarray | None = None


def generate_library(n_states, n_meas, library_size, seed, q_scale: float = 1.0) -> SystemEnsemble:
    """Library of standard-normal matrices rescaled to unit Frobenius norm.

    Every member pairs its matrix with Q = q_scale * I.  Deterministic given
    the seed.
    """
    if library_size < 1:
        raise ValueError(f"library_size must be >= 1, got {library_size}")
    if n_meas < 1 or n_states < 1:
        raise ValueError("n_states and n_meas must be >= 1")
    if not (np.isfinite(q_scale) and q_scale > 0):
        raise ValueError(f"q_scale must be positive, got {q_scale}")
    rng = np.random.default_rng(int(seed) & _MASK64)
    members = []
    for _ in range(library_size):
        G = rng.standard_normal((n_meas, n_states))
        A = G / np.linalg.norm(G)
        members.append((A, q_scale * np.eye(n_meas)))
    return SystemEnsemble(tuple(members), int(n_states))


def generate_sequence(
    ensemble: SystemEnsemble,
    horizon: int,
    policy: str,
    seed: int,
    window: int | None = None,
) -> np.ndarray:
    """Member index per step.

    'uniform' samples independently with replacement.  'window' additionally
    forbids repeats inside any sliding window of `window` steps and rejects
    candidates until each completed window's stacked matrix has full column
    rank, so every window jointly observes the state.  Infeasible window
    settings (too few library members for distinctness, or too few stacked
    rows to ever reach full rank) raise before any sampling.
    """
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")
    size = len(ensemble.members)
    rng = np.random.default_rng(int(seed) & _MASK64)
    if policy == "uniform":
        return rng.integers(0, size, size=horizon)
    if policy != "window":
        raise ValueError(f"policy must be 'window' or 'uniform', got {policy!r}")
    min_rows = min(A.shape[0] for A, _ in ensemble.members)
    k = window if window is not None else -(-ensemble.n_states // min_rows)
    if k < 1:
        raise ValueError(f"window must be >= 1, got {k}")
    if k * min_rows < ensemble.n_states:
        raise ValueError(
            f"window of {k} members with {min_rows} rows each cannot reach "
            f"full column rank {ensemble.n_states}"
        )
    if size < k:
        raise ValueError(f"library of {size} members cannot fill a window of {k} without repeats")

    rank_cache: dict[tuple, bool] = {}
    indices: list[int] = []
    max_attempts = 1000 * size
    for pos in range(horizon):
        forbidden = set(indices[-(k - 1):]) if k > 1 else set()
        for _ in range(max_attempts):
            cand = int(rng.integers(0, size))
            if cand in forbidden:
                continue
            if pos >= k - 1 and not ensemble.window_full_rank(
                tuple(indices[pos - k + 1 :] + [cand]), rank_cache
            ):
                continue
            indices.append(cand)
            break
        else:
            raise RuntimeError(
                f"could not extend the window-constrained sequence at step {pos + 1}; "
                "the library may not contain enough jointly observing windows"
            )
    return np.asarray(indices)


def generate_trajectory(n_states, horizon, delta_x, seed, x0=None):
    """Random-walk true state.

    Returns (states, deltas): states has horizon+1 rows x(0..T); deltas the
    horizon increments, each coordinate uniform on [-delta_x/2, delta_x/2].
    x(0) is drawn from the same per-coordinate law unless given explicitly.
    """
    if not (np.isfinite(delta_x) and delta_x >= 0):
        raise ValueError(f"delta_x must be nonnegative and finite, got {delta_x}")
    rng = np.random.default_rng(int(seed) & _MASK64)
    half = delta_x / 2.0
    if x0 is None:
        x0 = rng.uniform(-half, half, size=n_states)
    else:
        x0 = np.asarray(x0, dtype=float)
        if x0.shape != (n_states,):
            raise ValueError(f"x0 has shape {x0.shape}, expected ({n_states},)")
    deltas = rng.uniform(-half, half, size=(horizon, n_states))
    states = np.empty((horizon + 1, n_states))
    states[0] = x0
    states[1:] = x0 + np.cumsum(deltas, axis=0)
    return states, deltas


def generate_noise(noise: NoiseModel, n_meas, horizon, seed) -> np.ndarray:
    """Per-step noise vectors, one row per step.  Deterministic given the seed."""
    rng = np.random.default_rng(int(seed) & _MASK64)
    if noise.kind == "bounded":
        half = noise.delta_n / 2.0
        return rng.uniform(-half, half, size=(horizon, n_meas))
    return rng.normal(0.0, np.sqrt(noise.delta_n), size=(horizon, n_meas))


def build_ensemble(scenario: ScenarioConfig) -> SystemEnsemble:
    """The scenario's fixed matrix library (shared by all of its runs)."""
    return generate_library(
        scenario.n_states,
        scenario.n_meas,
        scenario.library_size,
        derive_seed(scenario.seed, 0),
        q_scale=scenario.noise.q_scale,
    )


def seed_for_run(scenario: ScenarioConfig, run_index: int) -> int:
    """Seed of Monte Carlo run `run_index` (index 0 onward)."""
    if run_index < 0:
        raise ValueError(f"run_index must be >= 0, got {run_index}")
    return derive_seed(scenario.seed, 1 + int(run_index))


def simulate_run(
    scenario: ScenarioConfig,
    run_seed: int,
    ensemble: SystemEnsemble | None = None,
    member_sequence: Sequence[int] | None = None,
    keep_details: bool = False,
) -> RunResult:
    """One full simulated run: trajectory, measurements, estimator, error norms.

    The run derives three independent sub-streams from run_seed (member
    sequence, trajectory, noise).  Passing member_sequence pins the sequence,
    e.g. to share one measurement schedule across runs.  The sequence is always
    recorded; keep_details also records states, estimates, increments, noises.
    """
    sc = scenario
    if ensemble is None:
        ensemble = build_ensemble(sc)
    if member_sequence is None:
        sequence = generate_sequence(
            ensemble, sc.horizon, sc.sequence_policy, derive_seed(run_seed, 0), sc.effective_window
        )
    else:
        sequence = np.asarray(member_sequence, dtype=int)
        if sequence.shape != (sc.horizon,):
            raise ValueError(f"member_sequence has shape {sequence.shape}, expected ({sc.horizon},)")
    states, deltas = generate_trajectory(
        sc.n_states, sc.horizon, sc.delta_x, derive_seed(run_seed, 1), x0=sc.x0
    )
    noises = generate_noise(sc.noise, sc.n_meas, sc.horizon, derive_seed(run_seed, 2))

    config = EstimatorConfig(sc.gamma, sc.n_states)
    est = initial_state(sc.n_states, sc.x_hat0)
    errors = np.empty(sc.horizon)
    estimates = np.empty((sc.horizon + 1, sc.n_states)) if keep_details else None
    if estimates is not None:
        estimates[0] = est.x_hat
    for t in range(1, sc.horizon + 1):
        A, Q = ensemble.members[sequence[t - 1]]
        y = A @ states[t] + noises[t - 1]
        est = update(est, MeasurementBatch(t, y, A, Q), config)
        errors[t - 1] = float(np.linalg.norm(est.x_hat - states[t]))
        if estimates is not None:
            estimates[t] = est.x_hat
    return RunResult(
        per_step_error=errors,
        final_state=states[-1].copy(),
        final_estimate=est.x_hat.copy(),
        seed_used=int(run_seed),
        member_indices=sequence,
        states=states if keep_details else None,
        estimates=estimates,
        deltas=deltas if keep_details else None,
        noises=noises if keep_details else None,
    )


def iter_runs(
    scenario: ScenarioConfig,
    n_jobs: int = 1,
    member_sequence: Sequence[int] | None = None,
    keep_details: bool = False,
) -> Iterator[RunResult]:
    """simulate_run for runs 0 .. scenario.n_runs - 1, yielded in run order.

    The library is built once and shared by every run.  With n_jobs > 1 the
    runs execute in a process pool; run i still uses seed_for_run(scenario, i),
    so the results are identical for every n_jobs.  Serially, each run is
    simulated only when the consumer asks for it.
    """
    sc = scenario
    if n_jobs < 1:
        raise ValueError(f"n_jobs must be >= 1, got {n_jobs}")
    seq = None if member_sequence is None else np.asarray(member_sequence, dtype=int)
    seeds = [seed_for_run(sc, i) for i in range(sc.n_runs)]
    args = (repeat(sc), seeds, repeat(build_ensemble(sc)), repeat(seq), repeat(keep_details))
    if n_jobs == 1 or sc.n_runs == 1:
        yield from map(simulate_run, *args)
    else:
        chunk = max(1, sc.n_runs // (4 * n_jobs))
        with ProcessPoolExecutor(max_workers=n_jobs) as pool:
            yield from pool.map(simulate_run, *args, chunksize=chunk)


def summarize(norms: Sequence[np.ndarray], xi: Sequence[np.ndarray] | None = None) -> McSummary:
    """Per-step statistics of per-run error norms, and of the per-run error
    vectors xi (horizon x n_states each) when given."""
    norms = np.stack(norms)  # (n_runs, horizon)
    cov = None
    cov_frob = None
    if xi is not None:
        xi = np.stack(xi)  # (n_runs, horizon, n_states)
        centered = xi - xi.mean(axis=0)
        cov = np.einsum("rtn,rtm->tnm", centered, centered) / (xi.shape[0] - 1)
        cov_frob = np.linalg.norm(cov, axis=(1, 2))
    return McSummary(
        mean_error=norms.mean(axis=0),
        rms_error=np.sqrt((norms**2).mean(axis=0)),
        empirical_cov_frob=cov_frob,
        empirical_cov=cov,
    )


def monte_carlo(
    scenario: ScenarioConfig,
    n_jobs: int = 1,
    track_covariance: bool = False,
    member_sequence: Sequence[int] | None = None,
) -> McSummary:
    """Aggregate simulate_run over scenario.n_runs independent runs.

    Run i uses derive_seed(scenario.seed, 1 + i), so the summary is identical
    for identical scenarios no matter how many worker processes are used, and
    growing n_runs preserves the earlier runs.  track_covariance additionally
    accumulates the cross-run sample covariance of the error vector at every
    step (requires n_runs >= 2).
    """
    if track_covariance and scenario.n_runs < 2:
        raise ValueError("track_covariance requires n_runs >= 2")
    norms, xi = [], []
    for run in iter_runs(scenario, n_jobs, member_sequence, keep_details=track_covariance):
        norms.append(run.per_step_error)
        if track_covariance:
            xi.append((run.estimates - run.states)[1:])
    return summarize(norms, xi if track_covariance else None)
