"""Experiment generator and Monte Carlo harness for the online estimator.

Scenarios follow a fixed recipe: a library of random measurement matrices
with unit Frobenius norm, a random-walk true state with per-coordinate
uniform increments, and either uniform (norm-bounded) or Gaussian
measurement noise.  Each step picks one library member, forms
y(t) = A(t) x(t) + n(t) and feeds it to the estimator.

Reproducibility contract: all randomness comes from numpy's default
generator (PCG64) seeded through a splitmix64-style mixing function, so a
scenario seed fully determines the library, every run's member sequence,
trajectory and noise, independently of which runs are simulated together.
Run i draws its seed from (seed, i) alone, so extending n_runs keeps the
earlier runs identical.

Monte Carlo runs are stepped in lockstep: a block of runs is drawn once,
then advanced one step at a time as a stack, gathering each run's member
matrix and precomputed member gain, through the same step kernel that
estimator.update uses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Iterator, Sequence

import numpy as np

from .analysis import SystemEnsemble
from .estimator import _advance, _check_gamma, initial_state
from .estimator import update  # noqa: F401  (simulation.update, a span slot in perfbench/spans.py)

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
    "run_sequence",
    "simulate_run",
    "iter_runs",
    "summarize",
    "sweep",
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


def _check_nonnegative(value, name: str) -> None:
    if not (np.isfinite(value) and value >= 0):
        raise ValueError(f"{name} must be nonnegative and finite, got {value}")


@dataclass(frozen=True)
class NoiseModel:
    """Measurement noise: 'bounded' uniform on [-delta_n/2, delta_n/2] per
    coordinate, or 'gaussian' with covariance delta_n * I."""

    kind: str
    delta_n: float

    def __post_init__(self):
        if self.kind not in ("bounded", "gaussian"):
            raise ValueError(f"noise kind must be 'bounded' or 'gaussian', got {self.kind!r}")
        _check_nonnegative(self.delta_n, "delta_n")
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
        _check_nonnegative(self.delta_x, "delta_x")
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
    rows to ever reach full rank) raise before any sampling.  Window ranks
    are memoized on the ensemble, so sequences drawn from one ensemble share
    them.
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

    indices: list[int] = []
    max_attempts = 1000 * size
    for pos in range(horizon):
        forbidden = set(indices[-(k - 1):]) if k > 1 else set()
        for _ in range(max_attempts):
            cand = int(rng.integers(0, size))
            if cand in forbidden:
                continue
            if pos >= k - 1 and not ensemble.window_full_rank(indices[pos - k + 1 :] + [cand]):
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
    _check_nonnegative(delta_x, "delta_x")
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


def run_sequence(scenario: ScenarioConfig, ensemble: SystemEnsemble, run_seed: int) -> np.ndarray:
    """Member sequence of the run with seed run_seed, drawn from its sub-stream 0."""
    sc, seed = scenario, derive_seed(run_seed, 0)
    return generate_sequence(ensemble, sc.horizon, sc.sequence_policy, seed, sc.effective_window)


# Runs stepped together in one lockstep block.  It sets the engine's memory
# (one block's arrays, and the previous block's while the next is drawn) and
# its per-run Python overhead, never the results: each run's arithmetic is
# the same in a block of any size.  At 8, the peak resident memory of
# `wlstrack sweep` and `simulate` on the 15-state acceptance scenario stays
# within about 2% of that of stepping one run at a time.
BLOCK_RUNS = 8


@dataclass(frozen=True)
class _Block:
    """Draws of a block of R runs, stacked along the first axis."""

    seeds: list
    sequences: np.ndarray  # R x T member indices
    states: np.ndarray  # R x (T + 1) x N true states x(0..T)
    measurements: np.ndarray  # R x T x M, y(t) = A(t) x(t) + n(t)
    deltas: np.ndarray  # R x T x N state increments
    noises: np.ndarray  # R x T x M noise vectors


def _draw_block(sc: ScenarioConfig, ensemble, matrices, seeds, member_sequence) -> _Block:
    """Each run's member sequence, trajectory and noise from its own seed, and
    the measurements they give.  Non-finite measurements raise ValueError."""
    T = sc.horizon
    if member_sequence is None:
        sequences = np.stack([run_sequence(sc, ensemble, s) for s in seeds])
    else:
        sequences = np.broadcast_to(member_sequence, (len(seeds), T))
    trajectories = [
        generate_trajectory(sc.n_states, T, sc.delta_x, derive_seed(s, 1), x0=sc.x0) for s in seeds
    ]
    states = np.stack([states for states, _ in trajectories])
    noises = np.stack([generate_noise(sc.noise, sc.n_meas, T, derive_seed(s, 2)) for s in seeds])
    measurements = np.empty_like(noises)
    for r, sequence in enumerate(sequences):
        measurements[r] = (matrices[sequence] @ states[r, 1:, :, None])[..., 0]
    measurements += noises
    if not np.all(np.isfinite(measurements)):
        raise ValueError("simulated measurements contain non-finite entries")
    return _Block(
        seeds=list(seeds),
        sequences=sequences,
        states=states,
        measurements=measurements,
        deltas=np.stack([deltas for _, deltas in trajectories]),
        noises=noises,
    )


def _step_block(block: _Block, matrices, gains, x_hat0):
    """Step all runs of a block together; return the R x (T + 1) x N estimates
    and the R x T error norms ||x_hat(t) - x(t)||.

    Each step gathers every run's member matrix and gain and applies the
    estimator's own step kernel to the stack.  The norms take one BLAS dot
    per run and step, as numpy.linalg.norm does for a single vector.
    """
    R, T = block.sequences.shape
    estimates = np.empty((R, T + 1, x_hat0.shape[0]))
    estimates[:, 0] = x_hat0
    for t in range(T):
        members = block.sequences[:, t]
        estimates[:, t + 1] = _advance(
            estimates[:, t], gains[members], matrices[members], block.measurements[:, t]
        )
    d = (estimates - block.states)[:, 1:, :, None]
    return estimates, np.sqrt((d.swapaxes(2, 3) @ d)[..., 0, 0])


def _lockstep(sc: ScenarioConfig, ensemble, gammas, seeds, member_sequence):
    """Yield (block, gamma index, stepped) for every block of runs and every gamma.

    The runs with the given seeds go through in blocks of BLOCK_RUNS.  Each
    block is drawn once and stepped at every gamma with the library's member
    gains; stepped is what _step_block returns.
    """
    matrices = np.stack([A for A, _ in ensemble.members])
    gains = [ensemble.member_gains(g) for g in gammas]
    x_hat0 = initial_state(sc.n_states, sc.x_hat0).x_hat
    if member_sequence is not None:
        member_sequence = np.asarray(member_sequence, dtype=int)
        if member_sequence.shape != (sc.horizon,):
            raise ValueError(f"member_sequence has shape {member_sequence.shape}, expected ({sc.horizon},)")
    for first in range(0, len(seeds), BLOCK_RUNS):
        block = _draw_block(sc, ensemble, matrices, seeds[first : first + BLOCK_RUNS], member_sequence)
        for index, K in enumerate(gains):
            yield block, index, _step_block(block, matrices, K, x_hat0)


def _run_results(block: _Block, stepped, keep_details) -> Iterator[RunResult]:
    estimates, errors = stepped
    for r, seed in enumerate(block.seeds):
        yield RunResult(
            per_step_error=errors[r],
            final_state=block.states[r, -1].copy(),
            final_estimate=estimates[r, -1].copy(),
            seed_used=int(seed),
            member_indices=block.sequences[r],
            states=block.states[r].copy() if keep_details else None,
            estimates=estimates[r].copy() if keep_details else None,
            deltas=block.deltas[r].copy() if keep_details else None,
            noises=block.noises[r].copy() if keep_details else None,
        )


def _check_jobs(n_jobs: int) -> None:
    if int(n_jobs) != n_jobs or n_jobs < 1:
        raise ValueError(f"n_jobs must be an integer >= 1, got {n_jobs}")


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
    This is the lockstep engine of iter_runs with one run, so the result is
    bit-identical to the same run inside any Monte Carlo ensemble.
    """
    if ensemble is None:
        ensemble = build_ensemble(scenario)
    steps = _lockstep(scenario, ensemble, [scenario.gamma], [int(run_seed)], member_sequence)
    block, _, stepped = next(steps)
    return next(_run_results(block, stepped, keep_details))


def iter_runs(
    scenario: ScenarioConfig,
    n_jobs: int = 1,
    member_sequence: Sequence[int] | None = None,
    keep_details: bool = False,
    ensemble: SystemEnsemble | None = None,
) -> Iterator[RunResult]:
    """The runs 0 .. scenario.n_runs - 1 of simulate_run, yielded in run order.

    Run i uses seed_for_run(scenario, i).  The library (built from the
    scenario unless given) is shared by every run, and the runs are stepped
    together in blocks of BLOCK_RUNS, one block at a time.  n_jobs is
    validated but no longer changes the execution: the results never
    depended on it.
    """
    _check_jobs(n_jobs)
    if ensemble is None:
        ensemble = build_ensemble(scenario)
    seeds = [seed_for_run(scenario, i) for i in range(scenario.n_runs)]
    for block, _, stepped in _lockstep(scenario, ensemble, [scenario.gamma], seeds, member_sequence):
        yield from _run_results(block, stepped, keep_details)


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


def sweep(
    scenario: ScenarioConfig,
    gammas: Sequence[float],
    n_jobs: int = 1,
    track_covariance: bool = False,
    member_sequence: Sequence[int] | None = None,
) -> list[McSummary]:
    """monte_carlo(scenario.with_gamma(g), ...) for every g in gammas.

    Run seeds do not depend on gamma, so every run is drawn once and stepped
    at each gamma; summary i equals the one-gamma monte_carlo bit for bit.
    """
    _check_jobs(n_jobs)
    gammas = [_check_gamma(g) for g in gammas]
    if track_covariance and scenario.n_runs < 2:
        raise ValueError("track_covariance requires n_runs >= 2")
    seeds = [seed_for_run(scenario, i) for i in range(scenario.n_runs)]
    norms = [[] for _ in gammas]
    xi = [[] for _ in gammas]
    for block, index, (estimates, errors) in _lockstep(
        scenario, build_ensemble(scenario), gammas, seeds, member_sequence
    ):
        norms[index].extend(errors)
        if track_covariance:
            xi[index].extend(estimates[:, 1:] - block.states[:, 1:])
    return [summarize(n, x if track_covariance else None) for n, x in zip(norms, xi)]


def monte_carlo(
    scenario: ScenarioConfig,
    n_jobs: int = 1,
    track_covariance: bool = False,
    member_sequence: Sequence[int] | None = None,
) -> McSummary:
    """Aggregate simulate_run over scenario.n_runs independent runs.

    Run i uses derive_seed(scenario.seed, 1 + i), so the summary is identical
    for identical scenarios, and growing n_runs preserves the earlier runs.
    n_jobs is validated but no longer changes the execution (the runs step
    together in one process), and the results never depended on it.
    track_covariance additionally accumulates the cross-run sample covariance
    of the error vector at every step (requires n_runs >= 2).
    """
    return sweep(scenario, [scenario.gamma], n_jobs, track_covariance, member_sequence)[0]
