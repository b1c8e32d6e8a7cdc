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

The 'window' member sequences take their candidates from bulk
rng.integers draws; a bulk draw gives the same values as the same number of
scalar draws, so the seed contract above is unchanged by it.  The sampler
keeps the last window's members as an integer bitmask, which is also the
key of the ensemble's window-rank memo.

Monte Carlo runs are stepped in lockstep: a block of runs is drawn once,
then advanced one step at a time as one stack over the runs and every gamma
of a sweep, gathering each run's member matrix and precomputed member gain
at each gamma, through the same step kernel that estimator.update uses.
Each step's error norms are taken as the step is made, so a block keeps
its current estimates and error norms, and whole estimate trajectories only
for a caller that asks for them (keep_details, track_covariance).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import islice
from typing import Iterator, Sequence

import numpy as np

from .analysis import SystemEnsemble
from .estimator import _advance, _as_float_array, _check_gamma, _check_index, _check_int, initial_state
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
            object.__setattr__(self, name, _check_int(getattr(self, name), name, 1))
        _check_nonnegative(self.delta_x, "delta_x")
        if not isinstance(self.noise, NoiseModel):
            raise ValueError("noise must be a NoiseModel")
        _check_gamma(self.gamma)
        object.__setattr__(self, "seed", _check_index(self.seed, "seed", 0))
        if self.sequence_policy not in ("window", "uniform"):
            raise ValueError(
                f"sequence_policy must be 'window' or 'uniform', got {self.sequence_policy!r}"
            )
        if self.window is not None:
            object.__setattr__(self, "window", _check_int(self.window, "window", 1))
        for name in ("x0", "x_hat0"):
            value = getattr(self, name)
            if value is not None:
                vec = _as_float_array(value, name, 1)
                if len(vec) != self.n_states:
                    raise ValueError(f"{name} has length {len(vec)}, expected {self.n_states}")
                object.__setattr__(self, name, tuple(vec.tolist()))

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
    measurements: np.ndarray | None = None


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


# Candidates drawn per rng.integers call by the 'window' policy.  It sets
# only the speed, never a sequence (see generate_sequence).
_CANDIDATE_CHUNK = 512


def _candidate_stream(rng: np.random.Generator, size: int) -> Iterator[int]:
    """The endless stream of rng.integers(0, size) draws, taken in chunks."""
    while True:
        yield from rng.integers(0, size, size=_CANDIDATE_CHUNK).tolist()


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
    rows to ever reach full rank) raise before any sampling; a step that
    rejects 1000 * L candidates in a row raises RuntimeError naming the
    step.  Window ranks are memoized on the ensemble, so sequences drawn
    from one ensemble share them.

    The last k - 1 members are kept as an integer bitmask, bit i for member
    i, so a repeat is one bit test.  A window never repeats a member, so its
    bitmask names its member set, and the rank verdict is looked up by it in
    the ensemble's window-rank memo (see SystemEnsemble.window_full_rank).

    The candidates are drawn in chunks of _CANDIDATE_CHUNK, by one
    rng.integers call each.  A bulk draw gives the same values as that many
    scalar rng.integers(0, L) calls, so the sequence of a seed does not
    depend on the chunk.
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

    candidates = _candidate_stream(rng, size)
    indices: list[int] = []
    recent = 0  # bitmask of the last k - 1 members
    max_attempts = 1000 * size
    for pos in range(horizon):
        complete = pos >= k - 1
        for cand in islice(candidates, max_attempts):
            bit = 1 << cand
            if recent & bit:
                continue
            if complete and not ensemble._mask_full_rank(recent | bit):
                continue
            break
        else:
            raise RuntimeError(
                f"could not extend the window-constrained sequence at step {pos + 1}; "
                "the library may not contain enough jointly observing windows"
            )
        indices.append(cand)
        recent |= bit
        if complete:
            recent ^= 1 << indices[pos - k + 1]
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
# and its per-run Python overhead, never the results: each run's arithmetic
# is the same in a block of any size.  A block takes T kernel calls, so the
# 40 runs of a sweep take 400 calls at 32 instead of 1000 at 8.  A block
# holds its true states, R x (T + 1) x N doubles (0.77 MB at 32 for the
# 15-state, 200-step acceptance scenario), its measurements, the current
# G x R x N estimates and the G x R x T error norms; only a caller that keeps
# whole estimate trajectories (keep_details, track_covariance) adds
# G x R x (T + 1) x N doubles.  On the
# 5-gamma, 40-run sweep of that scenario, in one process that holds only
# wlstrack and numpy with one BLAS thread on a shared 2-core Xeon VM, the
# fastest of 25 interleaved calls took 40.7, 34.1 and 32.9 ms and the
# process peaked at 38.4, 38.7 and 39.3 MB at 8, 16 and 32.
BLOCK_RUNS = 32


@dataclass(frozen=True)
class _Block:
    """Draws of a block of R runs, stacked along the first axis."""

    seeds: list
    sequences: np.ndarray  # R x T member indices
    states: np.ndarray  # R x (T + 1) x N true states x(0..T)
    measurements: np.ndarray  # R x T x M, y(t) = A(t) x(t) + n(t)
    deltas: np.ndarray | None  # R x T x N state increments, when details are kept
    noises: np.ndarray | None  # R x T x M noise vectors, when details are kept


def _draw_block(sc: ScenarioConfig, ensemble, matrices, seeds, member_sequence, keep_details) -> _Block:
    """Each run's member sequence, trajectory and noise from its own seed, and
    the measurements they give.  Non-finite measurements raise ValueError.
    The increments and noises are kept only with keep_details."""
    T, R = sc.horizon, len(seeds)
    if member_sequence is None:
        sequences = np.stack([run_sequence(sc, ensemble, s) for s in seeds])
    else:
        sequences = np.broadcast_to(member_sequence, (R, T))
    states = np.empty((R, T + 1, sc.n_states))
    deltas = np.empty((R, T, sc.n_states)) if keep_details else None
    for r, s in enumerate(seeds):
        states[r], increments = generate_trajectory(sc.n_states, T, sc.delta_x, derive_seed(s, 1), x0=sc.x0)
        if keep_details:
            deltas[r] = increments
    noises = np.stack([generate_noise(sc.noise, sc.n_meas, T, derive_seed(s, 2)) for s in seeds])
    measurements = np.empty_like(noises)
    for r, sequence in enumerate(sequences):
        measurements[r] = (matrices[sequence] @ states[r, 1:, :, None])[..., 0]
    measurements += noises
    if not np.isfinite(measurements).all():
        raise ValueError("simulated measurements contain non-finite entries")
    return _Block(list(seeds), sequences, states, measurements, deltas, noises if keep_details else None)


def _step_block(block: _Block, matrices, gains, x_hat0, keep_trajectory):
    """Step all runs of a block at every gamma together; return the G x R x N
    final estimates x_hat(T), the G x R x T error norms ||x_hat(t) - x(t)||
    and, with keep_trajectory, the G x R x (T + 1) x N estimates (else None).

    gains stacks the library's member gains at each gamma (G x L x N x M).
    Each step gathers every run's member matrix and its gain at each gamma
    and applies the estimator's own step kernel once, to the G x R stack.
    Each step's norms take one (G, R, 1, N) @ (G, R, N, 1) matmul, one BLAS
    dot per gamma and run, as numpy.linalg.norm does for a single vector.
    """
    R, T = block.sequences.shape
    x = np.empty((gains.shape[0], R, x_hat0.shape[0]))
    x[:] = x_hat0
    trajectory = None
    if keep_trajectory:
        trajectory = np.empty(x.shape[:2] + (T + 1, x.shape[2]))
        trajectory[:, :, 0] = x
    squares = np.empty(x.shape[:2] + (T,))
    for t in range(T):
        members = block.sequences[:, t]
        x = _advance(x, gains[:, members], matrices[members], block.measurements[:, t])
        d = x - block.states[:, t + 1]
        squares[:, :, t] = (d[..., None, :] @ d[..., None])[..., 0, 0]
        if keep_trajectory:
            trajectory[:, :, t + 1] = x
    return x, np.sqrt(squares), trajectory


def _lockstep(sc: ScenarioConfig, ensemble, gammas, seeds, member_sequence, keep_details=False, track_covariance=False):
    """Yield (block, final, errors, trajectory) for every block of runs.

    The runs with the given seeds go through in blocks of BLOCK_RUNS.  Each
    block is drawn once and stepped at all gammas at once with the library's
    member gains, so a block takes T kernel calls whatever the number of
    gammas; final, errors and trajectory are what _step_block returns, with
    the gamma index first.  The estimate trajectories are kept for
    keep_details or track_covariance, the block's increments and noises for
    keep_details alone.
    """
    matrices = np.stack([A for A, _ in ensemble.members])
    gains = np.stack([ensemble.member_gains(g) for g in gammas])
    x_hat0 = initial_state(sc.n_states, sc.x_hat0).x_hat
    if member_sequence is not None:
        member_sequence = np.asarray(member_sequence, dtype=int)
        if member_sequence.shape != (sc.horizon,):
            raise ValueError(f"member_sequence has shape {member_sequence.shape}, expected ({sc.horizon},)")
    for first in range(0, len(seeds), BLOCK_RUNS):
        block = _draw_block(sc, ensemble, matrices, seeds[first : first + BLOCK_RUNS], member_sequence, keep_details)
        yield block, *_step_block(block, matrices, gains, x_hat0, keep_details or track_covariance)


def _runs(sc: ScenarioConfig, ensemble, seeds, member_sequence=None, keep_details=False) -> Iterator[RunResult]:
    """The runs with the given seeds, in order, at the scenario's gamma."""
    for block, final, errors, trajectory in _lockstep(sc, ensemble, [sc.gamma], seeds, member_sequence, keep_details):
        for r, seed in enumerate(block.seeds):
            yield RunResult(
                per_step_error=errors[0, r],
                final_state=block.states[r, -1].copy(),
                final_estimate=final[0, r].copy(),
                seed_used=int(seed),
                member_indices=block.sequences[r],
                states=block.states[r].copy() if keep_details else None,
                estimates=trajectory[0, r].copy() if keep_details else None,
                deltas=block.deltas[r].copy() if keep_details else None,
                noises=block.noises[r].copy() if keep_details else None,
                measurements=block.measurements[r].copy() if keep_details else None,
            )


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
    recorded; keep_details also records states, estimates, increments, noises
    and the measurements the estimator stepped on.
    This is the lockstep engine of sweep and monte_carlo with one run, so the
    result is bit-identical to the same run inside any Monte Carlo ensemble.
    """
    if ensemble is None:
        ensemble = build_ensemble(scenario)
    return next(_runs(scenario, ensemble, [int(run_seed)], member_sequence, keep_details))


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

    Run seeds do not depend on gamma, so every run is drawn once.  Each
    block of BLOCK_RUNS runs is stepped at all gammas at once, one step
    kernel call per step whatever the number of gammas; each run's
    arithmetic is the same as alone, so summary i equals the one-gamma
    monte_carlo bit for bit.
    """
    _check_int(n_jobs, "n_jobs", 1)
    gammas = [_check_gamma(g) for g in gammas]
    if track_covariance and scenario.n_runs < 2:
        raise ValueError("track_covariance requires n_runs >= 2")
    seeds = [seed_for_run(scenario, i) for i in range(scenario.n_runs)]
    norms = [[] for _ in gammas]
    xi = [[] for _ in gammas]
    for block, _, errors, trajectory in _lockstep(
        scenario, build_ensemble(scenario), gammas, seeds, member_sequence, track_covariance=track_covariance
    ):
        for index in range(len(gammas)):
            norms[index].extend(errors[index])
            if track_covariance:
                xi[index].extend(trajectory[index, :, 1:] - block.states[:, 1:])
    return [summarize(n, x if track_covariance else None) for n, x in zip(norms, xi)]


def monte_carlo(
    scenario: ScenarioConfig,
    n_jobs: int = 1,
    track_covariance: bool = False,
    member_sequence: Sequence[int] | None = None,
) -> McSummary:
    """Per-step error summary of scenario.n_runs runs at scenario.gamma: a one-gamma sweep.

    Run i uses derive_seed(scenario.seed, 1 + i), so the summary is identical
    for identical scenarios, and growing n_runs preserves the earlier runs.
    n_jobs is validated but no longer changes the execution (the runs step
    together in one process), and the results never depended on it.
    track_covariance additionally accumulates the cross-run sample covariance
    of the error vector at every step (requires n_runs >= 2).
    """
    return sweep(scenario, [scenario.gamma], n_jobs, track_covariance, member_sequence)[0]
