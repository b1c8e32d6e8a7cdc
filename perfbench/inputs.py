"""Seeded input files for the benchmark workloads, and their sizes.

The generators depend on numpy alone: the program under test receives only
the files written below, never the generator.  The same seed writes the same
bytes.  numpy is imported inside the generators so that the workload
interpreter can read the sizes here before its set-up is timed.
"""

from __future__ import annotations

import json
import os

# The acceptance scenario of the test suite, with fewer runs.
SCENARIO = {
    "n_states": 15,
    "n_meas": 3,
    "horizon": 200,
    "library_size": 10,
    "delta_x": 1.0,
    "noise": {"kind": "bounded", "delta_n": 1.0},
    "gamma": 0.25,
    "sequence_policy": "window",
}
SWEEP_GAMMAS = "0.01,0.05,0.25,1,2"
SWEEP_RUNS = 40
SIMULATE_RUNS = 50

STREAM_STATES, STREAM_MEAS, STREAM_STEPS, STREAM_GAMMA = 400, 5, 1000, 0.25
STREAM_OFFSET_SHARE = 0.3  # share of batches that carry an offset b

BOUNDS_STATES, BOUNDS_MEAS, BOUNDS_MEMBERS = 300, 10, 40
BOUNDS_GRID = ("0.01", "10", "40")

SCENARIO_FILE = "scenario.json"
STREAM_FILE = "stream.jsonl"
ENSEMBLE_FILE = "ensemble.json"


def scenario(seed: int, n_runs: int) -> dict:
    return dict(SCENARIO, n_runs=n_runs, seed=seed)


def _unit_frobenius(rng, m: int, n: int):
    G = rng.standard_normal((m, n))
    return G / (G**2).sum() ** 0.5


def _spd(rng, m: int):
    """Random symmetric positive definite matrix with eigenvalues >= 1."""
    B = rng.standard_normal((m, m))
    Q = B @ B.T / m
    Q[range(m), range(m)] += 1.0
    return 0.5 * (Q + Q.T)


def write_stream(path: str, seed: int) -> None:
    """Measurement batches of a random-walk state, one JSON line per step."""
    import numpy as np

    rng = np.random.default_rng([seed, 1])
    n, m = STREAM_STATES, STREAM_MEAS
    x = rng.uniform(-0.5, 0.5, n)
    with open(path, "w", encoding="utf-8") as fobj:
        for t in range(1, STREAM_STEPS + 1):
            x = x + rng.uniform(-0.5, 0.5, n)
            A = _unit_frobenius(rng, m, n)
            Q = _spd(rng, m)
            y = A @ x + np.linalg.cholesky(Q) @ rng.standard_normal(m)
            record = {"t": t, "y": y.tolist(), "A": A.tolist(), "Q": Q.tolist()}
            if rng.random() < STREAM_OFFSET_SHARE:
                b = rng.standard_normal(m)
                record["y"] = (y + b).tolist()
                record["b"] = b.tolist()
            fobj.write(json.dumps(record))
            fobj.write("\n")


def write_ensemble(path: str, seed: int) -> None:
    import numpy as np

    rng = np.random.default_rng([seed, 2])
    members = [
        {"A": _unit_frobenius(rng, BOUNDS_MEAS, BOUNDS_STATES).tolist(), "Q": _spd(rng, BOUNDS_MEAS).tolist()}
        for _ in range(BOUNDS_MEMBERS)
    ]
    with open(path, "w", encoding="utf-8") as fobj:
        json.dump({"n_states": BOUNDS_STATES, "members": members}, fobj)


def write_inputs(workload: str, seed: int, directory: str) -> None:
    """Write the input files of `workload` into `directory`."""
    if workload in ("mc_sweep", "simulate_dump_replay"):
        runs = SWEEP_RUNS if workload == "mc_sweep" else SIMULATE_RUNS
        with open(os.path.join(directory, SCENARIO_FILE), "w", encoding="utf-8") as fobj:
            json.dump(scenario(seed, runs), fobj)
    elif workload == "stream_n400":
        write_stream(os.path.join(directory, STREAM_FILE), seed)
    else:
        write_ensemble(os.path.join(directory, ENSEMBLE_FILE), seed)
