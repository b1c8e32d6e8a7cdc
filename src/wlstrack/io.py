"""File formats: measurement JSON-lines, estimate/summary CSV, scenario JSON.

All CSV floats are written with 17 significant digits so every float64
round-trips exactly; JSON uses Python's shortest-repr float encoding, which
round-trips as well.
"""

from __future__ import annotations

import json
from typing import Iterable, Iterator, Sequence, TextIO

import numpy as np

from .analysis import BoundReport, SystemEnsemble
from .estimator import MeasurementBatch
from .simulation import McSummary, NoiseModel, RunResult, ScenarioConfig

__all__ = [
    "format_float",
    "batch_to_dict",
    "batch_from_dict",
    "iter_batches_jsonl",
    "write_batches_jsonl",
    "write_run_measurements_jsonl",
    "write_estimates_header",
    "write_estimates_row",
    "write_mc_summary_csv",
    "write_sweep_csv",
    "write_bounds_csv",
    "write_run_results_jsonl",
    "scenario_to_dict",
    "scenario_from_dict",
    "ensemble_from_dict",
    "write_bound_reports_json",
]


def format_float(x: float) -> str:
    """Full-precision decimal text of a float (17 significant digits)."""
    return format(float(x), ".17g")


def batch_to_dict(batch: MeasurementBatch) -> dict:
    return _batch_record(batch.t, batch.y, batch.A, batch.Q, batch.b)


def _batch_record(t: int, y, A, Q, b=None) -> dict:
    """The JSON-lines record {"t", "y", "A", "Q", "b"?} of one measurement batch."""
    d = {"t": t, "y": y.tolist(), "A": A.tolist(), "Q": Q.tolist()}
    if b is not None:
        d["b"] = b.tolist()
    return d


def batch_from_dict(d: dict, line_no: int | None = None) -> MeasurementBatch:
    """Build a batch from the JSON-lines record {"t", "y", "A", "Q"?, "b"?}."""
    where = f" on line {line_no}" if line_no is not None else ""
    if not isinstance(d, dict):
        raise ValueError(f"batch record must be a JSON object{where}")
    for field in ("t", "y", "A"):
        if field not in d:
            raise ValueError(f"missing required field '{field}'{where}")
    known = {"t", "y", "A", "Q", "b"}
    unknown = set(d) - known
    if unknown:
        raise ValueError(f"unknown field(s) {sorted(unknown)}{where}")
    try:
        return MeasurementBatch(t=d["t"], y=d["y"], A=d["A"], Q=d.get("Q"), b=d.get("b"))
    except (ValueError, np.linalg.LinAlgError) as exc:
        raise type(exc)(f"{exc}{where}") from exc


def iter_batches_jsonl(lines: Iterable[str]) -> Iterator[MeasurementBatch]:
    """Parse measurement batches from JSON-lines text, one batch per line.

    Blank lines are skipped.  Malformed lines raise ValueError naming the
    line number.
    """
    for line_no, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ValueError(f"malformed JSON on line {line_no}: {exc}") from exc
        yield batch_from_dict(record, line_no=line_no)


def write_batches_jsonl(batches: Iterable[MeasurementBatch], fobj: TextIO) -> None:
    for batch in batches:
        fobj.write(json.dumps(batch_to_dict(batch)))
        fobj.write("\n")


def write_run_measurements_jsonl(run: RunResult, ensemble: SystemEnsemble, fobj: TextIO) -> None:
    """A run's batches y(t) = A(t) x(t) + n(t) (it must keep its details) in the
    format of write_batches_jsonl, from the ensemble's already validated members."""
    for t, index in enumerate(run.member_indices, start=1):
        A, Q = ensemble.members[index]
        fobj.write(json.dumps(_batch_record(t, A @ run.states[t] + run.noises[t - 1], A, Q)))
        fobj.write("\n")


def write_estimates_header(fobj: TextIO, n_states: int) -> None:
    cols = ["t"] + [f"x_hat_{i}" for i in range(1, n_states + 1)]
    fobj.write(",".join(cols))
    fobj.write("\n")


def write_estimates_row(fobj: TextIO, t: int, x_hat: np.ndarray) -> None:
    fobj.write(",".join([str(int(t))] + [format_float(v) for v in x_hat]))
    fobj.write("\n")


def write_mc_summary_csv(summary: McSummary, fobj: TextIO) -> None:
    fobj.write("t,mean_error,rms_error\n")
    for t in range(len(summary.mean_error)):
        fobj.write(
            f"{t + 1},{format_float(summary.mean_error[t])},{format_float(summary.rms_error[t])}\n"
        )


def write_sweep_csv(gammas: Sequence[float], summaries: Sequence[McSummary], fobj: TextIO, use_rms: bool = False) -> None:
    """Wide per-step error table, one column per gamma."""
    header = ["t"] + [f"err_gamma_{g:g}" for g in gammas]
    fobj.write(",".join(header))
    fobj.write("\n")
    horizon = len(summaries[0].mean_error)
    for t in range(horizon):
        row = [str(t + 1)]
        for summ in summaries:
            series = summ.rms_error if use_rms else summ.mean_error
            row.append(format_float(series[t]))
        fobj.write(",".join(row))
        fobj.write("\n")


def write_bounds_csv(gammas: Sequence[float], h_b: Sequence[float], h_s: Sequence[float], fobj: TextIO) -> None:
    fobj.write("gamma,h_b,h_s\n")
    for g, hb, hs in zip(gammas, h_b, h_s):
        fobj.write(f"{format_float(g)},{format_float(hb)},{format_float(hs)}\n")


def write_run_results_jsonl(results: Iterable[RunResult], fobj: TextIO) -> None:
    """One JSON line per run: seed, error trajectory, final state/estimate."""
    for r in results:
        fobj.write(
            json.dumps(
                {
                    "seed_used": r.seed_used,
                    "per_step_error": r.per_step_error.tolist(),
                    "final_state": r.final_state.tolist(),
                    "final_estimate": r.final_estimate.tolist(),
                }
            )
        )
        fobj.write("\n")


_SCENARIO_REQUIRED = (
    "n_states",
    "n_meas",
    "horizon",
    "library_size",
    "delta_x",
    "noise",
    "gamma",
    "n_runs",
    "seed",
)
_SCENARIO_OPTIONAL = ("sequence_policy", "window", "x0", "x_hat0")


def scenario_to_dict(scenario: ScenarioConfig) -> dict:
    d = {
        "n_states": scenario.n_states,
        "n_meas": scenario.n_meas,
        "horizon": scenario.horizon,
        "library_size": scenario.library_size,
        "delta_x": scenario.delta_x,
        "noise": {"kind": scenario.noise.kind, "delta_n": scenario.noise.delta_n},
        "gamma": scenario.gamma,
        "n_runs": scenario.n_runs,
        "seed": scenario.seed,
        "sequence_policy": scenario.sequence_policy,
    }
    if scenario.window is not None:
        d["window"] = scenario.window
    if scenario.x0 is not None:
        d["x0"] = list(scenario.x0)
    if scenario.x_hat0 is not None:
        d["x_hat0"] = list(scenario.x_hat0)
    return d


def scenario_from_dict(d: dict) -> ScenarioConfig:
    if not isinstance(d, dict):
        raise ValueError("scenario must be a JSON object")
    for field in _SCENARIO_REQUIRED:
        if field not in d:
            raise ValueError(f"missing required field '{field}'")
    unknown = set(d) - set(_SCENARIO_REQUIRED) - set(_SCENARIO_OPTIONAL)
    if unknown:
        raise ValueError(f"unknown field(s) {sorted(unknown)}")
    noise = d["noise"]
    if not isinstance(noise, dict) or "kind" not in noise or "delta_n" not in noise:
        raise ValueError("field 'noise' must be an object with 'kind' and 'delta_n'")
    return ScenarioConfig(
        n_states=d["n_states"],
        n_meas=d["n_meas"],
        horizon=d["horizon"],
        library_size=d["library_size"],
        delta_x=d["delta_x"],
        noise=NoiseModel(kind=noise["kind"], delta_n=noise["delta_n"]),
        gamma=d["gamma"],
        n_runs=d["n_runs"],
        seed=d["seed"],
        sequence_policy=d.get("sequence_policy", "window"),
        window=d.get("window"),
        x0=d.get("x0"),
        x_hat0=d.get("x_hat0"),
    )


def ensemble_from_dict(d: dict) -> SystemEnsemble:
    """Ensemble from {"n_states": N, "members": [{"A": [[..]], "Q"?: [[..]]}, ..]}."""
    if not isinstance(d, dict):
        raise ValueError("ensemble must be a JSON object")
    for field in ("n_states", "members"):
        if field not in d:
            raise ValueError(f"missing required field '{field}'")
    members = []
    for i, rec in enumerate(d["members"]):
        if "A" not in rec:
            raise ValueError(f"member {i}: missing required field 'A'")
        members.append((rec["A"], rec.get("Q")))
    return SystemEnsemble(tuple(members), d["n_states"])


def write_bound_reports_json(reports: dict[str, BoundReport], fobj: TextIO) -> None:
    """Reports keyed by noise mode, each serialized with its type's field names."""
    fobj.write(json.dumps({k: r.to_dict() for k, r in reports.items()}, indent=2))
    fobj.write("\n")
