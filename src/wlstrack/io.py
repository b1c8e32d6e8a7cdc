"""File formats: measurement JSON-lines, estimate and table CSV, scenario JSON.

Each output record has one writer here; the commands that write a whole
table declare its header and columns, and write_table owns the encoding.
All CSV floats are written with 17 significant digits so every float64
round-trips exactly.  JSON is written with json.dumps, whose shortest-repr
floats round-trip as well, and parsed with orjson, which reads every finite
double back bit for bit and rejects what RFC 8259 does not allow (NaN,
Infinity, numbers beyond the double range).
"""

from __future__ import annotations

import dataclasses
import json
from typing import Iterable, Iterator, Sequence, TextIO

import numpy as np
import orjson

from .analysis import BoundReport, SystemEnsemble
from .estimator import MeasurementBatch
from .simulation import NoiseModel, RunResult, ScenarioConfig

__all__ = [
    "format_float",
    "batch_from_dict",
    "iter_batches_jsonl",
    "write_run_measurements_jsonl",
    "write_estimates_header",
    "write_estimates_row",
    "write_table",
    "write_run_results_jsonl",
    "scenario_from_dict",
    "ensemble_from_dict",
    "is_ensemble_dict",
    "write_bound_reports_json",
]


def _fields(cls) -> dict[str, bool]:
    """The record fields of dataclass `cls` (its __init__ parameters), each
    mapped to whether it is required, that is, has no default."""
    missing = dataclasses.MISSING
    return {f.name: f.default is missing and f.default_factory is missing for f in dataclasses.fields(cls) if f.init}


_BATCH_FIELDS = _fields(MeasurementBatch)
_SCENARIO_FIELDS = _fields(ScenarioConfig)
_NOISE_FIELDS = _fields(NoiseModel)
_ENSEMBLE_FIELDS = _fields(SystemEnsemble)
_MEMBER_FIELDS = {"A": True, "Q": False}  # an ensemble member has no dataclass of its own


def _check_record(d, what: str, fields: dict[str, bool], where: str = ""):
    """d itself when it is a JSON object with every required field of `fields`
    and no other field; else a ValueError that names `what` and the field."""
    if not isinstance(d, dict):
        raise ValueError(f"{what} must be a JSON object{where}")
    for name, required in fields.items():
        if required and name not in d:
            raise ValueError(f"{what}: missing required field '{name}'{where}")
    unknown = d.keys() - fields.keys()
    if unknown:
        raise ValueError(f"{what}: unknown field(s) {sorted(unknown)}{where}")
    return d


def format_float(x: float) -> str:
    """Full-precision decimal text of a float (17 significant digits)."""
    return format(float(x), ".17g")


def batch_from_dict(d: dict, line_no: int | None = None) -> MeasurementBatch:
    """Build a batch from the JSON-lines record {"t", "y", "A", "Q"?, "b"?}."""
    where = f" on line {line_no}" if line_no is not None else ""
    _check_record(d, "batch record", _BATCH_FIELDS, where)
    try:
        return MeasurementBatch(**d)
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
            record = orjson.loads(line)
        except orjson.JSONDecodeError as exc:
            raise ValueError(f"malformed JSON on line {line_no}: {exc}") from exc
        yield batch_from_dict(record, line_no=line_no)


def write_run_measurements_jsonl(run: RunResult, ensemble: SystemEnsemble, fobj: TextIO) -> None:
    """A run's batch records {"t", "y", "A", "Q"}, one JSON line per step: the
    measurements the estimator stepped on (the run must keep its details), with
    the ensemble's already validated members."""
    for t, (y, index) in enumerate(zip(run.measurements.tolist(), run.member_indices), start=1):
        A, Q = ensemble.members[index]
        fobj.write(json.dumps({"t": t, "y": y, "A": A.tolist(), "Q": Q.tolist()}))
        fobj.write("\n")


def write_estimates_header(fobj: TextIO, n_states: int) -> None:
    cols = ["t"] + [f"x_hat_{i}" for i in range(1, n_states + 1)]
    fobj.write(",".join(cols))
    fobj.write("\n")


def write_estimates_row(fobj: TextIO, t: int, x_hat: np.ndarray) -> None:
    """One row "t,x_1,...,x_N": one %-format over the row, which writes each
    float as format_float does."""
    values = np.asarray(x_hat, dtype=float).tolist()
    fobj.write(("%d" + ",%.17g" * len(values) + "\n") % (t, *values))


def write_table(fobj: TextIO, header: Sequence[str], columns: Sequence[Iterable[float]]) -> None:
    """A CSV with the given column names and one row per entry of the equally
    long columns; every value is written as format_float writes it (so an
    integer t column reads 1, 2, ...)."""
    fobj.write(",".join(header) + "\n")
    row = ",".join(["%.17g"] * len(columns)) + "\n"
    for values in zip(*(np.asarray(c, dtype=float).tolist() for c in columns), strict=True):
        fobj.write(row % values)


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


def scenario_from_dict(d: dict) -> ScenarioConfig:
    _check_record(d, "scenario", _SCENARIO_FIELDS)
    noise = _check_record(d["noise"], "noise", _NOISE_FIELDS)
    return ScenarioConfig(**{**d, "noise": NoiseModel(**noise)})


def ensemble_from_dict(d: dict) -> SystemEnsemble:
    """Ensemble from {"n_states": N, "members": [{"A": [[..]], "Q"?: [[..]]}, ..]}."""
    _check_record(d, "ensemble", _ENSEMBLE_FIELDS)
    if not isinstance(d["members"], list):
        raise ValueError("ensemble: field 'members' must be a JSON list")
    members = []
    for i, rec in enumerate(d["members"]):
        _check_record(rec, f"member {i}", _MEMBER_FIELDS)
        members.append((rec["A"], rec.get("Q")))
    return SystemEnsemble(tuple(members), d["n_states"])


def is_ensemble_dict(d) -> bool:
    """Whether a `bounds` input record is an ensemble rather than a scenario:
    it has "members", or no field that an ensemble lacks."""
    return isinstance(d, dict) and ("members" in d or d.keys() <= _ENSEMBLE_FIELDS.keys())


def write_bound_reports_json(reports: dict[str, BoundReport], fobj: TextIO) -> None:
    """Reports keyed by noise mode, each serialized with its type's field names."""
    fobj.write(json.dumps({k: r.to_dict() for k, r in reports.items()}, indent=2))
    fobj.write("\n")
