"""The record contract of every input file, through the command line.

Each JSON record a command reads (scenario, its `noise`, ensemble, ensemble
member, measurement batch) is rejected with exit 2, a message naming the
record and the field, and no output file, when it is not an object, lacks a
required field, or carries a field it does not know.  The field lists are
written out here by hand, so the test checks the readers against the
documented schema rather than against themselves.
"""

import json

import pytest

from wlstrack.cli import main

SCENARIO = {
    "n_states": 2,
    "n_meas": 1,
    "horizon": 5,
    "library_size": 3,
    "delta_x": 1.0,
    "noise": {"kind": "bounded", "delta_n": 1.0},
    "gamma": 0.5,
    "n_runs": 2,
    "seed": 77,
    "sequence_policy": "window",
    "window": 2,
    "x0": [0.1, -0.2],
    "x_hat0": [0.0, 0.0],
}
ENSEMBLE = {"n_states": 2, "members": [{"A": [[1.0, 0.0]], "Q": [[2.0]]}, {"A": [[0.0, 1.0]]}]}
FIRST_BATCH = {"t": 1, "y": [1.0], "A": [[1.0, 0.0]]}
BATCH = {"t": 2, "y": [1.0], "A": [[0.0, 1.0]], "Q": [[2.0]], "b": [0.5]}


def scenario_input(record):
    return {"sc.json": json.dumps(record)}, ["simulate", "sc.json", "out.csv"]


def noise_input(record):
    return scenario_input({**SCENARIO, "noise": record})


def ensemble_input(record):
    return {"ens.json": json.dumps(record)}, ["bounds", "ens.json", "out.csv", "--gamma", "1"]


def member_input(record):
    return ensemble_input({**ENSEMBLE, "members": [record, *ENSEMBLE["members"][1:]]})


def batch_input(record):
    text = json.dumps(FIRST_BATCH) + "\n" + json.dumps(record) + "\n"
    return {"meas.jsonl": text}, ["replay", "meas.jsonl", "out.csv", "--gamma", "1"]


# kind: (valid record, how stderr names it, required fields, unknown field to add, input files and argv)
KINDS = {
    "scenario": (
        SCENARIO,
        "scenario",
        ["n_states", "n_meas", "horizon", "library_size", "delta_x", "noise", "gamma", "n_runs", "seed"],
        "seeds",
        scenario_input,
    ),
    "noise": (SCENARIO["noise"], "noise", ["kind", "delta_n"], "scale", noise_input),
    "ensemble": (ENSEMBLE, "ensemble", ["n_states", "members"], "n_meas", ensemble_input),
    "member": (ENSEMBLE["members"][0], "member 0", ["A"], "q", member_input),
    "batch": (BATCH, "line 2", ["t", "y", "A"], "B", batch_input),
}


def run(tmp_path, monkeypatch, capsys, files, argv):
    """Exit code, stderr and the files beside the inputs after one command."""
    monkeypatch.chdir(tmp_path)
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    code = main(argv)
    left = sorted(p.name for p in tmp_path.iterdir() if p.name not in files)
    return code, capsys.readouterr().err, left


@pytest.mark.parametrize("kind", KINDS)
def test_valid_record_is_accepted(tmp_path, monkeypatch, capsys, kind):
    record, _, _, _, make_input = KINDS[kind]
    code, err, left = run(tmp_path, monkeypatch, capsys, *make_input(record))
    assert code == 0, err
    assert "out.csv" in left


@pytest.mark.parametrize("not_object", [["A", "Q"], "A"], ids=["list", "string"])
@pytest.mark.parametrize("kind", KINDS)
def test_record_that_is_not_an_object_exits_2(tmp_path, monkeypatch, capsys, kind, not_object):
    _, _, _, _, make_input = KINDS[kind]
    code, err, left = run(tmp_path, monkeypatch, capsys, *make_input(not_object))
    assert code == 2
    assert "must be a JSON object" in err
    assert left == []


@pytest.mark.parametrize(
    "kind, field", [(kind, field) for kind, spec in KINDS.items() for field in spec[2]]
)
def test_missing_required_field_exits_2(tmp_path, monkeypatch, capsys, kind, field):
    record, name, _, _, make_input = KINDS[kind]
    mutated = {k: v for k, v in record.items() if k != field}
    code, err, left = run(tmp_path, monkeypatch, capsys, *make_input(mutated))
    assert code == 2
    assert f"missing required field '{field}'" in err
    assert name in err
    assert left == []


@pytest.mark.parametrize("kind", KINDS)
def test_unknown_field_exits_2(tmp_path, monkeypatch, capsys, kind):
    record, name, _, unknown, make_input = KINDS[kind]
    code, err, left = run(tmp_path, monkeypatch, capsys, *make_input({**record, unknown: [[4.0]]}))
    assert code == 2
    assert f"unknown field(s) ['{unknown}']" in err
    assert name in err
    assert left == []


@pytest.mark.parametrize("members", [5, {"A": [[1.0, 0.0]]}, "ab"], ids=["number", "object", "string"])
def test_members_that_is_not_a_list_exits_2(tmp_path, monkeypatch, capsys, members):
    code, err, left = run(tmp_path, monkeypatch, capsys, *ensemble_input({**ENSEMBLE, "members": members}))
    assert code == 2
    assert "ensemble: field 'members' must be a JSON list" in err
    assert left == []


# member 1's fields: exit code and the message that names the member
BAD_MEMBERS = {
    "Q shape": ({"A": [[0.0, 1.0]], "Q": [[1.0, 0.0], [0.0, 1.0]]}, 2, "member 1: Q has shape (2, 2), expected (1, 1)"),
    "A 1-D": ({"A": [0.0, 1.0]}, 2, "member 1: A must be 2-dimensional"),
    "Q indefinite": ({"A": [[0.0, 1.0]], "Q": [[-1.0]]}, 3, "member 1: Q is not positive definite"),
}


@pytest.mark.parametrize("case", BAD_MEMBERS)
def test_member_value_error_names_the_member(tmp_path, monkeypatch, capsys, case):
    member, exit_code, message = BAD_MEMBERS[case]
    record = {**ENSEMBLE, "members": [ENSEMBLE["members"][0], member]}
    code, err, left = run(tmp_path, monkeypatch, capsys, *ensemble_input(record))
    assert code == exit_code
    assert message in err
    assert left == []
