import dataclasses
import io as stdio
import json
from pathlib import Path

import numpy as np
import pytest

from wlstrack import io as wio
from wlstrack.analysis import SystemEnsemble
from wlstrack.simulation import NoiseModel, RunResult, ScenarioConfig


def test_format_float_round_trips_exactly():
    rng = np.random.default_rng(0)
    for x in rng.standard_normal(200) * 10.0 ** rng.integers(-12, 12, 200):
        assert float(wio.format_float(x)) == x


def test_estimates_row_writes_each_float_as_format_float():
    values = [-0.0, 5e-324, 1e308, -1.7976931348623157e308, 0.1, 1 / 3, 2.0 / 3e-7, 123456789.12345679, 0.0]
    buf = stdio.StringIO()
    wio.write_estimates_row(buf, 12, np.array(values))
    assert buf.getvalue() == ",".join(["12"] + [wio.format_float(v) for v in values]) + "\n"
    assert [float(v) for v in buf.getvalue().split(",")[1:]] == values


def test_batch_from_dict_reads_every_field():
    text = '{"t": 3, "y": [1.0, 2.0], "A": [[1.0, 0.5, 0.25], [0.0, 1.0, -1.0]], "Q": [[2.0, 0.0], [0.0, 2.0]], "b": [0.1, -0.2]}'
    back = wio.batch_from_dict(json.loads(text))
    assert back.t == 3
    assert np.array_equal(back.y, [1.0, 2.0])
    assert np.array_equal(back.A, [[1.0, 0.5, 0.25], [0.0, 1.0, -1.0]])
    assert np.array_equal(back.Q, 2.0 * np.eye(2))
    assert np.array_equal(back.b, [0.1, -0.2])


def test_batch_from_dict_defaults_q():
    back = wio.batch_from_dict({"t": 1, "y": [1.0], "A": [[1.0, 0.0]]})
    assert np.array_equal(back.Q, np.eye(1))
    assert back.b is None


def test_batch_from_dict_errors_name_field_and_line():
    with pytest.raises(ValueError, match="missing required field 'y' on line 4"):
        wio.batch_from_dict({"t": 1, "A": [[1.0]]}, line_no=4)
    with pytest.raises(ValueError, match="unknown field"):
        wio.batch_from_dict({"t": 1, "y": [1.0], "A": [[1.0]], "w": 2})


def test_iter_batches_jsonl_reports_malformed_line():
    text = '{"t": 1, "y": [1.0], "A": [[1.0]]}\nnot json\n'
    with pytest.raises(ValueError, match="line 2"):
        list(wio.iter_batches_jsonl(stdio.StringIO(text)))


def test_iter_batches_skips_blank_lines():
    text = '{"t": 1, "y": [1.0], "A": [[1.0]]}\n\n{"t": 2, "y": [2.0], "A": [[1.0]]}\n'
    batches = list(wio.iter_batches_jsonl(stdio.StringIO(text)))
    assert [b.t for b in batches] == [1, 2]


def test_batches_jsonl_round_trip_is_exact():
    rng = np.random.default_rng(1)
    members = tuple((rng.standard_normal((2, 3)), np.eye(2) + 0.1 * i) for i in range(3))
    ensemble = SystemEnsemble(members, 3)
    indices = np.array([2, 0, 1, 1, 2])
    measurements = rng.standard_normal((5, 2)) * 10.0 ** rng.integers(-12, 12, (5, 2))
    measurements[:2] = [[-0.0, 5e-324], [1.7976931348623157e308, -2.2250738585072014e-308]]
    run = RunResult(np.zeros(5), np.zeros(3), np.zeros(3), 0, member_indices=indices, measurements=measurements)
    buf = stdio.StringIO()
    wio.write_run_measurements_jsonl(run, ensemble, buf)
    buf.seek(0)
    back = list(wio.iter_batches_jsonl(buf))
    assert [b.t for b in back] == [1, 2, 3, 4, 5]
    for y, index, b in zip(measurements, indices, back):
        A, Q = ensemble.members[index]
        # bit for bit, so that a -0.0 keeps its sign
        assert b.y.tobytes() == y.tobytes()
        assert b.A.tobytes() == A.tobytes()
        assert b.Q.tobytes() == Q.tobytes()
        assert b.b is None


def test_mc_summary_csv_format():
    buf = stdio.StringIO()
    wio.write_table(buf, ["t", "mean_error", "rms_error"], [range(1, 3), np.array([1.0, 0.5]), np.array([1.5, 0.75])])
    lines = buf.getvalue().splitlines()
    assert lines[0] == "t,mean_error,rms_error"
    assert lines[1] == "1,1,1.5"
    assert len(lines) == 3


def test_sweep_csv_header_and_columns():
    buf = stdio.StringIO()
    wio.write_table(buf, ["t", "err_gamma_0.25", "err_gamma_2"], [[1], np.array([1.0]), np.array([3.0])])
    lines = buf.getvalue().splitlines()
    assert lines[0] == "t,err_gamma_0.25,err_gamma_2"
    assert lines[1] == "1,1,3"


def test_table_writes_each_value_as_format_float():
    values = [-0.0, 5e-324, 1e308, np.float64(0.1), 1 / 3, float("inf"), 123456789.12345679, 7]
    buf = stdio.StringIO()
    wio.write_table(buf, ["a", "b"], [values, values[::-1]])
    rows = [line.split(",") for line in buf.getvalue().splitlines()[1:]]
    assert rows == [[wio.format_float(a), wio.format_float(b)] for a, b in zip(values, values[::-1])]


def test_scenario_round_trip():
    record = {
        "n_states": 4, "n_meas": 2, "horizon": 10, "library_size": 3, "delta_x": 1.0,
        "noise": {"kind": "gaussian", "delta_n": 0.25}, "gamma": 0.4, "n_runs": 2, "seed": 9,
        "sequence_policy": "window", "window": 3, "x0": [0.0, 0.1, 0.2, 0.3],
    }
    back = wio.scenario_from_dict(json.loads(json.dumps(record)))
    assert back == ScenarioConfig(
        n_states=4, n_meas=2, horizon=10, library_size=3, delta_x=1.0,
        noise=NoiseModel("gaussian", 0.25), gamma=0.4, n_runs=2, seed=9,
        sequence_policy="window", window=3, x0=(0.0, 0.1, 0.2, 0.3),
    )


def test_scenario_missing_field_named():
    d = {
        "n_states": 2, "n_meas": 1, "horizon": 5, "library_size": 2, "delta_x": 1.0,
        "noise": {"kind": "bounded", "delta_n": 1.0}, "n_runs": 2, "seed": 1,
    }
    with pytest.raises(ValueError, match="missing required field 'gamma'"):
        wio.scenario_from_dict(d)
    d["gamma"] = 1.0
    d["surprise"] = True
    with pytest.raises(ValueError, match="unknown field"):
        wio.scenario_from_dict(d)


def test_readme_scenario_example_loads():
    # The README's scenario example lists every field of ScenarioConfig and
    # loads as written, so the documented schema cannot drift from the reader.
    readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    section = readme.split("### Scenario files", 1)[1]
    block = section.split("```json\n", 1)[1].split("```", 1)[0]
    record = json.loads(block)
    assert set(record) == {f.name for f in dataclasses.fields(ScenarioConfig)}
    wio.scenario_from_dict(record)


def test_ensemble_from_dict():
    ens = wio.ensemble_from_dict(
        {"n_states": 2, "members": [{"A": [[1.0, 0.0]]}, {"A": [[0.0, 1.0]], "Q": [[2.0]]}]}
    )
    assert len(ens.members) == 2
    assert np.array_equal(ens.members[0][1], np.eye(1))
    assert np.array_equal(ens.members[1][1], [[2.0]])
    with pytest.raises(ValueError, match="missing required field 'members'"):
        wio.ensemble_from_dict({"n_states": 2})


def test_estimates_csv_writer():
    buf = stdio.StringIO()
    wio.write_estimates_header(buf, 2)
    wio.write_estimates_row(buf, 1, np.array([0.5, -1.0]))
    lines = buf.getvalue().splitlines()
    assert lines[0] == "t,x_hat_1,x_hat_2"
    assert lines[1] == "1,0.5,-1"
    assert len(lines) == 2
