import dataclasses
import io as stdio
import json
from pathlib import Path

import numpy as np
import pytest

from wlstrack import io as wio
from wlstrack.estimator import MeasurementBatch
from wlstrack.simulation import McSummary, NoiseModel, ScenarioConfig


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


def test_batch_dict_round_trip():
    batch = MeasurementBatch(3, [1.0, 2.0], [[1.0, 0.5, 0.25], [0.0, 1.0, -1.0]], 2.0 * np.eye(2), b=[0.1, -0.2])
    d = wio.batch_to_dict(batch)
    back = wio.batch_from_dict(json.loads(json.dumps(d)))
    assert back.t == 3
    assert np.array_equal(back.y, batch.y)
    assert np.array_equal(back.A, batch.A)
    assert np.array_equal(back.Q, batch.Q)
    assert np.array_equal(back.b, batch.b)


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
    batches = [
        MeasurementBatch(t, rng.standard_normal(2), rng.standard_normal((2, 3)), np.eye(2) + 0.1)
        for t in range(1, 6)
    ]
    buf = stdio.StringIO()
    wio.write_batches_jsonl(batches, buf)
    buf.seek(0)
    back = list(wio.iter_batches_jsonl(buf))
    for a, b in zip(batches, back):
        assert np.array_equal(a.y, b.y)
        assert np.array_equal(a.A, b.A)
        assert np.array_equal(a.Q, b.Q)


def test_mc_summary_csv_format():
    summary = McSummary(mean_error=np.array([1.0, 0.5]), rms_error=np.array([1.5, 0.75]))
    buf = stdio.StringIO()
    wio.write_mc_summary_csv(summary, buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "t,mean_error,rms_error"
    assert lines[1] == "1,1,1.5"
    assert len(lines) == 3


def test_sweep_csv_header_and_columns():
    s1 = McSummary(mean_error=np.array([1.0]), rms_error=np.array([2.0]))
    s2 = McSummary(mean_error=np.array([3.0]), rms_error=np.array([4.0]))
    buf = stdio.StringIO()
    wio.write_sweep_csv([0.25, 2.0], [s1, s2], buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "t,err_gamma_0.25,err_gamma_2"
    assert lines[1] == "1,1,3"
    buf = stdio.StringIO()
    wio.write_sweep_csv([0.25, 2.0], [s1, s2], buf, use_rms=True)
    assert buf.getvalue().splitlines()[1] == "1,2,4"


def test_scenario_round_trip():
    sc = ScenarioConfig(
        n_states=4, n_meas=2, horizon=10, library_size=3, delta_x=1.0,
        noise=NoiseModel("gaussian", 0.25), gamma=0.4, n_runs=2, seed=9,
        sequence_policy="window", window=3, x0=(0.0, 0.1, 0.2, 0.3),
    )
    back = wio.scenario_from_dict(json.loads(json.dumps(wio.scenario_to_dict(sc))))
    assert back == sc


def test_scenario_missing_field_named():
    d = wio.scenario_to_dict(
        ScenarioConfig(
            n_states=2, n_meas=1, horizon=5, library_size=2, delta_x=1.0,
            noise=NoiseModel("bounded", 1.0), gamma=1.0, n_runs=2, seed=1,
        )
    )
    del d["gamma"]
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
    sc = wio.scenario_from_dict(record)
    assert wio.scenario_from_dict(wio.scenario_to_dict(sc)) == sc


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
