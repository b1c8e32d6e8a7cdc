import json
import subprocess
import sys

import numpy as np
import pytest

from wlstrack.cli import main

from helpers import count_calls, rel_err


def write_json(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


def minimal_scenario(**overrides):
    base = {
        "n_states": 2,
        "n_meas": 1,
        "horizon": 5,
        "library_size": 3,
        "delta_x": 1.0,
        "noise": {"kind": "bounded", "delta_n": 1.0},
        "gamma": 0.5,
        "n_runs": 2,
        "seed": 77,
    }
    base.update(overrides)
    return base


# ------------------------------------------------------------------ simulate

def test_simulate_writes_expected_rows(tmp_path, capsys):
    cfg = write_json(tmp_path / "sc.json", minimal_scenario())
    out = tmp_path / "out.csv"
    assert main(["simulate", cfg, str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "t,mean_error,rms_error"
    assert len(lines) == 6  # header + 5 steps
    err = capsys.readouterr().err
    assert "psi=" in err and "tau=" in err and "lambda_bar=" in err and "c=" in err


def test_simulate_missing_field_exits_2(tmp_path, capsys):
    cfg = minimal_scenario()
    del cfg["gamma"]
    path = write_json(tmp_path / "sc.json", cfg)
    assert main(["simulate", path, str(tmp_path / "out.csv")]) == 2
    assert "gamma" in capsys.readouterr().err


def test_simulate_unreadable_config_exits_4(tmp_path):
    assert main(["simulate", str(tmp_path / "missing.json"), str(tmp_path / "out.csv")]) == 4


def test_simulate_malformed_json_exits_2(tmp_path):
    path = tmp_path / "sc.json"
    path.write_text("{not json")
    assert main(["simulate", str(path), str(tmp_path / "out.csv")]) == 2


def test_simulate_dump_runs(tmp_path):
    cfg = write_json(tmp_path / "sc.json", minimal_scenario(n_runs=3, horizon=4))
    dump = tmp_path / "runs.jsonl"
    assert main(["simulate", cfg, str(tmp_path / "out.csv"), "--dump-runs", str(dump)]) == 0
    lines = dump.read_text().splitlines()
    assert len(lines) == 3
    record = json.loads(lines[0])
    assert set(record) == {"seed_used", "per_step_error", "final_state", "final_estimate"}
    assert len(record["per_step_error"]) == 4


def simulate_with_dumps(tmp_path, cfg, tag, *extra):
    """Run simulate with every dump flag; return the four output files' bytes."""
    names = ("summary.csv", "meas.jsonl", "est.csv", "runs.jsonl")
    paths = [tmp_path / f"{tag}_{name}" for name in names]
    argv = ["simulate", cfg, str(paths[0]), "--dump-measurements", str(paths[1]),
            "--dump-estimates", str(paths[2]), "--dump-runs", str(paths[3]), *extra]
    assert main(argv) == 0
    return [path.read_bytes() for path in paths]


def test_simulate_dumps_do_not_depend_on_jobs(tmp_path):
    cfg = write_json(tmp_path / "sc.json", minimal_scenario(n_runs=5, horizon=6))
    assert simulate_with_dumps(tmp_path, cfg, "serial", "--jobs", "1") == simulate_with_dumps(
        tmp_path, cfg, "pooled", "--jobs", "2"
    )


def test_simulate_dump_runs_are_the_summarized_runs(tmp_path):
    cfg = write_json(tmp_path / "sc.json", minimal_scenario(n_runs=5, horizon=6))
    summary, _, _, runs = simulate_with_dumps(tmp_path, cfg, "a")
    per_step = np.array([json.loads(line)["per_step_error"] for line in runs.decode().splitlines()])
    mean_column = [float(row.split(",")[1]) for row in summary.decode().splitlines()[1:]]
    assert per_step.shape == (5, 6)
    assert per_step.mean(axis=0).tolist() == mean_column


def test_simulate_runs_each_run_once(tmp_path, monkeypatch):
    # Each run's trajectory is drawn once, from its own seed.
    from wlstrack import simulation

    calls = count_calls(monkeypatch, simulation, "generate_trajectory")
    cfg = write_json(tmp_path / "sc.json", minimal_scenario(n_runs=4, horizon=5))
    simulate_with_dumps(tmp_path, cfg, "a", "--jobs", "1")
    assert len(calls) == 4
    assert len({args[3] for args in calls}) == 4


def test_simulate_builds_the_library_once(tmp_path, monkeypatch):
    from wlstrack import simulation

    calls = count_calls(monkeypatch, simulation, "generate_library")
    cfg = write_json(tmp_path / "sc.json", minimal_scenario(n_runs=4, horizon=5))
    simulate_with_dumps(tmp_path, cfg, "a")
    assert len(calls) == 1


@pytest.mark.parametrize("command", ["simulate", "sweep"])
def test_jobs_zero_exits_2_and_writes_nothing(tmp_path, capsys, command):
    cfg = write_json(tmp_path / "sc.json", minimal_scenario())
    out = tmp_path / "out.csv"
    argv = [command, cfg, *(["0.5"] if command == "sweep" else []), str(out), "--jobs", "0"]
    assert main(argv) == 2
    assert "n_jobs" in capsys.readouterr().err
    assert not out.exists()


def test_simulate_generates_each_member_sequence_once(tmp_path, monkeypatch):
    # tau comes from run 0's recorded sequence, not from drawing it again.
    from wlstrack import simulation

    calls = []
    original = simulation.generate_sequence

    def counting(*args, **kwargs):
        calls.append(args[3])
        return original(*args, **kwargs)

    monkeypatch.setattr(simulation, "generate_sequence", counting)
    cfg = write_json(tmp_path / "sc.json", minimal_scenario(n_runs=4, horizon=5))
    simulate_with_dumps(tmp_path, cfg, "a", "--jobs", "1")
    assert len(calls) == 4
    assert len(set(calls)) == 4


def test_simulate_without_observability_window_exits_3_and_writes_nothing(tmp_path, capsys):
    # One rank-1 member for two states: no window of the sequence observes the state.
    cfg = write_json(
        tmp_path / "sc.json", minimal_scenario(library_size=1, sequence_policy="uniform")
    )
    outputs = [tmp_path / name for name in ("mc.csv", "meas.jsonl", "est.csv", "runs.jsonl")]
    argv = ["simulate", cfg, str(outputs[0]), "--dump-measurements", str(outputs[1])]
    argv += ["--dump-estimates", str(outputs[2]), "--dump-runs", str(outputs[3])]
    assert main(argv) == 3
    assert "joint full rank" in capsys.readouterr().err
    assert not any(path.exists() for path in outputs)


def test_dump_measurements_builds_no_batch_and_keeps_the_batch_format(tmp_path, monkeypatch):
    # The library members were validated once, so run 0's batches are written
    # without building (and re-validating) a MeasurementBatch per step.
    from wlstrack import estimator, io, simulation

    calls = count_calls(monkeypatch, estimator.MeasurementBatch, "__post_init__")
    path = tmp_path / "sc.json"
    cfg = write_json(path, minimal_scenario(n_runs=2, horizon=6))
    meas = tmp_path / "meas.jsonl"
    assert main(["simulate", cfg, str(tmp_path / "mc.csv"), "--dump-measurements", str(meas)]) == 0
    assert calls == []

    scenario = io.scenario_from_dict(json.loads(path.read_text()))
    ensemble = simulation.build_ensemble(scenario)
    run0 = next(simulation.iter_runs(scenario, keep_details=True, ensemble=ensemble))
    batches = []
    for t, index in enumerate(run0.member_indices, start=1):
        A, Q = ensemble.members[index]
        batches.append(estimator.MeasurementBatch(t, A @ run0.states[t] + run0.noises[t - 1], A, Q))
    expected = tmp_path / "expected.jsonl"
    with open(expected, "w", encoding="utf-8") as fobj:
        io.write_batches_jsonl(batches, fobj)
    assert meas.read_bytes() == expected.read_bytes()


def test_cli_import_does_not_load_scipy():
    code = "import sys, wlstrack.cli; print('scipy' in sys.modules)"
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert result.stdout.strip() == "False"


# --------------------------------------------------------------------- sweep

def test_sweep_single_gamma_matches_simulate(tmp_path):
    cfg = write_json(tmp_path / "sc.json", minimal_scenario())
    sim_out = tmp_path / "sim.csv"
    sweep_out = tmp_path / "sweep.csv"
    assert main(["simulate", cfg, str(sim_out)]) == 0
    assert main(["sweep", cfg, "0.5", str(sweep_out)]) == 0
    sim_rows = [line.split(",") for line in sim_out.read_text().splitlines()[1:]]
    sweep_lines = sweep_out.read_text().splitlines()
    assert sweep_lines[0] == "t,err_gamma_0.5"
    for sim_row, sweep_line in zip(sim_rows, sweep_lines[1:]):
        assert sweep_line.split(",") == [sim_row[0], sim_row[1]]  # mean column


def test_sweep_rejects_bad_gamma_list(tmp_path, capsys):
    cfg = write_json(tmp_path / "sc.json", minimal_scenario())
    assert main(["sweep", cfg, "0.5,-1", str(tmp_path / "out.csv")]) == 2
    assert "positive" in capsys.readouterr().err


# -------------------------------------------------------------------- bounds

def test_bounds_trivial_ensemble_value(tmp_path):
    ens = write_json(tmp_path / "ens.json", {"n_states": 1, "members": [{"A": [[1.0]]}]})
    out = tmp_path / "bounds.csv"
    assert main(["bounds", ens, str(out), "--gamma", "1.0", "--tau", "1"]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "gamma,h_b,h_s"
    gamma, h_b, h_s = (float(v) for v in lines[1].split(","))
    assert gamma == 1.0
    assert h_b == pytest.approx(4.0)  # tau*(dx + c*dn/g)*(1 + g/lambda)
    report = json.loads((tmp_path / "bounds.csv.report.json").read_text())
    assert set(report) == {"bounded", "gaussian"}
    for mode in report.values():
        assert set(mode) == {
            "tau", "psi", "lambda_bar", "c", "capital_c", "m",
            "delta_x", "delta_n", "gamma", "h_b", "h_mu", "h_sigma", "h_s", "gamma_star",
        }


def test_bounds_grid_from_scenario(tmp_path):
    cfg = write_json(tmp_path / "sc.json", minimal_scenario(seed=5))
    out = tmp_path / "bounds.csv"
    assert main(["bounds", cfg, str(out), "--gamma-grid", "0.01", "10", "25"]) == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 26
    gammas = [float(line.split(",")[0]) for line in lines[1:]]
    assert gammas == sorted(gammas)


@pytest.mark.parametrize(
    "bad, message",
    [
        (["--tau", "0"], "tau"),
        (["--tau", "-3"], "tau"),
        (["--delta-x", "0"], "delta_x"),
        (["--delta-x", "nan"], "delta_x"),
        (["--delta-n", "-1"], "delta_n"),
    ],
)
def test_bounds_invalid_input_exits_2_and_writes_nothing(tmp_path, capsys, bad, message):
    ens = write_json(tmp_path / "ens.json", {"n_states": 1, "members": [{"A": [[1.0]]}]})
    out = tmp_path / "bounds.csv"
    assert main(["bounds", ens, str(out), "--gamma-grid", "0.1", "1", "3", *bad]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()
    assert not (tmp_path / "bounds.csv.report.json").exists()


@pytest.mark.parametrize("n_states", [3.9, "3"])
def test_bounds_non_integer_n_states_exits_2(tmp_path, capsys, n_states):
    ens = write_json(tmp_path / "ens.json", {"n_states": n_states, "members": [{"A": np.eye(3).tolist()}]})
    out = tmp_path / "bounds.csv"
    assert main(["bounds", ens, str(out), "--gamma", "1.0", "--tau", "1"]) == 2
    assert "n_states must be an integer" in capsys.readouterr().err
    assert not out.exists()


def test_bounds_rank_deficient_member_exits_3(tmp_path, capsys):
    ens = write_json(
        tmp_path / "ens.json",
        {"n_states": 2, "members": [{"A": [[1.0, 0.0]]}, {"A": [[0.0, 0.0]]}]},
    )
    assert main(["bounds", ens, str(tmp_path / "out.csv"), "--gamma", "1.0", "--tau", "2"]) == 3
    assert "member 1" in capsys.readouterr().err


# ---------------------------------------------------------------- gamma-star

def test_gamma_star_prints_value(tmp_path, capsys):
    cfg = write_json(tmp_path / "sc.json", minimal_scenario())
    assert main(["gamma-star", cfg]) == 0
    value = float(capsys.readouterr().out.strip())
    assert value > 0


def test_gamma_star_gaussian_mode(tmp_path, capsys):
    cfg = write_json(
        tmp_path / "sc.json", minimal_scenario(noise={"kind": "gaussian", "delta_n": 0.25})
    )
    assert main(["gamma-star", cfg, "--mode", "gaussian"]) == 0
    assert float(capsys.readouterr().out.strip()) > 0


# -------------------------------------------------------------------- replay

def batch_line(t, y, A, Q=None, b=None):
    record = {"t": t, "y": y, "A": A}
    if Q is not None:
        record["Q"] = Q
    if b is not None:
        record["b"] = b
    return json.dumps(record)


def test_replay_empty_file(tmp_path):
    src = tmp_path / "meas.jsonl"
    src.write_text("")
    out = tmp_path / "est.csv"
    assert main(["replay", str(src), str(out), "--gamma", "1.0"]) == 0
    assert out.read_text() == "t\n"


def test_replay_scalar_batch(tmp_path):
    src = tmp_path / "meas.jsonl"
    src.write_text(batch_line(1, [1.0], [[1.0]]) + "\n")
    out = tmp_path / "est.csv"
    assert main(["replay", str(src), str(out), "--gamma", "1.0"]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "t,x_hat_1"
    t, value = lines[1].split(",")
    assert t == "1"
    assert float(value) == pytest.approx(0.5, abs=1e-14)


def test_replay_t_regression_exits_2_with_line(tmp_path, capsys):
    src = tmp_path / "meas.jsonl"
    src.write_text(
        "\n".join(
            [
                batch_line(1, [1.0], [[1.0]]),
                batch_line(3, [1.0], [[1.0]]),
                batch_line(2, [1.0], [[1.0]]),
            ]
        )
        + "\n"
    )
    assert main(["replay", str(src), str(tmp_path / "e.csv"), "--gamma", "1.0"]) == 2
    assert "regression" in capsys.readouterr().err


def test_replay_gap_in_t_means_no_measurements(tmp_path):
    # a jump from t=1 to t=3 inserts an implicit empty step: the estimate is
    # carried through unchanged and updated at t=3.
    src = tmp_path / "meas.jsonl"
    src.write_text(batch_line(1, [1.0], [[1.0]]) + "\n" + batch_line(3, [1.0], [[1.0]]) + "\n")
    out = tmp_path / "est.csv"
    assert main(["replay", str(src), str(out), "--gamma", "1.0"]) == 0
    rows = out.read_text().splitlines()[1:]
    assert rows[0].split(",")[0] == "1"
    assert float(rows[0].split(",")[1]) == pytest.approx(0.5, abs=1e-14)
    assert rows[1].split(",")[0] == "3"
    assert float(rows[1].split(",")[1]) == pytest.approx(0.75)  # (0.5 + 1)/2


def test_replay_malformed_line_exits_2(tmp_path, capsys):
    src = tmp_path / "meas.jsonl"
    src.write_text(batch_line(1, [1.0], [[1.0]]) + "\nBAD\n")
    assert main(["replay", str(src), str(tmp_path / "e.csv"), "--gamma", "1.0"]) == 2
    assert "line 2" in capsys.readouterr().err


def test_replay_x0_override(tmp_path):
    src = tmp_path / "meas.jsonl"
    src.write_text(batch_line(1, [0.0], [[0.0, 0.0]]) + "\n")
    out = tmp_path / "est.csv"
    assert main(["replay", str(src), str(out), "--gamma", "1.0", "--x0", "0.25,-0.5"]) == 0
    assert out.read_text().splitlines()[1] == "1,0.25,-0.5"


def test_replay_round_trip_reproduces_simulation(tmp_path):
    cfg = write_json(tmp_path / "sc.json", minimal_scenario(horizon=12, n_runs=1, seed=31))
    meas = tmp_path / "meas.jsonl"
    est = tmp_path / "est.csv"
    replayed = tmp_path / "replayed.csv"
    assert (
        main(
            [
                "simulate", cfg, str(tmp_path / "mc.csv"),
                "--dump-measurements", str(meas),
                "--dump-estimates", str(est),
            ]
        )
        == 0
    )
    assert main(["replay", str(meas), str(replayed), "--gamma", "0.5"]) == 0
    assert replayed.read_bytes() == est.read_bytes()


@pytest.mark.parametrize("gamma", ["1e-08", "1e-10"])
def test_replay_with_gamma_far_below_norm_squared(tmp_path, gamma):
    # 3 measurements of 15 states with ||A||^2 ~ 1e9: the information form
    # J + gamma I is numerically singular, the innovation form is not.
    rng = np.random.default_rng(43)
    x_true = rng.standard_normal(15)
    matrices = [rng.standard_normal((3, 15)) * 1e4 for _ in range(5)]
    src = tmp_path / "meas.jsonl"
    src.write_text(
        "".join(batch_line(t, (A @ x_true).tolist(), A.tolist()) + "\n" for t, A in enumerate(matrices, 1))
    )
    out = tmp_path / "est.csv"
    assert main(["replay", str(src), str(out), "--gamma", gamma]) == 0
    rows = np.loadtxt(out, delimiter=",", skiprows=1)
    assert rows.shape == (5, 16)
    # With gamma this small, each estimate fits its own batch's data.
    for A, row in zip(matrices, rows):
        assert rel_err(A @ row[1:], A @ x_true) < 1e-8


# -------------------------------------------------------------------- verify

def test_verify_passes_on_small_instance(tmp_path, capsys):
    cfg = write_json(tmp_path / "sc.json", minimal_scenario(seed=12345))
    assert main(["verify", cfg]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out
    assert "FAIL" not in out


# ------------------------------------------------------------- determinism

def test_repeated_invocations_are_byte_identical(tmp_path):
    cfg = write_json(tmp_path / "sc.json", minimal_scenario(n_runs=4, horizon=8))
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["simulate", cfg, str(a)]) == 0
    assert main(["simulate", cfg, str(b), "--jobs", "2"]) == 0
    assert a.read_bytes() == b.read_bytes()
    sa, sb = tmp_path / "sa.csv", tmp_path / "sb.csv"
    assert main(["sweep", cfg, "0.25,1", str(sa)]) == 0
    assert main(["sweep", cfg, "0.25,1", str(sb), "--jobs", "2"]) == 0
    assert sa.read_bytes() == sb.read_bytes()
