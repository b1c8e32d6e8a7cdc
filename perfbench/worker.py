"""Benchmark child process: one set-up probe, or one workload's measured run.

    python3 perfbench/worker.py setup WORKLOAD DIR
    python3 perfbench/worker.py run WORKLOAD DIR SECONDS TRACE SEED

Both print one JSON object on stdout.  Nothing but the standard library is
imported before set-up is timed, so the set-up figure covers
`import wlstrack.cli` (numpy and scipy with it) plus loading the inputs.

A run repeats the workload's timed body until SECONDS have been measured.
Rep 0 writes the reference outputs; every later rep must reproduce them
byte for byte, and rep 0's outputs are checked against the plain-numpy
references in oracle.py after the timing ends.  With TRACE=1 untraced and
traced reps alternate, and the traced ones report per-layer figures.
"""

from __future__ import annotations

import filecmp
import json
import os
import resource
import statistics
import sys
import time
import traceback

import inputs as spec
from spans import Recorder

BODY_SPAN = "bench.body"  # root span of a traced rep; its self time is the benchmark's own
NORMAL_EQ_SAMPLES = 25  # stream steps whose normal equations the check re-solves
NORMAL_EQ_TOL = 1e-10  # relative residual allowed there


# ------------------------------------------------------------------ set-up

def setup(workload: str, directory: str) -> float:
    start = time.perf_counter()
    import wlstrack.cli  # noqa: F401  (the program's entry point and everything it imports)
    from wlstrack import estimator, io, simulation

    if workload in ("mc_sweep", "simulate_dump_replay"):
        with open(os.path.join(directory, spec.SCENARIO_FILE), encoding="utf-8") as fobj:
            simulation.build_ensemble(io.scenario_from_dict(json.load(fobj)))
    elif workload == "bounds_n300":
        with open(os.path.join(directory, spec.ENSEMBLE_FILE), encoding="utf-8") as fobj:
            io.ensemble_from_dict(json.load(fobj))
    else:
        estimator.EstimatorConfig(spec.STREAM_GAMMA, spec.STREAM_STATES)
        open(os.path.join(directory, spec.STREAM_FILE), encoding="utf-8").close()
    return time.perf_counter() - start


# ---------------------------------------------------------------- workloads

class Workload:
    """Timed body, file footprint and output check of one workload.

    body(out) writes the outputs into directory `out` and returns per-step
    latency samples in ns, or None.  An operation is one CLI invocation, or
    one streamed batch; a rep that raises or exits non-zero fails all of its
    operations.
    """

    ops = 1
    reads: tuple = ()
    writes: tuple = ()
    useful_steps = 0

    def __init__(self, directory: str, seed: int):
        self.dir = directory
        self.seed = seed

    def path(self, name: str) -> str:
        return os.path.join(self.dir, name)

    def read_paths(self, out: str) -> list[str]:
        return [self.path(name) for name in self.reads]

    def cli(self, *argv) -> None:
        from wlstrack import cli

        rc = cli.main([str(a) for a in argv])
        if rc != 0:
            raise RuntimeError(f"wlstrack {argv[0]} exited with code {rc}")


class McSweep(Workload):
    reads = (spec.SCENARIO_FILE,)
    writes = ("sweep.csv",)
    useful_steps = 5 * spec.SWEEP_RUNS * spec.SCENARIO["horizon"]

    def body(self, out):
        self.cli("sweep", self.path(spec.SCENARIO_FILE), spec.SWEEP_GAMMAS, os.path.join(out, "sweep.csv"), "--jobs", 1)

    def check(self, out, oracle, np):
        table = np.loadtxt(os.path.join(out, "sweep.csv"), delimiter=",", skiprows=1, ndmin=2)
        runs = oracle.scenario_runs(spec.scenario(self.seed, spec.SWEEP_RUNS))
        problems = []
        for col, gamma in enumerate(spec.SWEEP_GAMMAS.split(","), start=1):
            ref = oracle.error_norms(oracle.scenario_estimates(*runs, float(gamma)), runs[2]).mean(axis=0)
            if not oracle.close(table[:, col], ref):
                problems.append(f"sweep column gamma={gamma} differs from the reference")
        return problems


class SimulateDumpReplay(Workload):
    ops = 2
    reads = (spec.SCENARIO_FILE,)
    writes = ("summary.csv", "measurements.jsonl", "estimates.csv", "runs.jsonl", "replay.csv")
    useful_steps = (spec.SIMULATE_RUNS + 1) * spec.SCENARIO["horizon"]

    def read_paths(self, out):
        return super().read_paths(out) + [os.path.join(out, "measurements.jsonl")]

    def body(self, out):
        o = lambda name: os.path.join(out, name)  # noqa: E731
        self.cli(
            "simulate", self.path(spec.SCENARIO_FILE), o("summary.csv"), "--jobs", 1,
            "--dump-measurements", o("measurements.jsonl"), "--dump-estimates", o("estimates.csv"),
            "--dump-runs", o("runs.jsonl"),
        )
        self.cli("replay", o("measurements.jsonl"), o("replay.csv"), "--gamma", repr(spec.SCENARIO["gamma"]))

    def check(self, out, oracle, np):
        o = lambda name: os.path.join(out, name)  # noqa: E731
        close = oracle.close
        problems = []
        if not filecmp.cmp(o("replay.csv"), o("estimates.csv"), shallow=False):
            problems.append("replay output differs from --dump-estimates")
        with open(o("runs.jsonl"), encoding="utf-8") as fobj:
            run_lines = [json.loads(line) for line in fobj]
        if len(run_lines) != spec.SIMULATE_RUNS:
            problems.append(f"--dump-runs has {len(run_lines)} lines, expected {spec.SIMULATE_RUNS}")
        lib, seqs, states, noises = oracle.scenario_runs(spec.scenario(self.seed, spec.SIMULATE_RUNS))
        est = oracle.scenario_estimates(lib, seqs, states, noises, spec.SCENARIO["gamma"])
        norms = oracle.error_norms(est, states)
        summary = np.loadtxt(o("summary.csv"), delimiter=",", skiprows=1, ndmin=2)
        if not (close(summary[:, 1], norms.mean(axis=0)) and close(summary[:, 2], np.sqrt((norms**2).mean(axis=0)))):
            problems.append("summary CSV differs from the reference")
        for i, rec in enumerate(run_lines[: len(norms)]):
            if not (close(rec["per_step_error"], norms[i]) and close(rec["final_estimate"], est[i, -1])
                    and close(rec["final_state"], states[i, -1])):
                problems.append(f"--dump-runs line {i + 1} differs from the reference")
                break
        rows = np.loadtxt(o("estimates.csv"), delimiter=",", skiprows=1, ndmin=2)
        if not close(rows[:, 1:], est[0, 1:]):
            problems.append("--dump-estimates differs from the reference run 0")
        with open(o("measurements.jsonl"), encoding="utf-8") as fobj:
            records = [json.loads(line) for line in fobj]
        if not close([r["A"] for r in records], lib[seqs[0]]):
            problems.append("--dump-measurements matrices differ from the reference run 0")
        return problems


class StreamN400(Workload):
    ops = spec.STREAM_STEPS
    reads = (spec.STREAM_FILE,)
    writes = ("estimates.csv",)
    useful_steps = spec.STREAM_STEPS

    def body(self, out):
        """One closed-loop caller: the next line is handed to io only after
        the previous estimate row has been written."""
        from wlstrack import estimator, io

        samples = []
        clock = time.perf_counter_ns
        with open(self.path(spec.STREAM_FILE), encoding="utf-8") as src, open(
            os.path.join(out, "estimates.csv"), "w", encoding="utf-8"
        ) as dst:
            batches = io.iter_batches_jsonl(src)
            config = state = None
            while True:
                start = clock()
                batch = next(batches, None)
                if batch is None:
                    break
                if state is None:
                    config = estimator.EstimatorConfig(spec.STREAM_GAMMA, batch.n_states)
                    state = estimator.initial_state(batch.n_states)
                    io.write_estimates_header(dst, batch.n_states)
                state = estimator.update(state, batch, config)
                io.write_estimates_row(dst, state.t, state.x_hat)
                samples.append(clock() - start)
        if len(samples) != spec.STREAM_STEPS:
            raise RuntimeError(f"stream gave {len(samples)} estimates, expected {spec.STREAM_STEPS}")
        return samples

    def check(self, out, oracle, np):
        problems = []
        replay = os.path.join(out, "replay_reference.csv")
        self.cli("replay", self.path(spec.STREAM_FILE), replay, "--gamma", repr(spec.STREAM_GAMMA))
        if not filecmp.cmp(replay, os.path.join(out, "estimates.csv"), shallow=False):
            problems.append("stream loop output differs from wlstrack replay")
        os.remove(replay)
        rng = np.random.default_rng([self.seed, 3])
        steps = set(rng.choice(np.arange(1, spec.STREAM_STEPS + 1), NORMAL_EQ_SAMPLES, replace=False).tolist())
        rows = np.loadtxt(os.path.join(out, "estimates.csv"), delimiter=",", skiprows=1, ndmin=2)
        estimates = np.vstack([np.zeros(spec.STREAM_STATES), rows[:, 1:]])
        with open(self.path(spec.STREAM_FILE), encoding="utf-8") as fobj:
            for t, line in enumerate(fobj, start=1):
                if t in steps:
                    res = oracle.normal_equation_residual(json.loads(line), estimates[t - 1], estimates[t], spec.STREAM_GAMMA)
                    if not res < NORMAL_EQ_TOL:
                        problems.append(f"normal equations fail at step {t} (relative residual {res:.3g})")
        return problems


class BoundsN300(Workload):
    reads = (spec.ENSEMBLE_FILE,)
    writes = ("bounds.csv", "report.json")
    useful_steps = int(spec.BOUNDS_GRID[2])  # gamma grid points, one output row each

    def body(self, out):
        self.cli(
            "bounds", self.path(spec.ENSEMBLE_FILE), os.path.join(out, "bounds.csv"),
            "--gamma-grid", *spec.BOUNDS_GRID, "--report", os.path.join(out, "report.json"),
        )

    def check(self, out, oracle, np):
        close = oracle.close
        with open(self.path(spec.ENSEMBLE_FILE), encoding="utf-8") as fobj:
            consts = oracle.bound_constants(json.load(fobj))
        problems = []
        table = np.loadtxt(os.path.join(out, "bounds.csv"), delimiter=",", skiprows=1, ndmin=2)
        grid = np.geomspace(float(spec.BOUNDS_GRID[0]), float(spec.BOUNDS_GRID[1]), int(spec.BOUNDS_GRID[2]))
        if not (close(table[:, 0], grid) and close(table[:, 1], oracle.h_bounded(grid, consts, 1.0, 1.0))
                and close(table[:, 2], oracle.h_stochastic(grid, consts, 1.0))):
            problems.append("bounds CSV differs from the reference")
        with open(os.path.join(out, "report.json"), encoding="utf-8") as fobj:
            reports = json.load(fobj)
        if set(reports) != {"bounded", "gaussian"}:
            return problems + [f"report modes {sorted(reports)}, expected bounded and gaussian"]
        for mode, report in reports.items():
            for key, value in oracle.bound_report(report["gamma"], consts, 1.0, 1.0).items():
                if not close(report[key], value):
                    problems.append(f"{mode} report {key}: {report[key]!r}, reference {float(value)!r}")
        if not close(reports["bounded"]["gamma_star"], np.sqrt(consts["c"] * consts["lambda_bar"])):
            problems.append("bounded gamma_star differs from sqrt(c lambda_bar delta_n / delta_x)")
        dense = np.geomspace(1e-3, 1e3, 10_001)
        h_star = oracle.h_stochastic(reports["gaussian"]["gamma_star"], consts, 1.0)
        if not h_star <= oracle.h_stochastic(dense, consts, 1.0).min() * (1 + oracle.RTOL):
            problems.append("gaussian gamma_star does not minimize h_s over [1e-3, 1e3]")
        return problems


WORKLOADS = {
    "mc_sweep": McSweep,
    "simulate_dump_replay": SimulateDumpReplay,
    "stream_n400": StreamN400,
    "bounds_n300": BoundsN300,
}


# ---------------------------------------------------------------- metrics

def end_to_end(wl: Workload, walls: list, samples: list) -> tuple[dict, dict]:
    wall = statistics.median(walls)
    if samples:
        # Percentiles per rep, then the median over reps, so that a burst of
        # host load during one rep does not set the run's tail.
        per_rep = [[s * 1e-6 for s in rep] for rep in samples]
        p50 = statistics.median(statistics.median(rep) for rep in per_rep)
        p99 = statistics.median(statistics.quantiles(rep, n=100)[98] for rep in per_rep)
        basis = f"{len(per_rep)} reps of {len(per_rep[0])} per-batch samples, {len(per_rep[0]) // 100} beyond p99 in each"
    else:
        # A batch workload has one sample per rep: its mean time per useful step.
        per_step = [w * 1e3 / wl.useful_steps for w in walls]
        p50, p99 = statistics.median(per_step), max(per_step)
        basis = f"{len(per_step)} per-rep mean step times; p99 is their maximum"
    metrics = {
        "wall_s": (wall, "s"),
        "steps_per_s": (wl.useful_steps / wall, "1/s"),
        "step_latency_p50_ms": (p50, "ms"),
        "step_latency_p99_ms": (p99, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    return metrics, {"latency_basis": basis, "useful_steps_per_rep": wl.useful_steps}


LAYER_SPANS = (
    "estimator.update", "estimator.MeasurementBatch", "estimator.information_matrix", "estimator.lambda_matrix",
    "simulation.generate_sequence", "simulation.simulate_run", "simulation.monte_carlo",
    "simulation.generate_trajectory", "simulation.generate_noise",
    "analysis.smallest_nonzero_eig", "analysis.ensemble_constants", "analysis.psi",
    "analysis.observability_window", "analysis.bound_report", "analysis.gamma_star_stochastic",
    "io.iter_batches_jsonl", "io.batch_from_dict", "io.ensemble_from_dict", "io.write_estimates_row",
)
_NO_SPAN = {"calls": 0, "total_s": 0.0, "self_s": 0.0}


def layer_figures(recorder: Recorder, wall: float) -> dict:
    """Per-layer figures of one traced rep (see BENCHMARK.json for the list)."""
    summary = recorder.summary()
    row = lambda name: summary.get(name, _NO_SPAN)  # noqa: E731
    fig = {}
    for name in LAYER_SPANS:
        fig[f"{name}.calls"] = row(name)["calls"]
        fig[f"{name}.self_s"] = row(name)["self_s"]
    update = row("estimator.update")
    fig["estimator.update.us_per_call"] = update["total_s"] * 1e6 / update["calls"] if update["calls"] else 0.0
    sequences = row("simulation.generate_sequence")["calls"]
    fig["simulation.generate_sequence.svd_calls"] = recorder.count("svd", "simulation.generate_sequence")
    fig["simulation.generate_sequence.svd_per_100_runs"] = (
        100.0 * fig["simulation.generate_sequence.svd_calls"] / sequences if sequences else 0.0
    )
    fig["analysis.observability_window.svd_calls"] = recorder.count("svd", "analysis.observability_window")
    fig["analysis.smallest_nonzero_eig.eigvalsh_calls"] = recorder.count("eigvalsh", "analysis.smallest_nonzero_eig")
    fig["io.write.self_s"] = sum(
        v["self_s"] for k, v in summary.items() if k.startswith("io.write_") and k != "io.write_estimates_row"
    )
    fig["cli.main.self_s"] = row("cli.main")["self_s"]
    fig["trace.wall_s"] = wall
    fig["trace.unattributed_s"] = row(BODY_SPAN)["self_s"]
    fig["trace.remainder_s"] = wall - sum(v["self_s"] for v in summary.values())
    return fig


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("us_per_call"):
        return "us"
    return "B" if name.startswith("io.bytes") else "count"


def per_layer(wl: Workload, out: str, figures: list, untraced_walls: list) -> dict:
    """Medians over the traced reps, plus file sizes and the tracing overhead."""
    m = {key: (statistics.median(f[key] for f in figures), _unit(key)) for key in figures[0]}
    m["io.bytes_read"] = (sum(os.path.getsize(p) for p in wl.read_paths(out)), "B")
    m["io.bytes_written"] = (sum(os.path.getsize(os.path.join(out, f)) for f in wl.writes), "B")
    m["trace.overhead_s"] = (m["trace.wall_s"][0] - statistics.median(untraced_walls), "s")
    return m


# ------------------------------------------------------------------- stamp

def environment() -> dict:
    import ctypes
    import glob

    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = os.environ.get("OPENBLAS_NUM_THREADS")
    libs = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs", "libscipy_openblas*.so")
    for lib in glob.glob(libs):
        try:
            threads = int(ctypes.CDLL(lib).scipy_openblas_get_num_threads64_())
        except (OSError, AttributeError):
            pass
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fobj:
            cpu = next((line.split(":", 1)[1].strip() for line in fobj if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
    }


# --------------------------------------------------------------------- run

def run(workload: str, directory: str, seconds: float, trace: bool, seed: int) -> dict:
    import numpy as np

    import oracle
    import wlstrack
    from wlstrack import analysis, cli, estimator, io, simulation

    expected = os.path.realpath(os.path.join("src", "wlstrack"))
    if os.path.dirname(os.path.realpath(wlstrack.__file__)) != expected:
        raise RuntimeError(f"imported wlstrack from {wlstrack.__file__}, not from {expected}")
    modules = {"estimator": estimator, "simulation": simulation, "analysis": analysis, "io": io, "cli": cli}
    wl = WORKLOADS[workload](directory, seed)
    ref_out, cur_out = os.path.join(directory, "out_ref"), os.path.join(directory, "out_cur")
    os.makedirs(ref_out)
    os.makedirs(cur_out)

    attempted = failed = 0
    walls, samples, figures = [], [], []
    measured = 0.0
    while not walls or measured < seconds or (trace and not figures):
        recorder = Recorder() if trace and len(walls) > len(figures) else None
        out = cur_out if walls else ref_out
        ok = True
        if recorder:
            recorder.install(modules, np.linalg)
        start = time.perf_counter()
        try:
            if recorder:
                with recorder.span(BODY_SPAN):
                    rep_samples = wl.body(out)
            else:
                rep_samples = wl.body(out)
        except Exception:  # a failing rep is counted, and the run goes on
            traceback.print_exc()
            ok = False
        finally:
            wall = time.perf_counter() - start
            if recorder:
                recorder.uninstall()
        measured += wall
        if ok and out == cur_out:
            try:
                same = all(filecmp.cmp(os.path.join(ref_out, f), os.path.join(cur_out, f), shallow=False) for f in wl.writes)
            except OSError:
                same = False
            if not same:
                print(f"rep {len(walls) + len(figures)} outputs differ from rep 0", file=sys.stderr)
                ok = False
        attempted += wl.ops
        failed += 0 if ok else wl.ops
        if recorder:
            figures.append(layer_figures(recorder, wall))
        else:
            walls.append(wall)
            if ok and rep_samples:
                samples.append(rep_samples)

    metrics, detail = end_to_end(wl, walls, samples)
    try:
        problems = wl.check(ref_out, oracle, np)
    except Exception as exc:  # unreadable or missing outputs fail the check
        problems = [f"check raised {exc!r}"]
    if problems:
        print("output check failed: " + "; ".join(problems), file=sys.stderr)
        failed = attempted
    if trace:
        metrics = per_layer(wl, ref_out, figures, walls)
    detail.update(
        reps=len(walls), traced_reps=len(figures), rep_wall_s=walls, error_rate=failed / attempted,
        check_problems=problems, env=environment(),
    )
    return {"attempted": attempted, "failed": failed, "metrics": metrics, "detail": detail}


def main(argv: list[str]) -> int:
    mode, workload, directory = argv[:3]
    if mode == "setup":
        print(json.dumps({"setup_s": setup(workload, directory)}))
    else:
        seconds, trace, seed = float(argv[3]), argv[4] == "1", int(argv[5])
        print(json.dumps(run(workload, directory, seconds, trace, seed)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
