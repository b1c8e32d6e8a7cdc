"""Command line front end.

Subcommands: simulate, sweep, bounds, gamma-star, replay, verify.
Exit codes: 0 success, 2 configuration/validation error, 3 numerical failure
(non-SPD weighting matrix, rank deficiency, floating-point overflow), 4 I/O
error.  All output is deterministic given the inputs; seeds live in the
scenario files.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import os
import sys

import numpy as np
import orjson

from . import analysis, io, simulation
from .estimator import (
    EstimatorConfig,
    EstimatorState,
    _as_float_array,
    _check_gamma,
    _check_int,
    initial_state,
    update,
)
from .verification import run_verification

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_IO = 4

JOBS_HELP = (
    "accepted for compatibility (an integer >= 1); the runs are stepped together in one "
    "process, so the count does not change the execution, and results never depended on it"
)


def _load_json(path: str):
    """The JSON document in file `path`; ValueError naming the file when it
    is not one (orjson reads the bytes and checks their UTF-8 itself)."""
    with open(path, "rb") as fobj:
        data = fobj.read()
    try:
        return orjson.loads(data)
    except orjson.JSONDecodeError as exc:
        raise ValueError(f"malformed JSON in {path!r}: {exc}") from exc


def _load_scenario(path: str) -> simulation.ScenarioConfig:
    return io.scenario_from_dict(_load_json(path))


NO_WINDOW = (
    "no window of the generated sequence reaches joint full rank; "
    "the error bounds do not apply (try the 'window' sequence policy)"
)


def _tau(sequence, ensemble, advice: str = NO_WINDOW) -> int:
    """Observability window of a member sequence; LinAlgError(advice) when there is none."""
    tau = analysis.observability_window(sequence, ensemble)
    if tau is None:
        raise np.linalg.LinAlgError(advice)
    return tau


def _parse_floats(text: str, what: str) -> list[float]:
    """The floats of a comma-separated list (empty items skipped); ValueError naming `what` otherwise."""
    try:
        return [float(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise ValueError(f"could not parse {what} {text!r}") from None


def _parse_gammas(text: str) -> list[float]:
    gammas = _parse_floats(text, "gamma list")
    if not gammas:
        raise ValueError("gamma list is empty")
    if any(not np.isfinite(g) or g <= 0 for g in gammas):
        raise ValueError("all gammas must be positive and finite")
    return gammas


def cmd_simulate(args) -> int:
    paths = (args.out, args.dump_measurements, args.dump_estimates, args.dump_runs)
    with _replacing(*paths, source=args.config) as (out, meas_out, est_out, runs_out):
        scenario = _load_scenario(args.config)
        _check_int(args.jobs, "n_jobs", 1)
        ensemble = simulation.build_ensemble(scenario)
        # One pass feeds every output.  Only run 0's details are written, so only run 0 keeps them.
        seeds = [simulation.seed_for_run(scenario, i) for i in range(scenario.n_runs)]
        keep_details = bool(meas_out or est_out)
        run0 = simulation.simulate_run(scenario, seeds[0], ensemble, keep_details=keep_details)
        runs = simulation._runs(scenario, ensemble, seeds[1:])
        tau = _tau(run0.member_indices, ensemble)
        consts = analysis.ensemble_constants(ensemble)
        psi_value = analysis.psi_from_lambda_bar(scenario.gamma, consts.lambda_bar)
        print(
            f"# psi={psi_value:.6g} tau={tau} lambda_bar={consts.lambda_bar:.6g} c={consts.c:.6g}",
            file=sys.stderr,
        )
        if meas_out:
            io.write_run_measurements_jsonl(run0, ensemble, meas_out)
        if est_out:
            io.write_estimates_header(est_out, scenario.n_states)
            for t in range(1, scenario.horizon + 1):
                io.write_estimates_row(est_out, t, run0.estimates[t])
        norms = []
        for run in itertools.chain([run0], runs):
            norms.append(run.per_step_error)
            if runs_out:
                io.write_run_results_jsonl([run], runs_out)
        summary = simulation.summarize(norms)
        steps = range(1, scenario.horizon + 1)
        io.write_table(out, ["t", "mean_error", "rms_error"], [steps, summary.mean_error, summary.rms_error])
    return EXIT_OK


def cmd_sweep(args) -> int:
    with _replacing(args.out, source=args.config) as (out,):
        scenario = _load_scenario(args.config)
        gammas = _parse_gammas(args.gammas)
        summaries = simulation.sweep(scenario, gammas, n_jobs=args.jobs)
        # A gamma is named in 6 significant digits where they read back as it, else by its repr.
        header = ["t"] + [f"err_gamma_{g:g}" if float(f"{g:g}") == g else f"err_gamma_{g!r}" for g in gammas]
        gaussian = scenario.noise.kind == "gaussian"  # RMS error for Gaussian noise, else mean error
        columns = [s.rms_error if gaussian else s.mean_error for s in summaries]
        io.write_table(out, header, [range(1, scenario.horizon + 1), *columns])
    return EXIT_OK


def cmd_bounds(args) -> int:
    report_path = args.report if args.report else args.out + ".report.json"
    with _replacing(args.out, report_path, source=args.input) as (out, report_out):
        payload = _load_json(args.input)
        tau = args.tau
        if io.is_ensemble_dict(payload):
            ensemble = io.ensemble_from_dict(payload)
            delta_x = 1.0 if args.delta_x is None else args.delta_x
            delta_n = 1.0 if args.delta_n is None else args.delta_n
            if tau is None:
                advice = "round-robin over the ensemble never reaches joint full rank; pass --tau"
                tau = _tau(list(range(len(ensemble))) * 3, ensemble, advice)
        else:
            scenario = io.scenario_from_dict(payload)
            ensemble = simulation.build_ensemble(scenario)
            if tau is None:
                # Run 0's window stands for the scenario's.
                seed0 = simulation.seed_for_run(scenario, 0)
                tau = _tau(simulation.run_sequence(scenario, ensemble, seed0), ensemble)
            delta_x = scenario.delta_x if args.delta_x is None else args.delta_x
            delta_n = scenario.noise.delta_n if args.delta_n is None else args.delta_n
        simulation._check_nonnegative(delta_x, "delta_x")
        simulation._check_nonnegative(delta_n, "delta_n")

        if args.gamma is not None:
            gammas = [args.gamma]
        else:
            lo, hi, count = args.gamma_grid
            if not (np.isfinite(args.gamma_grid).all() and 0 < lo < hi and int(count) == count >= 1):
                raise ValueError("--gamma-grid needs 0 < LO < HI and an integer COUNT >= 1")
            gammas = list(np.geomspace(lo, hi, int(count)))

        consts = analysis.ensemble_constants(ensemble)
        lb = consts.lambda_bar
        h_b = [analysis.h_bounded(g, tau, delta_x, consts.c, delta_n, lb) for g in gammas]
        h_s = [analysis.h_stochastic(g, tau, consts.capital_c, consts.m, delta_x, lb) for g in gammas]
        reports = {}
        for mode in ("bounded", "gaussian"):
            # --gamma (h_b rejected any but a positive one), else gamma*,
            # else gammas[0] when gamma* is 0.
            gamma = args.gamma or analysis.gamma_star(mode, consts, delta_x, delta_n) or gammas[0]
            reports[mode] = analysis.bound_report(ensemble, tau, gamma, delta_x, delta_n, mode)
        io.write_table(out, ["gamma", "h_b", "h_s"], [gammas, h_b, h_s])
        io.write_bound_reports_json(reports, report_out)
    print(f"# report written to {report_path}", file=sys.stderr)
    return EXIT_OK


def cmd_gamma_star(args) -> int:
    scenario = _load_scenario(args.config)
    consts = analysis.ensemble_constants(simulation.build_ensemble(scenario))
    mode = args.mode if args.mode else scenario.noise.kind
    star = analysis.gamma_star(mode, consts, scenario.delta_x, scenario.noise.delta_n)
    print(io.format_float(star))
    return EXIT_OK


@contextlib.contextmanager
def _replacing(*paths, source=None):
    """Text files open for writing beside each of `paths` (an absent output,
    None or empty, yields None).  All are opened before the block runs, moved
    onto their paths when it completes and removed when it raises, so a failed
    command leaves every path as it was.  Two paths that resolve to one file,
    or a path that resolves to the command's input file `source`, are a
    ValueError before anything is opened, and an OSError in opening or moving
    a file names its path, not the temporary file's."""
    seen = {}
    for path in filter(None, paths):
        key = os.path.realpath(path)
        if key in seen:
            raise ValueError(f"outputs {seen[key]!r} and {path!r} are the same file")
        seen[key] = path
    if source and os.path.realpath(source) in seen:
        raise ValueError(f"output {seen[os.path.realpath(source)]!r} is the input {source!r}")
    made = []  # (temporary, final) path of every file opened here
    try:
        with contextlib.ExitStack() as stack:
            files = []
            for path in paths:
                if not path:
                    files.append(None)
                    continue
                tmp = f"{path}.{os.getpid()}.tmp"
                with _naming(path):
                    files.append(stack.enter_context(open(tmp, "x", encoding="utf-8")))
                made.append((tmp, path))
            yield files
        for tmp, path in made:
            with _naming(path):
                os.replace(tmp, path)
    except BaseException:
        for tmp, _ in made:
            with contextlib.suppress(OSError):
                os.unlink(tmp)
        raise


@contextlib.contextmanager
def _naming(path):
    """Re-raise an OSError of the block with `path` as its file name."""
    try:
        yield
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, path) from None


def cmd_replay(args) -> int:
    # Check the options before any file is opened, so that rejected input writes nothing.
    _check_gamma(args.gamma)
    x0 = None
    if args.x0 is not None:
        x0 = _as_float_array(_parse_floats(args.x0, "--x0"), "x0", 1)
    state: EstimatorState | None = None
    config = None
    with _replacing(args.out, source=args.measurements) as (dst,), open(args.measurements, encoding="utf-8") as src:
        for batch in io.iter_batches_jsonl(src):
            if state is None:
                n = batch.n_states
                if x0 is not None and len(x0) != n:
                    raise ValueError(f"--x0 has length {len(x0)}, measurements have {n} states")
                state = initial_state(n, x0)
                config = EstimatorConfig(args.gamma, n)
                io.write_estimates_header(dst, n)
            if batch.t <= state.t:
                raise ValueError(
                    f"t regression: batch t={batch.t} after t={state.t} (input must be strictly increasing)"
                )
            if batch.t > state.t + 1:
                # Steps with no reported measurements leave the estimate unchanged.
                state = EstimatorState(state.x_hat, batch.t - 1)
            state = update(state, batch, config)
            io.write_estimates_row(dst, state.t, state.x_hat)
        if state is None:
            if x0 is not None:
                io.write_estimates_header(dst, len(x0))
            else:
                dst.write("t\n")
    return EXIT_OK


def cmd_verify(args) -> int:
    scenario = _load_scenario(args.config)
    checks = run_verification(seed=scenario.seed, gamma=scenario.gamma)
    all_ok = True
    for name, passed, detail in checks:
        print(f"{'PASS' if passed else 'FAIL'} {name} ({detail})")
        all_ok = all_ok and passed
    return EXIT_OK if all_ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wlstrack",
        description="Online regularized weighted-least-squares state tracking tools",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run a Monte Carlo scenario, write per-step error CSV")
    p.add_argument("config", help="scenario JSON path")
    p.add_argument("out", help="output CSV path (t,mean_error,rms_error)")
    p.add_argument("--jobs", type=int, default=1, help=JOBS_HELP)
    p.add_argument("--dump-measurements", help="also dump run 0's measurement batches as JSON-lines")
    p.add_argument("--dump-estimates", help="also dump run 0's estimate trajectory as CSV")
    p.add_argument("--dump-runs", help="also dump every run's error trajectory as JSON-lines")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("sweep", help="run the scenario once per gamma, write a wide error CSV")
    p.add_argument("config", help="scenario JSON path")
    p.add_argument("gammas", help="comma-separated gamma values")
    p.add_argument("out", help="output CSV path (t,err_gamma_<g>,...)")
    p.add_argument("--jobs", type=int, default=1, help=JOBS_HELP)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("bounds", help="evaluate the error bounds over a gamma grid")
    p.add_argument("input", help="ensemble or scenario JSON path")
    p.add_argument("out", help="output CSV path (gamma,h_b,h_s)")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--gamma", type=float, help="single gamma value")
    group.add_argument(
        "--gamma-grid",
        nargs=3,
        type=float,
        metavar=("LO", "HI", "COUNT"),
        help="log-spaced gamma grid",
    )
    p.add_argument("--delta-x", type=float, help="state-variation scale (default: scenario's, or 1)")
    p.add_argument("--delta-n", type=float, help="noise scale (default: scenario's, or 1)")
    p.add_argument("--tau", type=int, help="observability window (default: computed)")
    p.add_argument("--report", help="bound report JSON path (default: OUT.report.json)")
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("gamma-star", help="print the bound-optimal inertia weight")
    p.add_argument("config", help="scenario JSON path")
    p.add_argument("--mode", choices=["bounded", "gaussian"], help="noise mode (default: scenario's)")
    p.set_defaults(func=cmd_gamma_star)

    p = sub.add_parser("replay", help="stream recorded measurement batches through the estimator")
    p.add_argument("measurements", help="JSON-lines measurement file")
    p.add_argument("out", help="output CSV path (t,x_hat_1,...,x_hat_N)")
    p.add_argument("--gamma", type=float, required=True, help="inertia weight")
    p.add_argument("--x0", help="comma-separated initial estimate (default: zeros)")
    p.set_defaults(func=cmd_replay)

    p = sub.add_parser("verify", help="run the numerical invariant suite on a small instance")
    p.add_argument("config", help="scenario JSON path (provides seed and gamma)")
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except np.linalg.LinAlgError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except OverflowError as exc:
        print(f"numerical error: floating-point overflow: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (ValueError, KeyError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
