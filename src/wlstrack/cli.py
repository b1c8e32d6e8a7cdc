"""Command line front end.

Subcommands: simulate, sweep, bounds, gamma-star, replay, verify.
Exit codes: 0 success, 2 configuration/validation error, 3 numerical failure
(non-SPD weighting matrix, rank deficiency), 4 I/O error.  All output is
deterministic given the inputs; seeds live in the scenario files.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import sys

import numpy as np

from . import analysis, io, simulation
from .estimator import EstimatorConfig, EstimatorState, initial_state, update
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
    with open(path, "r", encoding="utf-8") as fobj:
        return json.load(fobj)


def _load_scenario(path: str) -> simulation.ScenarioConfig:
    return io.scenario_from_dict(_load_json(path))


def _probe_tau(scenario: simulation.ScenarioConfig, ensemble) -> int:
    """Observability window of the first run's member sequence."""
    run0 = simulation.seed_for_run(scenario, 0)
    return _sequence_tau(simulation.run_sequence(scenario, ensemble, run0), ensemble)


def _sequence_tau(sequence, ensemble) -> int:
    """Observability window of a member sequence; raises when there is none."""
    tau = analysis.observability_window(sequence, ensemble)
    if tau is None:
        raise np.linalg.LinAlgError(
            "no window of the generated sequence reaches joint full rank; "
            "the error bounds do not apply (try the 'window' sequence policy)"
        )
    return tau


def _parse_gammas(text: str) -> list[float]:
    try:
        gammas = [float(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise ValueError(f"could not parse gamma list {text!r}") from None
    if not gammas:
        raise ValueError("gamma list is empty")
    if any(not np.isfinite(g) or g <= 0 for g in gammas):
        raise ValueError("all gammas must be positive and finite")
    return gammas


def _dump_run0(args, scenario, ensemble, run0) -> None:
    """Write run 0's measurement batches and estimate trajectory, as requested."""
    if args.dump_measurements:
        with open(args.dump_measurements, "w", encoding="utf-8") as fobj:
            io.write_run_measurements_jsonl(run0, ensemble, fobj)
    if args.dump_estimates:
        with open(args.dump_estimates, "w", encoding="utf-8") as fobj:
            io.write_estimates_header(fobj, scenario.n_states)
            for t in range(1, scenario.horizon + 1):
                io.write_estimates_row(fobj, t, run0.estimates[t])


def cmd_simulate(args) -> int:
    scenario = _load_scenario(args.config)
    ensemble = simulation.build_ensemble(scenario)
    # One pass feeds every output; tau comes from run 0 before any file is opened.
    keep_details = bool(args.dump_measurements or args.dump_estimates)
    runs = simulation.iter_runs(
        scenario, n_jobs=args.jobs, keep_details=keep_details, ensemble=ensemble
    )
    run0 = next(runs)
    tau = _sequence_tau(run0.member_indices, ensemble)
    consts = analysis.ensemble_constants(ensemble)
    psi_value = analysis.psi_from_lambda_bar(scenario.gamma, consts.lambda_bar)
    print(
        f"# psi={psi_value:.6g} tau={tau} lambda_bar={consts.lambda_bar:.6g} c={consts.c:.6g}",
        file=sys.stderr,
    )
    _dump_run0(args, scenario, ensemble, run0)
    norms = []
    runs_file = open(args.dump_runs, "w", encoding="utf-8") if args.dump_runs else contextlib.nullcontext()
    with runs_file as runs_out:
        for run in itertools.chain([run0], runs):
            norms.append(run.per_step_error)
            if runs_out:
                io.write_run_results_jsonl([run], runs_out)
    with open(args.out, "w", encoding="utf-8") as fobj:
        io.write_mc_summary_csv(simulation.summarize(norms), fobj)
    return EXIT_OK


def cmd_sweep(args) -> int:
    scenario = _load_scenario(args.config)
    gammas = _parse_gammas(args.gammas)
    summaries = simulation.sweep(scenario, gammas, n_jobs=args.jobs)
    use_rms = scenario.noise.kind == "gaussian"
    with open(args.out, "w", encoding="utf-8") as fobj:
        io.write_sweep_csv(gammas, summaries, fobj, use_rms=use_rms)
    return EXIT_OK


def cmd_bounds(args) -> int:
    payload = _load_json(args.input)
    if isinstance(payload, dict) and "members" in payload:
        ensemble = io.ensemble_from_dict(payload)
        delta_x = 1.0 if args.delta_x is None else args.delta_x
        delta_n = 1.0 if args.delta_n is None else args.delta_n
        if args.tau is not None:
            tau = args.tau
        else:
            round_robin = list(range(len(ensemble.members))) * 3
            tau = analysis.observability_window(round_robin, ensemble)
            if tau is None:
                raise np.linalg.LinAlgError(
                    "round-robin over the ensemble never reaches joint full rank; pass --tau"
                )
    else:
        scenario = io.scenario_from_dict(payload)
        ensemble = simulation.build_ensemble(scenario)
        tau = args.tau if args.tau is not None else _probe_tau(scenario, ensemble)
        delta_x = scenario.delta_x if args.delta_x is None else args.delta_x
        delta_n = scenario.noise.delta_n if args.delta_n is None else args.delta_n
    simulation._check_nonnegative(delta_x, "delta_x")
    simulation._check_nonnegative(delta_n, "delta_n")

    if args.gamma is not None:
        gammas = [args.gamma]
    else:
        lo, hi, count = args.gamma_grid
        if not (0 < lo < hi) or int(count) != count or count < 1:
            raise ValueError("--gamma-grid needs 0 < LO < HI and an integer COUNT >= 1")
        gammas = list(np.geomspace(lo, hi, int(count)))

    # Compute everything before opening OUT, so that rejected input leaves no file behind.
    consts = analysis.ensemble_constants(ensemble)
    h_b = [
        analysis.h_bounded(g, tau, delta_x, consts.c, delta_n, consts.lambda_bar) for g in gammas
    ]
    h_s = [
        analysis.h_stochastic(g, tau, consts.capital_c, consts.m, delta_x, consts.lambda_bar)
        for g in gammas
    ]
    reports = {}
    for mode in ("bounded", "gaussian"):
        star_gamma = args.gamma
        if star_gamma is None:
            if mode == "bounded":
                star = analysis.gamma_star_bounded(consts.c, consts.lambda_bar, delta_n, delta_x)
            else:
                star = analysis.gamma_star_stochastic(
                    tau, consts.capital_c, consts.m, delta_x, consts.lambda_bar
                )
            star_gamma = star if star > 0 else gammas[0]
        reports[mode] = analysis.bound_report(
            ensemble, tau, star_gamma, delta_x, delta_n, noise_mode=mode
        )
    with open(args.out, "w", encoding="utf-8") as fobj:
        io.write_bounds_csv(gammas, h_b, h_s, fobj)
    report_path = args.report if args.report else args.out + ".report.json"
    with open(report_path, "w", encoding="utf-8") as fobj:
        io.write_bound_reports_json(reports, fobj)
    print(f"# report written to {report_path}", file=sys.stderr)
    return EXIT_OK


def cmd_gamma_star(args) -> int:
    scenario = _load_scenario(args.config)
    ensemble = simulation.build_ensemble(scenario)
    consts = analysis.ensemble_constants(ensemble)
    mode = args.mode if args.mode else scenario.noise.kind
    if mode == "bounded":
        star = analysis.gamma_star_bounded(
            consts.c, consts.lambda_bar, scenario.noise.delta_n, scenario.delta_x
        )
    else:
        tau = _probe_tau(scenario, ensemble)
        star = analysis.gamma_star_stochastic(
            tau, consts.capital_c, consts.m, scenario.delta_x, consts.lambda_bar
        )
    print(io.format_float(star))
    return EXIT_OK


def cmd_replay(args) -> int:
    x0 = None
    if args.x0 is not None:
        try:
            x0 = [float(part) for part in args.x0.split(",") if part.strip()]
        except ValueError:
            raise ValueError(f"could not parse --x0 {args.x0!r}") from None
    state: EstimatorState | None = None
    config = None
    with open(args.measurements, "r", encoding="utf-8") as src, open(
        args.out, "w", encoding="utf-8"
    ) as dst:
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
    except (ValueError, KeyError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
