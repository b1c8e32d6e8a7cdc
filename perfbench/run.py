"""wlstrack benchmark: four workloads through the public entry points.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the repository root; the program is imported from ./src.  The
last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics.  The lines before it give the environment stamp and
details (rep count, latency sample count, error rate).  With --trace 0 the
metrics are the end-to-end ones; with --trace 1 they are the per-layer
figures of the traced reps (see BENCHMARK.json for both lists).

Workloads (all single-process, --jobs 1, one closed-loop caller, BLAS
pinned to one thread):

  mc_sweep              wlstrack sweep: acceptance scenario, 5 gammas x 40 runs
  simulate_dump_replay  wlstrack simulate with all dump flags (50 runs), then replay
  stream_n400           1000 JSON-lines batches (N=400, M=5) through io and update
  bounds_n300           wlstrack bounds on a 40-member N=300, M=10 ensemble

Each run writes its seeded inputs to .perfbench-work/ under the current
directory, times set-up in several fresh interpreters, runs the workload in
one more fresh interpreter for --seconds of measured time, checks the
outputs, and removes its files again.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys

import inputs

SETUP_SAMPLES = 5  # fresh-interpreter set-ups per run, after one warm-up
CHILD_TIMEOUT_S = 150  # run time limit of the workload interpreter
HERE = os.path.dirname(os.path.abspath(__file__))


def source_stamp(root: str) -> dict:
    """Git commit when the checkout has one, and a digest of src/ either way."""
    digest = hashlib.sha256()
    src = os.path.join(root, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as fobj:
                    digest.update(fobj.read())
    commit = "unknown (not a git checkout)"
    head = os.path.join(root, ".git", "HEAD")
    if os.path.isfile(head):
        with open(head, encoding="utf-8") as fobj:
            ref = fobj.read().strip()
        commit = ref
        if ref.startswith("ref: "):
            ref_path = os.path.join(root, ".git", ref[5:])
            if os.path.isfile(ref_path):
                with open(ref_path, encoding="utf-8") as fobj:
                    commit = fobj.read().strip()
    return {"git_commit": commit, "src_sha256": digest.hexdigest()}


def child(args: list[str], env: dict, timeout: float) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "worker.py"), *args],
        env=env, capture_output=True, text=True, timeout=timeout,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"worker {args[0]} exited with code {proc.returncode}")
    if proc.stderr.strip():
        sys.stderr.write(proc.stderr)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=["mc_sweep", "simulate_dump_replay", "stream_n400", "bounds_n300"])
    parser.add_argument("--seed", type=int, default=20260808)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "wlstrack", "cli.py")):
        print("run from the root of a wlstrack checkout: src/wlstrack/cli.py not found", file=sys.stderr)
        return 2
    work = os.path.join(root, ".perfbench-work", f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(work)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src") + os.pathsep + HERE
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    try:
        inputs.write_inputs(args.workload, args.seed, work)
        setups = [child(["setup", args.workload, work], env, 60)["setup_s"] for _ in range(SETUP_SAMPLES + 1)][1:]
        result = child(
            ["run", args.workload, work, str(args.seconds), str(args.trace), str(args.seed)], env, CHILD_TIMEOUT_S
        )
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work))
        except OSError:
            pass

    detail = result["detail"]
    detail["env"].update(source_stamp(root))
    detail["setup_samples_s"] = setups
    metrics = result["metrics"]
    if not args.trace:
        metrics["setup_s"] = (statistics.median(setups), "s")
    print("env " + json.dumps(detail.pop("env"), sort_keys=True))
    print("detail " + json.dumps(detail, sort_keys=True))
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
