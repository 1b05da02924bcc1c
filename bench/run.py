"""Run one workload of the fuzzcyl benchmark and print its metrics.

    python3 bench/run.py --workload products --seed 1 --seconds 35 --trace 0

It finds the checkout from its own location and imports fuzzcyl from the
checkout's `src`; it exits with status 2, printing no result, when that
source tree is missing.

--trace 0 runs the workload as one closed-loop client for a fixed number of
whole rounds (at least 100 ops), as many as last --seconds on the machine the
workload's round time was measured on, and reports the end-to-end metrics.
Fixing the work rather than the time gives one seed the same ops, and the
same failures, on every run. --trace 1 runs a fixed number of rounds, each
once untraced and once with span tracing of the layer entry points, and
reports the per-layer metrics. --size tiny shrinks every workload for the
smoke test.

Set-up time is measured in fresh processes: from just before the workload
process is started to just before its first timed op. Besides the measured
run, SETUP_PROBES processes build the same inputs and exit; setup_s is the
median of all of them. Every workload process runs with one BLAS thread.

The last stdout line is one JSON object with the keys correct, attempted,
failed and metrics. The line before it holds details: the failing ops by
name, the known defects they stand for, the BLAS thread count and nproc.
`correct` is false when an op fails that is not a known defect.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(HERE, ".work")
WORKLOADS = ("products", "matrix_models", "cli_reports")
SETUP_PROBES = 8
DEADLINE_S = 170.0  # the whole run, set-up probes included, ends within this


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full")
    args = p.parse_args(argv)
    if not 0 < args.seconds <= 120:
        p.error("--seconds must be in (0, 120]")
    return args


def _worker(args, env: dict, deadline: float, workdir: str, setup_only: bool) -> dict:
    os.makedirs(workdir, exist_ok=True)
    cmd = [
        sys.executable, os.path.join(HERE, "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(args.trace), "--size", args.size, "--workdir", workdir,
    ]
    if setup_only:
        cmd.append("--setup-only")
    spawned_at = time.monotonic()
    proc = subprocess.run(
        cmd + ["--spawned-at", repr(spawned_at)],
        env=env, cwd=ROOT, stdout=subprocess.PIPE, timeout=max(1.0, deadline - spawned_at), text=True,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"workload process exited with status {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    args = _parse(argv)
    deadline = time.monotonic() + DEADLINE_S
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "fuzzcyl", "__init__.py")):
        sys.stderr.write(f"no fuzzcyl source tree under {src}; run from a full checkout\n")
        return 2
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    # one BLAS thread, set before numpy loads in the workload process
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")

    workdir = os.path.join(WORK, str(os.getpid()))  # report files of cli_reports
    try:
        probes = [_worker(args, env, deadline, workdir, setup_only=True) for _ in range(SETUP_PROBES)]
        run = _worker(args, env, deadline, workdir, setup_only=False)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        sys.stderr.write(f"benchmark failed: {exc}\n")
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(WORK)  # only when no other run is using it
    if any(p["digest"] != run["digest"] for p in probes):
        sys.stderr.write("set-up probes drew other inputs than the measured run\n")
        return 1

    setup_samples = [p["setup_s"] for p in probes] + [run["setup_s"]]
    metrics = run["metrics"]
    if not args.trace:
        metrics["setup_s"] = {"value": statistics.median(setup_samples), "unit": "s"}
    details = {
        "workload": args.workload,
        "seed": args.seed,
        "size": args.size,
        "trace": args.trace,
        "rounds": run["rounds"],
        "loop_s": run.get("loop_s"),
        "attempted": run["attempted"],
        "failed": run["failed"],
        "fail_ratio": run["failed"] / run["attempted"],
        "failing_ops": run["failures"],
        "known_defects": run["known_defects"],
        "unexpected_failures": run["unexpected"],
        "errors": run["errors"],
        "op_ms_median": run["op_ms_median"],
        "setup_samples_s": setup_samples,
        "inputs_digest": run["digest"],
        "blas_threads": run["blas_threads"],
        "nproc": os.cpu_count(),
    }
    print(json.dumps({"details": details}, sort_keys=True))
    print(json.dumps({
        "correct": not run["unexpected"],
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": metrics,
    }, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
