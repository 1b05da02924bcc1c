"""Workload process of the fuzzcyl benchmark; run.py starts it.

It imports fuzzcyl from the checkout's `src`, builds the workload's inputs
from the seed, then either reports its set-up time and exits
(--setup-only), runs the timed closed loop (--trace 0), or runs the traced
pass (--trace 1). It prints one JSON object on its last stdout line.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import resource
import sys
import time
from collections import Counter

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
MIN_OPS = 100  # a run holds at least this many ops, so ten or more lie beyond p90


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--size", choices=("full", "tiny"), required=True)
    p.add_argument("--spawned-at", type=float, required=True, help="time.monotonic() when run.py started us")
    p.add_argument("--workdir", required=True)
    p.add_argument("--setup-only", action="store_true")
    return p.parse_args(argv)


def blas_threads() -> int | None:
    """Thread count reported by the OpenBLAS that numpy loaded, if it can be found."""
    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                return int(getter())
    return None


class Client:
    """One closed-loop client: runs ops in order and keeps the tally."""

    def __init__(self) -> None:
        self.latencies: list[float] = []
        self.by_name: dict[str, list[float]] = {}
        self.attempted = 0
        self.failures: Counter = Counter()
        self.errors: dict[str, str] = {}

    @property
    def failed(self) -> int:
        return sum(self.failures.values())

    def run(self, ops, record=None) -> float:
        """Run ops one after another; return the summed time inside op.run."""
        busy = 0.0
        for op in ops:
            call = op.run if record is None else (lambda op=op: record(op))
            t0 = time.perf_counter()
            try:
                result = call()
            except Exception as exc:  # a raising op is a failed op; the loop goes on
                elapsed = time.perf_counter() - t0
                ok = False
                self.errors.setdefault(op.name, f"{type(exc).__name__}: {exc}"[:200])
            else:
                elapsed = time.perf_counter() - t0
                try:
                    ok = bool(op.check(result))
                except Exception as exc:
                    ok = False
                    self.errors.setdefault(op.name, f"check {type(exc).__name__}: {exc}"[:200])
            busy += elapsed
            self.latencies.append(elapsed)
            self.by_name.setdefault(op.name, []).append(elapsed)
            self.attempted += 1
            if not ok:
                self.failures[op.name] += 1
        return busy


def _percentile(values: list[float], q: float) -> float:
    return float(np.percentile(np.asarray(values), q))


def main(argv=None) -> int:
    args = _parse(argv)
    sys.path.insert(0, SRC)
    import fuzzcyl

    if not os.path.abspath(fuzzcyl.__file__).startswith(SRC + os.sep):
        sys.stderr.write(f"fuzzcyl was imported from {fuzzcyl.__file__}, not from the checkout's src\n")
        return 2
    import workloads

    workload = workloads.build(args.workload, args.seed, args.size, args.workdir)
    first_round = workload.make_round(0)
    setup_s = time.monotonic() - args.spawned_at
    out = {"setup_s": setup_s, "digest": workloads.inputs_digest(first_round)}
    if not args.setup_only:
        client = Client()
        if args.trace:
            out.update(_traced(workload, client, first_round))
        else:
            out.update(_timed(workload, client, first_round, args.seconds))
        known = workloads.KNOWN_DEFECTS.get(args.workload, {})
        out.update(
            attempted=client.attempted,
            failed=client.failed,
            failures=dict(sorted(client.failures.items())),
            unexpected=sorted(n for n in client.failures if n not in known),
            errors=client.errors,
            known_defects={n: why for n, why in known.items() if n in client.failures},
            op_ms_median={n: 1e3 * _percentile(v, 50) for n, v in client.by_name.items()},
            blas_threads=blas_threads(),
        )
    print(json.dumps(out, sort_keys=True))
    return 0


def _timed(workload, client: Client, first_round, seconds: float) -> dict:
    """A fixed number of whole rounds: `seconds` / workload.round_s, and at least MIN_OPS ops.

    The run is fixed in work, not in time, so one seed gives the same ops,
    and the same failures, on every run; it lasts about `seconds` on a
    machine as fast as the one round_s was measured on.
    """
    rounds = max(1, round(seconds / workload.round_s))
    rounds = max(rounds, -(-MIN_OPS // len(first_round)))
    start = time.perf_counter()
    client.run(first_round)
    for index in range(1, rounds):
        client.run(workload.make_round(index))
    loop_s = time.perf_counter() - start
    passed = client.attempted - client.failed
    return {
        "rounds": rounds,
        "loop_s": loop_s,
        "metrics": {
            "ops_per_s": {"value": passed / loop_s, "unit": "ops/s"},
            "op_ms_p50": {"value": 1e3 * _percentile(client.latencies, 50), "unit": "ms"},
            "op_ms_p90": {"value": 1e3 * _percentile(client.latencies, 90), "unit": "ms"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "unit": "MB"},
            "pass_ratio": {"value": passed / client.attempted, "unit": "ratio"},
        },
    }


def _traced(workload, client: Client, first_round) -> dict:
    """A warm-up round, then each of rounds 1..R twice: untraced, then traced.

    Both runs of a round have the same inputs and lie next to each other in
    time, so the ratio of their op times is the tracing overhead. Inputs are
    generated with recording off, so the counts cover the ops alone and
    repeat exactly for a seed.
    """
    import tracer as tr

    t = tr.Tracer()

    def record(op):
        t.recording = True
        try:
            return t.span("bench.op", op.run)
        finally:
            t.recording = False

    client.run(first_round)
    untraced = traced = 0.0
    rounds = range(1, workload.trace_rounds + 1)
    for i in rounds:
        untraced += client.run(workload.make_round(i))
        uninstall = tr.install(t)
        try:
            traced += client.run(workload.make_round(i), record)
        finally:
            uninstall()
    return {"rounds": 1 + 2 * len(rounds), "metrics": tr.per_layer_metrics(t, traced / untraced)}


if __name__ == "__main__":
    sys.exit(main())
