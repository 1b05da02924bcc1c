"""Interleaved in-process A/B of one benchmark workload on two trees.

    python tools/ab.py TREE BASE --workload W --pairs N [--seed S] [--size tiny]

TREE and BASE are checkouts of this repository. Three long-lived child
processes each import one tree's `src` and `bench/workloads.py`: one for
TREE and two for BASE. Each builds the workload and runs round 0 as a
warm-up. Then pair i runs round i in every child, one child at a time, with
the order reversed on every other pair. Per child and round it times the
ops (the sum of the `op.run` calls) in wall time and in thread CPU time
(`time.thread_time`), the round (`make_round` plus the ops), and the p50 and
p90 of the round's per-op latencies, as the benchmark computes them. It
prints, for each, the median TREE/BASE ratio over the pairs with its
quartiles, and the same for the second BASE child against the first: an
A/A that shows how far identical code spreads on this machine. It only
reports, and exits 0 whatever it measures.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
import time


def _child(tree: str, workload: str, seed: int, size: str) -> None:
    """Serve rounds on stdin: each line is a round index, each answer a JSON line."""
    sys.path[:0] = [os.path.join(tree, "src"), os.path.join(tree, "bench")]
    import fuzzcyl
    import numpy as np
    import workloads

    assert fuzzcyl.__file__.startswith(tree), fuzzcyl.__file__
    with tempfile.TemporaryDirectory() as workdir:
        wl = workloads.build(workload, seed, size, workdir)
        for line in sys.stdin:
            t0 = time.perf_counter()
            ops = wl.make_round(int(line))
            latencies, op_cpu_s, failed = [], 0.0, 0
            for op in ops:
                c, t = time.thread_time(), time.perf_counter()
                try:
                    op.run()
                except Exception:
                    failed += 1
                latencies.append(time.perf_counter() - t)
                op_cpu_s += time.thread_time() - c
            p50, p90 = np.percentile(latencies, (50, 90))
            print(json.dumps({"op_s": sum(latencies), "op_cpu_s": op_cpu_s, "round_s": time.perf_counter() - t0,
                              "p50_s": p50, "p90_s": p90, "failed": failed}), flush=True)


def _quartiles(ratios: list[float]) -> str:
    r = sorted(ratios)
    q = lambda p: r[round(p * (len(r) - 1))]
    return f"median {q(0.5):.3f} (quartiles {q(0.25):.3f}-{q(0.75):.3f})"


def main(argv: list[str]) -> None:
    if argv[:1] == ["--child"]:
        _child(argv[1], argv[2], int(argv[3]), argv[4])
        return
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("tree")
    p.add_argument("base")
    p.add_argument("--workload", required=True, choices=("products", "matrix_models", "cli_reports"))
    p.add_argument("--pairs", type=int, required=True)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--size", choices=("full", "tiny"), default="full")
    args = p.parse_args(argv)
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    env.pop("PYTHONPATH", None)
    names = ("tree", "base", "base2")
    children = {
        name: subprocess.Popen([sys.executable, os.path.abspath(__file__), "--child", os.path.realpath(path),
                                args.workload, str(args.seed), args.size],
                               stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env, text=True)
        for name, path in zip(names, (args.tree, args.base, args.base))
    }

    def run(name: str, index: int) -> dict:
        children[name].stdin.write(f"{index}\n")
        children[name].stdin.flush()
        return json.loads(children[name].stdout.readline())

    for name in names:
        run(name, 0)
    got: dict[str, list[dict]] = {name: [] for name in names}
    for i in range(1, args.pairs + 1):
        for name in names if i % 2 else names[::-1]:
            got[name].append(run(name, i))
    for child in children.values():
        child.stdin.close()
        child.wait()
    print(f"{args.workload}, seed {args.seed}, size {args.size}, {args.pairs} pairs (rounds 1-{args.pairs})")
    for key, label in (("op_s", "op time"), ("op_cpu_s", "op thread CPU"), ("round_s", "round time"),
                       ("p50_s", "op p50"), ("p90_s", "op p90")):
        ratio = lambda a, b: [x[key] / y[key] for x, y in zip(got[a], got[b])]
        mean_ms = {name: 1e3 * sum(x[key] for x in got[name]) / args.pairs for name in names}
        print(f"{label}: TREE/BASE {_quartiles(ratio('tree', 'base'))};"
              f" A/A BASE/BASE {_quartiles(ratio('base2', 'base'))};"
              f" mean ms per round TREE {mean_ms['tree']:.4g}, BASE {mean_ms['base']:.4g}")
    failed = {name: sum(x["failed"] for x in got[name]) for name in names}
    if any(failed.values()):
        print(f"ops that raised: {failed}")


if __name__ == "__main__":
    main(sys.argv[1:])
