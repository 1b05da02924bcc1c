"""Smoke test of the benchmark at its tiny size.

    python3 -m pytest bench/test_smoke.py -q

Each workload runs for one second per run. The test checks that every
metric BENCHMARK.json names is printed with its unit, that a timed run's
attempted and failed ops and the traced run's counts repeat exactly for a
seed, that another seed draws other inputs but the same metric names, and
that the benchmark refuses to run without the fuzzcyl source tree.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(workload: str, seed: int, trace: int, cwd: str = ROOT):
    """Run the benchmark command at tiny size; return (details, result)."""
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", "1", "--trace", str(trace), "--size", "tiny"]
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    *_, details, result = proc.stdout.strip().splitlines()
    return json.loads(details)["details"], json.loads(result)


def test_spec_lists_what_the_tracer_reports():
    sys.path.insert(0, HERE)
    from tracer import PER_LAYER_UNITS

    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == PER_LAYER_UNITS


@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_reports_every_metric_and_repeats_its_counts(workload):
    details, timed = bench(workload, seed=1, trace=0)
    assert set(timed) == {"correct", "attempted", "failed", "metrics"}
    assert timed["correct"] and timed["attempted"] >= 1
    assert {k: v["unit"] for k, v in timed["metrics"].items()} == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(v["value"] > 0 for v in timed["metrics"].values())
    assert details["fail_ratio"] == timed["failed"] / timed["attempted"]
    assert details["blas_threads"] in (1, None)

    # a run is fixed in work, so a seed repeats its ops and its failures
    _, timed_again = bench(workload, seed=1, trace=0)
    assert (timed_again["attempted"], timed_again["failed"]) == (timed["attempted"], timed["failed"])

    _, traced = bench(workload, seed=1, trace=1)
    assert traced["correct"]
    assert {k: v["unit"] for k, v in traced["metrics"].items()} == {m["name"]: m["unit"] for m in SPEC["per_layer"]}

    _, again = bench(workload, seed=1, trace=1)
    exact = [k for k in traced["metrics"] if k.endswith(".calls") or k == "cli.report_bytes"]
    assert {k: traced["metrics"][k]["value"] for k in exact} == {k: again["metrics"][k]["value"] for k in exact}

    other_details, other = bench(workload, seed=2, trace=1)
    assert other_details["inputs_digest"] != details["inputs_digest"]
    assert set(other["metrics"]) == set(traced["metrics"])


def test_refuses_to_run_without_the_source_tree(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns(".work", "__pycache__"))
    cmd = [sys.executable, "bench/run.py", "--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert proc.stdout == ""
