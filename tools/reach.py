"""What the product path runs: every statement of src/fuzzcyl, sorted by reach.

    python tools/reach.py TREE [BASE]

TREE (and BASE, if given) is a checkout of this repository. Each is traced
twice with `sys.settrace`, in child processes that install the tracer before
`fuzzcyl` is imported:

- the product path: round 0 of each benchmark workload, built by
  `workloads.build(name, 1, "full", tmpdir)`, with every op run and checked;
  `cli.main` on every `workloads._cli_configs(seed, False)` config and format
  for seeds 1-3; and `tests/test_acceptance.py`;
- tier-1: the whole test suite.

A statement is any `ast` statement that is not a def, class, import or
docstring. It counts as run when a line of its own (not of a nested
statement) is traced. Each statement is run on the product path, run only
under tier-1, or never run; the script prints the three counts per file and
in total, and with BASE the change from BASE. It only reports, and exits 0
whatever it counts.
"""

from __future__ import annotations

import ast
import glob
import json
import os
import subprocess
import sys
import tempfile
import time

WORKLOADS = ("products", "matrix_models", "cli_reports")
CLASSES = ("product", "tier-1 only", "never")
NOT_COUNTED = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Import, ast.ImportFrom, ast.Global,
               ast.Nonlocal)


def _install_tracer(package: str) -> dict[str, set[int]]:
    """Record the lines run in files under `package`, from now on."""
    seen: dict[str, set[int]] = {}
    local_tracers = {}

    def local_for(path):
        lines = seen.setdefault(os.path.basename(path), set())

        def local(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return local

        return local

    def on_call(frame, event, arg):
        path = frame.f_code.co_filename
        if not path.startswith(package):
            return None
        if path not in local_tracers:
            local_tracers[path] = local_for(path)
        return local_tracers[path]

    sys.settrace(on_call)
    return seen


def _run_product_path(tree: str) -> int:
    import pytest

    sys.path[:0] = [os.path.join(tree, "bench")]
    import workloads
    from fuzzcyl import cli

    with tempfile.TemporaryDirectory() as tmp:
        for name in WORKLOADS:
            for op in workloads.build(name, 1, "full", tmp).make_round(0):
                op.check(op.run())
        os.chdir(tmp)
        for seed in (1, 2, 3):
            for label, command, config, formats in workloads._cli_configs(seed, False):
                with open("config.json", "w") as fh:
                    json.dump(config, fh)
                for fmt in formats:
                    cli.main([command, "--config", "config.json", "--out", f"report.{fmt}", "--format", fmt])
        os.chdir(tree)
    return pytest.main(["-q", "-p", "no:cacheprovider", "tests/test_acceptance.py"])


def _run_tier1(tree: str) -> int:
    import pytest

    return pytest.main(["-q", "-p", "no:cacheprovider", "--continue-on-collection-errors", "tests"])


def _child(tree: str, route: str, out: str) -> None:
    sys.path[:0] = [os.path.join(tree, "src")]
    os.chdir(tree)
    seen = _install_tracer(os.path.join(tree, "src", "fuzzcyl") + os.sep)
    tracer, start = sys.gettrace(), time.perf_counter()
    import fuzzcyl

    assert fuzzcyl.__file__.startswith(tree), fuzzcyl.__file__
    code = (_run_product_path if route == "product" else _run_tier1)(tree)
    kept = sys.gettrace() is tracer
    sys.settrace(None)
    with open(out, "w") as fh:
        json.dump({"seconds": time.perf_counter() - start, "pytest": int(code), "kept": kept,
                   "lines": {k: sorted(v) for k, v in seen.items()}}, fh)


def _trace(tree: str, route: str) -> tuple[str, dict[str, set[int]]]:
    """A line on the run (its time and pytest's exit code), and the lines it ran per file."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    env.pop("PYTHONPATH", None)
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "lines.json")
        subprocess.run([sys.executable, os.path.abspath(__file__), "--child", tree, route, out], env=env,
                       stdout=subprocess.DEVNULL, check=True)
        with open(out) as fh:
            data = json.load(fh)
    lost = "" if data["kept"] else ", tracer removed before the end"
    summary = f"traced {route} {data['seconds']:.1f} s (pytest exit code {data['pytest']}{lost})"
    return summary, {k: set(v) for k, v in data["lines"].items()}


def _own_lines(stmt: ast.stmt) -> set[int]:
    """The lines of a statement that no statement nested in it covers."""
    lines = set(range(stmt.lineno, stmt.end_lineno + 1))
    for child in ast.iter_child_nodes(stmt):
        for node in ast.walk(child):
            if isinstance(node, ast.stmt):
                lines -= set(range(node.lineno, node.end_lineno + 1))
    return lines or {stmt.lineno}


def statements(path: str) -> list[set[int]]:
    """The own lines of each counted statement in a source file."""
    with open(path) as fh:
        tree = ast.parse(fh.read())
    out = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.stmt) or isinstance(node, NOT_COUNTED):
            continue
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant) and isinstance(node.value.value, str):
            continue  # a docstring
        out.append(_own_lines(node))
    return out


def reach(tree: str) -> dict[str, dict[str, int]]:
    """Per file of src/fuzzcyl, the count of statements in each class."""
    tree = os.path.realpath(tree)
    product_run, product = _trace(tree, "product")
    tier1_run, tier1 = _trace(tree, "tier-1")
    print(f"{tree}: {product_run}, {tier1_run}")
    counts = {}
    for path in sorted(glob.glob(os.path.join(tree, "src", "fuzzcyl", "*.py"))):
        name = os.path.basename(path)
        row = dict.fromkeys(CLASSES, 0)
        for own in statements(path):
            if own & product.get(name, set()):
                row["product"] += 1
            elif own & tier1.get(name, set()):
                row["tier-1 only"] += 1
            else:
                row["never"] += 1
        counts[name] = row
    return counts


def _total(counts: dict[str, dict[str, int]]) -> dict[str, int]:
    return {c: sum(row[c] for row in counts.values()) for c in CLASSES}


def main(argv: list[str]) -> None:
    if argv[:1] == ["--child"]:
        _child(*argv[1:])
        return
    counts = reach(argv[0])
    print(f"{'file':16s} {'statements':>10s} " + " ".join(f"{c:>11s}" for c in CLASSES))
    for name, row in list(counts.items()) + [("total", _total(counts))]:
        print(f"{name:16s} {sum(row.values()):10d} " + " ".join(f"{row[c]:11d}" for c in CLASSES))
    if len(argv) > 1:
        now, base = _total(counts), _total(reach(argv[1]))
        change = ", ".join(f"{c} {now[c]} (base {base[c]}, change {now[c] - base[c]:+d})" for c in CLASSES)
        print(f"statements {sum(now.values())} (base {sum(base.values())}): {change}")


if __name__ == "__main__":
    main(sys.argv[1:])
