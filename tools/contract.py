"""The CLI contract swept over families, carriers and steps: exit codes per subcommand.

    python tools/contract.py [TREE]

TREE (default: the checkout holding this script) is a checkout of this
repository; its `src` is imported. Each family runs on each carrier where its
map is valid (a bounded interval, a half-line and the line), at h = 1/q for
q = 2..66. One config per family, carrier and step runs through all six
subcommands of `cli.main`, in-process, with the report written to a scratch
file. The families are the built-ins (`shift`, `plane_plus`, `plane_minus`,
`poincare`) and the custom maps `x + h`, `2*x + h`, `x + h*x` and `x^2`;
`poincare` also runs on the half-line, where the disc map is not real far
out and every config must be refused.

The contract is: exit 0 (every check passed), 1 (a check failed) or 2 (the
config was refused), never a traceback. The script prints, per family,
carrier and subcommand, how many runs gave each exit code, then how many runs
wrote more to stderr than the one JSON error line a refused config writes
(a warning, say; warnings are shown on every run, as in a fresh process),
then each distinct traceback once with the first config that raised it. It
only reports, and exits 0 whatever it counts.
"""

from __future__ import annotations

import collections
import contextlib
import io
import json
import os
import sys
import tempfile
import time
import traceback
import warnings

STEPS = range(2, 67)  # q, for h = 1/q
BOUNDED, HALF_LINE, LINE = "[0, 1]", "[0, inf)", "(-inf, inf)"
# (label, family descriptor without interval and hbar, carriers where the map is a partial bijection)
FAMILIES = [
    ("shift", {"kind": "shift"}, (BOUNDED, HALF_LINE, LINE)),
    ("plane_plus", {"kind": "plane_plus"}, (BOUNDED, HALF_LINE, LINE)),
    ("plane_minus", {"kind": "plane_minus"}, (BOUNDED, HALF_LINE, LINE)),
    ("poincare", {"kind": "poincare"}, (BOUNDED, HALF_LINE)),  # refused on the half-line: not real far out
    ("x + h", {"kind": "custom", "forward": "x + h", "inverse": "x - h"}, (BOUNDED, HALF_LINE, LINE)),
    ("2*x + h", {"kind": "custom", "forward": "2*x + h", "inverse": "(x - h)/2"}, (BOUNDED, HALF_LINE, LINE)),
    ("x + h*x", {"kind": "custom", "forward": "x + h*x", "inverse": "x/(1 + h)"}, (BOUNDED, HALF_LINE, LINE)),
    ("x^2", {"kind": "custom", "forward": "x^2", "inverse": "sqrt(x)"}, (BOUNDED, HALF_LINE)),  # monotone on x >= 0
]
# two coefficient elements: rep and algebra-check represent them, poisson-limit reads them as one (f, g) pair
ELEMENTS = [{"terms": {"1": {"type": "const", "value": 1.0}, "0": {"type": "poly", "coeffs": [0.5, 1.0]}}},
            {"terms": {"0": {"type": "poly", "coeffs": [0.0, 0.0, 1.0]}, "-1": {"type": "const", "value": [0.0, 1.0]}}}]


def config(family: dict, carrier: str, q: int) -> dict:
    h = 1.0 / q
    return {"family": dict(family, interval=carrier, hbar=h), "base_point": 0.5, "elements": ELEMENTS,
            "hbars": [h, h / 10], "profiles": ["plane_plus"], "random_elements": 2, "seed": q,
            "truncation": 16, "grid_size": 17}


def sweep(cli, workdir: str):
    """{(family, carrier): {command: Counter of exit codes}}, {(family, carrier): {command: runs whose
    stderr holds more than the JSON error line}}, and {traceback: first config that raised it}."""
    counts: dict = {}
    noisy: dict = {}
    tracebacks: dict = {}
    cfg_path, out = os.path.join(workdir, "config.json"), os.path.join(workdir, "report")
    for label, family, carriers in FAMILIES:
        for carrier in carriers:
            row = counts[label, carrier] = {c: collections.Counter() for c in cli.COMMANDS}
            loud = noisy[label, carrier] = dict.fromkeys(cli.COMMANDS, 0)
            for q in STEPS:
                cfg = config(family, carrier, q)
                with open(cfg_path, "w") as fh:
                    json.dump(cfg, fh)
                for command in cli.COMMANDS:
                    err = io.StringIO()
                    with contextlib.redirect_stderr(err), warnings.catch_warnings():
                        warnings.simplefilter("always")
                        try:
                            code = cli.main([command, "--config", cfg_path, "--out", out])
                        except SystemExit as e:
                            code = f"SystemExit({e.code})"
                        except Exception:  # a broken contract: report it, keep sweeping
                            code = "traceback"
                            tracebacks.setdefault(traceback.format_exc(), (command, cfg))
                    row[command][code] += 1
                    loud[command] += len(err.getvalue().splitlines()) > (1 if code == 2 else 0)
    return counts, noisy, tracebacks


def main(argv: list[str]) -> None:
    tree = os.path.abspath(argv[0] if argv else os.path.join(os.path.dirname(__file__), os.pardir))
    sys.path.insert(0, os.path.join(tree, "src"))
    import fuzzcyl
    from fuzzcyl import cli

    assert fuzzcyl.__file__.startswith(tree), fuzzcyl.__file__
    start = time.perf_counter()
    with tempfile.TemporaryDirectory() as tmp:
        counts, noisy, tracebacks = sweep(cli, tmp)
    runs = len(STEPS) * len(counts) * len(cli.COMMANDS)
    print(f"{tree}: {runs} runs, h = 1/q for q = {STEPS.start}..{STEPS.stop - 1}, "
          f"{time.perf_counter() - start:.1f} s; exit code:count per subcommand")
    width = max(len(c) for c in cli.COMMANDS) + 8
    print(f"{'family':12s} {'carrier':12s}" + "".join(f"{c:>{width}s}" for c in cli.COMMANDS))
    for (label, carrier), row in counts.items():
        cells = (" ".join(f"{k}:{n}" for k, n in sorted(row[c].items(), key=str)) for c in cli.COMMANDS)
        print(f"{label:12s} {carrier:12s}" + "".join(f"{cell:>{width}s}" for cell in cells))
    totals = collections.Counter()
    for row in counts.values():
        for c in row.values():
            totals.update(c)
    print("total: " + ", ".join(f"exit {k}: {n}" for k, n in sorted(totals.items(), key=str)))
    print("runs with more on stderr than the JSON error line, per subcommand")
    print(f"{'family':12s} {'carrier':12s}" + "".join(f"{c:>{width}s}" for c in cli.COMMANDS))
    for (label, carrier), loud in noisy.items():
        print(f"{label:12s} {carrier:12s}" + "".join(f"{loud[c]:>{width}d}" for c in cli.COMMANDS))
    print(f"total: {sum(sum(loud.values()) for loud in noisy.values())}")
    print(f"distinct tracebacks: {len(tracebacks)}")
    for text, (command, cfg) in tracebacks.items():
        print(f"--- {command} {json.dumps(cfg, sort_keys=True)}\n{text}")


if __name__ == "__main__":
    main(sys.argv[1:])
