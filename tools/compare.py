"""Seeded CLI reports of two trees, compared byte for byte.

    python tools/compare.py TREE BASE

TREE and BASE are checkouts of this repository. For each, a child process
imports that tree's `src` and `bench/workloads.py` and runs `cli.main`
in-process on:

- the cli_reports configs of `workloads._cli_configs(seed, False)` for seeds
  1-3, in every listed format;
- a subalgebra sweep over four steps and two grid sizes, in JSON and CSV;
- a window sweep: orbit and algebra-check on each `workloads.FULL_WINDOWS`
  window at a fixed base point, on x^2 from 0.5, whose walk underflows onto
  the fixed point 0, and on the expanding map x + h*x from 0.5.

It prints one line per group: how many of TREE's reports differ from BASE's,
and their names. It only reports, and exits 0 whatever differs.
"""

from __future__ import annotations

import filecmp
import json
import os
import subprocess
import sys
import tempfile

GROUPS = (("cli_reports reports, seeds 1-3", "seed"), ("subalgebra sweep", "sweep_"), ("window sweep", "window_"))
WINDOWS = {
    "stalled_square": {"family": {"kind": "custom", "interval": "[0, 1]", "hbar": 0.1, "forward": "x^2",
                                  "inverse": "sqrt(x)"}, "base_point": 0.5, "truncation": 64},
    "expanding_affine": {"family": {"kind": "custom", "interval": "[0, 1]", "hbar": 0.1, "forward": "x + h*x",
                                    "inverse": "x/(1 + h)"}, "base_point": 0.5, "truncation": 64},
}


def _child(tree: str) -> None:
    """Write one tree's reports into the working directory."""
    sys.path[:0] = [os.path.join(tree, "src"), os.path.join(tree, "bench")]
    import numpy as np

    import fuzzcyl
    import workloads
    from fuzzcyl import cli

    assert fuzzcyl.__file__.startswith(tree), fuzzcyl.__file__
    for seed in (1, 2, 3):
        for label, command, config, formats in workloads._cli_configs(seed, False):
            stem = f"seed{seed}_" + label.replace(":", "_")
            with open(stem + ".cfg.json", "w") as fh:
                json.dump(config, fh, sort_keys=True)
            for fmt in formats:
                cli.main([command, "--config", stem + ".cfg.json", "--out", f"{stem}.{fmt}", "--format", fmt])
    for h in ("0.1", "0.05", "0.01", "0.001"):
        for g in ("101", "33"):
            for fmt in ("json", "csv"):
                cli.main(["subalgebra", "--hbar", h, "--grid-size", g, "--out", f"sweep_h{h}_g{g}.{fmt}", "--format", fmt])
    windows = dict(WINDOWS)
    for w in workloads.FULL_WINDOWS:
        family = {"kind": w.kind, "interval": w.interval, "hbar": w.hbar}
        if w.forward:
            family.update(forward=w.forward, inverse=w.inverse)
        windows[w.label.replace("/", "_")] = {"family": family, "base_point": w.base_point(np.random.default_rng(0)),
                                              "truncation": w.truncation}
    for name, config in windows.items():
        with open(f"window_{name}.cfg.json", "w") as fh:
            json.dump(dict(config, random_elements=2), fh, sort_keys=True)
        for command in ("orbit", "algebra-check"):
            cli.main([command, "--config", f"window_{name}.cfg.json", "--out", f"window_{name}_{command}.json"])


def compare(tree: str, base: str) -> list[str]:
    """One line per group: the reports of tree whose bytes differ from base's."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    env.pop("PYTHONPATH", None)
    with tempfile.TemporaryDirectory() as tmp:
        outs = {}
        for name, path in (("tree", tree), ("base", base)):
            outs[name] = os.path.join(tmp, name)
            os.makedirs(outs[name])
            subprocess.run([sys.executable, os.path.abspath(__file__), "--child", os.path.realpath(path)],
                           cwd=outs[name], env=env, stdout=subprocess.DEVNULL, check=True)
        lines = []
        for label, prefix in GROUPS:
            names = sorted(f for f in os.listdir(outs["tree"]) if f.startswith(prefix) and not f.endswith(".cfg.json"))
            differ = [f for f in names if not (os.path.exists(os.path.join(outs["base"], f))
                                               and filecmp.cmp(os.path.join(outs["tree"], f),
                                                               os.path.join(outs["base"], f), shallow=False))]
            lines.append(f"{label}: {len(differ)} of {len(names)} differ from BASE: {differ}")
    return lines


def main(argv: list[str]) -> None:
    if argv[:1] == ["--child"]:
        _child(argv[1])
        return
    print("\n".join(compare(argv[0], argv[1])))


if __name__ == "__main__":
    main(sys.argv[1:])
