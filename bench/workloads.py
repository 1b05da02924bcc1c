"""The three workloads of the fuzzcyl benchmark.

Each workload is one closed-loop client in one process: it issues its next
op only after the previous one has returned, with no threads. Work comes in
rounds. A round is a fixed list of ops whose inputs are drawn from
`numpy.random.default_rng([seed, round_index])`, so the same seed and round
give the same inputs. Every op calls the public fuzzcyl API (or
`fuzzcyl.cli.main`), and its result is checked by the benchmark, never by
code from the test suite.

products
    Deep twisted products on long-lived algebras, so power caches stay warm.
    Loads functions (nested coefficient closures), crossed.multiply and star.
    bijection.power is nearly idle after the first round.
matrix_models
    Wide, shallow coefficients evaluated on orbit windows of dimension 16 to
    1024, plus the interval-to-finite oracle bridge. Every round builds its
    families afresh. Loads represent (dense matrix powers and products),
    bijection.power and oracle. functions is shallow here.
cli_reports
    `fuzzcyl.cli.main` in-process over a fixed config set, writing JSON and
    CSV reports to files. The only workload through cli parsing, report
    emission, twogen and classical_limit_check; every invocation builds a
    fresh family, so power caches are cold.

Known defects stay in the op mix and count as failed ops (see KNOWN_DEFECTS).
A failure of any other op makes the run incorrect.

BLAS runs with one thread in every workload process. With the default of two
OpenBLAS threads on a 2-vCPU machine, 48- to 64-dimensional complex matmuls
intermittently took 10-32 ms instead of 0.05-0.1 ms, and covariance_check
works at exactly those sizes. That stall is a finding for a later change;
the single-threaded runs here are the baseline.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

import fuzzcyl as fz
from fuzzcyl import cli
from fuzzcyl.interval import Interval
from fuzzcyl.represent import excluded_indices

UNIT = Interval.closed(0.0, 1.0)
GRID = 101  # points of the carrier grid used by every coefficient comparison
REL_TOL = 1e-9  # products: residual <= REL_TOL * max(1, coefficient scale)

# Ops that fail today for a documented reason in fuzzcyl. They stay in the
# mix, count in `failed`, and do not make the run incorrect.
KNOWN_DEFECTS = {
    "matrix_models": {
        "orbit:disc_h0.1": "disc orbit splits into several chains: orbit points are matched by rounded float keys",
        "orbit:disc_h0.01": "disc orbit splits into several chains: orbit points are matched by rounded float keys",
    },
    "cli_reports": {
        "algebra-check:line_trunc": "pair rows of a truncated window do not exclude boundary rows",
        "algebra-check:disc": "pair rows of a truncated window do not exclude boundary rows",
    },
}


@dataclass
class Op:
    """One closed-loop request: `run` is timed, `check(result)` is not.

    `inputs` holds the generated data the op runs on; the worker hashes it
    to show that the seed, and only the seed, picks the inputs.
    """

    name: str
    run: Callable[[], object]
    check: Callable[[object], bool]
    inputs: object = None


@dataclass
class Workload:
    name: str
    make_round: Callable[[int], list[Op]]
    trace_rounds: int  # rounds in each pass of the traced run
    round_s: float  # seconds one round takes on a 2-vCPU VM; sets the rounds of a timed run


def inputs_digest(ops: list[Op]) -> str:
    return hashlib.sha256(repr([(op.name, op.inputs) for op in ops]).encode()).hexdigest()[:16]


def _round_rng(seed: int, index: int) -> np.random.Generator:
    return np.random.default_rng([seed, index])


def _pick_steps(rng, max_step: int, count: int = 3) -> list[int]:
    """`count` distinct steps in [-max_step, max_step], so elements have `count` terms."""
    return sorted(int(n) for n in rng.choice(np.arange(-max_step, max_step + 1), size=count, replace=False))


def _coeff_data(rng, steps: list[int], max_degree: int = 2) -> dict[int, list[complex]]:
    """Polynomial coefficients per step, degree at most max_degree."""
    return {
        n: [complex(rng.normal(), rng.normal()) for _ in range(int(rng.integers(1, max_degree + 2)))]
        for n in steps
    }


def _element(alg, data: dict[int, list[complex]]):
    terms = {}
    for n, coeffs in data.items():
        iv = alg.interval_n(n)
        if not iv.is_empty:
            terms[n] = fz.polynomial(coeffs, alg.carrier, support=iv)
    return alg.element(terms)


def _norm(alg, data: dict[int, list[complex]]) -> float:
    """Sum over steps of the largest |coefficient| on the carrier grid.

    The product of the operands' norms bounds every coefficient of their
    twisted product on that grid, which makes the residual bound relative:
    on unbounded carriers the grid reaches +-8 and coefficients grow large.
    """
    xs = alg.carrier.grid(GRID)
    return sum(float(np.max(np.abs(np.polynomial.polynomial.polyval(xs, c)))) for c in data.values())


# -- products ----------------------------------------------------------


def _cylinder_residual(got, want, xs) -> float:
    """Largest coefficient difference between two cylinder functions on xs."""
    worst = 0.0
    for n in set(got.coefficients) | set(want.coefficients):
        worst = max(worst, float(np.max(np.abs(got.coefficient(n)(xs) - want.coefficient(n)(xs)))))
    return worst


def products(seed: int, size: str) -> Workload:
    tiny = size == "tiny"
    cylinders = {
        "unit_h0.25": fz.Cylinder("finite", UNIT, 0.25),
        "unit_h0.125": fz.Cylinder("finite", UNIT, 0.125),
        "half_line": fz.Cylinder("half_finite", Interval.at_least(0.0), 0.25),
        "line": fz.Cylinder("infinite", Interval.real_line(), 0.25),
    }
    ladder = fz.Cylinder("finite", UNIT, 0.05)
    # The shared 2-vCPU VM these counts were tuned on flips between two CPU
    # speeds about 1.6x apart every few seconds, and the share of slow time
    # differs from run to run. A percentile that falls inside a tight cluster
    # of like ops jumps between the cluster's fast and slow copies as that
    # share varies. These counts put the median at the lower edge of the
    # associativity ops, just above the antihomomorphism ops, and p90 at the
    # upper edge of the associativity ops, below the deep ladder, round trip
    # and star ops; there it follows the share of slow time no more than the
    # mean does.
    assoc_per_cylinder = 1 if tiny else 8
    antihom_per_cylinder = 1 if tiny else 8
    ladder_top = 3 if tiny else 6
    roundtrip_modes = (2,) if tiny else (2, 4, 8)
    star_pairs = 1

    def within(tol_scale):
        return lambda residual: residual <= REL_TOL * max(1.0, tol_scale)

    def make_round(index: int) -> list[Op]:
        rng = _round_rng(seed, index)
        ops: list[Op] = []
        for name, alg in cylinders.items():
            for _ in range(assoc_per_cylinder):
                d = [_coeff_data(rng, _pick_steps(rng, 2)) for _ in range(3)]
                x, y, z = (_element(alg, c) for c in d)
                scale = _norm(alg, d[0]) * _norm(alg, d[1]) * _norm(alg, d[2])
                ops.append(Op(
                    f"assoc:{name}",
                    lambda alg=alg, x=x, y=y, z=z: alg.distance((x * y) * z, x * (y * z), GRID),
                    within(scale),
                    d,
                ))
            for _ in range(antihom_per_cylinder):
                d = [_coeff_data(rng, _pick_steps(rng, 2)) for _ in range(2)]
                x, y = (_element(alg, c) for c in d)
                scale = _norm(alg, d[0]) * _norm(alg, d[1])
                ops.append(Op(
                    f"antihom:{name}",
                    lambda alg=alg, x=x, y=y: alg.distance((x * y).adjoint(), y.adjoint() * x.adjoint(), GRID),
                    within(scale),
                    d,
                ))
        # product-depth ladder: x.pow(k) folds from the left, x * x^(k-1) from the right
        d = _coeff_data(rng, _pick_steps(rng, 2))
        x = _element(ladder, d)
        for k in range(2, ladder_top + 1):
            ops.append(Op(
                f"ladder:k{k}",
                lambda x=x, k=k: ladder.distance(x.pow(k), x * x.pow(k - 1), GRID),
                within(_norm(ladder, d) ** k),
                d,
            ))
        for max_n in roundtrip_modes:
            d = _coeff_data(rng, _pick_steps(rng, 2))
            x = _element(ladder, d)
            ops.append(Op(
                f"roundtrip:max_n{max_n}",
                lambda x=x, max_n=max_n: ladder.distance(fz.psi_inv(fz.psi(x), max_n=max_n), x, GRID),
                within(_norm(ladder, d)),
                (max_n, d),
            ))
        alg = cylinders["unit_h0.125"]
        xs = alg.carrier.grid(GRID)
        for _ in range(star_pairs):
            d = [_coeff_data(rng, _pick_steps(rng, 2)) for _ in range(2)]
            x, y = (_element(alg, c) for c in d)
            ops.append(Op(
                "star:max_n2",
                lambda x=x, y=y: _cylinder_residual(fz.star(fz.psi(x), fz.psi(y)), fz.psi(x * y), xs),
                within(_norm(alg, d[0]) * _norm(alg, d[1])),
                d,
            ))
        return ops

    return Workload("products", make_round, trace_rounds=1 if tiny else 12, round_s=0.05 if tiny else 1.0)


# -- matrix_models -----------------------------------------------------


@dataclass(frozen=True)
class Window:
    """An orbit window: family, step, truncation budget and expected shape."""

    label: str
    kind: str
    interval: str
    hbar: float
    truncation: int
    dim: int  # expected dimension: the full orbit, or the truncation budget
    hom_ops: int  # homomorphism ops per round (0: the window only gets covariance)
    forward: str = ""
    inverse: str = ""

    def family(self):
        return fz.make_family(self.kind, Interval.parse(self.interval), self.hbar,
                              forward=self.forward, inverse=self.inverse)

    def base_point(self, rng) -> float:
        if self.kind == "poincare":
            return float(rng.uniform(0.02, 0.98))
        # strictly inside the first cell, so a full orbit has exactly 1/hbar points
        return float(self.hbar * rng.uniform(0.1, 0.9))


# Op counts per round place the median at the boundary between the dim-16
# homomorphism ops (about 2 ms) and the dim-64 ones (4 to 30 ms, cold and warm
# power caches), and p90 in the upper part of the dim-64 ones, below the heavy
# ops (dim-256 homomorphisms, dim-256 and dim-1024 covariance, the oracle
# bridge). Inside a tight cluster of like ops a percentile would jump between
# the cluster's fast and slow copies on a shared VM whose CPU speed flips by
# about 1.6x every few seconds (see products).
FULL_WINDOWS = (
    Window("shift_h1/16", "shift", "[0,1]", 1 / 16, 64, 16, 400),
    Window("shift_h1/64", "shift", "[0,1]", 1 / 64, 128, 64, 384),
    Window("shift_h1/256", "shift", "[0,1]", 1 / 256, 512, 256, 1),
    Window("line_h1/64_t256", "shift", "(-inf,inf)", 1 / 64, 256, 256, 1),
    # represent at dim 1024 costs about 13 s per op with one BLAS thread, more
    # than a run; this window gets orbit and covariance ops only
    Window("line_h1/64_t1024", "shift", "(-inf,inf)", 1 / 64, 1024, 1024, 0),
    Window("disc_h0.1", "poincare", "[0,1]", 0.1, 256, 256, 1),
    Window("disc_h0.01", "poincare", "[0,1]", 0.01, 256, 256, 1),
    Window("custom_h1/64", "custom", "[0,1]", 1 / 64, 128, 64, 24, "x + h", "x - h"),
)
TINY_WINDOWS = (
    Window("shift_h1/16", "shift", "[0,1]", 1 / 16, 64, 16, 1),
    Window("line_h1/64_t32", "shift", "(-inf,inf)", 1 / 64, 32, 32, 1),
    Window("disc_h0.1", "poincare", "[0,1]", 0.1, 32, 32, 1),
    Window("custom_h1/16", "custom", "[0,1]", 1 / 16, 64, 16, 1, "x + h", "x - h"),
)


def _orbit_op(win: Window, base: float, state: dict) -> Op:
    def run():
        alg = fz.CrossedProductAlgebra(win.family().generator)
        orbit = fz.build_orbit(alg.alpha, base, win.truncation)
        rep = fz.matrix_rep(orbit)
        state[win.label] = (alg, rep)
        return rep

    def check(rep) -> bool:
        links = int(np.count_nonzero(rep.V))
        return rep.dim == win.dim and len(rep.orbit.chains) == 1 and links == rep.dim - 1

    return Op(f"orbit:{win.label}", run, check, base)


def _hom_op(win: Window, data: tuple, state: dict) -> Op:
    """represent(xy) against represent(x) represent(y) on non-excluded rows."""

    def run():
        alg, rep = state[win.label]
        x, y = (_element(alg, c) for c in data)
        lhs = fz.represent(x * y, rep)
        rhs = fz.represent(x, rep) @ fz.represent(y, rep)
        # a row sees a truncated chain end when x's steps reach past it
        depth = max((abs(n) for n in x.terms), default=0)
        excluded = excluded_indices(rep.orbit, depth)
        keep = np.array([i for i in range(rep.dim) if i not in excluded], dtype=int)
        return float(np.max(np.abs(lhs[keep] - rhs[keep]))), float(np.max(np.abs(rhs[keep])))

    def check(result) -> bool:
        residual, scale = result
        return residual <= REL_TOL * max(1.0, scale)

    return Op(f"hom:{win.label}", run, check, data)


def _covariance_op(win: Window, state: dict) -> Op:
    def run():
        alg, rep = state[win.label]
        return fz.covariance_check(alg, rep)

    return Op(f"covariance:{win.label}", run, lambda report: bool(report["pass"]))


def _oracle_op(M: int, base: float, data: list) -> Op:
    def run():
        alg = fz.CrossedProductAlgebra(fz.make_family("shift", UNIT, 1.0 / M).generator)
        elements = [_element(alg, c) for c in data]
        _, _, report = fz.sample_interval_to_finite(alg, base, elements=elements, tol=1e-10, truncation=2 * M)
        return report

    return Op(f"oracle:M{M}", run, lambda report: bool(report["pass"]) and report["M"] == M, (base, data))


def matrix_models(seed: int, size: str) -> Workload:
    tiny = size == "tiny"
    windows = TINY_WINDOWS if tiny else FULL_WINDOWS
    oracle_sizes = (8,) if tiny else (16, 32, 64)

    def make_round(index: int) -> list[Op]:
        rng = _round_rng(seed, index)
        state: dict = {}  # (algebra, matrix rep) per window, built by the round's orbit op
        ops: list[Op] = []
        for win in windows:
            ops.append(_orbit_op(win, win.base_point(rng), state))
            # steps up to +-32, and at most a quarter of the window, so that
            # rows away from truncated ends remain to be checked
            max_step = min(32, win.dim // 4)
            for _ in range(win.hom_ops):
                data = tuple(_coeff_data(rng, _pick_steps(rng, max_step)) for _ in range(2))
                ops.append(_hom_op(win, data, state))
            ops.append(_covariance_op(win, state))
        for M in oracle_sizes:
            base = float(rng.uniform(0.1, 0.9) / M)
            ops.append(_oracle_op(M, base, [_coeff_data(rng, _pick_steps(rng, 2)) for _ in range(2)]))
        return ops

    return Workload("matrix_models", make_round, trace_rounds=1, round_s=0.5 if tiny else 11.0)


# -- cli_reports -------------------------------------------------------


def _element_desc(data: dict[int, list[complex]]) -> dict:
    return {"terms": {str(n): {"type": "poly", "coeffs": [[c.real, c.imag] for c in cs]} for n, cs in data.items()}}


def _cli_configs(seed: int, tiny: bool) -> list[tuple[str, str, dict, tuple[str, ...]]]:
    """(label, subcommand, config, formats) for every config of the workload."""
    rng = np.random.default_rng([seed, 0])
    unit, line = "[0,1]", "(-inf,inf)"
    shift = lambda iv, h: {"kind": "shift", "interval": iv, "hbar": h}
    inner = lambda h: float(h * rng.uniform(0.1, 0.9))
    sub_seed = int(rng.integers(0, 2**31))
    el = lambda steps: _element_desc(_coeff_data(rng, steps, max_degree=1))
    criterion6 = {
        "shift": ({"kind": "shift", "interval": unit, "hbar": 0.1},
                  [{"terms": {"1": {"type": "const", "value": 1.0}}},
                   {"terms": {"0": {"type": "poly", "coeffs": [0.0, 0.0, 1.0]}}}]),
        "disc": ({"kind": "poincare", "interval": unit, "hbar": 0.1},
                 [{"terms": {"1": {"type": "poly", "coeffs": [0.5, 1.0]}}},
                  {"terms": {"0": {"type": "poly", "coeffs": [0.0, 0.0, 1.0]}}}]),
    }
    configs = [
        ("rep:dim4", "rep", {"family": shift(unit, 0.25), "base_point": inner(0.25), "elements": [el([0, 1])]},
         ("json", "csv")),
        ("algebra-check:dim4", "algebra-check",
         {"family": shift(unit, 0.25), "base_point": inner(0.25), "random_elements": 3, "seed": sub_seed}, ("json",)),
        ("algebra-check:line_trunc", "algebra-check",
         {"family": shift(line, 0.25), "base_point": inner(0.25), "truncation": 16, "random_elements": 3,
          "seed": sub_seed}, ("json",)),
        ("poisson-limit:shift", "poisson-limit",
         {"family": criterion6["shift"][0], "hbars": [0.1, 0.01, 0.001], "elements": criterion6["shift"][1]},
         ("json", "csv")),
        ("subalgebra:h0.1", "subalgebra", {"profiles": ["plane_plus", "plane_minus", "poincare"], "hbars": [0.1]},
         ("json",)),
        ("oracle:M4", "oracle", {"family": shift(unit, 0.25), "base_point": inner(0.25), "random_elements": 2,
                                 "seed": sub_seed}, ("json",)),
        ("orbit:custom", "orbit",
         {"family": {"kind": "custom", "interval": unit, "hbar": 1 / 64, "forward": "x + h", "inverse": "x - h"},
          "base_point": inner(1 / 64), "truncation": 128}, ("json", "csv")),
    ]
    if not tiny:
        configs += [
            ("rep:dim256", "rep", {"family": shift(unit, 1 / 256), "base_point": inner(1 / 256), "truncation": 512,
                                   "elements": [el([0, 1])]}, ("json", "csv")),
            ("algebra-check:dim64", "algebra-check",
             {"family": shift(unit, 1 / 64), "base_point": inner(1 / 64), "truncation": 128, "random_elements": 3,
              "seed": sub_seed}, ("json",)),
            ("algebra-check:disc", "algebra-check",
             {"family": {"kind": "poincare", "interval": unit, "hbar": 0.1}, "base_point": float(rng.uniform(0.02, 0.98)),
              "truncation": 32, "random_elements": 3, "seed": sub_seed}, ("json",)),
            ("poisson-limit:disc", "poisson-limit",
             {"family": criterion6["disc"][0], "hbars": [0.1, 0.01, 0.001], "elements": criterion6["disc"][1]},
             ("json", "csv")),
            ("subalgebra:h0.01", "subalgebra",
             {"profiles": ["plane_plus", "plane_minus", "poincare"], "hbars": [0.01]}, ("json",)),
            ("oracle:M32", "oracle", {"family": shift(unit, 1 / 32), "base_point": inner(1 / 32), "truncation": 64,
                                      "random_elements": 2, "seed": sub_seed}, ("json",)),
        ]
    return configs


# Runs of a config per round, 5 where not listed. They place the median
# among the ~5 ms reports (rep:dim4, orbit, poisson-limit) and p90 among the
# algebra-check and subalgebra reports of 18 to 30 ms, where report times
# spread over more than the ratio of a shared VM's two CPU speeds (see
# products); fewer runs of the two slowest algebra checks keep p90 off the
# gap below the dim-256 and M=32 reports.
RUNS_PER_ROUND = {
    "rep:dim4": 8,
    "orbit:custom": 8,
    "poisson-limit:shift": 8,
    "poisson-limit:disc": 8,
    "algebra-check:dim64": 2,
    "algebra-check:disc": 2,
    "rep:dim256": 1,
    "oracle:M32": 1,
}


def cli_reports(seed: int, size: str, workdir: str) -> Workload:
    """Configs and reports live in workdir, which the caller creates and removes."""
    jobs = []
    for label, command, config, formats in _cli_configs(seed, size == "tiny"):
        path = os.path.join(workdir, label.replace(":", "_").replace("/", "_") + ".cfg.json")
        with open(path, "w") as fh:
            json.dump(config, fh, sort_keys=True)
        for fmt in formats:
            out = path[: -len(".cfg.json")] + f".report.{fmt}"
            name = label if fmt == "json" else f"{label}:csv"
            argv = [command, "--config", path, "--out", out, "--format", fmt]
            jobs.append((RUNS_PER_ROUND.get(label, 5), (name, argv, out, config)))
    first_report: dict[str, str] = {}

    def op(name: str, argv: list[str], out: str, config: dict) -> Op:
        def check(code) -> bool:
            with open(out, "rb") as fh:
                h = hashlib.sha256(fh.read()).hexdigest()
            same = first_report.setdefault(name, h) == h
            return code == 0 and same

        return Op(name, lambda: cli.main(list(argv)), check, config)

    def make_round(index: int) -> list[Op]:
        most = max(runs for runs, _ in jobs)
        return [op(*job) for i in range(most) for runs, job in jobs if i < runs]

    return Workload("cli_reports", make_round, trace_rounds=1 if size == "tiny" else 4,
                    round_s=0.2 if size == "tiny" else 2.3)


def build(name: str, seed: int, size: str, workdir: str) -> Workload:
    if name == "products":
        return products(seed, size)
    if name == "matrix_models":
        return matrix_models(seed, size)
    if name == "cli_reports":
        return cli_reports(seed, size, workdir)
    raise ValueError(f"unknown workload {name!r}")
