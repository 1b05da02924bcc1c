"""Command-line front end for the cylinder toolkit.

Reads a JSON run configuration, drives the requested check suite or
export, and emits a JSON or CSV report. Exit status 0 means every check
in the run passed its tolerance, 1 means some check failed, 2 means the
configuration itself was rejected; configuration errors are printed to
stderr as a machine-readable {"error", "context"} object.
"""

import argparse
import csv
import dataclasses
import functools
import io
import json
import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .bijection import BijectionFamily, family_from_descriptor
from .crossed import CrossedProductAlgebra, u_relations_check
from .functions import from_descriptor, polynomial
from .interval import DEFAULT_TOL
from .oracle import GridIncompatible, sample_interval_to_finite
from .represent import build_orbit, covariance_check, excluded_indices, matrix_rep, represent
from .star import classical_limit_check
from .twogen import (
    PROFILE_KINDS,
    boundary_continuity_check,
    poincare_constants,
    standard_setup,
    two_gen_relations,
)

COMMANDS = ("rep", "algebra-check", "poisson-limit", "subalgebra", "oracle", "orbit")
FORMATS = ("json", "csv")


class ConfigError(ValueError):
    def __init__(self, message: str, context: dict | None = None):
        super().__init__(message)
        self.context = context or {}


@dataclass
class RunConfig:
    """One fully-specified run. Equality is field-by-field, so a config
    echoed into a report and re-parsed compares equal to the original."""

    command: str
    family: dict | None = None
    elements: list = field(default_factory=list)
    hbars: list = field(default_factory=list)
    profiles: list = field(default_factory=list)
    base_point: float | None = None
    truncation: int = 64
    grid_size: int = 101
    tolerance: float = 1e-9
    random_elements: int = 0
    seed: int = 0
    out: str | None = None
    format: str = "json"

    @staticmethod
    def from_dict(raw: dict) -> "RunConfig":
        if not isinstance(raw, dict):
            raise ConfigError("configuration must be a JSON object")
        known = set(RunConfig.__dataclass_fields__)
        extra = sorted(set(raw) - known)
        if extra:
            raise ConfigError("unknown configuration fields", {"fields": extra})
        if "command" not in raw:
            raise ConfigError("configuration needs a 'command' field")
        cfg = RunConfig(command=str(raw["command"]))
        if cfg.command not in COMMANDS:
            raise ConfigError("unknown command", {"command": cfg.command, "expected": list(COMMANDS)})
        try:
            if raw.get("family") is not None:
                if not isinstance(raw["family"], dict):
                    raise ConfigError("'family' must be an object")
                cfg.family = dict(raw["family"])
            cfg.elements = list(raw.get("elements", []))
            cfg.hbars = [float(h) for h in raw.get("hbars", [])]
            cfg.profiles = [str(p) for p in raw.get("profiles", [])]
            if raw.get("base_point") is not None:
                cfg.base_point = float(raw["base_point"])
            cfg.truncation = int(raw.get("truncation", 64))
            cfg.grid_size = int(raw.get("grid_size", 101))
            cfg.tolerance = float(raw.get("tolerance", 1e-9))
            cfg.random_elements = int(raw.get("random_elements", 0))
            cfg.seed = int(raw.get("seed", 0))
            if raw.get("out") is not None:
                cfg.out = str(raw["out"])
            cfg.format = str(raw.get("format", "json"))
        except (TypeError, ValueError) as e:
            if isinstance(e, ConfigError):
                raise
            raise ConfigError("malformed configuration value", {"detail": str(e)}) from None
        bad = [h for h in cfg.hbars if not 0 < h < math.inf]
        if bad:
            # as strings: nan and inf have no strict JSON form
            raise ConfigError("step values must be positive and finite", {"hbars": [str(h) for h in bad]})
        bad = [p for p in cfg.profiles if p not in PROFILE_KINDS]
        if bad:
            raise ConfigError("unknown profiles", {"profiles": bad, "expected": list(PROFILE_KINDS)})
        if cfg.format not in FORMATS:
            raise ConfigError("unknown format", {"format": cfg.format, "expected": list(FORMATS)})
        if cfg.grid_size < 2:
            raise ConfigError("grid_size must be at least 2", {"grid_size": cfg.grid_size})
        if cfg.truncation < 1:
            raise ConfigError("truncation must be at least 1", {"truncation": cfg.truncation})
        if cfg.seed < 0:
            raise ConfigError("seed must be nonnegative", {"seed": cfg.seed})
        for el in cfg.elements:
            if not isinstance(el, dict) or not isinstance(el.get("terms"), dict):
                raise ConfigError("each element needs a 'terms' object keyed by step index")
        return cfg

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


# -- builders ---------------------------------------------------------


def _family(cfg: RunConfig) -> BijectionFamily:
    if cfg.family is None:
        raise ConfigError("this command needs a 'family' descriptor")
    try:
        return family_from_descriptor(cfg.family)
    except ValueError as e:
        raise ConfigError("bad family descriptor", {"detail": str(e)}) from None


def _algebra(cfg: RunConfig) -> CrossedProductAlgebra:
    return CrossedProductAlgebra(_family(cfg).generator)


def _coefficients(desc: dict, carrier) -> dict:
    try:
        return {int(n): from_descriptor(d, carrier) for n, d in desc["terms"].items()}
    except (ValueError, KeyError, TypeError) as e:
        raise ConfigError("bad element descriptor", {"detail": str(e)}) from None


def _config_elements(cfg: RunConfig, alg: CrossedProductAlgebra) -> list:
    return [alg.element(_coefficients(el, alg.carrier)) for el in cfg.elements]


def _random_elements(alg: CrossedProductAlgebra, rng, count: int) -> list:
    out = []
    for _ in range(count):
        terms = {}
        for _ in range(3):
            n = int(rng.integers(-2, 3))
            iv = alg.interval_n(n)
            if iv.is_empty:
                continue
            coeffs = [complex(rng.normal(), rng.normal()) for _ in range(2)]
            f = polynomial(coeffs, alg.carrier, support=iv)
            terms[n] = terms[n] + f if n in terms else f
        out.append(alg.element(terms))
    return out


def _base_point(cfg: RunConfig, alg: CrossedProductAlgebra) -> float:
    if cfg.base_point is None:
        raise ConfigError("this command needs a 'base_point'")
    if not alg.carrier.contains(cfg.base_point, DEFAULT_TOL):
        raise ConfigError(
            "base point is outside the carrier", {"base_point": cfg.base_point, "carrier": str(alg.carrier)}
        )
    return cfg.base_point


# -- command handlers -------------------------------------------------


def _cmd_rep(cfg: RunConfig) -> tuple[dict, bool]:
    alg = _algebra(cfg)
    orbit = build_orbit(alg.alpha, _base_point(cfg, alg), cfg.truncation)
    rep = matrix_rep(orbit)
    mats = [represent(x, rep) for x in _config_elements(cfg, alg)]
    payload = {
        "dim": rep.dim,
        "points": [float(p) for p in orbit.points],
        "V": rep.V,
        "elements": mats,
    }
    return payload, True


def _cmd_algebra_check(cfg: RunConfig) -> tuple[dict, bool]:
    alg = _algebra(cfg)
    rng = np.random.default_rng(cfg.seed)
    payload = {"relations": u_relations_check(alg, grid_size=cfg.grid_size, tol=cfg.tolerance)}
    ok = payload["relations"]["pass"]

    if cfg.base_point is not None:
        rep = matrix_rep(build_orbit(alg.alpha, _base_point(cfg, alg), cfg.truncation))
        payload["covariance"] = covariance_check(alg, rep, tol=cfg.tolerance)
        ok = ok and payload["covariance"]["pass"]
    else:
        rep = None

    elems = _config_elements(cfg, alg) + _random_elements(alg, rng, cfg.random_elements)
    pair_rows = []
    if rep is not None:
        mats = [represent(x, rep) for x in elems]
        for i in range(len(elems)):
            for j in range(len(elems)):
                lhs = represent(elems[i] * elems[j], rep)
                rhs = mats[i] @ mats[j]
                # rows within reach of a truncated chain end, by the left factor's steps, lose terms
                excl = excluded_indices(rep.orbit, max((abs(n) for n in elems[i].terms), default=0))
                keep = [k for k in range(rep.dim) if k not in excl]
                r = float(np.max(np.abs(lhs[keep] - rhs[keep]))) if keep else 0.0
                pair_rows.append({"pair": [i, j], "residual": r, "excluded_indices": sorted(excl),
                                  "pass": bool(r <= cfg.tolerance * rep.dim)})
    payload["element_pairs"] = pair_rows
    ok = ok and all(row["pass"] for row in pair_rows)
    return payload, bool(ok)


def _cmd_poisson_limit(cfg: RunConfig) -> tuple[dict, bool]:
    fam = _family(cfg)
    if not cfg.hbars:
        raise ConfigError("this command needs a nonempty 'hbars' sweep")
    if len(cfg.elements) < 2 or len(cfg.elements) % 2:
        raise ConfigError(
            "this command needs an even number of elements, taken as (f, g) pairs",
            {"got": len(cfg.elements)},
        )
    pairs = [
        (_coefficients(cfg.elements[i], fam.interval), _coefficients(cfg.elements[i + 1], fam.interval))
        for i in range(0, len(cfg.elements), 2)
    ]
    try:
        runs = [classical_limit_check(f, g, fam, cfg.hbars, grid_size=cfg.grid_size) for f, g in pairs]
    except ValueError as e:
        # the family cannot be rebuilt at a step of the sweep, or the step leaves no window
        raise ConfigError("step sweep does not fit the family", {"hbars": cfg.hbars, "detail": str(e)}) from None
    payload = {"runs": [dict(r, pair=i) for i, r in enumerate(runs)]}
    return payload, all(r["pass"] for r in runs)


def _cmd_subalgebra(cfg: RunConfig) -> tuple[dict, bool]:
    profiles = cfg.profiles or list(PROFILE_KINDS)
    hbars = cfg.hbars or [0.1]
    jobs = [(p, h) for p in profiles for h in hbars]
    rows = []
    for name, h in jobs:
        try:
            setup = standard_setup(name, h, grid_size=cfg.grid_size)
        except (ValueError, RuntimeError) as e:
            # RuntimeError: a self-check of the setup fails at this step, e.g. the
            # disc constants below h ~ 1e-8, where rounding exceeds the h^2 they are checked to
            raise ConfigError("step is outside the profile's valid range",
                              {"profile": name, "hbar": h, "detail": str(e)}) from None
        rel, bnd = two_gen_relations(setup), boundary_continuity_check(setup)
        row = {"profile": name, "hbar": h, "relations": rel, "boundary": bnd}
        if name == "poincare":
            row["constants"] = dataclasses.asdict(poincare_constants(h))
        expect_obstruction = name == "plane_minus"
        row["expect_obstruction"] = expect_obstruction
        if expect_obstruction:
            # the weight dips below zero here; the run passes when that
            # predicted failure is observed and the relations still close
            row["pass"] = bool(rel["relations_pass"] and not rel["valid_generator"])
        else:
            row["pass"] = bool(rel["pass"])
        rows.append(row)
    rows.sort(key=lambda r: (r["profile"], r["hbar"]))
    return {"rows": rows}, all(r["pass"] for r in rows)


def _cmd_oracle(cfg: RunConfig) -> tuple[dict, bool]:
    alg = _algebra(cfg)
    rng = np.random.default_rng(cfg.seed)
    elems = _config_elements(cfg, alg) + _random_elements(alg, rng, cfg.random_elements)
    try:
        _, points, report = sample_interval_to_finite(
            alg, _base_point(cfg, alg), elements=elems, tol=cfg.tolerance, truncation=cfg.truncation
        )
    except GridIncompatible as e:
        raise ConfigError("orbit grid is not closed under the map", {"detail": str(e)}) from None
    return report, report["pass"]


def _cmd_orbit(cfg: RunConfig) -> tuple[dict, bool]:
    alg = _algebra(cfg)
    orbit = build_orbit(alg.alpha, _base_point(cfg, alg), cfg.truncation)
    payload = {
        "dim": orbit.dim,
        "points": [float(p) for p in orbit.points],
        "chains": [
            {
                "indices": c.indices,
                "minus_truncated": c.minus_truncated,
                "plus_truncated": c.plus_truncated,
            }
            for c in orbit.chains
        ],
    }
    return payload, True


_HANDLERS = {
    "rep": _cmd_rep,
    "algebra-check": _cmd_algebra_check,
    "poisson-limit": _cmd_poisson_limit,
    "subalgebra": _cmd_subalgebra,
    "oracle": _cmd_oracle,
    "orbit": _cmd_orbit,
}


# -- emission ---------------------------------------------------------


def _jsonable(v):
    if isinstance(v, complex):
        return [v.real, v.imag]
    if isinstance(v, np.ndarray):
        return _jsonable(v.tolist())  # a 0-d array gives its scalar
    if isinstance(v, (np.floating, np.integer, np.bool_)):
        return v.item()
    if isinstance(v, (frozenset, set)):
        return sorted(v)
    if isinstance(v, dict):
        return {str(k): _jsonable(x) for k, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [_jsonable(x) for x in v]
    if v is None or isinstance(v, (bool, int, float, str)):
        return v
    return str(v)


def _enclose(parts: list[str], level: int, brackets: str = "[]") -> str:
    """json's indent=2 container of already-written items, opened at depth level."""
    if not parts:
        return brackets
    inner = "\n" + "  " * (level + 1)
    return brackets[0] + inner + ("," + inner).join(parts) + "\n" + "  " * level + brackets[1]


def _array_text(a: np.ndarray, level: int) -> str:
    """A numeric array as json's nested lists, written one axis at a time.

    Complex entries are [re, im] pairs. The innermost axis gives the units: a
    complex array's pairs, a real array's rows. Units whose entries are all +0
    share one text; the others are written entry by entry, finite floats by
    float.__repr__ as json does, other entries (ints, bools, json's
    NaN/Infinity) by json.dumps. The units are then joined up axis by axis.
    """
    if a.dtype.kind == "c":
        a = np.stack([a.real, a.imag], axis=-1)
    text = float.__repr__ if a.dtype.kind == "f" and np.isfinite(a).all() else json.dumps
    *outer, n = a.shape
    units = a.reshape(math.prod(outer), n)
    zero = ((units == 0) & ~np.signbit(units)).all(axis=1)
    depth = level + len(outer)
    zero_text = _enclose([text(a.dtype.type(0).item())] * n, depth)
    rows = iter(units[~zero].tolist())
    parts = [zero_text if z else _enclose(list(map(text, next(rows))), depth) for z in zero.tolist()]
    for axis in range(len(outer) - 1, -1, -1):
        k = outer[axis]
        parts = [_enclose(parts[i * k:(i + 1) * k], level + axis) for i in range(math.prod(outer[:axis]))]
    return parts[0]


def _json_text(v, level: int = 0) -> str:
    """The text of json.dumps(_jsonable(v), sort_keys=True, indent=2).

    json's C encoder does not indent, and its pure-Python one costs a call
    per float; numeric arrays here are written by _array_text instead, at a
    cost that follows their entries other than +0.
    """
    if isinstance(v, np.ndarray) and v.ndim and v.dtype.kind in "biufc":
        return _array_text(v, level)
    if isinstance(v, dict):
        items = {str(k): x for k, x in v.items()}
        return _enclose([json.dumps(k) + ": " + _json_text(items[k], level + 1) for k in sorted(items)], level, "{}")
    if isinstance(v, (list, tuple)):
        return _enclose([_json_text(x, level + 1) for x in v], level)
    v = _jsonable(v)
    return _json_text(v, level) if isinstance(v, list) else json.dumps(v)


def _flatten(prefix: str, v, rows: list):
    if isinstance(v, dict):
        for k in sorted(v):
            _flatten(f"{prefix}.{k}" if prefix else str(k), v[k], rows)
    elif isinstance(v, list):
        for i, x in enumerate(v):
            _flatten(f"{prefix}[{i}]", x, rows)
    else:
        rows.append((prefix, v))


def _csv_table(cfg: RunConfig, payload: dict) -> tuple[list[str], list[list]]:
    if cfg.command == "poisson-limit":
        header = ["pair", "hbar", "residual", "fitted_order"]
        rows = []
        for run in payload["runs"]:
            for r in sorted(run["rows"], key=lambda r: -r["hbar"]):
                rows.append([run["pair"], r["hbar"], r["residual"], run["fitted_order"]])
        return header, rows
    if cfg.command == "orbit":
        return ["index", "point"], [[i, p] for i, p in enumerate(payload["points"])]
    rows: list = []
    _flatten("", _jsonable(payload), rows)
    return ["key", "value"], [[k, v] for k, v in rows]


def _csv_text(cfg: RunConfig, payload: dict) -> str:
    """The CSV report, with the bytes csv.writer gives.

    The rep table is numbers only, so it needs no quoting and is written
    directly: one join per matrix row over its column texts "j,re,im", with
    separator "\\n<row>,". Rows share the texts of +0 entries; a row with
    other entries patches a copy, formatting those by %r.
    """
    if cfg.command == "rep":
        V = np.asarray(payload["V"])
        cols = [""] + ["%d,0.0,0.0" % j for j in range(V.shape[1])]
        lines = [cols] * V.shape[0]
        other = (V != 0) | np.signbit(V.real) | np.signbit(V.imag)
        for i, j, a, b in zip(*np.nonzero(other), V.real[other].tolist(), V.imag[other].tolist()):
            if lines[i] is cols:
                lines[i] = cols.copy()
            lines[i][j + 1] = "%d,%r,%r" % (j, a, b)
        return "row,col,re,im" + "".join([("\n%d," % i).join(line) for i, line in enumerate(lines)]) + "\n"
    header, rows = _csv_table(cfg, payload)
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows([header, *rows])
    return buf.getvalue()


def _emit(cfg: RunConfig, payload: dict) -> None:
    if cfg.format == "json":
        echo = cfg.to_dict()
        echo["out"] = None  # destination is not part of the run; keeps reports byte-stable
        text = _json_text(dict(payload, config=echo)) + "\n"
    else:
        text = _csv_text(cfg, payload)
    if cfg.out:
        with open(cfg.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# -- entry point ------------------------------------------------------


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fuzzcyl",
        description="Check suites and exports for interval crossed products.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", help="JSON run configuration")
        p.add_argument("--out", help="write the report here instead of stdout")
        p.add_argument("--format", choices=FORMATS, help="report format (default json)")
        p.add_argument("--seed", type=int, help="seed for randomized suites (default 0)")
        p.add_argument("--grid-size", type=int, dest="grid_size")
        p.add_argument("--hbar", type=float, action="append", dest="hbars", help="step value; repeatable")
        p.add_argument("--base-point", type=float, dest="base_point")
        p.add_argument("--truncation", type=int)
        p.add_argument("--profile", action="append", dest="profiles", help="profile name; repeatable")
        p.add_argument("--tolerance", type=float)
    return parser


def load_config(args: argparse.Namespace) -> RunConfig:
    raw: dict = {}
    if args.config:
        try:
            with open(args.config) as fh:
                raw = json.load(fh)
        except OSError as e:
            raise ConfigError("cannot read configuration file", {"detail": str(e)})
        except json.JSONDecodeError as e:
            raise ConfigError("configuration file is not valid JSON", {"detail": str(e)})
    raw["command"] = args.command
    for key in ("out", "format", "seed", "grid_size", "base_point", "truncation", "tolerance"):
        v = getattr(args, key)
        if v is not None:
            raw[key] = v
    for key in ("hbars", "profiles"):
        v = getattr(args, key)
        if v:
            raw[key] = v
    return RunConfig.from_dict(raw)


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = load_config(args)
        payload, ok = _HANDLERS[cfg.command](cfg)
    except ConfigError as e:
        sys.stderr.write(json.dumps({"error": str(e), "context": _jsonable(e.context)}, sort_keys=True) + "\n")
        return 2
    _emit(cfg, payload)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
