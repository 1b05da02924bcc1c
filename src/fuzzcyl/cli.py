"""Command-line front end for the cylinder toolkit.

Reads a JSON run configuration, drives the requested check suite or
export, and emits a JSON or CSV report. Exit status 0 means every check
in the run passed its tolerance, 1 means some check failed, 2 means the
configuration itself was rejected; configuration errors are printed to
stderr as a machine-readable {"error", "context"} object.
"""

import argparse
import contextlib
import csv
import dataclasses
import functools
import json
import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .bijection import BijectionFamily, family_from_descriptor
from .crossed import MAX_STEP, CrossedProductAlgebra, u_relations_check
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
        except (TypeError, ValueError, OverflowError) as e:
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
        if cfg.base_point is not None and not math.isfinite(cfg.base_point):
            raise ConfigError("base_point must be finite", {"base_point": str(cfg.base_point)})
        if not 0 <= cfg.tolerance < math.inf:
            raise ConfigError("tolerance must be finite and nonnegative", {"tolerance": str(cfg.tolerance)})
        if cfg.random_elements < 0:
            raise ConfigError("random_elements must be nonnegative", {"random_elements": cfg.random_elements})
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


def _coefficients(desc: dict, carrier, build):
    """build({step: coefficient}) for an element descriptor; a bad one, or a step
    past MAX_STEP or past where the chain can be computed, is a ConfigError."""
    try:
        terms = {int(n): from_descriptor(d, carrier) for n, d in desc["terms"].items()}
        if any(abs(n) > MAX_STEP for n in terms):
            raise ValueError(f"step keys must be at most {MAX_STEP} in absolute value")
        return build(terms)
    except (ValueError, KeyError, TypeError, OverflowError) as e:
        raise ConfigError("bad element descriptor", {"detail": str(e)}) from None


@contextlib.contextmanager
def _chain_errors():
    """A ValueError raised while products, adjoints or covariance walk the chain
    is a ConfigError, as in _coefficients: floats cannot resolve the chain, e.g.
    a sliver D_n whose two ends map to one image."""
    try:
        yield
    except ConfigError:
        raise
    except ValueError as e:
        raise ConfigError("chain cannot be computed for this family", {"detail": str(e)}) from None


def _config_elements(cfg: RunConfig, alg: CrossedProductAlgebra) -> list:
    return [_coefficients(el, alg.carrier, alg.element) for el in cfg.elements]


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
    with _chain_errors():
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
                    # relative to the product's size on the kept rows, so rounding alone passes
                    bound = cfg.tolerance * rep.dim * float(np.max(np.abs(rhs[keep]), initial=1.0))
                    pair_rows.append({"pair": [i, j], "residual": r, "excluded_indices": sorted(excl),
                                      "pass": bool(r <= bound)})
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
        (_coefficients(cfg.elements[i], fam.interval, dict), _coefficients(cfg.elements[i + 1], fam.interval, dict))
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
    if cfg.family is not None:
        _family(cfg)  # the rows never read it, but an invalid one is still a bad config
    profiles = cfg.profiles or list(PROFILE_KINDS)
    hbars = cfg.hbars or [0.1]
    jobs = [(p, h) for p in profiles for h in hbars]
    rows = []
    for name, h in jobs:
        try:
            constants = poincare_constants(h) if name == "poincare" else None
            setup = standard_setup(name, h, a=constants.edge if constants else None, grid_size=cfg.grid_size)
        except (ValueError, RuntimeError) as e:
            # RuntimeError: a self-check of the setup fails at this step, e.g. the
            # disc constants below h ~ 1e-8, where rounding exceeds the h^2 they are checked to
            raise ConfigError("step is outside the profile's valid range",
                              {"profile": name, "hbar": h, "detail": str(e)}) from None
        rel, bnd = two_gen_relations(setup), boundary_continuity_check(setup)
        row = {"profile": name, "hbar": h, "relations": rel, "boundary": bnd}
        if constants:
            row["constants"] = dataclasses.asdict(constants)
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
    with _chain_errors():
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
    return f"{brackets[0]}{inner}{(',' + inner).join(parts)}\n{'  ' * level}{brackets[1]}"


def _array_rows(a: np.ndarray, level: int):
    """A numeric array as json's nested lists, one row of its outermost axis per piece.

    A 1-d array is one piece. Complex entries are [re, im] pairs. The
    innermost axis gives the units: a complex array's pairs, a real array's
    rows. Units whose entries are all +0 share one text; the others are
    written entry by entry, finite floats by float.__repr__ as json does,
    other entries (ints, bools, json's NaN/Infinity) by json.dumps. Each
    piece's units are then joined up axis by axis. The complex stack, the
    choice of text and the +0 mask are made once per array.
    """
    whole = a.ndim == 1
    if a.dtype.kind == "c":
        a = np.stack([a.real, a.imag], axis=-1)
    text = float.__repr__ if a.dtype.kind == "f" and np.isfinite(a).all() else json.dumps
    *outer, n = a.shape
    units = a.reshape(math.prod(outer), n)
    zero = ((units == 0) & ~np.signbit(units)).all(axis=1)
    zero_text = _enclose([text(a.dtype.type(0).item())] * n, level + len(outer))
    count, inner, depth = (1, outer, level) if whole else (outer[0], outer[1:], level + 1)
    m, unit_depth = math.prod(inner), depth + len(inner)
    rows, zero = iter(units[~zero].tolist()), zero.tolist()
    for r in range(count):
        parts = [zero_text if z else _enclose(list(map(text, next(rows))), unit_depth) for z in zero[r * m:(r + 1) * m]]
        for axis in range(len(inner) - 1, -1, -1):
            k = inner[axis]
            parts = [_enclose(parts[i * k:(i + 1) * k], depth + axis) for i in range(math.prod(inner[:axis]))]
        yield parts[0] if whole else ("[" if r == 0 else ",") + "\n" + "  " * depth + parts[0]
    if not whole:
        yield "\n" + "  " * level + "]" if count else "[]"


def _write_json(v, fh) -> None:
    """Writes the text of json.dumps(_jsonable(v), sort_keys=True, indent=2) to fh.

    json's C encoder does not indent, and its pure-Python one costs a call
    per float. Here the text between numeric arrays is gathered in one list
    and written in one piece; each numeric array is written by _array_rows,
    one row of its outermost axis at a time, at a cost that follows its
    entries other than +0. The whole text is never held.
    """
    out: list[str] = []

    def put(v, level):
        if isinstance(v, (str, int, float)) or v is None:
            # a finite float's json text, without json's encoder set up per call
            out.append(float.__repr__(v) if isinstance(v, float) and math.isfinite(v) else json.dumps(v))
        elif isinstance(v, np.ndarray) and v.ndim and v.dtype.kind in "biufc":
            fh.write("".join(out))
            out.clear()
            fh.writelines(_array_rows(v, level))
        elif isinstance(v, (dict, list, tuple)):
            if isinstance(v, dict):
                items = {str(k): x for k, x in v.items()}
                pairs, brackets = [(json.dumps(k) + ": ", items[k]) for k in sorted(items)], "{}"
            else:
                pairs, brackets = [("", x) for x in v], "[]"
            inner = "\n" + "  " * (level + 1)
            for i, (head, x) in enumerate(pairs):
                out.append(("," if i else brackets[0]) + inner + head)
                put(x, level + 1)
            out.append("\n" + "  " * level + brackets[1] if pairs else brackets)
        else:
            put(_jsonable(v), level)

    put(v, 0)
    fh.write("".join(out))


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


def _write_csv(cfg: RunConfig, payload: dict, fh) -> None:
    """Writes the CSV report to fh, with the bytes csv.writer gives.

    The rep table is numbers only, so it needs no quoting and is written
    directly, one matrix row per piece: a join over the row's column texts
    "j,re,im", with separator "\\n<row>,". Rows share the texts of +0
    entries; a row with other entries patches a copy as it is written,
    formatting those by %r. Other tables go through csv.writer straight to fh.
    """
    if cfg.command == "rep":
        V = np.asarray(payload["V"])
        cols = [""] + ["%d,0.0,0.0" % j for j in range(V.shape[1])]
        other = (V != 0) | np.signbit(V.real) | np.signbit(V.imag)
        patches: dict[int, list] = {}
        for i, j, a, b in zip(*np.nonzero(other), V.real[other].tolist(), V.imag[other].tolist()):
            patches.setdefault(int(i), []).append((j + 1, "%d,%r,%r" % (j, a, b)))
        fh.write("row,col,re,im")
        for i in range(V.shape[0]):
            line = cols
            if i in patches:
                line = cols.copy()
                for k, t in patches[i]:
                    line[k] = t
            fh.write(("\n%d," % i).join(line))
        fh.write("\n")
        return
    header, rows = _csv_table(cfg, payload)
    csv.writer(fh, lineterminator="\n").writerows([header, *rows])


def _emit(cfg: RunConfig, payload: dict) -> None:
    """Writes the report to cfg.out, or to stdout, as it is produced.

    Besides the payload, the text of one matrix row is held at a time (see
    _write_json and _write_csv), and a JSON report's matrix has a working
    copy while it is written.
    """
    # one write call per 64 KiB of text, not per 8 KiB, for reports written row by row
    with open(cfg.out, "w", buffering=1 << 16) if cfg.out else contextlib.nullcontext(sys.stdout) as fh:
        if cfg.format == "json":
            echo = cfg.to_dict()
            echo["out"] = None  # destination is not part of the run; keeps reports byte-stable
            _write_json(dict(payload, config=echo), fh)
            fh.write("\n")
        else:
            _write_csv(cfg, payload, fh)


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
        except (ValueError, RecursionError) as e:
            # a decode error, bytes that are not UTF-8, or arrays nested past the recursion limit
            raise ConfigError("configuration file is not valid JSON", {"detail": str(e)})
    if not isinstance(raw, dict):
        raise ConfigError("configuration must be a JSON object")
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
        # an overflowing value is a refused config, never an inf or NaN in a report
        with np.errstate(over="raise"):
            try:
                payload, ok = _HANDLERS[cfg.command](cfg)
            except FloatingPointError as e:
                raise ConfigError("a computed value overflows the float range", {"detail": str(e)}) from None
    except ConfigError as e:
        sys.stderr.write(json.dumps({"error": str(e), "context": _jsonable(e.context)}, sort_keys=True) + "\n")
        return 2
    _emit(cfg, payload)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
