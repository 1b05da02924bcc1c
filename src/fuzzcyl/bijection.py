"""Partial bijections of an interval and the semigroup they generate.

A partial bijection is a strictly monotone homeomorphism between two
subintervals of a fixed carrier interval. Closed-form forward and inverse
callables are stored side by side; nothing in the library ever inverts a map
numerically. The powers of a generator, each built from its neighbour toward
0 by `next_power`, produce the nested interval chain that controls which
group words survive, and `canonicalize` reduces an arbitrary word in the
generator to the normal form (idempotent pair, net power).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from .interval import EMPTY, Interval, image_monotone

ArrayMap = Callable[[np.ndarray], np.ndarray]

_SQRT2 = math.sqrt(2.0)


def _identity_map(x):
    return np.asarray(x, dtype=float)


@dataclass(frozen=True)
class PartialBijection:
    """Strictly monotone bijection from `domain` onto `range`, both inside `carrier`.

    A translation x -> x + offset records its constant in `offset`, so its
    powers take the closed form x + n * offset; any other map leaves it None.
    """

    carrier: Interval
    domain: Interval
    range: Interval
    forward: ArrayMap
    inverse: ArrayMap
    label: str = ""
    offset: float | None = None

    @property
    def is_empty(self) -> bool:
        return self.domain.is_empty

    def apply(self, x):
        return self.forward(np.asarray(x, dtype=float))

    def apply_inverse(self, y):
        return self.inverse(np.asarray(y, dtype=float))

    def inverted(self) -> "PartialBijection":
        return PartialBijection(
            carrier=self.carrier,
            domain=self.range,
            range=self.domain,
            forward=self.inverse,
            inverse=self.forward,
            label=f"inv({self.label})" if self.label else "",
            offset=None if self.offset is None else -self.offset,
        )

    def roundtrip_residual(self, samples: int = 33) -> float:
        """Max relative error of inverse(forward(x)) - x over a domain grid."""
        if self.domain.is_empty:
            return 0.0
        xs = self.domain.grid(samples)
        back = np.asarray(self.inverse(np.asarray(self.forward(xs))), dtype=float)
        return float(np.max(np.abs(back - xs) / (1.0 + np.abs(xs))))


def identity_on(carrier: Interval) -> PartialBijection:
    return PartialBijection(carrier, carrier, carrier, _identity_map, _identity_map, "id", 0.0)


def empty_bijection(carrier: Interval) -> PartialBijection:
    return PartialBijection(carrier, EMPTY, EMPTY, _identity_map, _identity_map, "0")


def compose(outer: PartialBijection, inner: PartialBijection) -> PartialBijection:
    """outer after inner, on the largest domain where the chain is defined."""
    if outer.carrier != inner.carrier:
        raise ValueError("cannot compose partial bijections over different carriers")
    mid = inner.range.intersect(outer.domain)
    if mid.is_empty:
        return empty_bijection(outer.carrier)
    dom = image_monotone(mid, inner.inverse)
    rng = image_monotone(mid, outer.forward)
    if rng.intersect(outer.carrier).is_empty:
        # a sub-ulp mid whose image rounds onto an excluded end of the carrier
        return empty_bijection(outer.carrier)
    of, inf_ = outer.forward, inner.forward
    oi, ini = outer.inverse, inner.inverse

    def fwd(x):
        return of(inf_(np.asarray(x, dtype=float)))

    def inv(y):
        return ini(oi(np.asarray(y, dtype=float)))

    label = f"{outer.label}*{inner.label}" if (outer.label and inner.label) else ""
    return PartialBijection(outer.carrier, dom, rng, fwd, inv, label)


def _iterate(fn: ArrayMap, k: int) -> ArrayMap:
    """fn applied k times in a loop: the same float operations as k nested calls."""

    def run(x):
        x = np.asarray(x, dtype=float)
        for _ in range(k):
            x = fn(x)
        return x

    return run


def next_power(
    step: PartialBijection, prev: PartialBijection, reach: Interval, k: int
) -> tuple[PartialBijection, Interval]:
    """step^k from prev = step^(k-1), k >= 1; step is the generator or its inverse.

    The domain and range are those of compose(step, prev); the maps apply the
    step k times in a loop, or add k * offset for a translation. reach is the
    range of prev found by clipped image iteration from the carrier; one more
    clipped image gives the iterated range of step^k, which must agree with
    the composed range to 1e-9. Returns (step^k, its iterated range).
    """
    reach = reach.intersect(step.domain)
    if not reach.is_empty:
        reach = image_monotone(reach, step.forward).intersect(step.carrier)
    if k == 1:
        out = step
    else:
        out = compose(step, prev)
        if not out.is_empty:
            if step.offset is None:
                offset, fwd, inv = None, _iterate(step.forward, k), _iterate(step.inverse, k)
            else:
                offset = k * step.offset
                fwd = lambda x: np.asarray(x, dtype=float) + offset
                inv = lambda y: np.asarray(y, dtype=float) - offset
            label = f"{step.label}^{k}" if step.label else ""
            out = replace(out, forward=fwd, inverse=inv, label=label, offset=offset)
    if not out.range.close_to(reach, 1e-9):
        raise RuntimeError(
            f"power self-check failed for k={k}: composed range {out.range}, iterated {reach}"
        )
    return out, reach


def power(alpha: PartialBijection, n: int) -> PartialBijection:
    """n-fold composition (negative n uses the inverse), built by next_power."""
    step = alpha if n > 0 else alpha.inverted()
    out, reach = identity_on(alpha.carrier), alpha.carrier
    for k in range(1, abs(n) + 1):
        out, reach = next_power(step, out, reach, k)
    return out


# -- word canonical form ---------------------------------------------


@dataclass(frozen=True, order=True)
class SemigroupElement:
    """Normal form e(+)e(-)g^m of a word in a partial shift generator g.

    n_plus / n_minus index the two restriction idempotents, m the net power.
    Normalization: n_plus >= max(0, m) and n_minus <= min(0, m).
    """

    n_plus: int
    n_minus: int
    m: int

    def __post_init__(self) -> None:
        if self.n_plus < max(0, self.m) or self.n_minus > min(0, self.m):
            raise ValueError(f"triple ({self.n_plus},{self.n_minus},{self.m}) is not normalized")

    @property
    def is_idempotent(self) -> bool:
        return self.m == 0

    def to_word(self) -> list[int]:
        word = []
        if self.n_plus:
            word += [self.n_plus, -self.n_plus]
        if self.n_minus:
            word += [self.n_minus, -self.n_minus]
        if self.m:
            word += [self.m]
        return word

    def star(self) -> "SemigroupElement":
        return canonicalize([-w for w in reversed(self.to_word())])

    def compose(self, other: "SemigroupElement") -> "SemigroupElement":
        return canonicalize(self.to_word() + other.to_word())

    def realize(self, alpha: PartialBijection) -> PartialBijection:
        """The concrete partial bijection this normal form names."""
        mask = power(alpha, self.n_plus).range.intersect(power(alpha, self.n_minus).range)
        if mask.is_empty:
            return empty_bijection(alpha.carrier)
        restrict = PartialBijection(
            carrier=alpha.carrier, domain=mask, range=mask,
            forward=_identity_map, inverse=_identity_map, label="e",
        )
        return compose(restrict, power(alpha, self.m))


def canonicalize(word: Sequence[int]) -> SemigroupElement:
    """Reduce a word of generator exponents (leftmost factor outermost).

    The word [a, b, c] names g^a g^b g^c; tracking running prefix sums from
    the left gives the two idempotent depths and the net power.
    """
    s = 0
    hi = 0
    lo = 0
    for w in word:
        s += int(w)
        hi = max(hi, s)
        lo = min(lo, s)
    return SemigroupElement(n_plus=hi, n_minus=lo, m=s)


# -- parametric families ---------------------------------------------

FAMILY_KINDS = ("shift", "plane_plus", "plane_minus", "poincare", "custom")


@dataclass(frozen=True)
class BijectionFamily:
    """A one-parameter family of partial bijections of a fixed interval."""

    kind: str
    interval: Interval
    hbar: float
    generator: PartialBijection
    raw_forward: Callable[[float, np.ndarray], np.ndarray]
    raw_inverse: Callable[[float, np.ndarray], np.ndarray]
    beta: Callable[[np.ndarray], np.ndarray] | None = None
    custom_exprs: tuple[str, str] | None = None

    def at(self, hbar: float) -> "BijectionFamily":
        """Rebuild the family at another step value."""
        if self.kind == "custom":
            fwd, inv = self.custom_exprs or ("", "")
            return make_family(self.kind, self.interval, hbar, forward=fwd, inverse=inv)
        return make_family(self.kind, self.interval, hbar)


def poincare_validity_bound() -> float:
    """Largest step for which the disc map's square root stays real on [0,1]."""
    return 2.0 * (_SQRT2 - 1.0)


def _poincare_forward(h: float, u):
    u = np.asarray(u, dtype=float)
    t = u - 1.0
    rad = 1.0 + h * t - 0.25 * h * h * t * t
    # 1 + (2/h)(sqrt(rad) - 1) with sqrt(rad) - 1 = (rad - 1)/(1 + sqrt(rad)):
    # no difference of nearly equal terms, so no cancellation as h -> 0
    return 1.0 + 2.0 * t * (1.0 - 0.25 * h * t) / (1.0 + np.sqrt(rad))


def _poincare_inverse(h: float, x):
    x = np.asarray(x, dtype=float)
    t = 1.0 - x
    rad = 1.0 + h * t - 0.25 * h * h * t * t
    return 1.0 - 2.0 * t * (1.0 - 0.25 * h * t) / (1.0 + np.sqrt(rad))


_RAW_MAPS: dict[str, tuple] = {
    "shift": (lambda h, x: np.asarray(x, float) + h, lambda h, x: np.asarray(x, float) - h),
    "plane_plus": (lambda h, x: np.asarray(x, float) - h, lambda h, x: np.asarray(x, float) + h),
    "plane_minus": (lambda h, x: np.asarray(x, float) + h, lambda h, x: np.asarray(x, float) - h),
    "poincare": (_poincare_forward, _poincare_inverse),
}

_BETAS: dict[str, Callable] = {
    "shift": lambda u: np.ones_like(np.asarray(u, dtype=float)),
    "plane_plus": lambda u: -np.ones_like(np.asarray(u, dtype=float)),
    "plane_minus": lambda u: np.ones_like(np.asarray(u, dtype=float)),
    "poincare": lambda u: -0.5 * (1.0 - np.asarray(u, dtype=float)) ** 2,
}

# sign of the constant each translation family adds: the generator's offset is sign * hbar
_OFFSET_SIGNS = {"shift": 1.0, "plane_plus": -1.0, "plane_minus": 1.0}


def _build_generator(
    carrier: Interval,
    fwd: ArrayMap,
    inv: ArrayMap,
    formula_domain: Interval,
    label: str,
    offset: float | None = None,
) -> PartialBijection:
    """Largest restriction of a monotone map to a partial bijection of carrier."""
    g_dom = carrier.intersect(formula_domain)
    if g_dom.is_empty:
        return empty_bijection(carrier)
    img = image_monotone(g_dom, fwd)
    rng = img.intersect(carrier)
    if rng.is_empty:
        return empty_bijection(carrier)
    dom = image_monotone(rng, inv)
    pb = PartialBijection(carrier, dom, rng, fwd, inv, label, offset)
    rt = pb.roundtrip_residual()
    if not rt <= 1e-10:  # NaN: the inverse is undefined where forward lands
        raise ValueError(f"forward/inverse pair is inconsistent (roundtrip residual {rt:.3g})")
    return pb


def make_family(
    kind: str,
    interval: Interval,
    hbar: float,
    forward: str = "",
    inverse: str = "",
) -> BijectionFamily:
    """Construct a built-in or custom family at the given step value."""
    if kind not in FAMILY_KINDS:
        raise ValueError(f"unknown family kind {kind!r}; expected one of {FAMILY_KINDS}")
    if not (hbar >= 0.0) or math.isnan(hbar):
        raise ValueError(f"step must be nonnegative, got {hbar}")
    if interval.is_empty or interval.is_degenerate:
        raise ValueError("family carrier must be a nondegenerate interval")

    custom_exprs = None
    if kind == "custom":
        if not forward or not inverse:
            raise ValueError("custom family needs forward and inverse expressions")
        from .exprgrammar import compile_expression

        fexpr = compile_expression(forward)
        iexpr = compile_expression(inverse)
        raw_fwd = lambda h, x: fexpr(x, h)
        raw_inv = lambda h, x: iexpr(x, h)
        beta = None
        custom_exprs = (forward, inverse)
    else:
        raw_fwd, raw_inv = _RAW_MAPS[kind]
        beta = _BETAS[kind]

    formula_domain = Interval.real_line()
    if kind == "poincare":
        if hbar >= poincare_validity_bound():
            raise ValueError(
                f"disc family needs step < {poincare_validity_bound():.6f}, got {hbar}"
            )
        if hbar > 0.0:
            lo_valid = 1.0 - 2.0 * (_SQRT2 - 1.0) / hbar
            if not interval.subset_of(Interval(lo_valid, math.inf, True, False), 1e-12):
                raise ValueError("interval leaves the region where the disc map is real")

    if hbar == 0.0:
        gen = identity_on(interval)
    else:
        gen = _build_generator(
            interval,
            lambda x: raw_fwd(hbar, x),
            lambda y: raw_inv(hbar, y),
            formula_domain,
            f"{kind}[{hbar}]",
            _OFFSET_SIGNS[kind] * hbar if kind in _OFFSET_SIGNS else None,
        )

    return BijectionFamily(
        kind=kind,
        interval=interval,
        hbar=float(hbar),
        generator=gen,
        raw_forward=raw_fwd,
        raw_inverse=raw_inv,
        beta=beta,
        custom_exprs=custom_exprs,
    )


def family_from_descriptor(desc: dict) -> BijectionFamily:
    """Build a family from its JSON descriptor {"kind", "interval", "hbar", ...}."""
    if not isinstance(desc, dict):
        raise ValueError("family descriptor must be an object")
    try:
        kind = desc["kind"]
        interval = Interval.parse(desc["interval"])
        hbar = float(desc["hbar"])
    except KeyError as e:
        raise ValueError(f"family descriptor missing field {e.args[0]!r}") from None
    except TypeError as e:
        raise ValueError(f"malformed family descriptor field: {e}") from None
    forward, inverse = desc.get("forward", ""), desc.get("inverse", "")
    if not (isinstance(forward, str) and isinstance(inverse, str)):
        raise ValueError("custom map expressions must be strings")
    return make_family(kind, interval, hbar, forward=forward, inverse=inverse)


def family_to_descriptor(fam: BijectionFamily) -> dict:
    desc = {"kind": fam.kind, "interval": str(fam.interval), "hbar": fam.hbar}
    if fam.custom_exprs:
        desc["forward"], desc["inverse"] = fam.custom_exprs
    return desc
