"""Partial bijections of an interval and the semigroup they generate.

A partial bijection is a strictly monotone homeomorphism between two
subintervals of a fixed carrier interval. Closed-form forward and inverse
callables are stored side by side; nothing in the library ever inverts a map
numerically. A map is checked to be monotone once, where it is built from
callables; later images under it are read off two end images. A generator
acts partially on its carrier (`PartialAction`): its power alpha^n maps the
chain interval D_-n onto D_n, and each D_k is one image of D_(k-1), so the
chain controls which group words survive.
`canonicalize` reduces an arbitrary word in the generator to the normal form
(idempotent pair, net power).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .interval import EMPTY, Interval, image_monotone

ArrayMap = Callable[[np.ndarray], np.ndarray]

_SQRT2 = math.sqrt(2.0)
_EPS = np.finfo(float).eps


def _identity_map(x):
    return np.asarray(x, dtype=float)


@dataclass(frozen=True)
class PartialBijection:
    """Strictly monotone bijection from `domain` onto `range`, both inside `carrier`.

    A translation x -> x + offset records its constant in `offset`, and its
    powers take the closed form `translation_power`; other maps leave it None.
    The map keeps, for as long as it lives, what `transport` made of each
    interval it was given.
    """

    carrier: Interval
    domain: Interval
    range: Interval
    forward: ArrayMap
    inverse: ArrayMap
    offset: float | None = None
    _images: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def is_empty(self) -> bool:
        return self.domain.is_empty

    def transport(self, iv: Interval) -> tuple[Interval, Interval]:
        """(iv ∩ domain, its image read off the clip's two end images), kept on the map for each iv met."""
        hit = self._images.get(iv)
        if hit is None:
            clip = iv.intersect(self.domain)
            hit = self._images[iv] = (clip, clip.image(self.forward))
        return hit

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
            offset=None if self.offset is None else -self.offset,
        )

    def roundtrip_residual(self) -> float:
        """Max relative error of inverse(forward(x)) - x over a 33-point domain grid."""
        if self.domain.is_empty:
            return 0.0
        xs = self.domain.grid(33)
        back = np.asarray(self.inverse(np.asarray(self.forward(xs))), dtype=float)
        return float(np.max(np.abs(back - xs) / (1.0 + np.abs(xs))))


def identity_on(carrier: Interval) -> PartialBijection:
    return PartialBijection(carrier, carrier, carrier, _identity_map, _identity_map, 0.0)


def empty_bijection(carrier: Interval) -> PartialBijection:
    return PartialBijection(carrier, EMPTY, EMPTY, _identity_map, _identity_map)


def compose(outer: PartialBijection, inner: PartialBijection) -> PartialBijection:
    """outer after inner, on the largest domain where the chain is defined."""
    if outer.carrier != inner.carrier:
        raise ValueError("cannot compose partial bijections over different carriers")
    mid = inner.range.intersect(outer.domain)
    if mid.is_empty:
        return empty_bijection(outer.carrier)
    dom = image_monotone(mid, inner.inverse)
    rng = image_monotone(mid, outer.forward)
    of, inf_ = outer.forward, inner.forward
    oi, ini = outer.inverse, inner.inverse

    def fwd(x):
        return of(inf_(np.asarray(x, dtype=float)))

    def inv(y):
        return ini(oi(np.asarray(y, dtype=float)))

    return PartialBijection(outer.carrier, dom, rng, fwd, inv)


def _iterate(fn: ArrayMap, k: int) -> ArrayMap:
    """fn applied k times in a loop: the same float operations as k nested calls."""

    def run(x):
        x = np.asarray(x, dtype=float)
        for _ in range(k):
            x = fn(x)
        return x

    return run


def translation_power(carrier: Interval, offset: float, k: int) -> PartialBijection:
    """x -> x + k * offset, k >= 1, from carrier ∩ (carrier - k * offset) onto carrier ∩ (carrier + k * offset).

    Where k * |offset| is within the rounding of k steps of the carrier's
    width, the carrier's end flags decide alone: the power is the point map
    between its ends if both are closed, else empty.
    """
    d = k * offset
    fwd, inv = lambda x: np.asarray(x, dtype=float) + d, lambda y: np.asarray(y, dtype=float) - d
    lo, hi = carrier.lo, carrier.hi
    if carrier.is_bounded and abs(abs(d) - carrier.width) <= k * _EPS * (abs(d) + abs(lo) + abs(hi)):
        d = math.copysign(carrier.width, d)
        ends = (Interval.point(lo), Interval.point(hi)) if carrier.lo_closed and carrier.hi_closed else (EMPTY, EMPTY)
        dom, rng = ends if d > 0 else ends[::-1]
    else:
        dom, rng = carrier.intersect(carrier.image(inv)), carrier.intersect(carrier.image(fwd))
    return PartialBijection(carrier, dom, rng, fwd, inv, d)


class PartialAction:
    """The partial action of Z that one partial bijection generates.

    alpha^n maps D_-n onto D_n, so the chain is read off the powers: D_n is
    the range of alpha^n and D_-n its domain. D_1 and D_-1 are the
    generator's range and domain, and each later D_k is the one-step map's
    image of D_(k-1) ∩ its domain, inside the carrier, read off its two end
    images: a sliver D_k whose ends map to one float gives that point. A
    translation's power is its closed form; any other power applies the step
    |n| times in a loop. The powers are the one cache, and each power keeps
    the intervals it has transported.
    """

    def __init__(self, generator: PartialBijection):
        self.alpha = generator
        self.carrier = generator.carrier
        self._powers = {0: identity_on(self.carrier), 1: generator, -1: generator.inverted()}

    def interval_n(self, n: int) -> Interval:
        """D_n: the range of alpha^n and the domain of alpha^-n."""
        return self.power(n).range

    def _next(self, k: int, sign: int) -> Interval:
        """The one-step map's image of D_(sign (k-1)) ∩ its domain, inside the carrier."""
        step = self._powers[sign]
        mid = self._powers[sign * (k - 1)].range.intersect(step.domain)
        return mid.image(step.forward).intersect(self.carrier)

    def power(self, n: int) -> PartialBijection:
        """alpha^n, from D_-n onto D_n; a miss reads a translation's closed form, or fills out to |n|.

        The fill stores alpha^k and alpha^-k together and keeps D_k and D_-k
        empty together: rounding can leave a sub-ulp interval on one side only.
        """
        if n not in self._powers:
            step = self._powers[1 if n > 0 else -1]
            if step.offset is not None:
                self._powers[n] = translation_power(self.carrier, step.offset, abs(n))
            else:
                gen = self.alpha
                for k in range(2, abs(n) + 1):
                    if k not in self._powers:
                        rng, dom = self._next(k, 1), self._next(k, -1)
                        pw = (
                            empty_bijection(self.carrier) if rng.is_empty or dom.is_empty
                            else PartialBijection(self.carrier, dom, rng, _iterate(gen.forward, k), _iterate(gen.inverse, k))
                        )
                        self._powers[k], self._powers[-k] = pw, pw.inverted()
        return self._powers[n]


def power(alpha: PartialBijection, n: int) -> PartialBijection:
    """alpha^n (negative n uses the inverse), from D_-n onto D_n."""
    return PartialAction(alpha).power(n)


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
        """alpha^m from D_(n+ - m) ∩ D_(n- - m) onto D_n+ ∩ D_n-, read off one chain.

        alpha^-m carries D_m ∩ D_k onto D_-m ∩ D_(k-m), and the chain nests.
        """
        act = PartialAction(alpha)
        rng = act.interval_n(self.n_plus).intersect(act.interval_n(self.n_minus))
        dom = act.interval_n(self.n_plus - self.m).intersect(act.interval_n(self.n_minus - self.m))
        if rng.is_empty or dom.is_empty:
            return empty_bijection(alpha.carrier)
        pw = act.power(self.m)
        return PartialBijection(alpha.carrier, dom, rng, pw.forward, pw.inverse)


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
    beta: Callable[[np.ndarray], np.ndarray] | None = None
    forward: str = ""  # a custom family's map expressions; "" for a built-in one
    inverse: str = ""

    def at(self, hbar: float) -> "BijectionFamily":
        """Rebuild the family at another step value."""
        return make_family(self.kind, self.interval, hbar, forward=self.forward, inverse=self.inverse)


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


# sign of the constant each translation family adds: the generator's offset is sign * hbar
_OFFSET_SIGNS = {"shift": 1.0, "plane_plus": -1.0, "plane_minus": 1.0}

_RAW_MAPS: dict[str, tuple] = {
    kind: (lambda h, x, s=s: np.asarray(x, float) + s * h, lambda h, x, s=s: np.asarray(x, float) - s * h)
    for kind, s in _OFFSET_SIGNS.items()
} | {"poincare": (_poincare_forward, _poincare_inverse)}

_BETAS: dict[str, Callable] = {
    "shift": lambda u: np.ones_like(np.asarray(u, dtype=float)),
    "plane_plus": lambda u: -np.ones_like(np.asarray(u, dtype=float)),
    "plane_minus": lambda u: np.ones_like(np.asarray(u, dtype=float)),
    "poincare": lambda u: -0.5 * (1.0 - np.asarray(u, dtype=float)) ** 2,
}


def _build_generator(carrier: Interval, fwd: ArrayMap, inv: ArrayMap) -> PartialBijection:
    """Largest restriction of a monotone map to a partial bijection of carrier."""
    rng = image_monotone(carrier, fwd).intersect(carrier)
    if rng.is_empty:
        return empty_bijection(carrier)
    dom = image_monotone(rng, inv)
    pb = PartialBijection(carrier, dom, rng, fwd, inv)
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
    if not 0.0 <= hbar < math.inf:
        raise ValueError(f"step must be finite and nonnegative, got {hbar}")
    if interval.is_empty or interval.is_degenerate:
        raise ValueError("family carrier must be a nondegenerate interval")

    if kind == "custom":
        if not forward or not inverse:
            raise ValueError("custom family needs forward and inverse expressions")
        from .exprgrammar import compile_expression, is_translation

        fexpr = compile_expression(forward)
        iexpr = compile_expression(inverse)
        raw_fwd = lambda h, x: fexpr(x, h)
        raw_inv = lambda h, x: iexpr(x, h)
        beta = None
        # a pair x + c / x - c: the forward gives c at x = 0, the inverse -c
        c = float(fexpr(0.0, hbar)) if is_translation(forward) and is_translation(inverse) else math.nan
        offset = c if math.isfinite(c) and float(iexpr(0.0, hbar)) == -c else None
    else:
        raw_fwd, raw_inv = _RAW_MAPS[kind]
        beta = _BETAS[kind]
        forward = inverse = ""
        offset = _OFFSET_SIGNS[kind] * hbar if kind in _OFFSET_SIGNS else None

    if kind == "poincare":
        if hbar >= poincare_validity_bound():
            raise ValueError(
                f"disc family needs step < {poincare_validity_bound():.6f}, got {hbar}"
            )
        if hbar > 0.0:
            # the radicand 1 + ht - h^2 t^2/4, t = u - 1, is negative outside its roots 2(1 -+ sqrt2)/h
            real = Interval.closed(1.0 - 2.0 * (_SQRT2 - 1.0) / hbar, 1.0 + 2.0 * (_SQRT2 + 1.0) / hbar)
            if not interval.subset_of(real, 1e-12):
                raise ValueError("interval leaves the region where the disc map is real")

    if hbar == 0.0:
        gen = identity_on(interval)
    elif offset is not None:
        gen = translation_power(interval, offset, 1)
    else:
        gen = _build_generator(interval, lambda x: raw_fwd(hbar, x), lambda y: raw_inv(hbar, y))

    return BijectionFamily(
        kind=kind,
        interval=interval,
        hbar=float(hbar),
        generator=gen,
        raw_forward=raw_fwd,
        beta=beta,
        forward=forward,
        inverse=inverse,
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
    except (TypeError, OverflowError) as e:
        raise ValueError(f"malformed family descriptor field: {e}") from None
    forward, inverse = desc.get("forward", ""), desc.get("inverse", "")
    if not (isinstance(forward, str) and isinstance(inverse, str)):
        raise ValueError("custom map expressions must be strings")
    return make_family(kind, interval, hbar, forward=forward, inverse=inverse)


def family_to_descriptor(fam: BijectionFamily) -> dict:
    desc = {"kind": fam.kind, "interval": str(fam.interval), "hbar": fam.hbar}
    if fam.forward:
        desc["forward"], desc["inverse"] = fam.forward, fam.inverse
    return desc
