"""Complex-valued functions carrying an explicit support interval.

A function is a node of a coefficient expression: a leaf formula, or a sum,
product, scale, conjugate, derivative, pullback or angle mode of functions.
Values outside the declared support are hard zero regardless of what the
underlying formula would return, so multiplying by a partial identity or
pulling back along a partial bijection can never leak values off the allowed
set. Evaluations sharing a `memo` dict form a pass (a top-level call, or one
`distance`, `represent`, `CylinderFunction.eval` or `classical_limit_check`)
that computes each memoized function (the coefficients of crossed-product
elements) and each power's preimages at most once per point.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .interval import DEFAULT_TOL, EMPTY, Interval, image_monotone
from .bijection import PartialBijection

RawMap = Callable[[np.ndarray], np.ndarray]

# slack used when deciding whether a support already sits inside a target set
SUPPORT_TOL = 1e-9


class SupportViolation(ValueError):
    """Raised when a function's support escapes the set an operation requires."""


@dataclass(frozen=True, eq=False, slots=True)
class SupportedFunction:
    """A bounded complex function on `carrier`, zero outside `support`.

    A leaf (`op` "leaf") has its formula in `raw`, which must accept numpy
    arrays and be valid at least on the support, and may have its analytic
    derivative in `deriv`. Any other `op` acts on `args` (see `_values`).
    """

    support: Interval
    raw: RawMap | None
    carrier: Interval
    deriv: RawMap | None = None
    op: str = "leaf"
    args: tuple = ()

    def __call__(self, x, memo: dict | None = None):
        """Values at x; evaluations passing one memo share their work."""
        xs = np.asarray(x, dtype=float)
        pts = xs if xs.ndim == 1 else xs.reshape(-1)
        out = _masked(self, pts, np.ones(pts.shape, dtype=bool), {} if memo is None else memo)
        return complex(out[0]) if xs.ndim == 0 else out.reshape(xs.shape)

    def _node(self, op: str, *args, support: Interval | None = None) -> "SupportedFunction":
        return SupportedFunction(self.support if support is None else support, None, self.carrier, None, op, args)

    # -- algebra ------------------------------------------------------

    def __add__(self, other: "SupportedFunction") -> "SupportedFunction":
        self._check_carrier(other)
        return self._node("sum", self, other, support=self.support.hull(other.support))

    def __sub__(self, other: "SupportedFunction") -> "SupportedFunction":
        return self + (-other)

    def __neg__(self) -> "SupportedFunction":
        return self.scale(-1.0)

    def __mul__(self, other: "SupportedFunction") -> "SupportedFunction":
        self._check_carrier(other)
        return self._node("product", self, other, support=self.support.intersect(other.support))

    def scale(self, c: complex) -> "SupportedFunction":
        c = complex(c)
        if c == 0:
            return zero_function(self.carrier)
        return self._node("scale", self, c)

    def conj(self) -> "SupportedFunction":
        return self._node("conj", self)

    def restrict(self, iv: Interval) -> "SupportedFunction":
        return SupportedFunction(self.support.intersect(iv), self.raw, self.carrier, self.deriv, self.op, self.args)

    def memoized(self) -> "SupportedFunction":
        """This function, evaluated at most once per point within a pass."""
        return self if self.op == "memo" else self._node("memo", self)

    def derivative(self, step: float = 1e-5) -> "SupportedFunction":
        """The analytic derivative where every leaf below has one, else a central difference."""
        d = None
        if self.op == "leaf" and self.deriv is not None:
            d = SupportedFunction(self.support, self.deriv, self.carrier)
        elif self.op in ("memo", "scale", "conj"):
            inner = self.args[0].derivative(step)
            if inner.op != "derivative":
                d = inner.restrict(self.support) if self.op == "memo" else self._node(self.op, inner, *self.args[1:])
        return self._node("derivative", self, step) if d is None else d

    @property
    def is_zero(self) -> bool:
        return self.support.is_empty

    def _check_carrier(self, other: "SupportedFunction") -> None:
        if self.carrier != other.carrier:
            raise ValueError("functions live on different carrier intervals")


# -- evaluation --------------------------------------------------------


def _masked(f: SupportedFunction, xs: np.ndarray, need: np.ndarray, memo: dict) -> np.ndarray:
    """f where need holds and xs lies in f's support, hard zero elsewhere."""
    mask = need & _in_support(f.support, xs, memo)
    if not np.count_nonzero(mask):
        return np.zeros(xs.shape, dtype=complex)
    return np.where(mask, _values(f, xs, mask, memo), 0)


def _in_support(support: Interval, xs: np.ndarray, memo: dict) -> np.ndarray:
    """support.contains(xs), once per pass for each support and point array."""
    key = (support, id(xs))
    if key not in memo:
        memo[key] = (xs, support.contains(xs, DEFAULT_TOL))
    return memo[key][1]


def _values(f: SupportedFunction, xs: np.ndarray, need: np.ndarray, memo: dict) -> np.ndarray:
    """f's formula at the 1-d array xs where need holds (elsewhere unspecified).

    It ignores f's own support: a product multiplies its factors' formulas,
    while a sum and a pullback mask their arguments by their supports."""
    op, args = f.op, f.args
    if op == "leaf":
        out = np.zeros(xs.shape, dtype=complex)
        out[need] = f.raw(xs[need])
        return out
    if op == "memo":
        g = args[0]
        return _cached(memo, g, xs, need, f.support, lambda mask: _values(g, xs, mask, memo)[mask])
    if op == "sum":
        return _masked(args[0], xs, need, memo) + _masked(args[1], xs, need, memo)
    if op == "product":
        return _values(args[0], xs, need, memo) * _values(args[1], xs, need, memo)
    if op == "scale":
        return args[1] * _values(args[0], xs, need, memo)
    if op == "conj":
        return np.conjugate(_values(args[0], xs, need, memo))
    if op == "derivative":
        g, step = args
        return (_values(g, xs + step, need, memo) - _values(g, xs - step, need, memo)) / (2.0 * step)
    if op == "pullback":
        g, pb = args
        zs = _cached(memo, pb, xs, need, pb.range, lambda mask: pb.inverse(xs[mask]))
        return _masked(g, zs, need, memo)
    if op == "mode":  # column of an angle spectrum, see star.psi_inv
        spectrum, column, factor = args
        return factor * _cached(memo, spectrum, xs, need, f.carrier, lambda mask: spectrum(xs[mask]))[:, column]
    raise ValueError(f"unknown coefficient node {op!r}")


def _cached(memo: dict, owner, xs: np.ndarray, need: np.ndarray, span: Interval, rows) -> np.ndarray:
    """Array over xs holding rows(need) where need holds, each point computed once per pass.

    The first request for (owner, xs) also computes the points in span; a later
    one adds its missing points to a copy, so an array handed out never changes
    (caches keyed by its id rely on that). Entries never computed are NaN."""
    key = (id(owner), id(xs))
    entry = memo.get(key)
    have = need | _in_support(span, xs, memo) if entry is None else entry[3]
    extra = have if entry is None else need > have
    if entry is not None and not np.count_nonzero(extra):
        return entry[2]
    new = rows(extra)
    vals = np.full(xs.shape + new.shape[1:], np.nan, dtype=new.dtype) if entry is None else entry[2].copy()
    vals[extra] = new
    memo[key] = (owner, xs, vals, have | extra)  # keeps owner and xs, so their ids stay unique
    return vals


# -- constructors ----------------------------------------------------


def zero_function(carrier: Interval) -> SupportedFunction:
    return SupportedFunction(EMPTY, lambda xs: np.zeros(np.shape(xs), complex), carrier)


def constant(value: complex, carrier: Interval, support: Interval | None = None) -> SupportedFunction:
    value = complex(value)
    if value == 0:
        return zero_function(carrier)
    return SupportedFunction(
        support=carrier if support is None else support,
        raw=lambda xs: np.full(np.shape(xs), value, dtype=complex),
        carrier=carrier,
        deriv=lambda xs: np.zeros(np.shape(xs), complex),
    )


def partial_identity(iv: Interval, carrier: Interval) -> SupportedFunction:
    """Indicator of iv: the projection-valued coefficient of the step elements."""
    return SupportedFunction(
        support=iv.intersect(carrier),
        raw=lambda xs: np.ones(np.shape(xs), dtype=complex),
        carrier=carrier,
        deriv=lambda xs: np.zeros(np.shape(xs), complex),
    )


def polynomial(coeffs: Sequence[complex], carrier: Interval, support: Interval | None = None) -> SupportedFunction:
    """Polynomial with ascending coefficients c0 + c1 x + c2 x^2 + ..."""
    cs = np.asarray(list(coeffs), dtype=complex)
    if cs.size == 0:
        return zero_function(carrier)
    dcs = cs[1:] * np.arange(1, cs.size)
    return SupportedFunction(
        support=carrier if support is None else support,
        raw=lambda xs: np.polynomial.polynomial.polyval(np.asarray(xs, float), cs),
        carrier=carrier,
        deriv=lambda xs: np.polynomial.polynomial.polyval(np.asarray(xs, float), dcs)
        if dcs.size
        else np.zeros(np.shape(xs), complex),
    )


def exp_wave(k: float, carrier: Interval, support: Interval | None = None) -> SupportedFunction:
    """The plane-wave formula exp(i k x)."""
    return SupportedFunction(
        support=carrier if support is None else support,
        raw=lambda xs: np.exp(1j * k * np.asarray(xs, dtype=float)),
        carrier=carrier,
        deriv=lambda xs: 1j * k * np.exp(1j * k * np.asarray(xs, dtype=float)),
    )


def sqrt_affine(a: float, b: float, carrier: Interval, support: Interval | None = None) -> SupportedFunction:
    """sqrt(a + b x) on the region where the radicand is nonnegative."""
    pos = _affine_nonneg_region(a, b)
    sup = (carrier if support is None else support).intersect(pos)

    def raw(xs):
        vals = a + b * np.asarray(xs, dtype=float)
        return np.sqrt(np.clip(vals, 0.0, None)).astype(complex)

    def deriv(xs):
        vals = a + b * np.asarray(xs, dtype=float)
        out = np.zeros(np.shape(xs), complex)
        good = vals > 0
        out[good] = b / (2.0 * np.sqrt(vals[good]))
        return out

    return SupportedFunction(sup, raw, carrier, deriv)


def _affine_nonneg_region(a: float, b: float) -> Interval:
    if b == 0:
        return Interval.real_line() if a >= 0 else EMPTY
    root = -a / b
    return Interval.at_least(root) if b > 0 else Interval.at_most(root)


def from_descriptor(desc: dict, carrier: Interval) -> SupportedFunction:
    """Build a function from its JSON descriptor (see the CLI formats)."""
    if not isinstance(desc, dict) or "type" not in desc:
        raise ValueError("function descriptor must be an object with a 'type' field")
    support = Interval.parse(desc["support"]) if "support" in desc else None
    kind = desc["type"]
    if kind == "poly":
        coeffs = [_as_complex(c) for c in desc.get("coeffs", [])]
        return polynomial(coeffs, carrier, support)
    if kind == "exp_wave":
        return exp_wave(float(desc["k"]), carrier, support)
    if kind == "sqrt_affine":
        return sqrt_affine(float(desc["a"]), float(desc["b"]), carrier, support)
    if kind == "indicator":
        iv = Interval.parse(desc["interval"])
        return partial_identity(iv if support is None else iv.intersect(support), carrier)
    if kind == "const":
        return constant(_as_complex(desc["value"]), carrier, support)
    if kind == "product":
        factors = desc.get("factors", [])
        if not factors:
            raise ValueError("product descriptor needs at least one factor")
        out = from_descriptor(factors[0], carrier)
        for d in factors[1:]:
            out = out * from_descriptor(d, carrier)
        return out
    raise ValueError(f"unknown function descriptor type {kind!r}")


def _as_complex(v) -> complex:
    if isinstance(v, (list, tuple)):
        if len(v) != 2:
            raise ValueError(f"complex value must be a [re, im] pair, got {v!r}")
        return complex(float(v[0]), float(v[1]))
    return complex(v)


# -- operations over a partial bijection ------------------------------


def pullback(f: SupportedFunction, pb: PartialBijection) -> SupportedFunction:
    """Transport f along pb: the result at y is f(pb^{-1}(y)).

    f must be supported inside pb's domain; anything else would push values
    off the ideal the operation is meant to land in, so it is an error.
    """
    if f.support.is_empty:
        return zero_function(f.carrier)
    if not f.support.subset_of(pb.domain, SUPPORT_TOL):
        raise SupportViolation(
            f"support {f.support} is not inside the bijection domain {pb.domain}"
        )
    iv = f.support.intersect(pb.domain)
    # a translation's image is exact, so it needs no sampled monotonicity check
    support = image_monotone(iv, pb.forward) if pb.offset is None else iv.shifted(pb.offset)
    return f._node("pullback", f, pb, support=support)


def residual(f: SupportedFunction, g: SupportedFunction, grid_size: int = 101) -> float:
    """Max absolute difference over the default carrier grid."""
    f._check_carrier(g)
    xs = f.carrier.grid(grid_size)
    if xs.size == 0:
        return 0.0
    return float(np.max(np.abs(f(xs) - g(xs))))


def approx_equal(f: SupportedFunction, g: SupportedFunction, grid_size: int = 101, tol: float = 1e-9) -> bool:
    return residual(f, g, grid_size) <= tol
