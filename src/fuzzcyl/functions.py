"""Complex-valued functions carrying an explicit support interval.

A function is a node of a coefficient expression: a leaf formula, or a sum,
product, scale, conjugate, derivative, pullback or angle mode of functions.
Values outside the declared support are hard zero regardless of what the
underlying formula would return, so multiplying by a partial identity or
pulling back along a partial bijection can never leak values off the allowed
set. Evaluations sharing a `memo` dict form a pass (a top-level call, or one
`distance`, `represent`, `CylinderFunction.eval` or `classical_limit_check`)
that computes each memoized function (the coefficients of crossed-product
elements) and each power's preimages once per point array. A crossed
product's output step is built from these nodes: a product of a coefficient
and a pulled-back coefficient, or a sum of such products.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from .interval import DEFAULT_TOL, EMPTY, Interval, image_monotone
from .bijection import PartialBijection

RawMap = Callable[[np.ndarray], np.ndarray]

# slack used when deciding whether a support already sits inside a target set
SUPPORT_TOL = 1e-9


class SupportedFunction:
    """A bounded complex function on `carrier`, zero outside `support`.

    A leaf (`op` "leaf") has its formula in `raw`, which must accept numpy
    arrays and be valid at least on the support, and may have its analytic
    derivative in `deriv`. Any other `op` acts on `args` (see `_formula`).
    Nodes are never changed once built.
    """

    __slots__ = ("support", "raw", "carrier", "deriv", "op", "args")

    def __init__(self, support: Interval, raw: RawMap | None, carrier: Interval,
                 deriv: RawMap | None = None, op: str = "leaf", args: tuple = ()):
        self.support, self.raw, self.carrier, self.deriv, self.op, self.args = support, raw, carrier, deriv, op, args

    def __call__(self, x, memo: dict | None = None):
        """Values at x; evaluations passing one memo share their work."""
        xs = np.asarray(x, dtype=float)
        pts = xs if xs.ndim == 1 else xs.reshape(-1)
        out = _dense(self, pts, {} if memo is None else memo)
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
        s = self.support.intersect(iv)
        return self if s is self.support else SupportedFunction(s, self.raw, self.carrier, self.deriv, self.op, self.args)

    def memoized(self) -> "SupportedFunction":
        """This function, evaluated once per point array within a pass."""
        return self if self.op == "memo" else self._node("memo", self)

    def derivative(self) -> "SupportedFunction":
        """The analytic derivative where every leaf below has one, else a central difference of step 1e-5."""
        d = None
        if self.op == "leaf" and self.deriv is not None:
            d = SupportedFunction(self.support, self.deriv, self.carrier)
        elif self.op in ("memo", "scale", "conj"):
            inner = self.args[0].derivative()
            if inner.op != "derivative":
                d = inner.restrict(self.support) if self.op == "memo" else self._node(self.op, inner, *self.args[1:])
        return self._node("derivative", self) if d is None else d

    @property
    def is_zero(self) -> bool:
        return self.support.is_empty

    def _check_carrier(self, other: "SupportedFunction") -> None:
        if self.carrier is not other.carrier and self.carrier != other.carrier:
            raise ValueError("functions live on different carrier intervals")


# -- evaluation --------------------------------------------------------


def _dense(f: SupportedFunction, xs: np.ndarray, memo: dict) -> np.ndarray:
    """f over the 1-d array xs: its formula where xs lies in its support, hard
    zero elsewhere. It may be a pass entry, which no caller writes to."""
    if f.op == "memo" and f.support is f.args[0].support:
        return _entry(f.args[0], xs, memo)
    _, mask, count = _in_support(f.support, xs, memo)
    if not count:
        return np.zeros(xs.shape, dtype=complex)
    vals = _formula(f, xs, mask, memo, True)
    return vals if count == xs.size or f.op == "leaf" else np.where(mask, vals, 0)


def _entry(g: SupportedFunction, xs: np.ndarray, memo: dict) -> np.ndarray:
    """_dense(g, xs) for a memo node's child g, once per pass and point array."""
    entry = memo.get((id(g), id(xs)))
    if entry is None:
        entry = memo[id(g), id(xs)] = (g, xs, _dense(g, xs, memo))  # keeps g and xs, so their ids stay unique
    return entry[2]


def _in_support(support: Interval, xs: np.ndarray, memo: dict) -> tuple:
    """(xs, support.contains(xs), its count), once per pass for each support and point array."""
    key = (support.lo, support.hi, support.lo_closed, support.hi_closed, support.is_empty, id(xs))
    entry = memo.get(key)
    if entry is None:
        mask = support.contains(xs, DEFAULT_TOL)
        entry = memo[key] = (xs, mask, np.count_nonzero(mask))
    return entry


def _formula(f: SupportedFunction, xs: np.ndarray, mask: np.ndarray, memo: dict, inside: bool) -> np.ndarray:
    """f's formula at the 1-d array xs where mask holds (elsewhere unspecified, zero
    for a leaf), ignoring f's own support. `inside` says mask lies in f's support,
    so a memo node reads its child's pass entry; below a derivative it does not,
    as a central difference reads formulas off the support."""
    op, args = f.op, f.args
    if op == "leaf":
        if np.count_nonzero(mask) == xs.size:
            vals = np.asarray(f.raw(xs), dtype=complex)
            return vals if vals.shape == xs.shape else np.full(xs.shape, vals)
        out = np.zeros(xs.shape, dtype=complex)
        out[mask] = f.raw(xs[mask])
        return out
    if op == "memo":
        return _entry(args[0], xs, memo) if inside else _formula(args[0], xs, mask, memo, False)
    if op == "sum":
        out = _dense(args[0], xs, memo)
        for g in args[1:]:
            out = out + _dense(g, xs, memo)
        return out
    if op == "product":
        return _formula(args[0], xs, mask, memo, inside) * _formula(args[1], xs, mask, memo, inside)
    if op == "scale":
        return args[1] * _formula(args[0], xs, mask, memo, inside)
    if op == "conj":
        return np.conjugate(_formula(args[0], xs, mask, memo, inside))
    if op == "derivative":
        g, step = args[0], 1e-5
        return (_formula(g, xs + step, mask, memo, False) - _formula(g, xs - step, mask, memo, False)) / (2.0 * step)
    if op == "pullback":
        g, pb = args
        return _dense(g, _rows(pb, pb.inverse, pb.range, xs, mask, memo, inside), memo)
    if op == "mode":  # column of an angle spectrum, see star.psi_inv
        spectrum, column, factor = args
        return factor * _rows(spectrum, spectrum, f.carrier, xs, mask, memo, inside)[:, column]
    raise ValueError(f"unknown coefficient node {op!r}")


def _rows(owner, fn, span: Interval, xs: np.ndarray, mask: np.ndarray, memo: dict, covered: bool) -> np.ndarray:
    """fn's rows at the points of xs in span, NaN elsewhere, once per pass for each
    owner and point array; unless mask is `covered` by span, the rest of mask
    is filled into a copy."""
    entry = memo.get((id(owner), id(xs)))
    if entry is None:
        have = _in_support(span, xs, memo)[1]
        new = fn(xs[have])
        vals = np.full(xs.shape + new.shape[1:], np.nan, dtype=new.dtype)
        vals[have] = new
        entry = memo[id(owner), id(xs)] = (owner, xs, vals)  # keeps owner and xs, so their ids stay unique
    if covered or not np.count_nonzero(extra := mask & ~_in_support(span, xs, memo)[1]):
        return entry[2]
    vals = entry[2].copy()
    vals[extra] = fn(xs[extra])
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
    return constant(1.0, carrier, iv.intersect(carrier))


def polynomial(coeffs: Sequence[complex], carrier: Interval, support: Interval | None = None) -> SupportedFunction:
    """Polynomial with ascending coefficients c0 + c1 x + c2 x^2 + ..."""
    cs = np.asarray(list(coeffs), dtype=complex)
    if cs.size == 0:
        return zero_function(carrier)
    top_down = [complex(c) for c in cs[::-1]]
    dtop_down = [complex(c) for c in (cs[1:] * np.arange(1, cs.size))[::-1]]
    return SupportedFunction(
        support=carrier if support is None else support,
        raw=lambda xs: _horner(top_down, xs),
        carrier=carrier,
        deriv=lambda xs: _horner(dtop_down, xs) if dtop_down else np.zeros(np.shape(xs), complex),
    )


def _horner(top_down: list[complex], xs) -> np.ndarray:
    """numpy's polyval(xs, c) for c = top_down reversed, in its own operation
    order, without its argument handling."""
    x = np.asarray(xs, dtype=float)
    c0 = top_down[0] + x * 0
    for c in top_down[1:]:
        c0 = c + c0 * x
    return c0


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
    """Transport f, clipped to pb's domain, along pb: the result at y is
    f(pb^{-1}(y)) on pb's range and zero elsewhere."""
    f = f.restrict(pb.domain)
    if f.support.is_empty:
        return zero_function(f.carrier)
    # a translation's image is exact, so it needs no sampled monotonicity check
    support = image_monotone(f.support, pb.forward) if pb.offset is None else f.support.shifted(pb.offset)
    return f._node("pullback", f, pb, support=support)


def residual(f: SupportedFunction, g: SupportedFunction) -> float:
    """Max absolute difference over the 101-point carrier grid."""
    f._check_carrier(g)
    xs = f.carrier.grid()
    if xs.size == 0:
        return 0.0
    return float(np.max(np.abs(f(xs) - g(xs))))


def approx_equal(f: SupportedFunction, g: SupportedFunction, tol: float = 1e-9) -> bool:
    """Whether the residual over the 101-point carrier grid is at most tol."""
    return residual(f, g) <= tol
