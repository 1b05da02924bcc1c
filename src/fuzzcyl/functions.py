"""Complex-valued functions carrying an explicit support interval.

A function is a node of a coefficient expression: a leaf formula, or a sum,
product, scale, conjugate, derivative, pullback or angle mode of functions.
Values outside the declared support are hard zero regardless of what the
underlying formula would return, so multiplying by a partial identity or
pulling back along a partial bijection can never leak values off the allowed
set. A crossed product's output step is built from these nodes: a product of
a coefficient and a pulled-back coefficient, or a sum of such products.

Functions are evaluated on a `PointSet`, which keeps what depends on its
points alone for as long as it lives: the mask of each support, the
preimages under each power, and the points as complex numbers, which
polynomial leaves read. An algebra keeps one per grid size for
`distance`, and a `MatrixRep` one for its window; an array passed in gets one
for the pass. Values live for one pass: evaluations sharing a `memo` dict (a
top-level call, or one `distance`, `represent`, `CylinderFunction.eval` or
`classical_limit_check`) compute each memoized function (the coefficients of
crossed-product elements) and each angle spectrum once per point set, and
the memo goes when the pass ends.
"""

from __future__ import annotations

import cmath
from typing import Callable, Sequence

import numpy as np

from .interval import DEFAULT_TOL, EMPTY, Interval
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
        """Values at x, points or a `PointSet`; evaluations passing one memo share their work."""
        memo = {} if memo is None else memo
        if isinstance(x, PointSet):
            return _dense(self, x, memo)
        xs = np.asarray(x, dtype=float)
        pts = xs if xs.ndim == 1 else xs.reshape(-1)
        entry = memo.get(id(pts))
        if entry is None:  # the pass's point set over pts; the entry keeps pts, so its id stays unique
            entry = memo[id(pts)] = (pts, PointSet(pts))
        out = _dense(self, entry[1], memo)
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


class PointSet:
    """Points and the geometry read off them: the mask of each support, keyed by
    its value, the preimages under each partial bijection, as child point
    sets, and the points as complex numbers. Values of functions are never
    kept here; they live in a pass's memo."""

    __slots__ = ("xs", "_masks", "_preimages", "_complex")

    def __init__(self, xs: np.ndarray):
        self.xs, self._masks, self._preimages, self._complex = xs, {}, {}, None

    @property
    def size(self) -> int:
        return self.xs.size

    def complex_points(self) -> tuple:
        """(xs, xs * 0) as complex arrays, built on first use: a polynomial leaf's operands."""
        if self._complex is None:
            self._complex = (self.xs.astype(complex), (self.xs * 0).astype(complex))
        return self._complex

    def mask(self, support: Interval) -> tuple:
        """(support.contains(xs), its count)."""
        key = (support.lo, support.hi, support.lo_closed, support.hi_closed, support.is_empty)
        entry = self._masks.get(key)
        if entry is None:
            mask = support.contains(self.xs, DEFAULT_TOL)
            entry = self._masks[key] = (mask, np.count_nonzero(mask))
        return entry

    def preimage(self, pb: PartialBijection) -> "PointSet":
        """pb's inverse at the points in pb's range, NaN elsewhere."""
        entry = self._preimages.get(id(pb))
        if entry is None:  # the entry keeps pb, so its id stays unique
            entry = self._preimages[id(pb)] = (pb, PointSet(_rows(pb.inverse, pb.range, self)))
        return entry[1]


def _dense(f: SupportedFunction, pts: PointSet, memo: dict) -> np.ndarray:
    """f over the points: its formula where they lie in its support, hard zero
    elsewhere. It may be a pass entry, which no caller writes to."""
    if f.op == "memo" and f.support is f.args[0].support:
        return _entry(f.args[0], pts, memo)
    mask, count = pts.mask(f.support)
    if not count:
        return np.zeros(pts.xs.shape, dtype=complex)
    if count < pts.xs.size and f.op == "product":  # the masked store folded into the multiply
        a = _formula(f.args[0], pts, mask, memo, True)
        b = _formula(f.args[1], pts, mask, memo, True)
        return np.multiply(a, b, out=np.zeros(pts.xs.shape, dtype=complex), where=mask)
    vals = _formula(f, pts, mask, memo, True)
    if count < pts.xs.size and f.op != "leaf":
        if f.op in ("memo", "pullback"):  # vals may be a pass entry
            return np.where(mask, vals, 0)
        vals[~mask] = 0  # any other node made vals itself
    return vals


def _entry(g: SupportedFunction, pts: PointSet, memo: dict) -> np.ndarray:
    """_dense(g, pts) for a memo node's child g, once per pass and point set."""
    vals = memo.get((g, pts))
    if vals is None:
        vals = memo[g, pts] = _dense(g, pts, memo)
    return vals


def _formula(f: SupportedFunction, pts: PointSet, mask: np.ndarray, memo: dict, inside: bool) -> np.ndarray:
    """f's formula at the points where mask holds (elsewhere unspecified, zero
    for a leaf), ignoring f's own support. `inside` says mask lies in f's support,
    so a memo node reads its child's pass entry; below a derivative it does not,
    as a central difference reads formulas off the support."""
    op, args, xs = f.op, f.args, pts.xs
    if op == "leaf":
        whole = np.count_nonzero(mask) == xs.size
        # a polynomial reads the point set's complex points, kept with it; not below a
        # derivative, whose offset point sets (x ± step) are made per call
        if inside and type(f.raw) is _Polynomial:
            x, zero = pts.complex_points()
            if not whole:
                x, zero = x[mask], zero[mask]
            vals = _horner(f.raw.top_down, x, zero)
        else:
            vals = np.asarray(f.raw(xs if whole else xs[mask]), dtype=complex)
        if whole:
            return vals if vals.shape == xs.shape else np.full(xs.shape, vals)
        out = np.zeros(xs.shape, dtype=complex)
        out[mask] = vals
        return out
    if op == "memo":
        return _entry(args[0], pts, memo) if inside else _formula(args[0], pts, mask, memo, False)
    if op == "sum":  # of two or more functions
        out = _dense(args[0], pts, memo)
        for g in args[1:]:
            out = out + _dense(g, pts, memo)
        return out
    if op == "product":
        return _formula(args[0], pts, mask, memo, inside) * _formula(args[1], pts, mask, memo, inside)
    if op == "scale":
        return args[1] * _formula(args[0], pts, mask, memo, inside)
    if op == "conj":
        return np.conjugate(_formula(args[0], pts, mask, memo, inside))
    if op == "derivative":
        g, step = args[0], 1e-5
        up, down = PointSet(xs + step), PointSet(xs - step)
        return (_formula(g, up, mask, memo, False) - _formula(g, down, mask, memo, False)) / (2.0 * step)
    if op == "pullback":
        g, pb = args
        pre = pts.preimage(pb)
        if not inside:
            filled = _filled(pre.xs, pb.inverse, pb.range, pts, mask)
            pre = pre if filled is pre.xs else PointSet(filled)
        return _dense(g, pre, memo)
    if op == "mode":  # column of an angle spectrum, see star.psi_inv
        spectrum, column, factor = args
        rows = memo.get((spectrum, pts))
        if rows is None:
            rows = memo[spectrum, pts] = _rows(spectrum, f.carrier, pts)
        return factor * (rows if inside else _filled(rows, spectrum, f.carrier, pts, mask))[:, column]
    raise ValueError(f"unknown coefficient node {op!r}")


def _rows(fn, span: Interval, pts: PointSet) -> np.ndarray:
    """fn's rows at the points in span, NaN elsewhere."""
    have = pts.mask(span)[0]
    new = fn(pts.xs[have])
    vals = np.full(pts.xs.shape + new.shape[1:], np.nan, dtype=new.dtype)
    vals[have] = new
    return vals


def _filled(rows: np.ndarray, fn, span: Interval, pts: PointSet, mask: np.ndarray) -> np.ndarray:
    """_rows(fn, span, pts), with fn's rows at the points of mask outside span
    filled into a copy; rows itself when there are none."""
    extra = mask & ~pts.mask(span)[0]
    if not np.count_nonzero(extra):
        return rows
    rows = rows.copy()
    rows[extra] = fn(pts.xs[extra])
    return rows


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
    coeffs = list(coeffs)
    if not coeffs:
        return zero_function(carrier)
    raw = _Polynomial([complex(c) for c in reversed(coeffs)])
    return SupportedFunction(carrier if support is None else support, raw, carrier, raw.derivative)


class _Polynomial:
    """A polynomial leaf's formula, kept as its coefficients top-down; its
    derivative's are made on the first `derivative` call."""

    __slots__ = ("top_down", "_dtop_down")

    def __init__(self, top_down: list[complex]):
        self.top_down, self._dtop_down = top_down, None

    def __call__(self, xs) -> np.ndarray:
        x = np.asarray(xs, dtype=float)
        return _horner(self.top_down, x, x * 0)

    def derivative(self, xs) -> np.ndarray:
        if self._dtop_down is None:
            cs = np.asarray(self.top_down[::-1], dtype=complex)
            self._dtop_down = [complex(c) for c in (cs[1:] * np.arange(1, cs.size))[::-1]]
        x = np.asarray(xs, dtype=float)
        return _horner(self._dtop_down, x, x * 0) if self._dtop_down else np.zeros(x.shape, complex)


def _horner(top_down: list[complex], x: np.ndarray, zero: np.ndarray) -> np.ndarray:
    """numpy's polyval(x, c) for c = top_down reversed, in its own operation
    order, without its argument handling, in place on one new array. x is a
    float or complex array of at least one dimension, and zero is x * 0."""
    vals = top_down[0] + zero
    for c in top_down[1:]:
        np.multiply(vals, x, out=vals)
        np.add(c, vals, out=vals)
    return vals


def exp_wave(k: float, carrier: Interval, support: Interval | None = None) -> SupportedFunction:
    """The plane-wave formula exp(i k x)."""
    _finite(k)
    return SupportedFunction(
        support=carrier if support is None else support,
        raw=lambda xs: np.exp(1j * k * np.asarray(xs, dtype=float)),
        carrier=carrier,
        deriv=lambda xs: 1j * k * np.exp(1j * k * np.asarray(xs, dtype=float)),
    )


def sqrt_affine(a: float, b: float, carrier: Interval, support: Interval | None = None) -> SupportedFunction:
    """sqrt(a + b x) on the region where the radicand is nonnegative."""
    _finite(a)
    _finite(b)
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
        return _finite(complex(float(v[0]), float(v[1])))
    return _finite(complex(v))


def _finite(v: complex) -> complex:
    """v, refused where it is not finite: JSON reads 1e309 as inf."""
    if not cmath.isfinite(v):
        raise ValueError(f"value {v!r} is not finite")
    return v


# -- operations over a partial bijection ------------------------------


def pullback(f: SupportedFunction, pb: PartialBijection) -> SupportedFunction:
    """Transport f, clipped to pb's domain, along pb: the result at y is
    f(pb^{-1}(y)) on pb's range and zero elsewhere."""
    clip, image = pb.transport(f.support)
    if clip.is_empty:
        return zero_function(f.carrier)
    f = f.restrict(clip)
    return f._node("pullback", f, pb, support=image)


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
