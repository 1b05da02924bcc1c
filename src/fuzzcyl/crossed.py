"""Crossed product of a supported-function algebra by one partial bijection.

Elements are finite sums of terms f_n d_n, where d_n is the n-th step and
f_n lives on the n-th member D_n of the nested interval chain: a coefficient
is clipped to it. The product twists the right factor through the partial
bijection, and the involution conjugates and transports across; `pullback`
clips what it transports to the power's domain D_-n itself.

The algebra is the `PartialAction` of its generator: it caches the powers
alpha^n, from D_-n onto D_n, and reads the chain D_n off their ranges. It
also keeps, for as long as it lives, what depends on the algebra alone: the
carrier grid of each size `distance` samples, as a `PointSet` with its masks
and preimages.
"""

from __future__ import annotations

import math
from functools import reduce
from typing import Mapping

import numpy as np

from .interval import Interval
from .bijection import PartialAction, PartialBijection, make_family
from .functions import SUPPORT_TOL, PointSet, SupportedFunction, partial_identity, polynomial, pullback

RESIDUAL_TOL = 1e-9  # largest coefficient residual the relation checks below accept by default
MAX_STEP = 10_000  # longest chain walk of nilpotency_degree, and largest |n| of a configured term


class CrossedProductAlgebra(PartialAction):
    """The crossed product by the partial action of one generator: element construction and operations."""

    def __init__(self, generator: PartialBijection):
        super().__init__(generator)
        self._grids: dict[int, PointSet] = {}

    def p(self, n: int) -> SupportedFunction:
        """Indicator coefficient of the n-th chain interval."""
        return partial_identity(self.interval_n(n), self.carrier)

    # -- element constructors -----------------------------------------

    def element(self, terms: Mapping[int, SupportedFunction]) -> "CrossedProductElement":
        out: dict[int, SupportedFunction] = {}
        for n, fn in terms.items():
            n = int(n)
            if fn.carrier is not self.carrier and fn.carrier != self.carrier:
                raise ValueError("coefficient lives on a different carrier interval")
            clipped = fn.restrict(self.interval_n(n))
            if not clipped.support.is_empty:
                out[n] = clipped.memoized()
        return CrossedProductElement(self, out)

    def zero(self) -> "CrossedProductElement":
        return CrossedProductElement(self, {})

    def one(self) -> "CrossedProductElement":
        return self.element({0: partial_identity(self.carrier, self.carrier)})

    def generator_u(self) -> "CrossedProductElement":
        """The step element p_1 d_1."""
        return self.element({1: self.p(1)})

    def generator_u_star(self) -> "CrossedProductElement":
        return self.element({-1: self.p(-1)})

    def nilpotency_degree(self) -> int | None:
        """Smallest n <= MAX_STEP with an empty chain interval D_n, or None if the chain survives.

        Each D_n comes from D_(n-1) alone, so a D_n equal to D_(n-1) repeats
        for ever: the walk stops there with None. A translation's D_n on an
        unbounded carrier is a half-line or the line, never empty.
        """
        if self.alpha.offset is not None and not self.carrier.is_bounded:
            return None
        prev = self.carrier
        for n in range(1, MAX_STEP + 1):
            d = self.interval_n(n)
            if d.is_empty:
                return n
            if d == prev:
                return None
            prev = d
        return None

    # -- operations ---------------------------------------------------

    def multiply(self, x: "CrossedProductElement", y: "CrossedProductElement") -> "CrossedProductElement":
        self._own(x)
        self._own(y)
        # (f_n d_n)(g_m d_m) = f_n (g_m pulled back along alpha^n) d_{n+m}. A step of
        # two or more terms is one sum node over them, in n-then-m order; a lone term
        # is the step itself, a product whose support does not mask it below a derivative
        steps: dict[int, list] = {}
        for n, fn in sorted(x.terms.items()):
            pbn = self.power(n)
            for m, gm in sorted(y.terms.items()):
                if self.interval_n(n + m).is_empty:
                    continue
                term = fn * pullback(gm, pbn)
                if not term.is_zero:
                    steps.setdefault(n + m, []).append(term)
        out = {}
        for k, ts in steps.items():
            hull = reduce(Interval.hull, [t.support for t in ts])
            out[k] = ts[0] if len(ts) == 1 else SupportedFunction(hull, None, ts[0].carrier, None, "sum", tuple(ts))
        return self.element(out)

    def involution(self, x: "CrossedProductElement") -> "CrossedProductElement":
        self._own(x)
        return self.element({-n: pullback(fn.conj(), self.power(-n)) for n, fn in x.terms.items()})

    def distance(self, x: "CrossedProductElement", y: "CrossedProductElement", grid_size: int = 101) -> float:
        """Max absolute coefficient difference over the carrier grid, all steps."""
        self._own(x)
        self._own(y)
        pts = self._grids.get(grid_size)
        if pts is None:
            pts = self._grids[grid_size] = PointSet(self.carrier.grid(grid_size))
        memo: dict = {}
        worst = 0.0
        for n in set(x.terms) | set(y.terms):
            fx = x.terms[n](pts, memo) if n in x.terms else np.zeros(pts.size, complex)
            fy = y.terms[n](pts, memo) if n in y.terms else np.zeros(pts.size, complex)
            worst = max(worst, float(np.max(np.abs(fx - fy))) if pts.size else 0.0)
        return worst

    def _own(self, x: "CrossedProductElement") -> None:
        if x.algebra is not self:
            raise ValueError("element belongs to a different algebra instance")


class CrossedProductElement:
    """Finite sum of step terms over one crossed-product algebra."""

    def __init__(self, algebra: CrossedProductAlgebra, terms: dict[int, SupportedFunction]):
        self.algebra = algebra
        self.terms = terms

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def steps(self) -> list[int]:
        return sorted(self.terms)

    def __mul__(self, other: "CrossedProductElement") -> "CrossedProductElement":
        return self.algebra.multiply(self, other)

    def __add__(self, other: "CrossedProductElement") -> "CrossedProductElement":
        self.algebra._own(other)
        out = dict(self.terms)
        for n, fn in other.terms.items():
            out[n] = out[n] + fn if n in out else fn
        return self.algebra.element(out)

    def __sub__(self, other: "CrossedProductElement") -> "CrossedProductElement":
        return self + other.scale(-1.0)

    def scale(self, c: complex) -> "CrossedProductElement":
        if c == 0:
            return self.algebra.zero()
        return CrossedProductElement(self.algebra, {n: f.scale(c) for n, f in self.terms.items()})

    def __rmul__(self, c: complex) -> "CrossedProductElement":
        return self.scale(c)

    def adjoint(self) -> "CrossedProductElement":
        return self.algebra.involution(self)

    def pow(self, k: int) -> "CrossedProductElement":
        if k < 1:
            raise ValueError("pow needs a positive exponent")
        out = self
        for _ in range(k - 1):
            out = out * self
        return out


# -- cylinders -------------------------------------------------------

CYLINDER_KINDS = ("finite", "half_finite", "infinite")


class Cylinder(CrossedProductAlgebra):
    """Crossed product of a step-hbar shift on a finite, half-line, or full-line interval."""

    def __init__(self, kind: str, interval: Interval, hbar: float):
        if kind not in CYLINDER_KINDS:
            raise ValueError(f"cylinder kind must be one of {CYLINDER_KINDS}, got {kind!r}")
        if not (hbar > 0):
            raise ValueError(f"cylinder step must be positive, got {hbar}")
        lo_inf = interval.lo == -math.inf
        hi_inf = interval.hi == math.inf
        shape = "infinite" if (lo_inf and hi_inf) else ("half_finite" if (lo_inf or hi_inf) else "finite")
        if interval.is_empty or shape != kind:
            raise ValueError(f"interval {interval} does not have shape {kind!r}")
        self.kind = kind
        self.hbar = float(hbar)
        self.family = make_family("shift", interval, hbar)
        super().__init__(self.family.generator)

    @property
    def order(self) -> int | None:
        """Nilpotency degree of the step element for the finite kind, else None."""
        return self.nilpotency_degree() if self.kind == "finite" else None


# -- checks ----------------------------------------------------------


def u_relations_check(alg: CrossedProductAlgebra, grid_size: int = 101, tol: float = RESIDUAL_TOL) -> dict:
    """Verify the defining relations of the step element against its adjoint,
    with f = 0.3 + x + 0.25i x^2 as the coefficient the step moves."""
    f = polynomial([0.3, 1.0, 0.25j], alg.carrier)
    u = alg.generator_u()
    us = alg.generator_u_star()
    fe = alg.element({0: f})

    def moved(g: SupportedFunction, n: int) -> CrossedProductElement:
        return alg.element({0: pullback(g, alg.power(n))})

    pairs = [
        ("uu* = p(1)", u * us, alg.element({0: alg.p(1)})),
        ("u*u = p(-1)", us * u, alg.element({0: alg.p(-1)})),
        ("uu*u = u", u * us * u, u),
        ("u*uu* = u*", us * u * us, us),
        ("u f = (f|chain thru step) u", u * fe, moved(f, 1) * u),
        ("u* f = (f|chain thru step back) u*", us * fe, moved(f, -1) * us),
    ]
    rows = []
    worst = 0.0
    for name, lhs, rhs in pairs:
        r = alg.distance(lhs, rhs, grid_size)
        worst = max(worst, r)
        rows.append({"relation": name, "residual": r, "pass": bool(r <= tol)})
    return {"relations": rows, "max_residual": worst, "pass": bool(worst <= tol)}


def equal_as_cyl(x: CrossedProductElement, y: CrossedProductElement) -> bool:
    """Compare an element over alpha with one over the inverse presentation.

    y's algebra must be generated by the inverse of x's generator; step n of x
    corresponds to step -n of y with the same coefficient. They are equal when
    their `distance` over 101 carrier points is at most RESIDUAL_TOL.
    """
    ax, ay = x.algebra, y.algebra
    if ax.carrier != ay.carrier:
        raise ValueError("presentations live on different carriers")
    if not (ay.alpha.domain.close_to(ax.alpha.range, 1e-9) and ay.alpha.range.close_to(ax.alpha.domain, 1e-9)):
        raise ValueError("second presentation is not the inverse of the first")
    probe = ay.alpha.domain.grid(33)
    if probe.size:
        drift = np.max(np.abs(np.asarray(ay.alpha.apply(probe)) - np.asarray(ax.alpha.apply_inverse(probe))))
        if drift > 1e-9 * (1.0 + float(np.max(np.abs(probe)))):
            raise ValueError("second presentation is not the inverse of the first")
    flipped = ay.element({-n: fn for n, fn in x.terms.items()})
    return ay.distance(flipped, y) <= RESIDUAL_TOL


def fixed_point_subalgebra_check(
    alg: CrossedProductAlgebra, fixed_set: Interval, elems: list[CrossedProductElement]
) -> dict:
    """On a set the bijection fixes pointwise, supported elements must commute:
    each commutator's `distance` over 101 carrier points is at most RESIDUAL_TOL."""
    report: dict = {"fixed_set": str(fixed_set), "pass": False}
    if fixed_set.is_empty:
        report.update({"vacuous": True, "precondition_ok": True, "pass": True, "pairs": []})
        return report
    report["vacuous"] = False
    xs = fixed_set.grid(33)
    if not fixed_set.subset_of(alg.alpha.domain, SUPPORT_TOL):
        report.update({"precondition_ok": False, "reason": "set leaves the bijection domain"})
        return report
    drift = float(np.max(np.abs(np.asarray(alg.alpha.apply(xs)) - xs)))
    report["fixed_point_residual"] = drift
    if drift > 1e-10 * (1.0 + float(np.max(np.abs(xs)))):
        report.update({"precondition_ok": False, "reason": "bijection does not fix the set pointwise"})
        return report
    report["precondition_ok"] = True

    stray = []
    for i, e in enumerate(elems):
        for n, fn in e.terms.items():
            if not fn.support.subset_of(fixed_set, SUPPORT_TOL):
                stray.append({"element": i, "step": n, "support": str(fn.support)})
    report["unsupported_terms"] = stray

    rows = []
    worst = 0.0
    for i in range(len(elems)):
        for j in range(i + 1, len(elems)):
            prod = elems[i] * elems[j]
            r = alg.distance(prod, elems[j] * elems[i])
            closed = all(fn.support.subset_of(fixed_set, SUPPORT_TOL) for fn in prod.terms.values())
            worst = max(worst, r)
            rows.append({"pair": [i, j], "commutator_residual": r, "closed": bool(closed)})
    report["pairs"] = rows
    report["max_commutator_residual"] = worst
    report["pass"] = bool(not stray and worst <= RESIDUAL_TOL and all(row["closed"] for row in rows))
    return report
