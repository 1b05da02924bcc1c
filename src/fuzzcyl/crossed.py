"""Crossed product of a supported-function algebra by one partial bijection.

Elements are finite sums of terms f_n d_n, where d_n is the n-th step and
f_n must live on the n-th member of the nested interval chain. The product
twists the right factor through the partial bijection; the involution
conjugates and transports across. Coefficient supports outside the chain are
clipped by default; strict mode turns a violation into an error instead.

The algebra caches the powers alpha^n: a missing power is filled from the
nearest cached one toward 0, one `next_power` step per power, so reaching
step n costs n steps once per algebra, and the chain interval of step n is
the range of the cached alpha^n.
"""

from __future__ import annotations

import math
from typing import Mapping

import numpy as np

from .interval import Interval
from .bijection import PartialBijection, identity_on, make_family, next_power
from .functions import (
    SUPPORT_TOL,
    SupportViolation,
    SupportedFunction,
    partial_identity,
    polynomial,
    pullback,
)


class CrossedProductAlgebra:
    """Handle owning the generator, its cached powers, and element construction."""

    def __init__(self, generator: PartialBijection):
        self.alpha = generator
        self.carrier = generator.carrier
        self._inverse = generator.inverted()
        # n -> (alpha^n, its iterated range for the self-check in next_power)
        self._powers: dict[int, tuple[PartialBijection, Interval]] = {
            0: (identity_on(self.carrier), self.carrier)
        }

    def power(self, n: int) -> PartialBijection:
        """alpha^n; a miss fills every power from the nearest cached one toward 0."""
        if n not in self._powers:
            sign, step = (1, self.alpha) if n > 0 else (-1, self._inverse)
            for k in range(sign, n + sign, sign):
                if k not in self._powers:
                    self._powers[k] = next_power(step, *self._powers[k - sign], abs(k))
        return self._powers[n][0]

    def interval_n(self, n: int) -> Interval:
        return self.power(n).range

    def p(self, n: int) -> SupportedFunction:
        """Indicator coefficient of the n-th chain interval."""
        return partial_identity(self.interval_n(n), self.carrier)

    # -- element constructors -----------------------------------------

    def element(self, terms: Mapping[int, SupportedFunction], mode: str = "clip") -> "CrossedProductElement":
        if mode not in ("clip", "strict"):
            raise ValueError(f"mode must be 'clip' or 'strict', got {mode!r}")
        out: dict[int, SupportedFunction] = {}
        for n, fn in terms.items():
            n = int(n)
            if fn.carrier != self.carrier:
                raise ValueError("coefficient lives on a different carrier interval")
            iv = self.interval_n(n)
            if mode == "strict" and not fn.support.subset_of(iv, SUPPORT_TOL):
                raise SupportViolation(
                    f"term {n} supported on {fn.support}, outside the chain interval {iv}"
                )
            clipped = fn.restrict(iv)
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

    def nilpotency_degree(self, max_steps: int = 10_000) -> int | None:
        """Smallest n with an empty chain interval, or None if the chain survives."""
        if not self.carrier.is_bounded:
            return None
        if self.alpha.is_empty:
            return 1
        step = abs(float(self.alpha.apply(self.alpha.domain.lo)) - self.alpha.domain.lo)
        bound = max_steps if step == 0 else min(max_steps, int(math.ceil(self.carrier.width / step)) + 3)
        for n in range(1, bound + 1):
            if self.interval_n(n).is_empty:
                return n
        return None

    # -- operations ---------------------------------------------------

    def multiply(self, x: "CrossedProductElement", y: "CrossedProductElement", mode: str = "clip") -> "CrossedProductElement":
        self._own(x)
        self._own(y)
        acc: dict[int, SupportedFunction] = {}
        for n, fn in sorted(x.terms.items()):
            pbn = self.power(n)
            for m, gm in sorted(y.terms.items()):
                if self.interval_n(n + m).is_empty:
                    continue
                gr = gm.restrict(pbn.domain)
                if gr.support.is_empty:
                    continue
                term = fn * pullback(gr, pbn)
                if term.support.is_empty:
                    continue
                key = n + m
                acc[key] = acc[key] + term if key in acc else term
        return self.element(acc, mode=mode)

    def involution(self, x: "CrossedProductElement") -> "CrossedProductElement":
        self._own(x)
        acc: dict[int, SupportedFunction] = {}
        for n, fn in x.terms.items():
            moved = pullback(fn.conj().restrict(self.power(-n).domain), self.power(-n))
            if not moved.support.is_empty:
                acc[-n] = moved
        return self.element(acc)

    def distance(self, x: "CrossedProductElement", y: "CrossedProductElement", grid_size: int = 101) -> float:
        """Max absolute coefficient difference over the carrier grid, all steps."""
        self._own(x)
        self._own(y)
        xs = self.carrier.grid(grid_size)
        memo: dict = {}
        worst = 0.0
        for n in set(x.terms) | set(y.terms):
            fx = x.terms[n](xs, memo) if n in x.terms else np.zeros(xs.shape, complex)
            fy = y.terms[n](xs, memo) if n in y.terms else np.zeros(xs.shape, complex)
            worst = max(worst, float(np.max(np.abs(fx - fy))) if xs.size else 0.0)
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
        if isinstance(c, CrossedProductElement):
            return NotImplemented
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

    def distance(self, other: "CrossedProductElement", grid_size: int = 101) -> float:
        return self.algebra.distance(self, other, grid_size)


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
        return self.nilpotency_degree()


# -- checks ----------------------------------------------------------


def u_relations_check(
    alg: CrossedProductAlgebra,
    f: SupportedFunction | None = None,
    grid_size: int = 101,
    tol: float = 1e-9,
) -> dict:
    """Verify the defining relations of the step element against its adjoint."""
    if f is None:
        f = polynomial([0.3, 1.0, 0.25j], alg.carrier)
    u = alg.generator_u()
    us = alg.generator_u_star()
    fe = alg.element({0: f})

    def moved(g: SupportedFunction, n: int) -> CrossedProductElement:
        pb = alg.power(n)
        return alg.element({0: pullback(g.restrict(pb.domain), pb)})

    pairs = [
        ("uu* = p(1)", u * us, alg.element({0: alg.p(1)})),
        ("u*u = p(-1)", us * u, alg.element({0: alg.p(-1)})),
        ("uu*u = u", u * us * u, u),
        ("u*uu* = u*", us * u * us, us),
        ("u f = (f|chain thru step) u", u * fe, moved(f.restrict(alg.interval_n(-1)), 1) * u),
        ("u* f = (f|chain thru step back) u*", us * fe, moved(f.restrict(alg.interval_n(1)), -1) * us),
    ]
    rows = []
    worst = 0.0
    for name, lhs, rhs in pairs:
        r = alg.distance(lhs, rhs, grid_size)
        worst = max(worst, r)
        rows.append({"relation": name, "residual": r, "pass": bool(r <= tol)})
    return {"relations": rows, "max_residual": worst, "pass": bool(worst <= tol)}


def equal_as_cyl(
    x: CrossedProductElement,
    y: CrossedProductElement,
    grid_size: int = 101,
    tol: float = 1e-9,
) -> bool:
    """Compare an element over alpha with one over the inverse presentation.

    y's algebra must be generated by the inverse of x's generator; step n of x
    corresponds to step -n of y with the same coefficient.
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
    return ay.distance(flipped, y, grid_size) <= tol


def fixed_point_subalgebra_check(
    alg: CrossedProductAlgebra,
    fixed_set: Interval,
    elems: list[CrossedProductElement],
    grid_size: int = 101,
    tol: float = 1e-9,
) -> dict:
    """On a set the bijection fixes pointwise, supported elements must commute."""
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
            r = prod.distance(elems[j] * elems[i], grid_size)
            closed = all(fn.support.subset_of(fixed_set, SUPPORT_TOL) for fn in prod.terms.values())
            worst = max(worst, r)
            rows.append({"pair": [i, j], "commutator_residual": r, "closed": bool(closed)})
    report["pairs"] = rows
    report["max_commutator_residual"] = worst
    report["pass"] = bool(not stray and worst <= tol and all(row["closed"] for row in rows))
    return report
