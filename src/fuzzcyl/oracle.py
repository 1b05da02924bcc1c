"""Exact finite-set model of the crossed product, used as a test oracle.

Ground set {0, ..., M-1}, partial bijections as lookup tables, coefficients
as length-M complex vectors. Every operation is table manipulation and exact
arithmetic, so results can be compared at machine precision against the
interval implementation sampled on compatible grids.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np

from .bijection import SemigroupElement
from .represent import add_step_term, build_orbit


@dataclass(frozen=True)
class FinitePartialBijection:
    """Injective partial self-map of {0..M-1} stored as an explicit table."""

    M: int
    mapping: Mapping[int, int]

    def __post_init__(self) -> None:
        mp = dict(self.mapping)
        object.__setattr__(self, "mapping", mp)
        for k, v in mp.items():
            if not (0 <= k < self.M and 0 <= v < self.M):
                raise ValueError(f"table entry {k}->{v} leaves the ground set of size {self.M}")
        if len(set(mp.values())) != len(mp):
            raise ValueError("table is not injective")

    @staticmethod
    def identity(M: int) -> "FinitePartialBijection":
        return FinitePartialBijection(M, {k: k for k in range(M)})

    @staticmethod
    def from_shift(M: int, window: Iterable[int] | None = None) -> "FinitePartialBijection":
        """k -> k+1 where it stays inside the ground set (or inside window)."""
        allowed = set(range(M)) if window is None else set(window)
        return FinitePartialBijection(
            M, {k: k + 1 for k in allowed if (k + 1) < M and (k + 1) in allowed}
        )

    def domain_set(self) -> frozenset[int]:
        return frozenset(self.mapping.keys())

    def range_set(self) -> frozenset[int]:
        return frozenset(self.mapping.values())

    def inverted(self) -> "FinitePartialBijection":
        return FinitePartialBijection(self.M, {v: k for k, v in self.mapping.items()})

    def compose(self, inner: "FinitePartialBijection") -> "FinitePartialBijection":
        """self after inner."""
        if inner.M != self.M:
            raise ValueError("ground sets differ")
        return FinitePartialBijection(
            self.M, {k: self.mapping[v] for k, v in inner.mapping.items() if v in self.mapping}
        )

    def power(self, n: int) -> "FinitePartialBijection":
        if n == 0:
            return FinitePartialBijection.identity(self.M)
        step = self if n > 0 else self.inverted()
        out = step
        for _ in range(abs(n) - 1):
            out = step.compose(out)
        return out

    def realize(self, s: SemigroupElement) -> "FinitePartialBijection":
        mask = self.power(s.n_plus).range_set() & self.power(s.n_minus).range_set()
        pw = self.power(s.m)
        return FinitePartialBijection(self.M, {k: v for k, v in pw.mapping.items() if v in mask})

    def realize_word(self, word: Iterable[int]) -> "FinitePartialBijection":
        out = FinitePartialBijection.identity(self.M)
        for w in reversed(list(word)):  # rightmost factor applies first
            out = self.power(w).compose(out)
        return out

    def level_set(self, n: int) -> frozenset[int]:
        """Range of the n-th power: the exact finite analogue of the interval chain."""
        return self.power(n).range_set()


def _mask_vector(vec: np.ndarray, allowed: frozenset[int]) -> np.ndarray:
    out = np.zeros_like(np.asarray(vec, dtype=complex))
    for k in allowed:
        out[k] = vec[k]
    return out


class FiniteCrossedProduct:
    """Crossed product of the function algebra on {0..M-1} by one table."""

    def __init__(self, alpha: FinitePartialBijection):
        self.alpha = alpha
        self.M = alpha.M
        self._inverse = alpha.inverted()
        self._pow: dict[int, FinitePartialBijection] = {0: FinitePartialBijection.identity(self.M)}

    def power(self, n: int) -> FinitePartialBijection:
        """n-th power; each missing power is one composition with the power next to it toward 0."""
        sign, step = (1, self.alpha) if n > 0 else (-1, self._inverse)
        for k in range(sign, n + sign, sign):
            if k not in self._pow:
                self._pow[k] = step.compose(self._pow[k - sign])
        return self._pow[n]

    def level_set(self, n: int) -> frozenset[int]:
        return self.power(n).range_set()

    def element(self, terms: Mapping) -> "FiniteAlgebraElement":
        """Build an element; keys may be integers or normal-form triples.

        A term keyed by a normal-form triple s is stored under its net power
        after masking to s's joint range: the quotient is taken eagerly.
        """
        out: dict[int, np.ndarray] = {}
        for key, vec in terms.items():
            vec = np.asarray(vec, dtype=complex)
            if vec.shape != (self.M,):
                raise ValueError(f"coefficient vector must have length {self.M}")
            if isinstance(key, SemigroupElement):
                allowed = self.alpha.realize(key).range_set()
                m = key.m
            else:
                m = int(key)
                allowed = self.level_set(m)
            masked = _mask_vector(vec, allowed)
            if np.any(masked != vec):
                bad = [k for k in range(self.M) if vec[k] != 0 and k not in allowed]
                raise ValueError(f"coefficient supported outside the allowed set at indices {bad}")
            if np.any(masked != 0):
                out[m] = out.get(m, np.zeros(self.M, complex)) + masked
        return FiniteAlgebraElement(self, {k: v for k, v in out.items() if np.any(v != 0)})

    def indicator(self, subset: Iterable[int]) -> np.ndarray:
        vec = np.zeros(self.M, complex)
        for k in subset:
            vec[k] = 1.0
        return vec

    def unit_of(self, s: SemigroupElement) -> "FiniteAlgebraElement":
        """The partial isometry named by a normal-form triple."""
        return self.element({s: self.indicator(self.alpha.realize(s).range_set())})

    def u(self) -> "FiniteAlgebraElement":
        return self.unit_of(SemigroupElement(1, 0, 1))

    def zero(self) -> "FiniteAlgebraElement":
        return FiniteAlgebraElement(self, {})


class FiniteAlgebraElement:
    """Finite sum of coefficient-vector terms indexed by net powers."""

    def __init__(self, algebra: FiniteCrossedProduct, terms: dict[int, np.ndarray]):
        self.algebra = algebra
        self.terms = terms

    def __add__(self, other: "FiniteAlgebraElement") -> "FiniteAlgebraElement":
        self._check(other)
        out = {k: v.copy() for k, v in self.terms.items()}
        for k, v in other.terms.items():
            out[k] = out.get(k, np.zeros(self.algebra.M, complex)) + v
        return FiniteAlgebraElement(self.algebra, {k: v for k, v in out.items() if np.any(v != 0)})

    def __sub__(self, other: "FiniteAlgebraElement") -> "FiniteAlgebraElement":
        return self + other.scale(-1.0)

    def scale(self, c: complex) -> "FiniteAlgebraElement":
        if c == 0:
            return self.algebra.zero()
        return FiniteAlgebraElement(self.algebra, {k: c * v for k, v in self.terms.items()})

    def __mul__(self, other: "FiniteAlgebraElement") -> "FiniteAlgebraElement":
        self._check(other)
        alg = self.algebra
        out: dict[int, np.ndarray] = {}
        for n, a in self.terms.items():
            inv_n = alg.power(n).inverted()
            for m, b in other.terms.items():
                c = np.zeros(alg.M, complex)
                for y, x in inv_n.mapping.items():
                    c[y] = a[y] * b[x]
                if np.any(c != 0):
                    key = n + m
                    out[key] = out.get(key, np.zeros(alg.M, complex)) + c
        return FiniteAlgebraElement(alg, {k: v for k, v in out.items() if np.any(v != 0)})

    def adjoint(self) -> "FiniteAlgebraElement":
        alg = self.algebra
        out: dict[int, np.ndarray] = {}
        for m, a in self.terms.items():
            fwd_m = alg.power(m)
            c = np.zeros(alg.M, complex)
            for x, y in fwd_m.mapping.items():
                c[x] = np.conj(a[y])
            if np.any(c != 0):
                out[-m] = out.get(-m, np.zeros(alg.M, complex)) + c
        return FiniteAlgebraElement(alg, out)

    def _check(self, other: "FiniteAlgebraElement") -> None:
        if other.algebra is not self.algebra:
            raise ValueError("elements belong to different finite algebras")

    def distance(self, other: "FiniteAlgebraElement") -> float:
        self._check(other)
        keys = set(self.terms) | set(other.terms)
        z = np.zeros(self.algebra.M, complex)
        d = 0.0
        for k in keys:
            d = max(d, float(np.max(np.abs(self.terms.get(k, z) - other.terms.get(k, z)))))
        return d

    def equals(self, other: "FiniteAlgebraElement") -> bool:
        return self.distance(other) == 0.0

    @property
    def is_zero(self) -> bool:
        return not self.terms


# -- exact covariant representation ----------------------------------


@dataclass
class FiniteOrbitRep:
    """An orbit of the table; succ[i] is the orbit index of the image of points[i], or -1."""

    points: list[int]
    index: dict[int, int]
    succ: np.ndarray

    @property
    def dim(self) -> int:
        return len(self.points)

    @property
    def V(self) -> np.ndarray:
        return add_step_term(np.zeros((self.dim, self.dim), complex), self.succ, 1, np.ones(self.dim))

    @property
    def Vstar(self) -> np.ndarray:
        return self.V.T.conj()


def finite_orbit(alpha: FinitePartialBijection, base: int) -> list[int]:
    """Closure of a point under the table and its inverse; cycles close up."""
    back = []
    seen = {base}
    inv = alpha.inverted()
    y = base
    while y in inv.mapping:
        y = inv.mapping[y]
        if y in seen:
            break
        back.append(y)
        seen.add(y)
    fwd = []
    y = base
    while y in alpha.mapping:
        y = alpha.mapping[y]
        if y in seen:
            break
        fwd.append(y)
        seen.add(y)
    return list(reversed(back)) + [base] + fwd


def oracle_covariant_rep(alpha: FinitePartialBijection, base: int) -> FiniteOrbitRep:
    pts = finite_orbit(alpha, base)
    idx = {p: i for i, p in enumerate(pts)}
    succ = np.array([idx.get(alpha.mapping.get(p), -1) for p in pts], dtype=int)
    return FiniteOrbitRep(pts, idx, succ)


def oracle_represent(x: FiniteAlgebraElement, rep: FiniteOrbitRep) -> np.ndarray:
    """Scatter each coefficient along its step's index map, as represent does on interval orbits."""
    out = np.zeros((rep.dim, rep.dim), complex)
    for n, vec in x.terms.items():
        s = np.arange(rep.dim)
        for _ in range(abs(n)):
            s = np.where(s >= 0, rep.succ[s], -1)
        add_step_term(out, s, n, vec[rep.points])
    return out


class GridIncompatible(ValueError):
    """The bijection does not close over the sampled grid."""


def sample_element(x, finite_algebra: FiniteCrossedProduct, points: np.ndarray) -> FiniteAlgebraElement:
    """Evaluate an interval element's coefficients on the grid, keyed alike."""
    return finite_algebra.element(
        {n: np.asarray(fn(points), dtype=complex) for n, fn in x.terms.items()}
    )


def _sampled_diff(x, fx: FiniteAlgebraElement, points: np.ndarray) -> float:
    worst = 0.0
    for n in set(x.terms) | set(fx.terms):
        iv = np.asarray(x.terms[n](points), dtype=complex) if n in x.terms else np.zeros(len(points), complex)
        fv = fx.terms.get(n, np.zeros(len(points), complex))
        worst = max(worst, float(np.max(np.abs(iv - fv))))
    return worst


def sample_interval_to_finite(algebra, base_point, elements=(), tol: float = 1e-10, truncation: int = 64):
    """Discretize a cylinder onto an orbit grid and cross-check both arithmetics.

    The grid is the orbit window through base_point, and the finite table is
    its successor map, read by position along the walk. A window whose
    spacing is below tol, or whose orbit goes on past either end (half-line
    shifts, the disc map accumulating at its fixed point, a window cut short
    by its truncation), raises GridIncompatible. On a closed grid chain
    membership is compared index by index, and every pairwise product and
    adjoint of the supplied elements is computed along both routes.

    Returns (finite_algebra, points, report).
    """
    orbit = build_orbit(algebra.alpha, base_point, truncation)
    points, M = orbit.points, orbit.dim
    if M > 1 and np.min(np.abs(np.diff(points))) < tol:
        raise GridIncompatible(f"grid points lie closer together than the tolerance {tol:.3g}")
    for chain in orbit.chains:
        if chain.minus_truncated:
            raise GridIncompatible(f"preimage of grid point {points[chain.indices[0]]:.6g} is not on the grid")
        if chain.plus_truncated:
            raise GridIncompatible(f"image of grid point {points[chain.indices[-1]]:.6g} is not on the grid")
    mapping = {j: int(s) for j, s in enumerate(orbit.succ) if s >= 0}
    finite_algebra = FiniteCrossedProduct(FinitePartialBijection(M, mapping))

    mismatches = []
    for n in range(-(M + 1), M + 2):
        allowed = np.zeros(M, dtype=bool)
        allowed[list(finite_algebra.level_set(n))] = True
        for i in np.flatnonzero(algebra.interval_n(n).contains(points, tol) != allowed):
            mismatches.append({"n": n, "index": int(i), "point": float(points[i])})

    sampled = [sample_element(x, finite_algebra, points) for x in elements]
    worst = 0.0
    checks = 0
    for x, fx in zip(elements, sampled):
        worst = max(worst, _sampled_diff(x, fx, points))
        worst = max(worst, _sampled_diff(x.adjoint(), fx.adjoint(), points))
        checks += 2
    for x, fx in zip(elements, sampled):
        for y, fy in zip(elements, sampled):
            worst = max(worst, _sampled_diff(x * y, fx * fy, points))
            checks += 1

    report = {
        "M": M,
        "points": [float(p) for p in points],
        "mapping_size": len(mapping),
        "membership_mismatches": mismatches,
        "membership_pass": not mismatches,
        "comparisons": checks,
        "max_element_diff": worst,
        "pass": bool(not mismatches and worst <= tol),
    }
    return finite_algebra, points, report
