"""Exact finite-set model of the crossed product, used as a test oracle.

Ground set {0, ..., M-1}, partial bijections as lookup tables, coefficients
as length-M complex vectors. Every operation is table manipulation and exact
arithmetic, so results can be compared at machine precision against the
interval implementation sampled on compatible grids.

Each table caches its own powers; level sets, normal forms, products and
adjoints all read that one cache. A table's orbit, listed in orbit order, is a
`MatrixRep`, the matrix model of the interval orbits.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping

import numpy as np

from .bijection import SemigroupElement
from .represent import MatrixRep, OrbitSpec, build_orbit


@dataclass(frozen=True)
class FinitePartialBijection:
    """Injective partial self-map of {0..M-1} stored as an explicit table."""

    M: int
    mapping: Mapping[int, int]
    _powers: dict = field(default_factory=dict, init=False, repr=False, compare=False)

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
    def from_shift(M: int) -> "FinitePartialBijection":
        """k -> k+1 where it stays inside the ground set."""
        return FinitePartialBijection(M, {k: k + 1 for k in range(M - 1)})

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
        """n-th power, cached; a missing power is one composition with its neighbour toward 0."""
        pw = self._powers
        if n not in pw:
            if not pw:
                pw.update({0: FinitePartialBijection.identity(self.M), 1: self, -1: self.inverted()})
            sign = 1 if n > 0 else -1
            for k in range(2 * sign, n + sign, sign):
                if k not in pw:
                    pw[k] = pw[sign].compose(pw[k - sign])
        return pw[n]

    def realize(self, s: SemigroupElement) -> "FinitePartialBijection":
        mask = self.level_set(s.n_plus) & self.level_set(s.n_minus)
        return FinitePartialBijection(self.M, {k: v for k, v in self.power(s.m).mapping.items() if v in mask})

    def realize_word(self, word: Iterable[int]) -> "FinitePartialBijection":
        out = FinitePartialBijection.identity(self.M)
        for w in reversed(list(word)):  # rightmost factor applies first
            out = self.power(w).compose(out)
        return out

    def level_set(self, n: int) -> frozenset[int]:
        """Range of the n-th power: the exact finite analogue of the interval chain."""
        return self.power(n).range_set()


class FiniteCrossedProduct:
    """Crossed product of the function algebra on {0..M-1} by one table."""

    def __init__(self, alpha: FinitePartialBijection):
        self.alpha = alpha
        self.M = alpha.M

    def level_set(self, n: int) -> frozenset[int]:
        return self.alpha.level_set(n)

    def element(self, terms: Mapping) -> "FiniteAlgebraElement":
        """Build an element; keys may be integers or normal-form triples.

        A term keyed by a normal-form triple s must live on the level sets
        n+ and n- in common, the range of the table s names (level sets
        nest), and is stored under its net power: the quotient is taken
        eagerly.
        """
        out: dict[int, np.ndarray] = {}
        for key, vec in terms.items():
            vec = np.asarray(vec, dtype=complex)
            if vec.shape != (self.M,):
                raise ValueError(f"coefficient vector must have length {self.M}")
            if isinstance(key, SemigroupElement):
                m, allowed = key.m, self.level_set(key.n_plus) & self.level_set(key.n_minus)
            else:
                m = int(key)
                allowed = self.level_set(m)
            stray = vec != 0
            stray[list(allowed)] = False
            if np.any(stray):
                bad = np.flatnonzero(stray).tolist()
                raise ValueError(f"coefficient supported outside the allowed set at indices {bad}")
            if np.any(vec != 0):
                out[m] = out.get(m, np.zeros(self.M, complex)) + vec
        return FiniteAlgebraElement(self, {k: v for k, v in out.items() if np.any(v != 0)})

    def indicator(self, subset: Iterable[int]) -> np.ndarray:
        vec = np.zeros(self.M, complex)
        vec[list(subset)] = 1.0
        return vec

    def unit_of(self, s: SemigroupElement) -> "FiniteAlgebraElement":
        """The partial isometry named by a normal-form triple."""
        return self.element({s: self.indicator(self.level_set(s.n_plus) & self.level_set(s.n_minus))})

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
            inv_n = alg.alpha.power(-n)
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
            fwd_m = alg.alpha.power(m)
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


def finite_orbit(alpha: FinitePartialBijection, base: int) -> list[int]:
    """Closure of base under the table and its inverse: alpha^n(base) for n = -M..M, each point once.

    Read off the table's cached powers; a cycle closes up, as the sequence is periodic.
    """
    pts = (alpha.power(n).mapping.get(base) for n in range(-alpha.M, alpha.M + 1))
    return list(dict.fromkeys(p for p in pts if p is not None))


def oracle_covariant_rep(alpha: FinitePartialBijection, base: int) -> MatrixRep:
    """The orbit of base as a matrix model, closed when the table maps its last point to its first."""
    pts = finite_orbit(alpha, base)
    closed = alpha.mapping.get(pts[-1]) == pts[0]
    return MatrixRep(OrbitSpec(np.array(pts, dtype=int), (base,), pts.index(base), closed))


def oracle_represent(x: FiniteAlgebraElement, rep: MatrixRep) -> np.ndarray:
    """Add each coefficient along its step's diagonals, as represent does on interval orbits."""
    out = np.zeros((rep.dim, rep.dim), complex)
    for n, vec in x.terms.items():
        rep.add_step_term(out, n, vec[rep.orbit.points])
    return out


class GridIncompatible(ValueError):
    """The bijection does not close over the sampled grid."""


def sample_element(x, finite_algebra: FiniteCrossedProduct, points: np.ndarray) -> FiniteAlgebraElement:
    """Evaluate an interval element's coefficients on the grid in one pass, keyed alike."""
    memo: dict = {}
    return finite_algebra.element(
        {n: np.asarray(fn(points, memo), dtype=complex) for n, fn in x.terms.items()}
    )


def _sampled_diff(x, fx: FiniteAlgebraElement, points: np.ndarray) -> float:
    memo: dict = {}
    zero = np.zeros(len(points), complex)
    worst = 0.0
    for n in set(x.terms) | set(fx.terms):
        iv = np.asarray(x.terms[n](points, memo), dtype=complex) if n in x.terms else zero
        worst = max(worst, float(np.max(np.abs(iv - fx.terms.get(n, zero)))))
    return worst


def sample_interval_to_finite(algebra, base_point, elements=(), tol: float = 1e-10, truncation: int = 64):
    """Discretize a cylinder onto an orbit grid and cross-check both arithmetics.

    The grid is the orbit window through base_point, and the finite table is
    the window's links of V: each point to the next in orbit order. A window
    whose spacing is below tol, or whose orbit goes on past either end
    (half-line shifts, the disc map accumulating at its fixed point, a walk
    that stalls there, a window cut short by its truncation), raises
    GridIncompatible. On a closed grid chain
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
    images, sources = MatrixRep(orbit).links(1)
    mapping = dict(zip(sources.tolist(), images.tolist()))
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
