"""Finite matrix models on orbit windows of the partial bijection.

The basis is the orbit of one base point, walked in both directions until
the bijection runs out of domain or a truncation budget is spent; basis
vector j is the j-th point of that walk. The window is a path, or a cycle
when its last point maps to its first, so V^n has a closed form: it sends
basis vector j to j + n, taken mod dim on a closed window, and to nothing
where j + n leaves a path. An element's matrix adds each sampled
coefficient along its step's diagonals, as strided views of the matrix;
dense 0/1 matrices of V and its powers are real, built only on request. A
forward walk that stalls at a point the bijection fixes ends the window
there, as truncated. On full orbits this is an exact *-homomorphism; on
truncated windows the outermost indices of each cut side see wrong
projections, so the covariance checks exclude a strip as deep as the step
being tested.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Sequence

import numpy as np

from .interval import DEFAULT_TOL
from .bijection import PartialBijection
from .crossed import CrossedProductAlgebra, CrossedProductElement
from .functions import PointSet, SupportedFunction, polynomial, pullback


@dataclass
class OrbitChain:
    indices: list[int]
    minus_truncated: bool
    plus_truncated: bool


@dataclass
class OrbitSpec:
    """A finite window of one base point's orbit, in orbit order.

    alpha maps points[j] to points[j + 1]; on a closed window it also maps
    the last point to the first. points[base_index] is the base point.
    """

    points: np.ndarray
    base_points: tuple[float, ...]
    base_index: int
    closed: bool
    chains: list[OrbitChain] = field(default_factory=list)

    @property
    def dim(self) -> int:
        return len(self.points)


def _walk(step, defined, x0: float, budget: int) -> tuple[list[float], bool]:
    """Up to `budget` successive images of x0 under `step`, while `defined` holds.

    The flag is set when the walk stopped at a point that `step` fixes.
    """
    out: list[float] = []
    y = x0
    while len(out) < budget and defined(y, DEFAULT_TOL):
        ny = float(step(np.asarray(y, dtype=float)))
        if ny == y:
            return out, True
        out.append(ny)
        y = ny
    return out, False


def build_orbit(alpha: PartialBijection, base_point: float, truncation: int = 64) -> OrbitSpec:
    """Orbit window of at most `truncation` points, centred on base_point.

    The window is one chain in walk order. It is closed only when alpha
    fixes the base point itself; a walk that stalls after leaving the base
    point ends there, and that end counts as truncated.
    """
    if truncation < 1:
        raise ValueError("truncation budget must be at least 1")
    b = float(base_point)
    if not alpha.carrier.contains(b, DEFAULT_TOL):
        raise ValueError(f"base point {b} is outside the carrier {alpha.carrier}")
    fwd, fixed = _walk(alpha.apply, alpha.domain.contains, b, truncation)
    back, _ = _walk(alpha.apply_inverse, alpha.range.contains, b, truncation)
    kb, kf = _centered_window(len(back), len(fwd), truncation)
    points = np.asarray(back[:kb][::-1] + [b] + fwd[:kf], dtype=float)
    closed = fixed and not fwd and not kb  # the base point alone, fixed by alpha
    chain = OrbitChain(
        list(range(len(points))),
        minus_truncated=not closed and alpha.range.contains(float(points[0]), DEFAULT_TOL),
        plus_truncated=not closed and alpha.domain.contains(float(points[-1]), DEFAULT_TOL),
    )
    return OrbitSpec(points, (b,), kb, closed, [chain])


def _centered_window(len_b: int, len_f: int, truncation: int) -> tuple[int, int]:
    """Keep the base point plus alternating nearest neighbours, forward first.

    Of the t = truncation - 1 neighbours, the forward side takes its half
    (rounded up) or what the backward side leaves over, whichever is more.
    """
    t = truncation - 1
    kf = min(len_f, max((t + 1) // 2, t - len_b))
    return min(len_b, t - kf), kf


@dataclass
class MatrixRep:
    """The step element of an orbit window, with V^n's links in closed form."""

    orbit: OrbitSpec

    @property
    def dim(self) -> int:
        return self.orbit.dim

    @cached_property
    def point_set(self) -> PointSet:
        """The window's points, with the masks and preimages `represent` reads off them."""
        return PointSet(self.orbit.points)

    def links(self, n: int) -> tuple[np.ndarray, np.ndarray]:
        """(images, sources) of V^n: basis vector j goes to j + n, mod dim on a closed window."""
        dim = self.dim
        if self.orbit.closed:
            sources = np.arange(dim)
            return (sources + n) % dim, sources
        sources = np.arange(max(0, -n), min(dim, dim - n))
        return sources + n, sources

    def add_step_term(self, out: np.ndarray, n: int, values: np.ndarray) -> np.ndarray:
        """Add diag(values) @ V^n to out in place: values[j + n] at (j + n, j), along
        strided views of out. A closed window's V^n is a path's V^k plus its
        V^(k - dim), for k = n mod dim."""
        dim = self.dim
        for k in (n % dim, n % dim - dim) if self.orbit.closed else (n,):
            lo, hi = max(k, 0), min(dim, dim + k)  # the rows j + k
            if lo < hi:
                out.reshape(-1)[lo * (dim + 1) - k:hi * dim:dim + 1] += values[lo:hi]
        return out

    def step_power(self, n: int) -> np.ndarray:
        """Dense real 0/1 matrix of V^n (V*^|n| for negative n)."""
        return self.add_step_term(np.zeros((self.dim, self.dim)), n, np.ones(self.dim))

    @property
    def V(self) -> np.ndarray:
        return self.step_power(1)

    @property
    def Vstar(self) -> np.ndarray:
        return self.step_power(-1)


def matrix_rep(orbit: OrbitSpec) -> MatrixRep:
    return MatrixRep(orbit)


def represent(x: CrossedProductElement, rep: MatrixRep) -> np.ndarray:
    """Matrix of an element: each sampled coefficient added along its step's diagonals."""
    out = np.zeros((rep.dim, rep.dim), dtype=complex)
    memo: dict = {}
    for n, fn in x.terms.items():
        rep.add_step_term(out, n, fn(rep.point_set, memo))
    return out


def excluded_indices(orbit: OrbitSpec, n: int) -> set[int]:
    """Window indices whose step-n checks are polluted by truncation."""
    depth = abs(n)
    out: set[int] = set()
    for chain in orbit.chains:
        if chain.minus_truncated:
            out.update(chain.indices[:depth])
        if chain.plus_truncated:
            out.update(chain.indices[-depth:] if depth else [])
    return out


def covariance_check(
    alg: CrossedProductAlgebra,
    rep: MatrixRep,
    sample_functions: Sequence[SupportedFunction] | None = None,
    ns: Sequence[int] = (-2, -1, 0, 1, 2),
    tol: float = 1e-10,
) -> dict:
    """Conjugation identity, projection shapes, and indicator matching per step.

    Every matrix is read off the links of V^n, without forming it. The
    links are injective, so both projections are 0/1 diagonals: the range
    projection V^n V^-n marks the images, the domain projection V^-n V^n the
    sources, and V^n diag(g) V^-n is diagonal with g moved from each source
    to its image. Comparisons skip excluded indices. A step's conjugation
    residual passes up to tol * max(1, max|moved samples|) on the kept indices,
    so rounding alone passes on windows that reach large points.
    """
    pts = rep.orbit.points
    fs = sample_functions
    if fs is None:
        fs = [polynomial([0.5, 1.0, 0.75j], alg.carrier)]
    rows = []
    ok_all = True
    for n in ns:
        images, sources = rep.links(n)
        excl = excluded_indices(rep.orbit, n)
        keep = np.ones(rep.dim, dtype=bool)
        keep[sorted(excl)] = False
        range_diag = np.zeros(rep.dim, dtype=bool)
        range_diag[images] = True
        domain_diag = np.zeros(rep.dim, dtype=bool)
        domain_diag[sources] = True

        conj_res, scale = 0.0, 1.0
        for f in fs:
            fr = f.restrict(alg.interval_n(-n))
            g = np.asarray(fr(pts), dtype=complex)
            lhs = np.zeros(rep.dim, dtype=complex)
            lhs[images] = g[sources]
            moved = pullback(f, alg.power(n))(pts)
            if keep.any():
                conj_res = max(conj_res, float(np.max(np.abs(lhs - moved)[keep])))
                scale = max(scale, float(np.max(np.abs(moved)[keep])))

        in_range = alg.interval_n(n).contains(pts, DEFAULT_TOL)
        in_domain = alg.interval_n(-n).contains(pts, DEFAULT_TOL)
        range_exact = np.all((range_diag == in_range)[keep])
        domain_exact = np.all((domain_diag == in_domain)[keep])
        proj_exact = np.all((range_diag == alg.p(n)(pts))[keep])

        row = {
            "n": int(n),
            "conjugation_residual": conj_res,
            "projections_zero_one": True,
            "range_projection_exact": bool(range_exact),
            "domain_projection_exact": bool(domain_exact),
            "indicator_matches_projection": bool(proj_exact),
            "excluded_indices": sorted(excl),
        }
        row["pass"] = bool(conj_res <= tol * scale and range_exact and domain_exact and proj_exact)
        ok_all = ok_all and row["pass"]
        rows.append(row)
    return {"steps": rows, "pass": ok_all}
