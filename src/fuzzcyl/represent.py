"""Finite matrix models on orbit windows of the partial bijection.

The basis is the orbit of one base point, walked in both directions until
the bijection runs out of domain or a truncation budget is spent; basis
vector j is the j-th point of that walk. The step element is kept as an
index map: succ[j] is the window index of the image of point j under the
bijection, or -1. V^n sends basis vector j to the index n steps along succ,
so an element's matrix scatters each sampled coefficient along its step's
map, and dense 0/1 matrices of V and its powers are built only on request.
On full orbits this is an exact *-homomorphism; on truncated windows the
outermost indices of each cut side see wrong projections, so the covariance
checks exclude a strip as deep as the step being tested.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .interval import DEFAULT_TOL
from .bijection import PartialBijection
from .crossed import CrossedProductAlgebra, CrossedProductElement
from .functions import SupportedFunction, polynomial, pullback


@dataclass
class OrbitChain:
    indices: list[int]
    minus_truncated: bool
    plus_truncated: bool


@dataclass
class OrbitSpec:
    """A finite window of one base point's orbit, in walk order.

    succ[j] is the window index of alpha(points[j]): j + 1 inside the
    window, j itself at a last point that alpha fixes, and -1 where the
    image is undefined or lies outside the window. points[base_index] is
    the base point.
    """

    points: np.ndarray
    base_points: tuple[float, ...]
    base_index: int
    succ: np.ndarray
    chains: list[OrbitChain] = field(default_factory=list)

    @property
    def dim(self) -> int:
        return len(self.points)

    @property
    def truncated(self) -> bool:
        return any(c.minus_truncated or c.plus_truncated for c in self.chains)

    @property
    def n_minus(self) -> int:
        """Steps from the base point back to the window start (<= 0)."""
        return -self.base_index

    @property
    def n_plus(self) -> int:
        return self.dim - 1 - self.base_index


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

    Every link comes from position along the walk: each point links to the
    next, and the last point links to itself only where the forward walk
    stopped at a point that alpha fixes.
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
    dim = len(points)
    succ = np.arange(1, dim + 1)
    succ[-1] = dim - 1 if fixed and kf == len(fwd) else -1
    chains = [OrbitChain([dim - 1], False, False)] if succ[-1] >= 0 else []
    run = dim - len(chains)  # a fixed last point is a chain of its own
    if run:
        chains.append(OrbitChain(
            list(range(run)),
            minus_truncated=alpha.range.contains(float(points[0]), DEFAULT_TOL),
            plus_truncated=alpha.domain.contains(float(points[run - 1]), DEFAULT_TOL),
        ))
    return OrbitSpec(points, (b,), kb, succ, chains)


def _centered_window(len_b: int, len_f: int, truncation: int) -> tuple[int, int]:
    """Keep the base point plus alternating nearest neighbours, forward first.

    Of the t = truncation - 1 neighbours, the forward side takes its half
    (rounded up) or what the backward side leaves over, whichever is more.
    """
    t = truncation - 1
    kf = min(len_f, max((t + 1) // 2, t - len_b))
    return min(len_b, t - kf), kf


def add_step_term(out: np.ndarray, s: np.ndarray, n: int, values: np.ndarray) -> np.ndarray:
    """Add diag(values) @ V^n to out in place, where s is the |n|-step index map of V.

    V^n sends basis vector j to s[j] for n >= 0; for n < 0 it is the
    transpose, sending i to s[i]. Entries with s = -1 stay untouched.
    """
    cols = np.flatnonzero(s >= 0)
    rows = s[cols]
    if n < 0:
        rows, cols = cols, rows
    out[rows, cols] += values[rows]
    return out


@dataclass
class MatrixRep:
    """The step element of an orbit window as an index map, with powers cached."""

    orbit: OrbitSpec
    _maps: list[np.ndarray] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self._maps = [np.arange(self.orbit.dim)]

    @property
    def dim(self) -> int:
        return self.orbit.dim

    def index_map(self, n: int) -> np.ndarray:
        """succ applied |n| times: the index |n| steps after each index, or -1."""
        maps, succ = self._maps, self.orbit.succ
        while len(maps) <= abs(n):
            s = maps[-1]
            if not np.any(s >= 0):
                return s  # every walk has ended; all further powers are empty
            maps.append(np.where(s >= 0, succ[s], -1))
        return maps[abs(n)]

    def step_power(self, n: int) -> np.ndarray:
        """Dense 0/1 matrix of V^n (V*^|n| for negative n)."""
        dense = np.zeros((self.dim, self.dim), dtype=complex)
        return add_step_term(dense, self.index_map(n), n, np.ones(self.dim))

    @property
    def V(self) -> np.ndarray:
        return self.step_power(1)

    @property
    def Vstar(self) -> np.ndarray:
        return self.step_power(-1)


def matrix_rep(orbit: OrbitSpec) -> MatrixRep:
    return MatrixRep(orbit)


def represent(x: CrossedProductElement, rep: MatrixRep) -> np.ndarray:
    """Matrix of an element: each sampled coefficient scattered along its step's index map."""
    out = np.zeros((rep.dim, rep.dim), dtype=complex)
    memo: dict = {}
    for n, fn in x.terms.items():
        add_step_term(out, rep.index_map(n), n, fn(rep.orbit.points, memo))
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

    Every matrix is read off the index map s of V^|n|, without forming it.
    For n >= 0, V^n diag(g) V^-n is diagonal with g summed over the preimages
    of each index, the range projection V^n V^-n is diagonal with preimage
    counts, and the domain projection V^-n V^n has the defined-mask of s on
    its diagonal and a 1 at each pair of indices with a common image. For
    n < 0 the two projections swap, and the conjugated diagonal takes g at
    each image, repeated at those pairs. Comparisons skip excluded indices.
    """
    pts = rep.orbit.points
    fs = sample_functions
    if fs is None:
        fs = [polynomial([0.5, 1.0, 0.75j], alg.carrier)]
    rows = []
    ok_all = True
    for n in ns:
        pb = alg.power(n)
        s = rep.index_map(n)
        excl = excluded_indices(rep.orbit, n)
        keep = np.ones(rep.dim, dtype=bool)
        keep[sorted(excl)] = False
        src = np.flatnonzero(s >= 0)
        hits = np.bincount(s[src], minlength=rep.dim)
        defined = (s >= 0).astype(float)
        kept = src[keep[src]]
        # kept indices whose image another kept index shares: off-diagonal 1s
        clash = kept[np.bincount(s[kept], minlength=rep.dim)[s[kept]] > 1]
        range_diag, domain_diag = (hits, defined) if n >= 0 else (defined, hits)
        range_clash, domain_clash = (False, clash.size > 0) if n >= 0 else (clash.size > 0, False)

        conj_res = 0.0
        for f in fs:
            fr = f.restrict(alg.interval_n(-n))
            g = np.asarray(fr(pts), dtype=complex)
            lhs = np.zeros(rep.dim, dtype=complex)
            if n >= 0:
                np.add.at(lhs, s[src], g[src])
            else:
                lhs[src] = g[s[src]]
                if clash.size:
                    conj_res = max(conj_res, float(np.max(np.abs(g[s[clash]]))))
            moved = pullback(fr.restrict(pb.domain), pb)(pts)
            if keep.any():
                conj_res = max(conj_res, float(np.max(np.abs(lhs - moved)[keep])))

        in_range = alg.interval_n(n).contains(pts, DEFAULT_TOL)
        in_domain = alg.interval_n(-n).contains(pts, DEFAULT_TOL)
        zero_one = bool(hits.max(initial=0) <= 1)
        range_exact = not range_clash and np.all((range_diag == in_range)[keep])
        domain_exact = not domain_clash and np.all((domain_diag == in_domain)[keep])
        proj_exact = not range_clash and np.all((range_diag == alg.p(n)(pts))[keep])

        row = {
            "n": int(n),
            "conjugation_residual": conj_res,
            "projections_zero_one": zero_one,
            "range_projection_exact": bool(range_exact),
            "domain_projection_exact": bool(domain_exact),
            "indicator_matches_projection": bool(proj_exact),
            "excluded_indices": sorted(excl),
        }
        row["pass"] = bool(
            conj_res <= tol and zero_one and range_exact and domain_exact and proj_exact
        )
        ok_all = ok_all and row["pass"]
        rows.append(row)
    return {"steps": rows, "pass": ok_all}
