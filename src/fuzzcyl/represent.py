"""Finite matrix models on orbit windows of the partial bijection.

The basis is an orbit of one or more base points, walked in both directions
until the bijection runs out of domain or a truncation budget is spent. The
step element is kept as an index map: succ[j] is the window index of the
image of point j under the bijection, or -1. V^n sends basis vector j to the
index n steps along succ, so an element's matrix scatters each sampled
coefficient along its step's map, and dense 0/1 matrices of V and its powers
are built only on request. On full orbits this is an exact *-homomorphism; on
truncated windows the outermost indices of each cut side see wrong
projections, so the covariance checks exclude a strip as deep as the step
being tested.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .interval import DEFAULT_TOL
from .bijection import PartialBijection
from .crossed import CrossedProductAlgebra, CrossedProductElement
from .functions import SupportedFunction, polynomial, pullback

MERGE_TOL = 1e-12


def _point_key(x: float) -> int:
    return int(round(x / MERGE_TOL))


@dataclass
class OrbitChain:
    indices: list[int]
    minus_truncated: bool
    plus_truncated: bool


@dataclass
class OrbitSpec:
    """A finite window of orbit points, in chain order.

    succ[j] is the window index of alpha(points[j]), or -1 where that image
    is undefined or lies outside the window.
    """

    alpha: PartialBijection
    points: np.ndarray
    base_points: tuple[float, ...]
    truncation: int
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
        """Steps from the first base point back to its chain start (<= 0)."""
        return -self._base_offset()[0]

    @property
    def n_plus(self) -> int:
        return self._base_offset()[1]

    def _base_offset(self) -> tuple[int, int]:
        base = int(np.flatnonzero(self.points == self.base_points[0])[0])
        for chain in self.chains:
            if base in chain.indices:
                pos = chain.indices.index(base)
                return pos, len(chain.indices) - 1 - pos
        return 0, 0


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


def build_orbit(alpha: PartialBijection, base_point, truncation: int = 64) -> OrbitSpec:
    """Orbit window through one base point or several (merged, deduplicated).

    Links between window points come from positions along each base point's
    walk. Rounded keys only decide which points of different walks are the
    same point, including the point one step past either end of a window.
    """
    if truncation < 1:
        raise ValueError("truncation budget must be at least 1")
    bases = [float(b) for b in (base_point if isinstance(base_point, (list, tuple, np.ndarray)) else [base_point])]
    if not bases:
        raise ValueError("need at least one base point")
    for b in bases:
        if not alpha.carrier.contains(b, DEFAULT_TOL):
            raise ValueError(f"base point {b} is outside the carrier {alpha.carrier}")

    index: dict[int, int] = {}
    ordered: list[float] = []

    def window_index(p: float) -> int:
        k = _point_key(p)
        if k not in index:
            index[k] = len(ordered)
            ordered.append(p)
        return index[k]

    walks = []  # window indices of each walk, and the points one step before and after its window
    for b in bases:
        fwd, fwd_fixed = _walk(alpha.apply, alpha.domain.contains, b, truncation)
        back, back_fixed = _walk(alpha.apply_inverse, alpha.range.contains, b, truncation)
        kb, kf = _centered_window(len(back), len(fwd), truncation)
        walk = list(reversed(back)) + [b] + fwd
        lo, hi = len(back) - kb, len(back) + 1 + kf
        before = walk[lo - 1] if lo > 0 else walk[0] if back_fixed else None
        after = walk[hi] if hi < len(walk) else walk[-1] if fwd_fixed else None
        walks.append(([window_index(p) for p in walk[lo:hi]], before, after))

    def found(p: float | None) -> int:
        return -1 if p is None else index.get(_point_key(p), -1)

    links = [link for ids, _, _ in walks for link in zip(ids[:-1], ids[1:])]
    links += [(ids[-1], found(after)) for ids, _, after in walks]
    links += [(found(before), ids[0]) for ids, before, _ in walks]
    succ = np.full(len(ordered), -1, dtype=int)
    for src, dst in reversed(links):  # the first link found for a point wins
        if src >= 0 and dst >= 0:
            succ[src] = dst
    points = np.asarray(ordered, dtype=float)
    return OrbitSpec(
        alpha=alpha,
        points=points,
        base_points=tuple(bases),
        truncation=truncation,
        succ=succ,
        chains=_derive_chains(alpha, points, succ),
    )


def _centered_window(len_b: int, len_f: int, truncation: int) -> tuple[int, int]:
    """Keep the base point plus alternating nearest neighbours, forward first."""
    kf = kb = 0
    for i in range(truncation - 1):
        prefer_f = i % 2 == 0
        if prefer_f and kf < len_f:
            kf += 1
        elif not prefer_f and kb < len_b:
            kb += 1
        elif kf < len_f:
            kf += 1
        elif kb < len_b:
            kb += 1
        else:
            break
    return kb, kf


def _derive_chains(alpha: PartialBijection, points: np.ndarray, succ: np.ndarray) -> list[OrbitChain]:
    fixed = [j for j in range(len(points)) if succ[j] == j]
    pred = {int(succ[j]): j for j in range(len(points)) if succ[j] >= 0 and succ[j] != j}
    chains = [OrbitChain(indices=[j], minus_truncated=False, plus_truncated=False) for j in fixed]
    visited = set(fixed)
    for j in range(len(points)):
        if j in visited or j in pred:
            continue
        run = [j]
        visited.add(j)
        while succ[run[-1]] >= 0 and succ[run[-1]] not in visited:
            run.append(int(succ[run[-1]]))
            visited.add(run[-1])
        first, last = float(points[run[0]]), float(points[run[-1]])
        chains.append(
            OrbitChain(
                indices=run,
                minus_truncated=alpha.range.contains(first, DEFAULT_TOL),
                plus_truncated=alpha.domain.contains(last, DEFAULT_TOL),
            )
        )
    return chains


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
