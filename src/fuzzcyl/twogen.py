"""Two-generator subalgebras driven by a commutator profile.

A profile C prescribes the commutator [A, A*] = h*C on the overlap region.
The step map alpha is recovered from C by solving, point by point,

    alpha(u) + (h/2) C(alpha(u)) = u - (h/2) C(u)

and the generator A = sqrt(w) U lives in the crossed product over a
reparametrized interval, with weight w = chart + (h/2) C(chart). The
commutator and anticommutator then split into three regions (image-only,
overlap, domain-only) with closed piecewise forms, which this module checks
against the direct crossed-product computation. Boundary behaviour at the
region seams decides whether the subalgebra has a classical limit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .bijection import PartialBijection, identity_on, make_family, poincare_validity_bound
from .bijection import _poincare_forward, _poincare_inverse
from .crossed import CrossedProductAlgebra, CrossedProductElement
from .functions import SupportedFunction
from .interval import Interval, image_monotone

PROFILE_KINDS = ("plane_plus", "plane_minus", "poincare")

ZERO_TOL = 1e-6
WEIGHT_TOL = 1e-9


@dataclass(frozen=True)
class CommutatorProfile:
    """Target commutator density as a function of the radial variable."""

    C: Callable
    label: str = "custom"

    @staticmethod
    def builtin(name: str) -> "CommutatorProfile":
        if name == "plane_plus":
            return CommutatorProfile(lambda u: np.ones_like(np.asarray(u, dtype=float)), name)
        if name == "plane_minus":
            return CommutatorProfile(lambda u: -np.ones_like(np.asarray(u, dtype=float)), name)
        if name == "poincare":
            return CommutatorProfile(lambda u: 0.5 * (1.0 - np.asarray(u, dtype=float)) ** 2, name)
        raise ValueError(f"unknown profile {name!r}; builtins are {PROFILE_KINDS}")


@dataclass(frozen=True)
class Reparametrization:
    """A chart J -> I together with the generator weight on J."""

    chart: PartialBijection
    weight: SupportedFunction


def make_reparametrization(chart: PartialBijection, profile: CommutatorProfile, hbar: float) -> Reparametrization:
    J = chart.domain
    if J.is_empty:
        raise ValueError("chart has empty domain")
    fwd = chart.forward

    def weight_raw(us):
        vals = fwd(np.asarray(us, dtype=float))
        return vals + 0.5 * hbar * np.asarray(profile.C(vals), dtype=float)

    weight = SupportedFunction(support=J, raw=weight_raw, carrier=J)
    return Reparametrization(chart, weight)


def identity_reparametrization(interval: Interval, profile: CommutatorProfile, hbar: float) -> Reparametrization:
    return make_reparametrization(identity_on(interval), profile, hbar)


def _bisect(f, lo: float, hi: float, tol: float = 1e-12, max_iter: int = 200) -> float:
    flo, fhi = f(lo), f(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if flo * fhi > 0:
        raise ValueError(f"no bracket on [{lo}, {hi}] (f: {flo:.3g} .. {fhi:.3g})")
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        fm = f(mid)
        if fm == 0.0 or hi - lo <= tol:
            return mid
        if flo * fm < 0:
            hi = mid
        else:
            lo, flo = mid, fm
    return 0.5 * (lo + hi)


def defining_equation_residual(
    action: PartialBijection, profile: CommutatorProfile, hbar: float, grid_size: int = 101
) -> float:
    """Largest violation of the step equation on the action's domain."""
    us = action.domain.interior_grid(grid_size)
    if us.size == 0:
        return 0.0
    xs = action.forward(us)
    lhs = xs + 0.5 * hbar * np.asarray(profile.C(xs), dtype=float)
    rhs = us - 0.5 * hbar * np.asarray(profile.C(us), dtype=float)
    return float(np.max(np.abs(lhs - rhs)))


def solve_action_from_profile(
    profile: CommutatorProfile, interval: Interval, hbar: float, grid_size: int = 101
) -> PartialBijection:
    """Recover the step map from the commutator profile on the given interval.

    Built-in profiles use their closed forms; anything else is solved by
    bisection, which needs a finite interval to bracket on. Either way the
    result is substituted back into the step equation before it is returned.
    """
    if hbar <= 0:
        raise ValueError("step must be positive")
    if profile.label in PROFILE_KINDS:
        if profile.label == "poincare" and hbar >= poincare_validity_bound():
            raise ValueError(f"step {hbar} at or beyond the validity bound {poincare_validity_bound():.6f}")
        action = make_family(profile.label, interval, hbar).generator
    else:
        if not (math.isfinite(interval.lo) and math.isfinite(interval.hi)):
            raise ValueError("custom profile needs a finite interval to bracket the solver")
        lo, hi = interval.lo, interval.hi

        def plus_side(t):
            return t + 0.5 * hbar * float(profile.C(t))

        def minus_side(t):
            return t - 0.5 * hbar * float(profile.C(t))

        ts = np.linspace(lo, hi, grid_size)
        for side in (plus_side, minus_side):
            vals = np.array([side(t) for t in ts])
            if np.any(np.diff(vals) <= 0):
                raise ValueError("profile makes the step equation non-monotone on this interval")

        if minus_side(lo) >= plus_side(lo):
            u_min = lo
        elif minus_side(hi) < plus_side(lo):
            raise ValueError("empty domain: the step equation has no solution on this interval")
        else:
            u_min = _bisect(lambda u: minus_side(u) - plus_side(lo), lo, hi)
        if minus_side(hi) <= plus_side(hi):
            u_max = hi
        else:
            u_max = _bisect(lambda u: minus_side(u) - plus_side(hi), lo, hi)
        if u_min >= u_max:
            raise ValueError("empty domain: the step equation has no solution on this interval")

        def forward(us):
            arr = np.asarray(us, dtype=float)
            flat = [
                _bisect(lambda x, r=minus_side(float(u)): plus_side(x) - r, lo, hi) for u in arr.ravel()
            ]
            return np.array(flat).reshape(arr.shape)

        def inverse(xs):
            arr = np.asarray(xs, dtype=float)
            flat = [
                _bisect(lambda u, r=plus_side(float(x)): minus_side(u) - r, lo, hi) for x in arr.ravel()
            ]
            return np.array(flat).reshape(arr.shape)

        domain = Interval(u_min, u_max, interval.lo_closed, interval.hi_closed)
        action = PartialBijection(
            interval, domain, image_monotone(domain, forward), forward, inverse, f"profile:{profile.label}"
        )

    residual = defining_equation_residual(action, profile, hbar, grid_size)
    if residual > 1e-10:
        raise RuntimeError(f"recovered step map violates its defining equation by {residual:.3g}")
    return action


def conjugated_action(chart: PartialBijection, action: PartialBijection) -> PartialBijection:
    """Pull the step map back through the chart; the result lives on J."""
    J = chart.domain
    cf, ci = chart.forward, chart.inverse
    af, ai = action.forward, action.inverse
    dom = image_monotone(action.domain.intersect(chart.range), ci)
    rng = image_monotone(action.range.intersect(chart.range), ci)

    def fwd(us):
        return ci(af(cf(np.asarray(us, dtype=float))))

    def inv(xs):
        return ci(ai(cf(np.asarray(xs, dtype=float))))

    return PartialBijection(J, dom, rng, fwd, inv, f"{action.label}@chart")


@dataclass(frozen=True)
class TwoGenSetup:
    algebra: CrossedProductAlgebra
    generator: CrossedProductElement
    rep: Reparametrization
    profile: CommutatorProfile
    hbar: float
    weight_min: float
    weight_argmin: float

    @property
    def valid_generator(self) -> bool:
        # the weight must be a square on all of J, or sqrt clipping already
        # falsifies the closed-form relations near the seam
        return self.weight_min >= -WEIGHT_TOL


def assemble(
    rep: Reparametrization,
    profile: CommutatorProfile,
    action: PartialBijection,
    hbar: float,
    grid_size: int = 101,
) -> TwoGenSetup:
    """Build the crossed product over J and the generator sqrt(weight) U."""
    if not rep.chart.range.close_to(action.carrier):
        raise ValueError("chart range and action carrier disagree")
    alg = CrossedProductAlgebra(conjugated_action(rep.chart, action))
    weight = rep.weight

    def root_raw(us):
        return np.sqrt(np.clip(np.real(weight(np.asarray(us, dtype=float))), 0.0, None)).astype(complex)

    root = SupportedFunction(support=weight.support, raw=root_raw, carrier=alg.carrier)
    gen = alg.element({1: root})

    js = alg.carrier.grid(grid_size)
    wv = np.real(weight(js))
    k = int(np.argmin(wv)) if js.size else 0
    wmin = float(wv[k]) if js.size else 0.0
    wat = float(js[k]) if js.size else math.nan
    return TwoGenSetup(alg, gen, rep, profile, hbar, wmin, wat)


def _region_pieces(alg: CrossedProductAlgebra):
    J1 = alg.interval_n(1)
    Jm1 = alg.interval_n(-1)
    return (
        [("only_plus", piece) for piece in J1.difference(Jm1)]
        + ([("overlap", J1.intersect(Jm1))] if not J1.intersect(Jm1).is_empty else [])
        + [("only_minus", piece) for piece in Jm1.difference(J1)]
    )


def _closed_forms(setup: TwoGenSetup, region: str, us: np.ndarray):
    rho = setup.rep.chart.forward(us)
    c = np.asarray(setup.profile.C(rho), dtype=float)
    h = setup.hbar
    if region == "only_plus":
        return rho + 0.5 * h * c, 0.5 * (rho + 0.5 * h * c)
    if region == "overlap":
        return h * c, rho
    return -rho + 0.5 * h * c, 0.5 * (rho - 0.5 * h * c)


def two_gen_relations(
    rep: Reparametrization,
    profile: CommutatorProfile,
    action: PartialBijection,
    hbar: float,
    grid_size: int = 101,
    region_tol: float = 1e-9,
    overlap_tol: float = 1e-10,
) -> dict:
    """Check the piecewise commutator and anticommutator laws region by region.

    Everything on the computed side comes out of crossed-product arithmetic
    (multiply and involution); the closed forms are evaluated independently
    through the chart. The report also records which region carries AA* and
    which carries A*A: each product vanishes on the exclusive region that
    lies outside its own support, not on the one inside it.
    """
    setup = assemble(rep, profile, action, hbar, grid_size)
    alg, A = setup.algebra, setup.generator
    AAs = A * A.adjoint()
    AsA = A.adjoint() * A
    comm = AAs - AsA
    anti = (AAs + AsA).scale(0.5)
    comm_fn = comm.terms.get(0)
    anti_fn = anti.terms.get(0)

    def ev(fn, us):
        if fn is None:
            return np.zeros(us.shape, dtype=complex)
        return fn(us)

    regions = []
    worst = 0.0
    overlap_identity = None
    one_sided = {"only_plus": None, "only_minus": None}
    sign_probe = None
    for name, piece in _region_pieces(alg):
        us = piece.interior_grid(grid_size)
        if us.size == 0:
            continue
        comm_exp, anti_exp = _closed_forms(setup, name, us)
        cv = ev(comm_fn, us)
        av = ev(anti_fn, us)
        r_comm = float(np.max(np.abs(cv - comm_exp)))
        r_anti = float(np.max(np.abs(av - anti_exp)))
        worst = max(worst, r_comm, r_anti)
        regions.append(
            {
                "region": name,
                "interval": str(piece),
                "commutator_residual": r_comm,
                "anticommutator_residual": r_anti,
                "pass": bool(r_comm <= region_tol and r_anti <= region_tol),
            }
        )
        if name == "overlap":
            target = hbar * np.asarray(profile.C(np.real(av)), dtype=float)
            overlap_identity = float(np.max(np.abs(cv - target)))
        else:
            pv = float(np.max(np.abs(ev(AAs.terms.get(0), us))))
            mv = float(np.max(np.abs(ev(AsA.terms.get(0), us))))
            one_sided[name] = {"max_AA*": pv, "max_A*A": mv}
        if name == "only_minus":
            minus_branch = float(np.max(np.abs(cv - comm_exp)))
            plus_branch = float(np.max(np.abs(cv + comm_exp)))
            sign_probe = "minus" if minus_branch <= plus_branch else "plus"

    # two candidate vanishing patterns: each product zero on its own
    # support's exclusive region (on_support), or zero on the opposite one
    # (off_support); the crossed-product arithmetic realizes off_support
    on_support = all(
        one_sided[r] is None or one_sided[r][k] <= region_tol
        for r, k in (("only_plus", "max_AA*"), ("only_minus", "max_A*A"))
    )
    off_support = all(
        one_sided[r] is None or one_sided[r][k] <= region_tol
        for r, k in (("only_plus", "max_A*A"), ("only_minus", "max_AA*"))
    )
    orientation = {(True, True): "both", (True, False): "on_support", (False, True): "off_support"}.get(
        (on_support, off_support), "neither"
    )

    eq_residual = defining_equation_residual(action, profile, hbar, grid_size)
    relations_pass = bool(
        all(r["pass"] for r in regions)
        and (overlap_identity is None or overlap_identity <= overlap_tol)
        and eq_residual <= 1e-10
        and off_support
    )
    return {
        "profile": profile.label,
        "hbar": hbar,
        "regions": regions,
        "max_residual": worst,
        "overlap_identity_residual": overlap_identity,
        "one_sided_zeros": one_sided,
        "zero_orientation": orientation,
        "commutator_sign_on_only_minus": sign_probe,
        "defining_equation_residual": eq_residual,
        "weight_min": setup.weight_min,
        "weight_argmin": setup.weight_argmin,
        "valid_generator": setup.valid_generator,
        "relations_pass": relations_pass,
        "pass": bool(relations_pass and setup.valid_generator),
    }


def _approach(fn, anchor: float, direction: float, width: float, k_max: int):
    ks = np.arange(1, k_max + 1)
    pts = anchor + direction * width * 0.5**ks
    vals = fn(pts)
    return float(np.real(vals[-1]))


def boundary_continuity_check(
    rep: Reparametrization,
    profile: CommutatorProfile,
    action: PartialBijection,
    hbar: float,
    grid_size: int = 101,
    k_max: int = 20,
    zero_tol: float = ZERO_TOL,
) -> dict:
    """Examine the seam between the exclusive regions and the overlap.

    For each nonempty exclusive region the report identifies the interval
    border u0 and the seam point u1, confirms that the action links them,
    estimates one-sided limits at u1 by geometric approach sequences, and
    records the iff-pair: the relation functions are continuous across u1
    exactly when they vanish at u0. The weight values at u0 and u1 expose
    the vanishing condition a classical limit would additionally need.
    """
    setup = assemble(rep, profile, action, hbar, grid_size)
    alg, A = setup.algebra, setup.generator
    AAs = A * A.adjoint()
    AsA = A.adjoint() * A
    comm = AAs - AsA
    anti = (AAs + AsA).scale(0.5)
    J = alg.carrier
    step = alg.alpha

    def ev_fn(elem):
        fn = elem.terms.get(0)

        def f(us):
            us = np.asarray(us, dtype=float)
            return np.zeros(us.shape, dtype=complex) if fn is None else fn(us)

        return f

    functions = {"commutator": ev_fn(comm), "anticommutator": ev_fn(anti)}
    weight = rep.weight

    cases = {"only_plus": {"applies": False}, "only_minus": {"applies": False}}
    for name, piece in _region_pieces(alg):
        if name == "overlap":
            continue
        if not (math.isfinite(piece.lo) and math.isfinite(piece.hi)):
            cases[name] = {"applies": False, "reason": "unbounded region"}
            continue
        ends = (piece.lo, piece.hi)
        scale = 1e-9 * (1.0 + max(abs(e) for e in ends))
        at_border = [
            e for e in ends if (math.isfinite(J.lo) and abs(e - J.lo) <= scale) or (math.isfinite(J.hi) and abs(e - J.hi) <= scale)
        ]
        if not at_border:
            cases[name] = {"applies": False, "reason": "region not anchored at the interval border"}
            continue
        u0 = at_border[0]
        u1 = ends[1] if u0 == ends[0] else ends[0]
        width = abs(u1 - u0)
        if name == "only_plus":
            # the seam is the image of the border of the step map's domain
            map_residual = abs(float(step.forward(np.array([u1]))[0]) - u0)
        else:
            map_residual = abs(float(step.forward(np.array([u0]))[0]) - u1)

        d_in = math.copysign(1.0, u0 - u1)
        room = (J.hi - u1) if d_in < 0 else (u1 - J.lo)
        w_out = min(width, room) if math.isfinite(room) else width

        entry = {"applies": True, "u0": u0, "u1": u1, "map_residual": map_residual}
        zero_all, cont_all = True, True
        for label, f in functions.items():
            v0 = float(np.real(f(np.array([u0]))[0]))
            lim_in = _approach(f, u1, d_in, width, k_max)
            lim_out = _approach(f, u1, -d_in, w_out, k_max)
            jump = abs(lim_in - lim_out)
            zero = abs(v0) <= zero_tol * (1.0 + abs(v0))
            cont = jump <= zero_tol * (1.0 + abs(lim_in))
            zero_all &= zero
            cont_all &= cont
            entry[label] = {
                "value_at_u0": v0,
                "limit_inner": lim_in,
                "limit_outer": lim_out,
                "jump": jump,
                "zero_at_u0": zero,
                "continuous_at_u1": cont,
                "iff_holds": bool(zero == cont),
            }
        w0 = float(np.real(weight(np.array([u0]))[0]))
        w1 = float(np.real(weight(np.array([u1]))[0]))
        entry["iff_holds"] = bool(
            entry["commutator"]["iff_holds"] and entry["anticommutator"]["iff_holds"]
        )
        entry["both_conditions_hold"] = bool(zero_all and cont_all)
        entry["weight_at_u0"] = w0
        entry["weight_at_u1"] = w1
        if entry["both_conditions_hold"]:
            entry["root_residual"] = abs(w0)
            entry["root_condition_holds"] = bool(abs(w0) <= zero_tol)
        if name == "only_minus":
            # a classical limit would need the weight to vanish at both seam
            # points; exposed, not resolved
            entry["c0_condition_holds"] = bool(abs(w0) <= zero_tol and abs(w1) <= zero_tol)
        cases[name] = entry

    report = {
        "profile": profile.label,
        "hbar": hbar,
        "valid_generator": setup.valid_generator,
        "weight_min": setup.weight_min,
        "weight_argmin": setup.weight_argmin,
        "cases": cases,
    }
    if not setup.valid_generator:
        report["obstruction"] = setup.weight_min
    return report


@dataclass(frozen=True)
class PoincareConstants:
    """Closed-form landmarks of the disc step map at a given step size."""

    hbar: float
    edge: float            # lower interval edge; the generator weight vanishes here
    zero_preimage: float   # the point the step map sends to 0
    image_of_zero: float
    edge_preimage: float   # preimage of the edge; inner boundary of the overlap


def poincare_constants(hbar: float) -> PoincareConstants:
    if not 0 < hbar < poincare_validity_bound():
        raise ValueError(f"step must lie in (0, {poincare_validity_bound():.6f})")
    h = hbar
    edge = 1.0 - 2.0 / (1.0 + math.sqrt(1.0 - h))
    zero_preimage = float(_poincare_inverse(h, 0.0))
    image_of_zero = float(_poincare_forward(h, 0.0))
    edge_preimage = float(_poincare_inverse(h, edge))

    checks = [
        ("fixed point at 1", abs(float(_poincare_forward(h, 1.0)) - 1.0), 1e-9),
        ("image of zero near -h/2", abs(image_of_zero + 0.5 * h), h * h),
        ("edge near -h/4", abs(edge + 0.25 * h), h * h),
        ("zero preimage near h/2", abs(zero_preimage - 0.5 * h), h * h),
        ("zero preimage maps to 0", abs(float(_poincare_forward(h, zero_preimage))), 1e-9),
        ("edge preimage maps to edge", abs(float(_poincare_forward(h, edge_preimage)) - edge), 1e-9),
    ]
    for label, err, tol in checks:
        if err > tol:
            raise RuntimeError(f"disc constant check failed: {label} (off by {err:.3g})")

    us = np.linspace(edge, 1.0, 65)
    if np.any(np.diff(_poincare_forward(h, us)) <= 0):
        raise RuntimeError("disc step map is not strictly increasing on its interval")
    return PoincareConstants(h, edge, zero_preimage, image_of_zero, edge_preimage)


def standard_setup(name: str, hbar: float, a: float | None = None):
    """Reference configuration: identity chart on the profile's natural interval."""
    profile = CommutatorProfile.builtin(name)
    if name == "poincare":
        if a is None:
            a = poincare_constants(hbar).edge
        interval = Interval.closed(a, 1.0)
    else:
        if a is None:
            a = -0.5 * hbar
        interval = Interval.at_least(a)
    action = solve_action_from_profile(profile, interval, hbar)
    rep = identity_reparametrization(interval, profile, hbar)
    return rep, profile, action
