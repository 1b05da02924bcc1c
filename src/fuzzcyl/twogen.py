"""Two-generator subalgebras driven by a commutator profile.

A profile C prescribes the commutator [A, A*] = h*C on the overlap region.
The step map alpha is recovered from C by solving, point by point,

    alpha(u) + (h/2) C(alpha(u)) = u - (h/2) C(u)

on the range I of a chart J -> I. Pulled back through the chart it acts on
J, and the generator A = sqrt(w) U lives in the crossed product over J, with
weight w = chart + (h/2) C(chart); `assemble` derives all of this from the
chart, the profile and h alone. The commutator and anticommutator then split
into three regions (image-only, overlap, domain-only) with closed piecewise
forms, which this module checks against the direct crossed-product
computation. Boundary behaviour at the region seams decides whether the
subalgebra has a classical limit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .bijection import PartialBijection, identity_on, make_family, poincare_validity_bound
from .bijection import _BETAS, _poincare_forward, _poincare_inverse
from .crossed import CrossedProductAlgebra, CrossedProductElement
from .functions import SupportedFunction, zero_function
from .interval import Interval, image_monotone

PROFILE_KINDS = ("plane_plus", "plane_minus", "poincare")

ZERO_TOL = 1e-6
WEIGHT_TOL = 1e-9
REGION_TOL = 1e-9
OVERLAP_TOL = 1e-10


@dataclass(frozen=True)
class CommutatorProfile:
    """Target commutator density as a function of the radial variable."""

    C: Callable
    label: str = "custom"

    @staticmethod
    def builtin(name: str) -> "CommutatorProfile":
        """The profile of a built-in family: C = -beta, beta its step-derivative at zero."""
        if name not in PROFILE_KINDS:
            raise ValueError(f"unknown profile {name!r}; builtins are {PROFILE_KINDS}")
        beta = _BETAS[name]
        return CommutatorProfile(lambda u: -beta(u), name)


def _bisect(f, lo: float, hi: float) -> float:
    """A root of f on [lo, hi], to a bracket width or |f| of 1e-12, in at most 200 halvings."""
    flo, fhi = f(lo), f(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if flo * fhi > 0:
        # a root within 1e-12 just past an end, e.g. an end that was itself found by bisection
        end, fend = min((lo, flo), (hi, fhi), key=lambda e: abs(e[1]))
        if abs(fend) <= 1e-12:
            return end
        raise ValueError(f"no bracket on [{lo}, {hi}] (f: {flo:.3g} .. {fhi:.3g})")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        fm = f(mid)
        if fm == 0.0 or hi - lo <= 1e-12:
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


def solve_action_from_profile(profile: CommutatorProfile, interval: Interval, hbar: float) -> PartialBijection:
    """Recover the step map from the commutator profile on the given interval.

    Built-in profiles use their closed forms; anything else is solved by
    bisection, which needs a finite interval to bracket on. Either way the
    result is substituted back into the step equation before it is returned.
    Both sample 101 points: monotonicity before, the residual after.
    """
    if hbar <= 0:
        raise ValueError("step must be positive")
    if profile.label in PROFILE_KINDS:
        action = make_family(profile.label, interval, hbar).generator
    else:
        if not (math.isfinite(interval.lo) and math.isfinite(interval.hi)):
            raise ValueError("custom profile needs a finite interval to bracket the solver")
        lo, hi = interval.lo, interval.hi

        def plus_side(t):
            return t + 0.5 * hbar * float(profile.C(t))

        def minus_side(t):
            return t - 0.5 * hbar * float(profile.C(t))

        ts = np.linspace(lo, hi, 101)
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
        action = PartialBijection(interval, domain, image_monotone(domain, forward), forward, inverse)

    residual = defining_equation_residual(action, profile, hbar)
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

    return PartialBijection(J, dom, rng, fwd, inv)


@dataclass(frozen=True)
class TwoGenSetup:
    """The crossed product over J = chart.domain, the generator A = sqrt(weight) U
    with the chart and weight it was built from, the step map solved on the
    chart's range, and the step-0 coefficients of AA*, A*A, [A, A*] and
    (AA* + A*A)/2, each the zero function where its product has no step-0 term."""

    algebra: CrossedProductAlgebra
    generator: CrossedProductElement
    chart: PartialBijection
    weight: SupportedFunction
    profile: CommutatorProfile
    action: PartialBijection
    hbar: float
    grid_size: int
    weight_min: float
    weight_argmin: float
    AAs: SupportedFunction
    AsA: SupportedFunction
    commutator: SupportedFunction
    anticommutator: SupportedFunction

    @property
    def valid_generator(self) -> bool:
        # the weight must be a square on all of J, or sqrt clipping already
        # falsifies the closed-form relations near the seam
        return self.weight_min >= -WEIGHT_TOL


def assemble(chart: PartialBijection, profile: CommutatorProfile, hbar: float, grid_size: int = 101) -> TwoGenSetup:
    """Solve the step map from the profile on the chart's range, pull it back to
    J = chart.domain, and build the generator sqrt(weight) U with weight
    chart + (h/2) C(chart) on J, together with its relation functions."""
    J = chart.domain
    if J.is_empty:
        raise ValueError("chart has empty domain")
    action = solve_action_from_profile(profile, chart.range, hbar)
    alg = CrossedProductAlgebra(conjugated_action(chart, action))

    def weight_raw(us):
        vals = chart.forward(np.asarray(us, dtype=float))
        return vals + 0.5 * hbar * np.asarray(profile.C(vals), dtype=float)

    weight = SupportedFunction(support=J, raw=weight_raw, carrier=J)

    def root_raw(us):
        return np.sqrt(np.clip(np.real(weight(np.asarray(us, dtype=float))), 0.0, None)).astype(complex)

    root = SupportedFunction(support=weight.support, raw=root_raw, carrier=alg.carrier)
    A = alg.element({1: root})
    As = A.adjoint()
    AAs, AsA = A * As, As * A
    zero = zero_function(alg.carrier)
    step0 = [e.terms.get(0, zero) for e in (AAs, AsA, AAs - AsA, (AAs + AsA).scale(0.5))]

    js = alg.carrier.grid(grid_size)
    wv = np.real(weight(js))
    k = int(np.argmin(wv)) if js.size else 0
    wmin = float(wv[k]) if js.size else 0.0
    wat = float(js[k]) if js.size else math.nan
    return TwoGenSetup(alg, A, chart, weight, profile, action, hbar, grid_size, wmin, wat, *step0)


def _region_pieces(alg: CrossedProductAlgebra):
    J1 = alg.interval_n(1)
    Jm1 = alg.interval_n(-1)
    return (
        [("only_plus", piece) for piece in J1.difference(Jm1)]
        + ([("overlap", J1.intersect(Jm1))] if not J1.intersect(Jm1).is_empty else [])
        + [("only_minus", piece) for piece in Jm1.difference(J1)]
    )


def _closed_forms(setup: TwoGenSetup, region: str, us: np.ndarray):
    rho = setup.chart.forward(us)
    c = np.asarray(setup.profile.C(rho), dtype=float)
    h = setup.hbar
    if region == "only_plus":
        return rho + 0.5 * h * c, 0.5 * (rho + 0.5 * h * c)
    if region == "overlap":
        return h * c, rho
    return -rho + 0.5 * h * c, 0.5 * (rho - 0.5 * h * c)


def two_gen_relations(setup: TwoGenSetup) -> dict:
    """Check the piecewise commutator and anticommutator laws region by region.

    The computed side is the setup's step-0 coefficients, which come out of
    crossed-product arithmetic; the closed forms are evaluated independently
    through the chart, to REGION_TOL = 1e-9 (OVERLAP_TOL = 1e-10 for the
    overlap identity [A, A*] = h C). The report also records which region
    carries AA* and which carries A*A: each product vanishes on the exclusive
    region that lies outside its own support, not on the one inside it.
    """
    profile, hbar, grid_size = setup.profile, setup.hbar, setup.grid_size
    regions = []
    worst = 0.0
    overlap_identity = None
    one_sided = {"only_plus": None, "only_minus": None}
    sign_probe = None
    for name, piece in _region_pieces(setup.algebra):
        us = piece.interior_grid(grid_size)
        if us.size == 0:
            continue
        comm_exp, anti_exp = _closed_forms(setup, name, us)
        memo: dict = {}
        pv, mv, cv, av = (fn(us, memo) for fn in (setup.AAs, setup.AsA, setup.commutator, setup.anticommutator))
        r_comm = float(np.max(np.abs(cv - comm_exp)))
        r_anti = float(np.max(np.abs(av - anti_exp)))
        worst = max(worst, r_comm, r_anti)
        regions.append(
            {
                "region": name,
                "interval": str(piece),
                "commutator_residual": r_comm,
                "anticommutator_residual": r_anti,
                "pass": bool(r_comm <= REGION_TOL and r_anti <= REGION_TOL),
            }
        )
        if name == "overlap":
            target = hbar * np.asarray(profile.C(np.real(av)), dtype=float)
            overlap_identity = float(np.max(np.abs(cv - target)))
        else:
            one_sided[name] = {"max_AA*": float(np.max(np.abs(pv))), "max_A*A": float(np.max(np.abs(mv)))}
        if name == "only_minus":
            minus_branch = float(np.max(np.abs(cv - comm_exp)))
            plus_branch = float(np.max(np.abs(cv + comm_exp)))
            sign_probe = "minus" if minus_branch <= plus_branch else "plus"

    # two candidate vanishing patterns: each product zero on its own
    # support's exclusive region (on_support), or zero on the opposite one
    # (off_support); the crossed-product arithmetic realizes off_support
    on_support = all(
        one_sided[r] is None or one_sided[r][k] <= REGION_TOL
        for r, k in (("only_plus", "max_AA*"), ("only_minus", "max_A*A"))
    )
    off_support = all(
        one_sided[r] is None or one_sided[r][k] <= REGION_TOL
        for r, k in (("only_plus", "max_A*A"), ("only_minus", "max_AA*"))
    )
    orientation = {(True, True): "both", (True, False): "on_support", (False, True): "off_support"}.get(
        (on_support, off_support), "neither"
    )

    eq_residual = defining_equation_residual(setup.action, profile, hbar, grid_size)
    relations_pass = bool(
        all(r["pass"] for r in regions)
        and (overlap_identity is None or overlap_identity <= OVERLAP_TOL)
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


def _approach(fn, anchor: float, direction: float, width: float):
    """fn at anchor + direction * width/2^20: the one-sided limit estimate."""
    return float(np.real(fn(np.array([anchor + direction * width * 0.5**20]))[0]))


def boundary_continuity_check(setup: TwoGenSetup) -> dict:
    """Examine the seam between the exclusive regions and the overlap.

    For each nonempty exclusive region the report identifies the interval
    border u0 and the seam point u1, confirms that the action links them,
    estimates one-sided limits at u1 from u1 +- width/2^20, and records the
    iff-pair: the relation functions are continuous across u1 exactly when
    they vanish at u0, both to ZERO_TOL. The weight values at u0 and u1 expose
    the vanishing condition a classical limit would additionally need.
    """
    alg = setup.algebra
    J = alg.carrier
    step = alg.alpha
    functions = {"commutator": setup.commutator, "anticommutator": setup.anticommutator}
    weight = setup.weight

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
            lim_in = _approach(f, u1, d_in, width)
            lim_out = _approach(f, u1, -d_in, w_out)
            jump = abs(lim_in - lim_out)
            zero = abs(v0) <= ZERO_TOL * (1.0 + abs(v0))
            cont = jump <= ZERO_TOL * (1.0 + abs(lim_in))
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
            entry["root_condition_holds"] = bool(abs(w0) <= ZERO_TOL)
        if name == "only_minus":
            # a classical limit would need the weight to vanish at both seam
            # points; exposed, not resolved
            entry["c0_condition_holds"] = bool(abs(w0) <= ZERO_TOL and abs(w1) <= ZERO_TOL)
        cases[name] = entry

    report = {
        "profile": setup.profile.label,
        "hbar": setup.hbar,
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


def standard_setup(name: str, hbar: float, a: float | None = None, grid_size: int = 101) -> TwoGenSetup:
    """Reference setup: identity chart on the profile's natural interval."""
    profile = CommutatorProfile.builtin(name)
    if name == "poincare":
        if a is None:
            a = poincare_constants(hbar).edge
        interval = Interval.closed(a, 1.0)
    else:
        if a is None:
            a = -0.5 * hbar
        interval = Interval.at_least(a)
    return assemble(identity_on(interval), profile, hbar, grid_size)
