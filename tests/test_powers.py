"""Cached powers of the generator against exact and nested references.

A translation by c (the built-in translation families, and custom maps
x + c / x - c) takes the closed form x + n * c. Its domain and range must be
carrier ∩ (carrier -+ n * c) computed in exact rationals from the intended
step, and its maps x + n * c up to rounding. Any other map is checked
against the nested-composition power alpha^n = compose(step, alpha^(n-1)),
whose maps nest one closure per step: chain ranges and maps must be
bit-equal, and the domain is the chain interval D_-n, within 1e-14 of the
nested one.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from fuzzcyl.bijection import compose, identity_on, make_family, power
from fuzzcyl.crossed import CrossedProductAlgebra, Cylinder
from fuzzcyl.interval import Interval, image_monotone

NS = range(-40, 41)
TRANSLATIONS = ("shift", "plane_plus", "plane_minus")
UNIT = Interval.closed(0.0, 1.0)
HALF = Interval.at_least(0.0)
LINE = Interval.real_line()


def nested_powers(alpha, depth):
    """n -> alpha^n for |n| <= depth by repeated compose(step, previous), one nested closure per step."""
    out = {0: identity_on(alpha.carrier)}
    for sign in (1, -1):
        step = alpha if sign > 0 else alpha.inverted()
        prev = step
        for k in range(1, depth + 1):
            if k > 1:
                prev = compose(step, prev)
            out[sign * k] = prev
    return out


# sign of the constant each translation adds, in units of the step
SIGNS = {"shift": 1, "plane_plus": -1, "plane_minus": 1, "custom+": 1, "custom-": -1}


def exact_chain(carrier, t):
    """carrier ∩ (carrier + t) for a rational t, its ends computed exactly and rounded once.

    Both operands carry the carrier's end flags, so the intersection does
    too; where its ends meet, it is a point if both flags are closed and
    empty otherwise.
    """
    lo = Fraction(carrier.lo) + max(t, 0) if math.isfinite(carrier.lo) else carrier.lo
    hi = Fraction(carrier.hi) + min(t, 0) if math.isfinite(carrier.hi) else carrier.hi
    if lo > hi or (lo == hi and not (carrier.lo_closed and carrier.hi_closed)):
        return Interval.empty()
    return Interval(float(lo), float(hi), carrier.lo_closed, carrier.hi_closed)


def exact_step(kind, hbar):
    """The rational step a translation family is meant to add: 0.05 means 1/20."""
    return SIGNS[kind] * Fraction(hbar).limit_denominator(1000)


def assert_chain(got, want):
    assert got.is_empty == want.is_empty, (got, want)
    assert got.close_to(want, 1e-15) and (got.lo_closed, got.hi_closed) == (want.lo_closed, want.hi_closed), (got, want)


CUSTOM_MAPS = {
    "custom+": ("x + h", "x - h"), "custom-": ("x - h", "x + h"),
    "2x+h": ("2*x + h", "(x - h)/2"), "x+hx": ("x + h*x", "x/(1 + h)"), "x^2": ("x^2", "sqrt(x)"),
}


def _family(kind, interval, hbar):
    if kind in CUSTOM_MAPS:
        forward, inverse = CUSTOM_MAPS[kind]
        return make_family("custom", interval, hbar, forward=forward, inverse=inverse)
    return make_family(kind, interval, hbar)


CASES = [
    (kind, iv, h)
    for kind in (*TRANSLATIONS, "custom+", "custom-")
    for iv in (UNIT, HALF, LINE)
    for h in (0.05, 1 / 32)
] + [("poincare", UNIT, h) for h in (0.05, 0.3)] + [("poincare", Interval.closed(-0.025, 1.0), 0.1)]


@pytest.mark.parametrize("kind,interval,hbar", CASES, ids=lambda v: str(v))
def test_cached_powers_match_nested_composition(kind, interval, hbar):
    gen = _family(kind, interval, hbar).generator
    alg = CrossedProductAlgebra(gen)
    if kind in SIGNS:
        c = exact_step(kind, hbar)
        for n in NS:
            got = alg.power(n)
            assert_chain(got.domain, exact_chain(interval, -n * c))
            assert_chain(got.range, exact_chain(interval, n * c))
            xs, ys = got.domain.grid(17), got.range.grid(17)
            for a, b in ((got.forward(xs), xs + float(n * c)), (got.inverse(ys), ys - float(n * c))):
                assert np.allclose(a, b, rtol=0, atol=1e-14 * (1 + np.max(np.abs(b), initial=0))), n
    else:
        ref = nested_powers(gen, max(NS))
        for n in NS:
            got, want = alg.power(n), ref[n]
            assert got.range == want.range, n
            # the domain is the chain's D_-n, which the nested inverse reaches only to a few ulps
            assert got.domain == alg.interval_n(-n), n
            assert got.domain.close_to(want.domain, 1e-14), n
            assert (got.domain.lo_closed, got.domain.hi_closed) == (want.domain.lo_closed, want.domain.hi_closed), n
            xs, ys = want.domain.grid(17), want.range.grid(17)
            assert np.array_equal(got.forward(xs), want.forward(xs)), n
            assert np.array_equal(got.inverse(ys), want.inverse(ys)), n
    assert alg.power(1) is gen


@pytest.mark.parametrize("kind,interval,hbar", [
    ("poincare", UNIT, 0.05), ("poincare", Interval.closed(-0.025, 1.0), 0.1),
    ("2x+h", Interval.parse("(0,1)"), 0.1), ("x+hx", HALF, 0.25), ("x^2", UNIT, 0.1),
], ids=str)
def test_powers_run_between_chain_intervals(kind, interval, hbar):
    """alpha^n maps D_-n onto D_n, and every D_n lies inside the carrier."""
    alg = CrossedProductAlgebra(_family(kind, interval, hbar).generator)
    for n in NS:
        assert alg.interval_n(n).subset_of(interval), n
        assert alg.power(n).domain == alg.interval_n(-n) and alg.power(n).range == alg.interval_n(n), n


@pytest.mark.parametrize("kind,interval,steps", [("x^2", UNIT, (4, 64)), ("2x+h", LINE, (3, 10, 64))], ids=str)
def test_saturating_iterates_build_every_power(kind, interval, steps):
    """Maps whose iterates saturate far out build every power: the n-fold iterate is never sample-checked."""
    for q in steps:
        alg = CrossedProductAlgebra(_family(kind, interval, 1 / q).generator)
        for n in range(-70, 71):
            assert alg.power(n).domain == interval and alg.power(n).range == interval, (q, n)


@pytest.mark.parametrize("kind,interval,q", [
    (kind, interval, q)
    for kind, interval in (("x^2", Interval.closed(0.5, 2.0)), ("2x+h", Interval.closed(-0.025, 1.0)))
    for q in (40, 64)
], ids=str)
def test_ulp_flat_samples_build_every_power(kind, interval, q):
    """Neighbouring samples whose images round to one float are no decrease: every power builds."""
    alg = CrossedProductAlgebra(_family(kind, interval, 1 / q).generator)
    for n in range(-70, 71):
        pw = alg.power(n)
        assert pw.domain.subset_of(interval) and pw.range.subset_of(interval), (q, n)


@pytest.mark.parametrize("kind,interval,q", [
    ("2x+h", "(0,1)", 3), ("2x+h", "[0,1)", 7), ("2x+h", "(0,1]", 15), ("2x+h", "[0,1]", 3), ("x^2", "[0.5,2]", 4),
], ids=str)
@pytest.mark.parametrize("first", [1, -1])
def test_chain_ends_are_empty_together(kind, interval, q, first):
    """alpha^n maps D_-n onto D_n, so the two are empty together, whichever side is asked for first.

    At h = 1/3, 2x + h on (0, 1) has D_2 empty, while the inverse's image of D_-1 leaves a sub-ulp interval.
    """
    alg = CrossedProductAlgebra(_family(kind, Interval.parse(interval), 1 / q).generator)
    for n in range(1, 71):
        ends = [alg.interval_n(first * n), alg.interval_n(-first * n)]
        assert ends[0].is_empty == ends[1].is_empty, (n, ends)
        assert alg.power(n).is_empty == ends[0].is_empty, n
    if (kind, interval, q) == ("2x+h", "(0,1)", 3):
        assert alg.interval_n(2).is_empty and alg.interval_n(-2).is_empty


def test_translation_chain_grid():
    """h = 1/q, q = 2..64: the step element's nilpotency index is q + 1 on [0,1], q on the other unit carriers."""
    for kind in SIGNS:
        for carrier in ("[0,1]", "(0,1)", "[0,1)", "(0,1]"):
            for q in range(2, 65):
                alg = CrossedProductAlgebra(_family(kind, Interval.parse(carrier), 1 / q).generator)
                assert alg.nilpotency_degree() == (q + 1 if carrier == "[0,1]" else q), (kind, carrier, q)


@pytest.mark.parametrize("kind", [*TRANSLATIONS, "poincare", "custom+"])
def test_power_function_matches_cache(kind):
    gen = _family(kind, UNIT, 0.05).generator
    alg = CrossedProductAlgebra(gen)
    for n in (-23, -2, -1, 0, 1, 2, 7, 23):
        got, want = power(gen, n), alg.power(n)
        assert got.range == want.range and got.domain == want.domain
        xs = want.domain.grid(17)
        assert np.array_equal(got.forward(xs), want.forward(xs))


def test_translation_offsets():
    for kind, sign in (("shift", 1.0), ("plane_plus", -1.0), ("plane_minus", 1.0)):
        gen = make_family(kind, UNIT, 0.125).generator
        assert gen.offset == sign * 0.125
        assert gen.inverted().offset == -sign * 0.125
        assert power(gen, 3).offset == 3 * sign * 0.125
        assert power(gen, -2).offset == -2 * sign * 0.125
    assert make_family("poincare", UNIT, 0.1).generator.offset is None
    assert _family("custom+", UNIT, 0.1).generator.offset == 0.1
    assert _family("custom-", UNIT, 0.1).generator.offset == -0.1
    # not a translation pair: the inverse undoes another constant, so the pair is walked and fails its roundtrip
    with pytest.raises(ValueError, match="inconsistent"):
        make_family("custom", UNIT, 0.1, forward="x + h", inverse="x - 2*h")


def test_deep_finite_cylinder_order():
    assert Cylinder("finite", UNIT, 1 / 1024).order == 1025


def test_deep_chain_has_no_recursion_limit():
    # nested closures hit the interpreter's recursion limit near 1000 steps
    assert Cylinder("finite", UNIT, 0.001).order == 1001


class TestSubUlpChainIntervals:
    """A chain interval one ulp wide maps to the interval between its endpoint images."""

    @pytest.mark.parametrize("hbar,order", [(0.1, 11), (0.2, 6), (1 / 3, 4), (1 / 7, 8)])
    def test_finite_cylinder_orders(self, hbar, order):
        assert Cylinder("finite", UNIT, hbar).order == order

    def test_custom_translation_order(self):
        gen = _family("custom+", UNIT, 0.1).generator
        assert CrossedProductAlgebra(gen).nilpotency_degree() == 11

    def test_one_ulp_interval_is_not_sample_checked(self):
        lo = 1.0 - 2.0**-53
        iv = Interval.closed(lo, 1.0)
        assert image_monotone(iv, lambda x: x - 0.5) == Interval.closed(lo - 0.5, 0.5)
        # both endpoint images round to one float: a point
        assert image_monotone(iv, lambda x: x + 1.0) == Interval.point(2.0)

    def test_wide_intervals_keep_the_sampled_check(self):
        with pytest.raises(ValueError):
            image_monotone(Interval.closed(-1.0, 1.0), lambda x: x**3 - 0.9 * x)
        with pytest.raises(ValueError):
            image_monotone(Interval.closed(-1.0, 1.0), lambda x: x * x)

    def test_oracle_command_at_step_one_tenth(self, tmp_path):
        import json

        from fuzzcyl.cli import main

        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "family": {"kind": "shift", "interval": "[0, 1]", "hbar": 0.1},
            "base_point": 0.05,
            "random_elements": 2,
        }))
        out = tmp_path / "out.json"
        assert main(["oracle", "--config", str(cfg), "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["M"] == 10 and report["pass"]


class TestOpenCarrierEnds:
    """A sub-ulp chain interval whose image rounds onto an excluded carrier end."""

    CARRIERS = ("(0,1)", "[0,1)", "(0,1]", "[0,1]")
    STEPS = (1 / 3, 0.1, 1 / 7, 0.2, 0.25, 0.3)
    # the chain at h = 1/3 on a carrier open at 1: 3 * (1/3) rounds onto the excluded end
    OPEN_TOP = [(kind, iv) for kind in TRANSLATIONS for iv in ("(0,1)", "[0,1)")]

    @pytest.mark.parametrize("kind,interval", OPEN_TOP)
    def test_composed_and_iterated_ranges_agree(self, kind, interval):
        alg = CrossedProductAlgebra(make_family(kind, Interval.parse(interval), 1 / 3).generator)
        ranges = [alg.interval_n(n) for n in NS]
        # the power that would land on the excluded end is empty
        toward_top = 3 if kind != "plane_plus" else -3
        assert ranges[NS.index(toward_top)].is_empty
        # the chain (0,1) ∩ (3h, 1 + 3h) is empty, so no sub-ulp range survives either way
        assert alg.nilpotency_degree() == 3

    def test_rest_of_grid_is_exact(self):
        import itertools

        for kind, interval, hbar in itertools.product(TRANSLATIONS, self.CARRIERS, self.STEPS):
            if hbar == 1 / 3 and (kind, interval) in self.OPEN_TOP:
                continue
            carrier, c = Interval.parse(interval), exact_step(kind, hbar)
            alg = CrossedProductAlgebra(make_family(kind, carrier, hbar).generator)
            for n in NS:
                assert_chain(alg.interval_n(n), exact_chain(carrier, n * c))
            order = next(n for n in range(1, 100) if exact_chain(carrier, n * c).is_empty)
            assert alg.nilpotency_degree() == order, (kind, interval, hbar)

    @pytest.mark.parametrize("command", ["algebra-check", "oracle"])
    def test_cli_runs_on_open_carrier(self, tmp_path, command):
        import json

        from fuzzcyl.cli import main

        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "family": {"kind": "shift", "interval": "(0, 1)", "hbar": 1 / 3},
            "base_point": 0.1,
            "random_elements": 2,
        }))
        assert main([command, "--config", str(cfg), "--out", str(tmp_path / "out.json")]) == 0
