"""Cached powers of the generator against nested composition.

The reference is the nested-composition power: alpha^n = compose(step,
alpha^(n-1)) with maps that nest one closure per step. The cache must give
bit-equal chain ranges for every family, bit-equal domains and maps where the
step is applied in a loop (disc and custom maps), and for the translation
families, whose maps take the closed form x + n * offset, domains and maps
equal up to rounding.
"""

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


def _family(kind, interval, hbar):
    if kind == "custom+":
        return make_family("custom", interval, hbar, forward="x + h", inverse="x - h")
    if kind == "custom-":
        return make_family("custom", interval, hbar, forward="x - h", inverse="x + h")
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
    ref = nested_powers(gen, max(NS))
    alg = CrossedProductAlgebra(gen)
    translation = kind in TRANSLATIONS
    for n in NS:
        got, want = alg.power(n), ref[n]
        assert got.range == want.range, n
        if translation:
            assert got.domain.close_to(want.domain, 1e-14), n
            assert got.domain.lo_closed == want.domain.lo_closed and got.domain.hi_closed == want.domain.hi_closed
        else:
            assert got.domain == want.domain, n
        xs, ys = want.domain.grid(17), want.range.grid(17)
        pairs = [(got.forward(xs), want.forward(xs)), (got.inverse(ys), want.inverse(ys))]
        for a, b in pairs:
            if translation:
                assert np.allclose(a, b, rtol=0, atol=1e-14 * (1 + np.max(np.abs(b), initial=0))), n
            else:
                assert np.array_equal(a, b), n
    assert alg.power(1) is gen


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
    assert _family("custom+", UNIT, 0.1).generator.offset is None


def test_deep_finite_cylinder_order():
    assert Cylinder("finite", UNIT, 1 / 1024).order == 1025


def test_deep_chain_has_no_recursion_limit():
    # nested closures hit the interpreter's recursion limit near 1000 steps;
    # whether 1000 * 0.001 lands on 1 exactly is a matter of rounding
    assert Cylinder("finite", UNIT, 0.001).order in (1000, 1001)


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
    # sha256 over interval_n(-40..40) and nilpotency_degree() of the other 66 combinations
    # of the grid, computed before the fix: they must stay bit-identical
    REST_DIGEST = "4e32ce814cb938bcfb786853c62fe55be05ab13a4bf58c69db420880fab6b9ea"

    @pytest.mark.parametrize("kind,interval", OPEN_TOP)
    def test_composed_and_iterated_ranges_agree(self, kind, interval):
        alg = CrossedProductAlgebra(make_family(kind, Interval.parse(interval), 1 / 3).generator)
        ranges = [alg.interval_n(n) for n in NS]  # raised the power self-check at k = 3
        # the power that would land on the excluded end is empty
        toward_top = 3 if kind != "plane_plus" else -3
        assert ranges[NS.index(toward_top)].is_empty
        # plane_plus climbs through its inverse; its third positive power keeps a sub-ulp range at 0
        assert alg.nilpotency_degree() == (4 if kind == "plane_plus" else 3)

    def test_rest_of_grid_unchanged(self):
        import hashlib
        import itertools

        digest = hashlib.sha256()
        for kind, interval, hbar in itertools.product(TRANSLATIONS, self.CARRIERS, self.STEPS):
            if hbar == 1 / 3 and (kind, interval) in self.OPEN_TOP:
                continue
            alg = CrossedProductAlgebra(make_family(kind, Interval.parse(interval), hbar).generator)
            digest.update(repr(([alg.interval_n(n) for n in NS], alg.nilpotency_degree())).encode())
        assert digest.hexdigest() == self.REST_DIGEST

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
