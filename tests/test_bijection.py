
import numpy as np
import pytest
from hypothesis import given, strategies as st

from fuzzcyl.interval import EMPTY, Interval
from fuzzcyl.bijection import (
    SemigroupElement,
    canonicalize,
    compose,
    family_from_descriptor,
    family_to_descriptor,
    identity_on,
    make_family,
    poincare_validity_bound,
    power,
)

UNIT = Interval.closed(0.0, 1.0)


def shift_gen(hbar=0.25, interval=UNIT):
    return make_family("shift", interval, hbar).generator


class TestShiftFamily:
    def test_generator_domain_range(self):
        g = shift_gen()
        assert g.domain == Interval.closed(0.0, 0.75)
        assert g.range == Interval.closed(0.25, 1.0)
        assert g.apply(0.5) == 0.75
        assert g.apply_inverse(0.75) == 0.5

    def test_power_two(self):
        p = power(shift_gen(), 2)
        assert p.domain == Interval.closed(0.0, 0.5)
        assert p.range == Interval.closed(0.5, 1.0)

    def test_negative_power_example(self):
        p = power(shift_gen(), -2)
        assert p.domain == Interval.closed(0.5, 1.0)
        assert p.range == Interval.closed(0.0, 0.5)

    def test_interval_chain_shrinks_to_empty(self):
        g = shift_gen()
        ranges = [power(g, n).range for n in range(6)]
        assert ranges[3] == Interval.closed(0.75, 1.0)
        assert ranges[4] == Interval.point(1.0)
        assert ranges[5] == EMPTY
        for small, big in zip(ranges[1:], ranges):
            assert small.subset_of(big)

    def test_step_larger_than_width_gives_empty(self):
        g = shift_gen(hbar=2.0)
        assert g.is_empty
        assert power(g, 1).domain == EMPTY

    def test_roundtrip(self):
        assert shift_gen().roundtrip_residual() <= 1e-10

    def test_zero_step_is_identity(self):
        fam = make_family("shift", UNIT, 0.0)
        assert fam.generator.domain == UNIT
        assert fam.generator.apply(0.3) == 0.3


class TestPlaneAndDiscFamilies:
    def test_plane_plus_intervals(self):
        g = make_family("plane_plus", Interval.at_least(0.0), 0.25).generator
        assert g.domain == Interval.at_least(0.25)
        assert g.range == Interval.at_least(0.0)
        assert g.apply(1.0) == 0.75

    def test_plane_minus_intervals(self):
        g = make_family("plane_minus", Interval.at_least(0.0), 0.25).generator
        assert g.domain == Interval.at_least(0.0)
        assert g.range == Interval.at_least(0.25)

    def test_poincare_fixed_point_and_drift(self):
        fam = make_family("poincare", UNIT, 0.1)
        g = fam.generator
        assert abs(float(g.forward(np.asarray(1.0))) - 1.0) <= 1e-12
        assert abs(float(fam.raw_forward(0.1, np.asarray(0.0))) + 0.05) <= 0.01
        assert g.roundtrip_residual() <= 1e-10

    @pytest.mark.parametrize("h", [1e-3, 1e-4])
    def test_poincare_roundtrip_drift_at_small_step(self, h):
        fam = make_family("poincare", UNIT, h)
        xs = UNIT.grid(1001)
        assert np.max(np.abs(fam.raw_forward(h, fam.raw_inverse(h, xs)) - xs)) <= 1e-15

    def test_poincare_domain_is_left_trimmed(self):
        g = make_family("poincare", UNIT, 0.2).generator
        assert g.range == UNIT
        assert g.domain.lo > 0.0
        assert g.domain.hi == 1.0

    def test_poincare_step_bound(self):
        with pytest.raises(ValueError):
            make_family("poincare", UNIT, poincare_validity_bound())

    def test_negative_step_rejected(self):
        with pytest.raises(ValueError):
            make_family("shift", UNIT, -0.1)


class TestCompose:
    def test_compose_carrier_mismatch(self):
        a = shift_gen()
        b = make_family("shift", Interval.closed(0.0, 2.0), 0.25).generator
        with pytest.raises(ValueError):
            compose(a, b)

    def test_compose_with_identity(self):
        g = shift_gen()
        assert compose(g, identity_on(UNIT)).domain == g.domain
        assert compose(identity_on(UNIT), g).range == g.range

    def test_forward_then_inverse_is_restricted_identity(self):
        g = shift_gen()
        e = compose(g.inverted(), g)
        assert e.domain == g.domain
        xs = e.domain.grid(9)
        assert np.max(np.abs(e.apply(xs) - xs)) <= 1e-12

    def test_monotonicity_on_sampled_grid(self):
        g = make_family("poincare", UNIT, 0.3).generator
        xs = g.domain.grid(33)
        ys = np.asarray(g.apply(xs))
        assert np.all(np.diff(ys) > 0)


class TestCustomFamily:
    def test_expression_family(self):
        fam = make_family("custom", UNIT, 0.5, forward="x + h/2", inverse="x - h/2")
        g = fam.generator
        assert g.domain == Interval.closed(0.0, 0.75)
        assert g.apply(0.5) == 0.75

    def test_descriptor_roundtrip(self):
        fam = make_family("custom", UNIT, 0.5, forward="x + h/2", inverse="x - h/2")
        desc = family_to_descriptor(fam)
        fam2 = family_from_descriptor(desc)
        assert fam2.generator.domain == fam.generator.domain

    def test_inconsistent_pair_rejected(self):
        with pytest.raises(ValueError):
            make_family("custom", UNIT, 0.25, forward="x + h", inverse="x - h/2")

    def test_descriptor_errors(self):
        with pytest.raises(ValueError):
            family_from_descriptor({"kind": "shift"})
        with pytest.raises(ValueError):
            family_from_descriptor({"kind": "nope", "interval": "[0,1]", "hbar": 0.1})


class TestCanonicalForm:
    def test_plain_examples(self):
        assert canonicalize([1, -1]) == SemigroupElement(1, 0, 0)
        assert canonicalize([-1, 1]) == SemigroupElement(0, -1, 0)
        assert canonicalize([3]) == SemigroupElement(3, 0, 3)
        assert canonicalize([2, -3, 1]) == SemigroupElement(2, -1, 0)
        assert canonicalize([]) == SemigroupElement(0, 0, 0)

    def test_normalization_enforced(self):
        with pytest.raises(ValueError):
            SemigroupElement(0, 0, 1)
        with pytest.raises(ValueError):
            SemigroupElement(1, 1, 0)

    def test_star_and_compose(self):
        s = canonicalize([2, -3, 1])
        assert s.star() == s  # an idempotent
        t = canonicalize([1])
        assert t.star() == SemigroupElement(0, -1, -1)
        assert t.compose(t.star()) == SemigroupElement(1, 0, 0)
        assert t.star().compose(t) == SemigroupElement(0, -1, 0)

    def test_realize_idempotent_is_restricted_identity(self):
        g = shift_gen()
        e = SemigroupElement(1, 0, 0).realize(g)
        assert e.domain == Interval.closed(0.25, 1.0)
        xs = e.domain.grid(5)
        assert np.max(np.abs(e.apply(xs) - xs)) == 0.0

    def test_realize_matches_word_composition(self):
        g = shift_gen()
        s = canonicalize([1, 1, -1])
        direct = compose(compose(power(g, 1), power(g, 1)), power(g, -1))
        real = s.realize(g)
        assert real.domain.close_to(direct.domain, 1e-12)
        assert real.range.close_to(direct.range, 1e-12)


words = st.lists(st.integers(min_value=-3, max_value=3), min_size=0, max_size=6)


@given(words)
def test_canonical_triple_is_normalized(w):
    s = canonicalize(w)
    assert s.n_plus >= max(0, s.m)
    assert s.n_minus <= min(0, s.m)


@given(words)
def test_word_roundtrip_and_star_involution(w):
    s = canonicalize(w)
    assert canonicalize(s.to_word()) == s
    assert s.star().star() == s
