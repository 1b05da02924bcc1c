import math

import numpy as np
import pytest

from fuzzcyl.bijection import PartialBijection, identity_on, poincare_validity_bound
from fuzzcyl.functions import polynomial, pullback
from fuzzcyl.interval import Interval
from fuzzcyl.twogen import (
    CommutatorProfile,
    PoincareConstants,
    assemble,
    boundary_continuity_check,
    defining_equation_residual,
    poincare_constants,
    solve_action_from_profile,
    standard_setup,
    two_gen_relations,
)


class TestProfiles:
    def test_builtin_values(self):
        u = np.array([0.0, 0.5])
        assert np.allclose(CommutatorProfile.builtin("plane_plus").C(u), 1.0)
        assert np.allclose(CommutatorProfile.builtin("plane_minus").C(u), -1.0)
        assert np.allclose(CommutatorProfile.builtin("poincare").C(u), [0.5, 0.125])

    def test_unknown_profile(self):
        with pytest.raises(ValueError):
            CommutatorProfile.builtin("sphere")


class TestSolveAction:
    def test_plane_plus_is_down_shift(self):
        h = 0.1
        act = solve_action_from_profile(CommutatorProfile.builtin("plane_plus"), Interval.at_least(-h / 2), h)
        assert act.domain.close_to(Interval.at_least(h / 2))
        assert act.range.close_to(Interval.at_least(-h / 2))
        us = np.array([0.05, 1.0, 7.0])
        assert np.allclose(act.forward(us), us - h, atol=1e-14)

    def test_disc_fixes_one(self):
        act = solve_action_from_profile(CommutatorProfile.builtin("poincare"), Interval.closed(-0.02, 1.0), 0.1)
        assert abs(float(act.forward(np.array([1.0]))[0]) - 1.0) <= 1e-9

    def test_disc_validity_bound(self):
        with pytest.raises(ValueError):
            solve_action_from_profile(CommutatorProfile.builtin("poincare"), Interval.closed(0.0, 1.0), 0.9)

    def test_custom_linear_profile(self):
        h = 0.01
        prof = CommutatorProfile(lambda u: np.asarray(u, dtype=float), "linear")
        act = solve_action_from_profile(prof, Interval.closed(0.0, 1.0), h)
        assert defining_equation_residual(act, prof, h) <= 1e-10
        us = np.linspace(0.0, 1.0, 11)
        # x + (h/2)x = u - (h/2)u has the closed solution x = u(2-h)/(2+h)
        assert np.max(np.abs(act.forward(us) - us * (2 - h) / (2 + h))) <= 1e-9

    def test_custom_needs_finite_interval(self):
        prof = CommutatorProfile(lambda u: np.asarray(u, dtype=float), "linear")
        with pytest.raises(ValueError):
            solve_action_from_profile(prof, Interval.at_least(0.0), 0.01)

    def test_step_must_be_positive(self):
        with pytest.raises(ValueError):
            solve_action_from_profile(CommutatorProfile.builtin("plane_plus"), Interval.at_least(0.0), 0.0)


CUSTOM_PROFILES = {
    "linear": lambda u: np.asarray(u, dtype=float),
    "negative": lambda u: -np.ones_like(np.asarray(u, dtype=float)),
}


class TestRelations:
    def test_plane_plus_reference(self):
        h = 0.1
        report = two_gen_relations(standard_setup("plane_plus", h))
        assert report["pass"], report
        assert report["valid_generator"]
        names = {r["region"] for r in report["regions"]}
        assert names == {"only_plus", "overlap"}
        assert all(r["commutator_residual"] <= 1e-9 for r in report["regions"])
        assert report["overlap_identity_residual"] <= 1e-10
        assert report["defining_equation_residual"] <= 1e-10
        assert report["zero_orientation"] == "off_support"

    def test_plane_plus_piecewise_values(self):
        h = 0.1
        comm = standard_setup("plane_plus", h).commutator
        inside = np.array([0.2, 1.0, 3.0])       # overlap: constant h
        sliver = np.array([-0.04, -0.01, 0.04])  # exclusive strip: u + h/2
        assert np.max(np.abs(comm(inside) - h)) <= 1e-12
        assert np.max(np.abs(comm(sliver) - (sliver + h / 2))) <= 1e-12

    def test_plane_minus_expected_failure(self):
        h = 0.1
        report = two_gen_relations(standard_setup("plane_minus", h))
        assert report["relations_pass"], report
        assert not report["valid_generator"]
        assert not report["pass"]
        assert report["weight_min"] == pytest.approx(-h, abs=1e-9)
        assert report["weight_argmin"] == pytest.approx(-h / 2, abs=1e-9)
        assert report["commutator_sign_on_only_minus"] == "minus"
        assert report["zero_orientation"] == "off_support"

    def test_disc_reference(self):
        h = 0.1
        report = two_gen_relations(standard_setup("poincare", h))
        assert report["pass"], report
        assert report["overlap_identity_residual"] <= 1e-10
        only = {r["region"]: r for r in report["regions"]}
        assert set(only) == {"only_plus", "overlap"}

    def test_disc_overlap_matches_profile_density(self):
        h = 0.1
        comm = standard_setup("poincare", h).commutator
        us = np.linspace(0.3, 0.9, 13)
        assert np.max(np.abs(comm(us) - 0.5 * h * (1 - us) ** 2)) <= 1e-12

    def test_shifted_chart_keeps_relations_and_validity(self):
        # same profile that fails on its natural interval is fine once the
        # interval sits above the weight's root
        h = 0.1
        prof = CommutatorProfile.builtin("plane_minus")
        I = Interval.at_least(1.0)
        J = Interval.at_least(0.0)
        chart = PartialBijection(
            Interval.at_least(0.0), J, I,
            lambda u: np.asarray(u, dtype=float) + 1.0,
            lambda x: np.asarray(x, dtype=float) - 1.0,
        )
        report = two_gen_relations(assemble(chart, prof, h))
        assert report["pass"], report
        assert report["valid_generator"]
        names = {r["region"] for r in report["regions"]}
        assert names == {"only_minus", "overlap"}

    @pytest.mark.parametrize("label,h", [
        ("linear", 0.1), ("linear", 0.01), ("negative", 0.1), ("negative", 0.05), ("negative", 0.01),
    ])
    def test_custom_profiles_assemble(self, label, h):
        # the solved inverse is evaluated at a range end that bisection found only to
        # its tolerance, so the root there lies just past the bracket
        prof, I = CommutatorProfile(CUSTOM_PROFILES[label], label), Interval.closed(0.0, 1.0)
        report = two_gen_relations(assemble(identity_on(I), prof, h))
        assert report["relations_pass"], report
        assert report["max_residual"] <= 1e-11

    def test_custom_profile_below_the_weight_root_fails_like_plane_minus(self):
        # w = u + (h/2)(1 + u/2) is -h^2/8 at u = -h/2: on [-h/2, 2] the sqrt clip
        # breaks the relations, on [0, 2] the weight stays positive and they close
        h = 0.1
        prof = CommutatorProfile(lambda u: 1.0 + 0.5 * np.asarray(u, dtype=float))
        below = two_gen_relations(assemble(identity_on(Interval.closed(-h / 2, 2.0)), prof, h))
        assert below["weight_min"] == pytest.approx(-h * h / 8, abs=1e-12)
        assert below["weight_argmin"] == pytest.approx(-h / 2, abs=1e-12)
        assert not below["valid_generator"]
        assert not below["relations_pass"]
        above = two_gen_relations(assemble(identity_on(Interval.closed(0.0, 2.0)), prof, h))
        assert above["pass"], above
        assert above["max_residual"] <= 1e-11

    def test_commutator_with_diagonal_element(self):
        h = 0.1
        rng = np.random.default_rng(41)
        setup = standard_setup("plane_plus", h)
        alg, A = setup.algebra, setup.generator
        step = alg.alpha
        for _ in range(4):
            coeffs = rng.normal(size=3)
            g = polynomial(list(coeffs), alg.carrier)
            G = alg.element({0: g})
            lhs = A * G - G * A
            moved = pullback(g.restrict(alg.interval_n(1)), step.inverted())
            rhs = A * (G - alg.element({0: moved}))
            assert alg.distance(lhs, rhs) <= 1e-9

    def test_commutator_shrinks_with_step(self):
        grid = np.linspace(0.2, 3.0, 41)
        last = None
        for h in (0.1, 0.01, 0.001):
            comm = standard_setup("plane_plus", h).commutator
            peak = float(np.max(np.abs(comm(grid))))
            assert peak == pytest.approx(h, abs=1e-9)
            if last is not None:
                assert peak < last
            last = peak

    def test_disc_commutator_shrinks_with_step(self):
        grid = np.linspace(0.3, 0.9, 25)
        for h in (0.1, 0.05, 0.01):
            comm = standard_setup("poincare", h).commutator
            assert float(np.max(np.abs(comm(grid)))) <= 0.5 * h


class TestBoundary:
    def test_plane_plus_tuned_offset_passes_iff_pair(self):
        h = 0.1
        report = boundary_continuity_check(standard_setup("plane_plus", h))
        assert report["valid_generator"]
        case = report["cases"]["only_plus"]
        assert case["applies"]
        assert case["u0"] == pytest.approx(-h / 2, abs=1e-12)
        assert case["u1"] == pytest.approx(h / 2, abs=1e-12)
        assert case["map_residual"] <= 1e-12
        for fn in ("commutator", "anticommutator"):
            assert case[fn]["zero_at_u0"]
            assert case[fn]["continuous_at_u1"]
            assert case[fn]["iff_holds"]
        assert case["both_conditions_hold"]
        assert case["root_condition_holds"]
        assert not report["cases"]["only_minus"]["applies"]

    def test_plane_plus_zero_offset_jumps(self):
        h = 0.1
        report = boundary_continuity_check(standard_setup("plane_plus", h, a=0.0))
        case = report["cases"]["only_plus"]
        assert case["applies"]
        comm = case["commutator"]
        assert not comm["zero_at_u0"]
        assert comm["value_at_u0"] == pytest.approx(h / 2, abs=1e-9)
        assert not comm["continuous_at_u1"]
        assert comm["jump"] == pytest.approx(comm["value_at_u0"], abs=1e-6)
        assert comm["iff_holds"]
        assert case["iff_holds"]

    def test_plane_minus_obstruction(self):
        h = 0.1
        report = boundary_continuity_check(standard_setup("plane_minus", h))
        assert not report["valid_generator"]
        assert report["obstruction"] == pytest.approx(-h, abs=1e-9)
        case = report["cases"]["only_minus"]
        assert case["applies"]
        assert case["u0"] == pytest.approx(-h / 2, abs=1e-12)
        assert case["u1"] == pytest.approx(h / 2, abs=1e-12)
        assert case["map_residual"] <= 1e-12
        # relation functions vanish at the border and cross the seam
        # continuously, yet the weight sits at -h there: the full set of
        # classical-limit conditions cannot be met
        assert case["both_conditions_hold"]
        assert case["weight_at_u0"] == pytest.approx(-h, abs=1e-9)
        assert case["weight_at_u1"] == pytest.approx(0.0, abs=1e-9)
        assert not case["root_condition_holds"]
        assert not case["c0_condition_holds"]

    def test_shifted_chart_jump_case(self):
        h = 0.1
        prof = CommutatorProfile.builtin("plane_minus")
        I = Interval.at_least(1.0)
        chart = PartialBijection(
            Interval.at_least(0.0), Interval.at_least(0.0), I,
            lambda u: np.asarray(u, dtype=float) + 1.0,
            lambda x: np.asarray(x, dtype=float) - 1.0,
        )
        report = boundary_continuity_check(assemble(chart, prof, h))
        assert report["valid_generator"]
        case = report["cases"]["only_minus"]
        assert case["applies"]
        assert case["u0"] == pytest.approx(0.0, abs=1e-12)
        assert case["u1"] == pytest.approx(h, abs=1e-12)
        comm = case["commutator"]
        assert not comm["zero_at_u0"]
        assert not comm["continuous_at_u1"]
        assert comm["iff_holds"]


class TestDiscConstants:
    def test_reference_values(self):
        c = poincare_constants(0.1)
        assert isinstance(c, PoincareConstants)
        assert c.edge == pytest.approx(1.0 - 20.0 + 20.0 * math.sqrt(0.9), abs=1e-12)
        assert c.edge == pytest.approx(-0.025, abs=0.01)
        assert c.image_of_zero == pytest.approx(-0.05, abs=0.1 **2)
        assert c.zero_preimage == pytest.approx(0.05, abs=0.1 **2)
        assert c.edge_preimage > c.edge

    def test_criterion_grid(self):
        for h in (0.2, 0.1, 0.05):
            c = poincare_constants(h)
            assert abs(c.edge + h / 4) <= h * h
            assert abs(c.zero_preimage - h / 2) <= h * h
            assert abs(c.image_of_zero + h / 2) <= h * h

    def test_edge_approaches_quarter_step(self):
        for h in (0.05, 0.01, 0.001):
            ratio = poincare_constants(h).edge / (-h / 4)
            assert abs(ratio - 1.0) <= h

    def test_inadmissible_step(self):
        with pytest.raises(ValueError):
            poincare_constants(0.0)
        with pytest.raises(ValueError):
            poincare_constants(poincare_validity_bound() + 1e-3)

    def test_setup_regions_match_constants(self):
        h = 0.1
        c = poincare_constants(h)
        act = standard_setup("poincare", h).action
        assert act.domain.lo == pytest.approx(c.edge_preimage, abs=1e-9)
        assert act.range.lo == pytest.approx(c.edge, abs=1e-9)
