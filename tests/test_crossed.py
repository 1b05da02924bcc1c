import numpy as np
import pytest

from conftest import random_cp_element, random_supported
from fuzzcyl.interval import Interval
from fuzzcyl.bijection import PartialBijection, make_family
from fuzzcyl.crossed import (
    CrossedProductAlgebra,
    Cylinder,
    equal_as_cyl,
    fixed_point_subalgebra_check,
    u_relations_check,
)
from fuzzcyl.functions import polynomial

UNIT = Interval.closed(0.0, 1.0)


def quarter_cylinder():
    return Cylinder("finite", UNIT, 0.25)


class TestCylinderConstruction:
    def test_kind_shape_validation(self):
        with pytest.raises(ValueError):
            Cylinder("finite", Interval.at_least(0.0), 0.25)
        with pytest.raises(ValueError):
            Cylinder("infinite", UNIT, 0.25)
        with pytest.raises(ValueError):
            Cylinder("half_finite", Interval.real_line(), 0.25)
        with pytest.raises(ValueError):
            Cylinder("finite", UNIT, 0.0)
        with pytest.raises(ValueError):
            Cylinder("ring", UNIT, 0.25)

    def test_quarter_step_chain_and_order(self):
        cyl = quarter_cylinder()
        assert cyl.order == 5
        assert cyl.interval_n(4) == Interval.point(1.0)
        assert cyl.interval_n(-4) == Interval.point(0.0)
        assert cyl.interval_n(5).is_empty

    def test_incommensurate_step_order(self):
        cyl = Cylinder("finite", UNIT, 0.3)
        assert cyl.order == 4
        assert not cyl.interval_n(3).is_empty

    def test_half_and_infinite_have_no_order(self):
        assert Cylinder("half_finite", Interval.at_least(0.0), 0.25).order is None
        assert Cylinder("infinite", Interval.real_line(), 0.25).order is None
        cyl = Cylinder("infinite", Interval.real_line(), 0.25)
        assert cyl.interval_n(3) == Interval.real_line()


class TestElementConstruction:
    def test_clip_mode_trims_support(self):
        cyl = quarter_cylinder()
        f = polynomial([1.0], UNIT)  # supported everywhere
        x = cyl.element({1: f})
        assert x.terms[1].support == Interval.closed(0.25, 1.0)

    def test_empty_chain_interval_drops_term(self):
        cyl = quarter_cylinder()
        x = cyl.element({7: polynomial([1.0], UNIT)})
        assert x.is_zero

    def test_scalar_multiples(self):
        cyl = quarter_cylinder()
        x = random_cp_element(cyl, np.random.default_rng(43))
        assert not x.is_zero
        assert cyl.distance(2.0 * x, x.scale(2.0)) == 0.0
        assert cyl.distance((1j * x).scale(-1j), x) == 0.0
        assert x.scale(0).is_zero and (0 * x).is_zero
        assert cyl.distance(x - x, cyl.zero()) == 0.0


class TestProducts:
    def test_step_times_adjoint_is_projection(self):
        cyl = quarter_cylinder()
        u, us = cyl.generator_u(), cyl.generator_u_star()
        p1 = cyl.element({0: cyl.p(1)})
        assert cyl.distance(u * us, p1) == 0.0
        pm1 = cyl.element({0: cyl.p(-1)})
        assert cyl.distance(us * u, pm1) == 0.0

    def test_u_relations_all_kinds(self):
        for alg in (
            quarter_cylinder(),
            Cylinder("half_finite", Interval.at_least(0.0), 0.25),
            Cylinder("infinite", Interval.real_line(), 0.25),
        ):
            report = u_relations_check(alg)
            assert report["pass"], report

    def test_step_powers_are_indicator_terms(self):
        cyl = quarter_cylinder()
        u2 = cyl.generator_u().pow(2)
        assert u2.steps == [2]
        xs = cyl.interval_n(2).grid(11)
        assert np.max(np.abs(u2.terms[2](xs) - 1.0)) <= 1e-12
        assert u2.terms[2](0.1) == 0.0

    def test_nilpotency_commensurate(self):
        cyl = quarter_cylinder()
        u = cyl.generator_u()
        u4 = u.pow(4)
        assert not u4.is_zero  # survives on the degenerate endpoint
        assert u4.terms[4].support == Interval.point(1.0)
        assert u.pow(5).is_zero
        assert cyl.nilpotency_degree() == 5

    def test_nilpotency_incommensurate(self):
        cyl = Cylinder("finite", UNIT, 0.3)
        u = cyl.generator_u()
        assert not u.pow(3).is_zero
        assert u.pow(4).is_zero
        assert cyl.nilpotency_degree() == 4

    def test_smallest_vanishing_power_matches_chain(self):
        for hbar in (0.25, 0.3):
            cyl = Cylinder("finite", UNIT, hbar)
            u = cyl.generator_u()
            k = 1
            x = u
            while not x.is_zero:
                x = x * u
                k += 1
            assert k == cyl.nilpotency_degree()

    def test_nilpotency_walks_the_whole_chain(self):
        # a contraction toward 1.01, just outside the carrier: D_44 is the first empty chain interval
        fam = make_family("custom", UNIT, 0.1, forward="x + h*(1.01 - x)", inverse="(x - 1.01*h)/(1 - h)")
        alg = CrossedProductAlgebra(fam.generator)
        assert alg.nilpotency_degree() == 44
        u43 = alg.generator_u().pow(43)
        assert not u43.is_zero and (u43 * alg.generator_u()).is_zero
        # the disc map's chain repeats from D_1: it never empties
        for carrier in (UNIT, Interval.closed(-0.025, 1.0)):
            assert CrossedProductAlgebra(make_family("poincare", carrier, 0.1).generator).nilpotency_degree() is None

    def test_nilpotency_walks_unbounded_carriers(self):
        # -1/x sends (-inf, -1] into (0, 1], off the carrier: D_1 is empty and u itself is 0
        fam = make_family("custom", Interval.parse("(-inf, -1]"), 0.1, forward="-1/x", inverse="-1/x")
        alg = CrossedProductAlgebra(fam.generator)
        assert alg.generator_u().is_zero and alg.interval_n(1).is_empty
        assert alg.nilpotency_degree() == 1
        # a translation's chain on a half-line or the line never empties
        for carrier in (Interval.at_least(0.0), Interval.parse("(-inf, 0]"), Interval.real_line()):
            for kind in ("shift", "plane_plus"):
                assert CrossedProductAlgebra(make_family(kind, carrier, 1e-6).generator).nilpotency_degree() is None

    def test_nilpotency_stops_where_a_chain_end_overflows(self):
        # D_n = [2^n, inf) on [1, inf) never empties, but 2x sends D_1023's end past the float range
        for carrier, end in ((Interval.at_least(1.0), "lo"), (Interval.parse("(-inf, -1]"), "hi")):
            alg = CrossedProductAlgebra(make_family("custom", carrier, 0.1, forward="2*x", inverse="x/2").generator)
            assert alg.nilpotency_degree() is None
            assert abs(getattr(alg.interval_n(1023), end)) == 2.0**1023

    def test_nilpotency_keeps_other_chain_errors(self, monkeypatch):
        alg = CrossedProductAlgebra(make_family("custom", Interval.at_least(1.0), 0.1, forward="2*x", inverse="x/2").generator)

        def refuse(n):
            raise ValueError("interval endpoint is NaN")

        monkeypatch.setattr(alg, "interval_n", refuse)
        with pytest.raises(ValueError, match="endpoint is NaN"):
            alg.nilpotency_degree()

    @pytest.mark.parametrize("q", [3, 7, 15])
    def test_products_through_a_sliver_chain_member(self, q):
        # at h = 1/q a chain member of 2*x + h rounds to a sub-ulp sliver such as [0, 2.8e-17],
        # whose ends map to one float: its image is that point, and every product computes
        from fuzzcyl.cli import _random_elements

        fam = make_family("custom", UNIT, 1 / q, forward="2*x + h", inverse="(x - h)/2")
        alg = CrossedProductAlgebra(fam.generator)
        rng = np.random.default_rng(0)
        for _ in range(100):
            x, y, z = _random_elements(alg, rng, 3)
            assert alg.distance((x * y) * z, x * (y * z)) <= 1e-12
            assert alg.distance((x * y).adjoint(), y.adjoint() * x.adjoint()) <= 1e-12

    def test_associativity_random(self):
        rng = np.random.default_rng(101)
        cyl = quarter_cylinder()
        for _ in range(30):
            x, y, z = (random_cp_element(cyl, rng) for _ in range(3))
            assert cyl.distance((x * y) * z, x * (y * z)) <= 1e-9

    def test_involution_antihomomorphism(self):
        rng = np.random.default_rng(103)
        for alg in (quarter_cylinder(), Cylinder("infinite", Interval.real_line(), 0.5)):
            for _ in range(15):
                x, y = (random_cp_element(alg, rng) for _ in range(2))
                assert alg.distance((x * y).adjoint(), y.adjoint() * x.adjoint()) <= 1e-9
                assert alg.distance(x.adjoint().adjoint(), x) <= 1e-9

    def test_product_supports_stay_inside_chain(self):
        rng = np.random.default_rng(107)
        cyl = quarter_cylinder()
        for _ in range(20):
            x, y = (random_cp_element(cyl, rng) for _ in range(2))
            prod = cyl.multiply(x, y)
            for n, fn in prod.terms.items():
                assert fn.support.subset_of(cyl.interval_n(n), 1e-9)

    def test_projection_substitutes_for_step_product(self):
        rng = np.random.default_rng(109)
        cyl = quarter_cylinder()
        uus = cyl.generator_u() * cyl.generator_u_star()
        p1 = cyl.element({0: cyl.p(1)})
        for _ in range(10):
            x, y = (random_cp_element(cyl, rng) for _ in range(2))
            lhs = x * uus * y
            rhs = x * p1 * y
            assert cyl.distance(lhs, rhs) <= 1e-9


class TestInversePresentation:
    def test_flip_agreement(self):
        cyl = quarter_cylinder()
        opp = CrossedProductAlgebra(cyl.alpha.inverted())
        f = polynomial([0.5, 1.0], UNIT, support=Interval.closed(0.25, 1.0))
        x = cyl.element({1: f})
        y = opp.element({-1: f})
        assert equal_as_cyl(x, y)
        y_bad = opp.element({-1: f.scale(2.0)})
        assert not equal_as_cyl(x, y_bad)

    def test_presentation_mismatch_rejected(self):
        cyl = quarter_cylinder()
        with pytest.raises(ValueError):
            equal_as_cyl(cyl.one(), cyl.one())


def glued_identity_bijection(h=0.4):
    """Piecewise-linear unit interval map fixing [1/4, 1/2] pointwise."""
    xs = np.array([0.0, 0.125, 0.25, 0.5, 0.75, 1.0])
    ys = np.array([0.0, 0.125 * (1 - h), 0.25, 0.5, 0.75 + h * 0.125, 1.0])
    return PartialBijection(
        carrier=UNIT,
        domain=UNIT,
        range=UNIT,
        forward=lambda x: np.interp(np.asarray(x, float), xs, ys),
        inverse=lambda y: np.interp(np.asarray(y, float), ys, xs),
    )


class TestFixedPointSubalgebra:
    def test_supported_elements_commute(self):
        alg = CrossedProductAlgebra(glued_identity_bijection())
        S = Interval.closed(0.25, 0.5)
        rng = np.random.default_rng(113)
        elems = [
            alg.element({n: random_supported(rng, UNIT, support=S)})
            for n in (0, 1, 1, -1)
        ]
        report = fixed_point_subalgebra_check(alg, S, elems)
        assert report["precondition_ok"]
        assert report["pass"], report

    def test_shift_has_no_fixed_points(self):
        cyl = quarter_cylinder()
        report = fixed_point_subalgebra_check(cyl, Interval.closed(0.25, 0.5), [cyl.one()])
        assert not report["precondition_ok"]
        assert not report["pass"]

    def test_empty_set_is_vacuous(self):
        cyl = quarter_cylinder()
        report = fixed_point_subalgebra_check(cyl, Interval.empty(), [])
        assert report["vacuous"] and report["pass"]
