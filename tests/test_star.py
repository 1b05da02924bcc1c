import math

import numpy as np
import pytest

from conftest import random_cp_element
from fuzzcyl.interval import Interval
from fuzzcyl.bijection import make_family
from fuzzcyl.crossed import Cylinder
from fuzzcyl.functions import constant, polynomial
from fuzzcyl.star import (
    AliasingError,
    CylinderFunction,
    PoissonCoefficient,
    classical_limit_check,
    poisson_bracket,
    psi,
    psi_inv,
    star,
)

UNIT = Interval.closed(0.0, 1.0)


class TestModeCorrespondence:
    def test_roundtrip_element(self):
        rng = np.random.default_rng(301)
        cyl = Cylinder("finite", UNIT, 0.25)
        for _ in range(8):
            x = random_cp_element(cyl, rng)
            back = psi_inv(psi(x))
            assert cyl.distance(x, back) <= 1e-12

    def test_eval_sums_modes(self):
        cyl = Cylinder("finite", UNIT, 0.25)
        f = CylinderFunction(UNIT, {0: constant(2.0, UNIT), 1: constant(1.0, UNIT)}, cyl)
        val = f.eval([0.5], [0.0, math.pi / 2])
        assert val[0, 0] == pytest.approx(3.0)
        assert val[0, 1] == pytest.approx(2.0 + 1j)

    def test_quadrature_recovers_callable(self):
        cyl = Cylinder("infinite", Interval.real_line(), 0.5)

        def fn(xs, phi):
            return xs**2 * np.exp(1j * phi) + 1.0

        x = psi_inv(fn, algebra=cyl, max_n=1)
        assert x.steps == [0, 1]
        xs = np.linspace(-2, 2, 9)
        assert np.max(np.abs(x.terms[1](xs) - xs**2)) <= 1e-12
        assert np.max(np.abs(x.terms[0](xs) - 1.0)) <= 1e-12

    def test_aliasing_detected(self):
        cyl = Cylinder("infinite", Interval.real_line(), 0.5)

        def fn(xs, phi):
            return np.exp(2j * phi) * np.ones_like(xs)

        with pytest.raises(AliasingError):
            psi_inv(fn, algebra=cyl, max_n=1)

    def test_callable_needs_algebra_and_mode(self):
        with pytest.raises(ValueError):
            psi_inv(lambda xs, phi: xs)

    def test_phi_derivative_scales_modes(self):
        f = CylinderFunction(UNIT, {2: constant(1.0, UNIT), 0: constant(5.0, UNIT)})
        d = f.phi_derivative()
        assert set(d.coefficients) == {2}
        assert d.coefficients[2](0.5) == pytest.approx(2j)


class TestFftModes:
    @staticmethod
    def quadrature(sample, xs, max_n, n):
        """Mode n by the explicit trapezoid sum over the K = 4*max_n + 1 nodes."""
        K = 4 * max_n + 1
        nodes = -math.pi + 2.0 * math.pi * np.arange(K) / K
        return sum(sample(xs, phi) * np.exp(-1j * n * phi) for phi in nodes) / K

    @pytest.mark.parametrize("max_n", [1, 2, 5, 8])
    def test_modes_match_the_trapezoid_quadrature(self, max_n):
        cyl = Cylinder("infinite", Interval.real_line(), 0.5)
        rng = np.random.default_rng(311 + max_n)
        cs = {n: rng.normal(size=3) + 1j * rng.normal(size=3) for n in range(-max_n, max_n + 1)}

        def fn(xs, phi):
            return sum(np.polynomial.polynomial.polyval(xs, c) * np.exp(1j * n * phi) for n, c in cs.items())

        x = psi_inv(fn, algebra=cyl, max_n=max_n)
        xs = np.linspace(-2, 2, 17)
        for n in range(-max_n, max_n + 1):
            assert np.max(np.abs(x.terms[n](xs) - self.quadrature(fn, xs, max_n, n))) <= 1e-13

    def test_element_modes_match_the_trapezoid_quadrature(self):
        cyl = Cylinder("finite", UNIT, 0.25)
        x = random_cp_element(cyl, np.random.default_rng(317))
        f = psi(x)
        back = psi_inv(f, max_n=3)
        xs = UNIT.grid(41)
        sample = lambda pts, phi: f.eval(pts, [phi])[:, 0]
        for n, fn in back.terms.items():
            want = self.quadrature(sample, xs, 3, n) * cyl.interval_n(n).contains(xs)
            assert np.max(np.abs(fn(xs) - want)) <= 1e-13

    @pytest.mark.parametrize("mode", [4, 5, 6, -4, -5, -6])
    def test_content_above_the_top_mode_raises(self, mode):
        cyl = Cylinder("infinite", Interval.real_line(), 0.5)

        def fn(xs, phi):
            return (1.0 + xs) * (1.0 + np.exp(1j * mode * phi))

        with pytest.raises(AliasingError, match=f"mode {mode} "):
            psi_inv(fn, algebra=cyl, max_n=3)


class TestStarProduct:
    def test_star_matches_crossed_multiply(self):
        rng = np.random.default_rng(307)
        cyl = Cylinder("finite", UNIT, 0.25)
        for _ in range(5):
            x, y = (random_cp_element(cyl, rng, max_step=1, n_terms=2) for _ in range(2))
            via_star = psi_inv(star(psi(x), psi(y)))
            direct = x * y
            assert cyl.distance(via_star, direct) <= 1e-10

    def test_star_needs_algebra(self):
        f = CylinderFunction(UNIT, {0: constant(1.0, UNIT)})
        with pytest.raises(ValueError):
            star(f, f)

    def test_shift_star_translates_right_factor(self):
        cyl = Cylinder("infinite", Interval.real_line(), 0.25)
        R = Interval.real_line()
        f = CylinderFunction(R, {1: constant(1.0, R)}, cyl)
        g = CylinderFunction(R, {0: polynomial([0.0, 1.0], R)}, cyl)
        fg = star(f, g)
        xs = np.linspace(-3, 3, 13)
        # e^{i phi} * x: the x-leg is read one step back along the shift
        assert np.max(np.abs(fg.coefficient(1)(xs) - (xs - 0.25))) <= 1e-12


class TestPoissonCoefficient:
    def test_builtin_values(self):
        u = np.array([0.2, 0.5])
        assert np.allclose(PoissonCoefficient.for_family(make_family("shift", UNIT, 0.1)).beta(u), 1.0)
        assert np.allclose(
            PoissonCoefficient.for_family(make_family("plane_plus", Interval.at_least(0.0), 0.1)).beta(u), -1.0
        )
        assert np.allclose(
            PoissonCoefficient.for_family(make_family("plane_minus", Interval.at_least(0.0), 0.1)).beta(u), 1.0
        )
        disc = PoissonCoefficient.for_family(make_family("poincare", UNIT, 0.1))
        assert np.allclose(disc.beta(u), -0.5 * (1 - u) ** 2)

    def test_finite_difference_within_five_percent(self):
        u = np.array([0.1, 0.4, 0.8])
        for kind, interval in [
            ("shift", UNIT),
            ("plane_plus", Interval.at_least(0.0)),
            ("plane_minus", Interval.at_least(0.0)),
            ("poincare", UNIT),
        ]:
            fam = make_family(kind, interval, 0.1)
            fd = PoissonCoefficient.finite_difference(fam).beta(u)
            closed = PoissonCoefficient.for_family(fam).beta(u)
            assert np.max(np.abs(fd - closed)) <= 0.05 * np.max(np.abs(closed) + 1e-12)

    def test_custom_family_falls_back_to_difference(self):
        fam = make_family("custom", UNIT, 0.1, forward="x + h*x", inverse="x/(1 + h)")
        pc = PoissonCoefficient.for_family(fam)
        assert np.allclose(pc.beta(np.array([0.25, 0.5])), [0.25, 0.5], atol=1e-6)


class TestBracket:
    def test_wave_against_position(self):
        f = CylinderFunction(UNIT, {1: constant(1.0, UNIT)})
        g = CylinderFunction(UNIT, {0: polynomial([0.0, 1.0], UNIT)})
        br = poisson_bracket(f, g, PoissonCoefficient(lambda u: np.ones_like(u)))
        assert set(br.coefficients) == {1}
        assert br.coefficient(1)(0.5) == pytest.approx(-1j)

    def test_antisymmetry_on_grid(self):
        f = CylinderFunction(UNIT, {1: polynomial([0.1, 1.0], UNIT), 0: constant(0.5, UNIT)})
        g = CylinderFunction(UNIT, {-1: polynomial([1.0, 0.0, 1.0], UNIT)})
        beta = PoissonCoefficient(lambda u: 1.0 - np.asarray(u))
        ab = poisson_bracket(f, g, beta)
        ba = poisson_bracket(g, f, beta)
        xs = np.linspace(0.05, 0.95, 19)
        for n in set(ab.coefficients) | set(ba.coefficients):
            assert np.max(np.abs(ab.coefficient(n)(xs) + ba.coefficient(n)(xs))) <= 1e-8


class TestClassicalLimit:
    def test_shift_linear_pair_is_exact(self):
        fam = make_family("shift", UNIT, 0.1)
        f = {1: constant(1.0, UNIT)}
        g = {0: polynomial([0.0, 1.0], UNIT)}
        report = classical_limit_check(f, g, fam, [0.1, 0.01, 0.001])
        assert report["pass"], report
        assert all(r["residual"] <= 1e-12 for r in report["rows"])
        assert report["fitted_order"] == math.inf

    def test_shift_quadratic_pair_fits_order_one(self):
        fam = make_family("shift", UNIT, 0.1)
        f = {1: constant(1.0, UNIT)}
        g = {0: polynomial([0.0, 0.0, 1.0], UNIT)}
        report = classical_limit_check(f, g, fam, [0.1, 0.01, 0.001])
        assert report["pass"], report
        for row in report["rows"]:
            assert row["residual"] == pytest.approx(row["hbar"], rel=1e-9)
        assert report["fitted_order"] == pytest.approx(1.0, abs=1e-6)

    def test_disc_pair_fits_order_one(self):
        fam = make_family("poincare", UNIT, 0.1)
        f = {1: polynomial([0.5, 1.0], UNIT)}
        g = {0: polynomial([0.0, 0.0, 1.0], UNIT)}
        report = classical_limit_check(f, g, fam, [0.1, 0.02, 0.004])
        assert report["pass"], report
        assert 0.9 <= report["fitted_order"] <= 1.1
        assert report["bracket_rel_err"] <= 0.1

    def test_angle_free_pair_commutes(self):
        fam = make_family("shift", UNIT, 0.1)
        f = {0: polynomial([0.3, 1.0], UNIT)}
        g = {0: polynomial([0.0, 0.0, 2.0], UNIT)}
        report = classical_limit_check(f, g, fam, [0.1, 0.01])
        assert report["pass"]
        assert all(r["residual"] <= 1e-12 for r in report["rows"])

    def test_rejects_bad_steps(self):
        fam = make_family("shift", UNIT, 0.1)
        with pytest.raises(ValueError):
            classical_limit_check({}, {}, fam, [])
