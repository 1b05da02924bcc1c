"""The coefficient walker against the closure evaluator it replaced.

`Closure` below is that evaluator, kept as the reference: every sum,
product, pullback and derivative is a closure that evaluates its factors
again on each call. `ref_multiply`/`ref_involution` build crossed-product
terms from closures the way the algebra builds them from nodes, over the
same cached powers, so both sides see the same partial bijections.
"""

import numpy as np
import pytest

from conftest import random_supported
from fuzzcyl.bijection import make_family
from fuzzcyl.crossed import CrossedProductAlgebra
from fuzzcyl.functions import SUPPORT_TOL, SupportedFunction, constant, exp_wave, polynomial, sqrt_affine
from fuzzcyl.interval import DEFAULT_TOL, Interval, image_monotone

UNIT = Interval.closed(0.0, 1.0)


class Closure:
    def __init__(self, support, raw, deriv=None):
        self.support, self.raw, self.deriv = support, raw, deriv

    @staticmethod
    def of(f: SupportedFunction) -> "Closure":
        assert f.op == "leaf"
        return Closure(f.support, f.raw, f.deriv)

    def __call__(self, x):
        xs = np.asarray(x, dtype=float)
        out = np.zeros(xs.shape, dtype=complex)
        if not self.support.is_empty:
            mask = self.support.contains(xs, DEFAULT_TOL)
            if np.any(mask):
                out[mask] = np.asarray(self.raw(xs[mask]), dtype=complex)
        return out

    def __add__(self, other):
        a, b = self, other
        return Closure(a.support.hull(b.support), lambda xs: a(xs) + b(xs))

    def __sub__(self, other):
        return self + other.scale(-1.0)

    def __mul__(self, other):
        a, b = self, other
        return Closure(
            a.support.intersect(b.support),
            lambda xs: np.asarray(a.raw(xs), dtype=complex) * np.asarray(b.raw(xs), dtype=complex),
        )

    def scale(self, c):
        c, raw, d = complex(c), self.raw, self.deriv
        return Closure(
            self.support,
            lambda xs: c * np.asarray(raw(xs), dtype=complex),
            None if d is None else (lambda xs: c * np.asarray(d(xs), dtype=complex)),
        )

    def conj(self):
        raw, d = self.raw, self.deriv
        return Closure(
            self.support,
            lambda xs: np.conjugate(np.asarray(raw(xs), dtype=complex)),
            None if d is None else (lambda xs: np.conjugate(np.asarray(d(xs), dtype=complex))),
        )

    def restrict(self, iv):
        return Closure(self.support.intersect(iv), self.raw, self.deriv)

    def derivative(self, step=1e-5):
        if self.deriv is not None:
            return Closure(self.support, self.deriv)
        raw = self.raw

        def central(xs):
            xs = np.asarray(xs, dtype=float)
            return (np.asarray(raw(xs + step), dtype=complex) - np.asarray(raw(xs - step), dtype=complex)) / (2.0 * step)

        return Closure(self.support, central)


def ref_pullback(f, pb):
    assert f.support.subset_of(pb.domain, SUPPORT_TOL)
    inv = pb.inverse
    return Closure(image_monotone(f.support.intersect(pb.domain), pb.forward), lambda ys: f(inv(np.asarray(ys, dtype=float))))


def ref_element(alg, terms):
    out = {}
    for n, f in terms.items():
        clipped = f.restrict(alg.interval_n(n))
        if not clipped.support.is_empty:
            out[n] = clipped
    return out


def ref_multiply(alg, x, y):
    acc = {}
    for n, fn in sorted(x.items()):
        pbn = alg.power(n)
        for m, gm in sorted(y.items()):
            if alg.interval_n(n + m).is_empty:
                continue
            gr = gm.restrict(pbn.domain)
            if gr.support.is_empty:
                continue
            term = fn * ref_pullback(gr, pbn)
            if term.support.is_empty:
                continue
            acc[n + m] = acc[n + m] + term if n + m in acc else term
    return ref_element(alg, acc)


def ref_involution(alg, x):
    acc = {}
    for n, fn in x.items():
        moved = ref_pullback(fn.conj().restrict(alg.power(-n).domain), alg.power(-n))
        if not moved.support.is_empty:
            acc[-n] = moved
    return ref_element(alg, acc)


def random_pair(alg, rng, steps, max_degree=2):
    """The same random element as nodes and as closures."""
    terms = {}
    for n in steps:
        if not alg.interval_n(n).is_empty:
            terms[n] = random_supported(rng, alg.carrier, support=alg.interval_n(n), max_degree=max_degree)
    return alg.element(terms), ref_element(alg, {n: Closure.of(f) for n, f in terms.items()})


def assert_same(alg, x, ref, xs):
    assert sorted(x.terms) == sorted(ref)
    memo = {}
    for n, f in x.terms.items():
        assert f.support == ref[n].support
        assert np.array_equal(f(xs, memo), ref[n](xs)), f"step {n}"
        assert np.array_equal(f(xs), ref[n](xs)), f"step {n}"


def grid_and_offgrid(alg):
    xs = alg.carrier.grid(101)
    # points a hair outside chain ends and outside the carrier
    return np.concatenate([xs, xs[::7] + 1e-13, xs[::5] - 3e-13, [-0.5, 1.5, 9.0]])


@pytest.mark.parametrize("k", range(1, 7))
def test_powers_match_the_closure_evaluator(k):
    alg = CrossedProductAlgebra(make_family("shift", UNIT, 0.05).generator)
    x, rx = random_pair(alg, np.random.default_rng(700 + k), (-2, 1, 2))
    got, want = x, rx
    for _ in range(k - 1):
        got, want = got * x, ref_multiply(alg, want, rx)
    assert_same(alg, got, want, grid_and_offgrid(alg))


CARRIERS = {
    "finite_quarter": (UNIT, 0.25),
    "finite_eighth": (UNIT, 0.125),
    "half_finite": (Interval.at_least(0.0), 0.25),
    "infinite_window": (Interval.real_line(), 0.25),
}


@pytest.mark.parametrize("name", CARRIERS)
def test_triple_products_and_adjoints_match_the_closure_evaluator(name):
    interval, hbar = CARRIERS[name]
    alg = CrossedProductAlgebra(make_family("shift", interval, hbar).generator)
    rng = np.random.default_rng(711)
    xs = grid_and_offgrid(alg)
    for _ in range(4):
        (x, rx), (y, ry), (z, rz) = (random_pair(alg, rng, rng.choice(5, 3, replace=False) - 2) for _ in range(3))
        assert_same(alg, (x * y) * z, ref_multiply(alg, ref_multiply(alg, rx, ry), rz), xs)
        assert_same(alg, x * (y * z), ref_multiply(alg, rx, ref_multiply(alg, ry, rz)), xs)
        assert_same(alg, (x * y).adjoint(), ref_involution(alg, ref_multiply(alg, rx, ry)), xs)
        assert_same(alg, y.adjoint() * x.adjoint(), ref_multiply(alg, ref_involution(alg, ry), ref_involution(alg, rx)), xs)


@pytest.mark.parametrize(
    "kind,interval,hbar,exprs",
    [
        ("poincare", "[0,1]", 0.3, {}),
        ("custom", "[0,1]", 0.125, {"forward": "x + h", "inverse": "x - h"}),
        ("custom", "[0,1]", 0.125, {"forward": "x - h", "inverse": "x + h"}),
    ],
)
def test_disc_and_custom_families_match_the_closure_evaluator(kind, interval, hbar, exprs):
    alg = CrossedProductAlgebra(make_family(kind, Interval.parse(interval), hbar, **exprs).generator)
    rng = np.random.default_rng(733)
    xs = grid_and_offgrid(alg)
    for _ in range(3):
        (x, rx), (y, ry) = (random_pair(alg, rng, (-2, -1, 0, 1, 2)) for _ in range(2))
        assert_same(alg, x * y * x, ref_multiply(alg, ref_multiply(alg, rx, ry), rx), xs)
        assert_same(alg, (x * y).adjoint(), ref_involution(alg, ref_multiply(alg, rx, ry)), xs)


def test_scale_conj_and_derivative_chains_match_the_closure_evaluator():
    sup = Interval.closed(0.2, 0.9)
    leaves = [
        polynomial([0.3, 1.0 - 2j, 0.5j], UNIT, support=sup),
        exp_wave(3.0, UNIT),
        sqrt_affine(-0.25, 1.0, UNIT),
        constant(2.0 - 1j, UNIT, support=sup),
        SupportedFunction(sup, lambda xs: np.sin(3.0 * np.asarray(xs)) + 0j, UNIT),  # no analytic derivative
    ]
    chains = [
        lambda f: f.scale(2.5j).conj().derivative(),
        lambda f: f.conj().scale(-1.5).derivative().derivative(),
        lambda f: (f * f.conj()).derivative(),
        lambda f: (f + f.scale(1j)).derivative().scale(0.5),
        lambda f: f.derivative().restrict(Interval.closed(0.3, 0.7)).conj(),
        lambda f: (f - f.derivative()).conj(),
    ]
    xs = np.concatenate([UNIT.grid(101), [0.2 - 1e-13, 0.9 + 1e-13, -1.0, 2.0]])
    for leaf in leaves:
        for chain in chains:
            got, want = chain(leaf), chain(Closure.of(leaf))
            assert got.support == want.support
            assert np.array_equal(got(xs), want(xs))


def test_leaf_calls_grow_linearly_with_the_power():
    alg = CrossedProductAlgebra(make_family("shift", UNIT, 0.05).generator)
    calls = [0]
    rng = np.random.default_rng(751)

    def counted(f):
        def raw(xs):
            calls[0] += 1
            return f.raw(xs)

        return SupportedFunction(f.support, raw, f.carrier, f.deriv)

    x = alg.element({n: counted(random_supported(rng, alg.carrier, alg.interval_n(n))) for n in (-2, -1, 0, 1, 2)})
    xk = x
    for k in range(1, 7):
        calls[0] = 0
        alg.distance(xk, alg.zero())
        assert calls[0] <= 25 * k, f"x^{k}: {calls[0]} leaf calls"
        xk = xk * x


def test_each_pass_evaluates_a_coefficient_once_and_keeps_nothing():
    alg = CrossedProductAlgebra(make_family("shift", UNIT, 0.25).generator)
    seen = []

    def raw(xs):
        seen.append(xs.size)
        return np.asarray(xs) + 0j

    x = alg.element({0: SupportedFunction(UNIT, raw, UNIT)})
    y = x * alg.one()  # its coefficient is x's times an indicator, on the same points
    alg.distance(y, x)
    assert len(seen) == 1
    alg.distance(y, x)
    assert len(seen) == 2  # the second pass starts from an empty memo
