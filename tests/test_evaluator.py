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


def random_pair(alg, rng, steps, max_degree=2, window=None):
    """The same random element as nodes and as closures, its supports cut to window if given."""
    terms = {}
    for n in steps:
        support = alg.interval_n(n) if window is None else alg.interval_n(n).intersect(window)
        if not support.is_empty:
            terms[n] = random_supported(rng, alg.carrier, support=support, max_degree=max_degree)
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
        ("custom", "[0,1]", 0.125, {"forward": "x + h*x", "inverse": "x/(1 + h)"}),
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


def test_a_restricted_copy_shares_its_originals_pass_entry():
    alg = CrossedProductAlgebra(make_family("shift", UNIT, 0.25).generator)
    seen = []

    def raw(xs):
        seen.append(xs.size)
        return np.exp(2j * np.asarray(xs)) + np.asarray(xs) ** 2

    x = alg.element({0: SupportedFunction(Interval.closed(0.1, 0.9), raw, UNIT)})
    f = x.terms[0]
    fr = f.restrict(Interval.closed(0.2, 0.6))  # a restricted copy keeps f's memo child
    assert fr.args[0] is f.args[0]
    xs, ys = alg.carrier.grid(101), alg.carrier.grid(37)
    on_child = [int(np.count_nonzero(f.support.contains(a, DEFAULT_TOL))) for a in (xs, ys)]
    assert on_child[0] < xs.size

    want = [g(a) for a in (xs, ys) for g in (fr, f)]  # fresh passes of one call each
    seen.clear()
    memo = {}
    first = fr(xs, memo)
    kept = first.copy()
    got = [first, f(xs, memo), fr(ys, memo), f(ys, memo)]
    assert seen == on_child  # once per array in the pass, on the child's support points
    assert sum(1 for key in memo if isinstance(key, tuple) and key[0] is f.args[0]) == 2  # one entry per array
    for g, w in zip(got, want):
        assert np.array_equal(g.view(np.uint64), w.view(np.uint64))
    assert np.array_equal(first.view(np.uint64), kept.view(np.uint64))

    seen.clear()
    xr = alg.element({0: fr})
    assert alg.distance(xr, x) == float(np.max(np.abs(want[0] - want[1])))
    assert seen == [on_child[0]]


# a translation, and a map whose pullbacks take their supports from image_monotone
GEOMETRY_FAMILIES = {
    "shift": ("shift", UNIT, 0.125, {}),
    "expanding_affine": ("custom", UNIT, 0.125, {"forward": "x + h*x", "inverse": "x/(1 + h)"}),
}


def _geometry_case(name):
    """An algebra and two sides of an associativity check, the same for each call."""
    kind, interval, hbar, exprs = GEOMETRY_FAMILIES[name]
    alg = CrossedProductAlgebra(make_family(kind, interval, hbar, **exprs).generator)
    rng = np.random.default_rng(787)
    x, y, z = (random_pair(alg, rng, (-2, -1, 0, 1, 2))[0] for _ in range(3))
    return alg, (x * y) * z, x * (y * z).adjoint()


def _counting_contains(monkeypatch):
    calls = []
    contains = Interval.contains
    monkeypatch.setattr(Interval, "contains", lambda self, *args: calls.append(self) or contains(self, *args))
    return calls


@pytest.mark.parametrize("name", GEOMETRY_FAMILIES)
def test_a_second_distance_reads_its_masks_off_the_algebra(monkeypatch, name):
    alg, lhs, rhs = _geometry_case(name)
    first = alg.distance(lhs, rhs)
    calls = _counting_contains(monkeypatch)
    second = alg.distance(lhs, rhs)
    assert calls == []  # masks and preimages live with the algebra's grid
    monkeypatch.undo()
    fresh, flhs, frhs = _geometry_case(name)
    assert second.hex() == first.hex() == fresh.distance(flhs, frhs).hex()


@pytest.mark.parametrize("name", GEOMETRY_FAMILIES)
def test_a_second_represent_reads_its_masks_off_the_window(monkeypatch, name):
    from fuzzcyl.represent import build_orbit, matrix_rep, represent

    alg, lhs, _ = _geometry_case(name)
    rep = matrix_rep(build_orbit(alg.alpha, 0.05, 16))
    first = represent(lhs, rep)
    calls = _counting_contains(monkeypatch)
    second = represent(lhs, rep)
    assert calls == []  # masks and preimages live with the window
    monkeypatch.undo()
    fresh = represent(_geometry_case(name)[1], matrix_rep(build_orbit(alg.alpha, 0.05, 16)))
    assert np.array_equal(second.view(np.uint64), first.view(np.uint64))
    assert np.array_equal(second.view(np.uint64), fresh.view(np.uint64))


@pytest.mark.parametrize("name", GEOMETRY_FAMILIES)
def test_a_second_product_reads_its_term_supports_off_the_powers(monkeypatch, name):
    import fuzzcyl.bijection as bijection

    def terms(name):
        alg = _geometry_case(name)[0]
        rng = np.random.default_rng(929)
        x, y = (random_pair(alg, rng, (-2, -1, 0, 1, 2))[0] for _ in range(2))
        return alg, x, y

    alg, x, y = terms(name)
    first = x * y
    calls = []
    shifted = Interval.shifted
    monkeypatch.setattr(Interval, "shifted", lambda self, *args: calls.append(self) or shifted(self, *args))
    monkeypatch.setattr(bijection, "image_monotone", lambda *args: calls.append(args) or image_monotone(*args))
    second = x * y
    assert calls == []  # each power keeps what it made of a support
    monkeypatch.undo()
    _, fx, fy = terms(name)
    fresh = fx * fy
    assert first.terms.keys() == second.terms.keys() == fresh.terms.keys()
    for n in first.terms:
        assert first.terms[n].support == second.terms[n].support == fresh.terms[n].support
    assert alg.distance(first, second) == 0.0


def test_round_trips_keep_no_angle_spectrum_on_the_grid():
    import gc
    import tracemalloc

    from fuzzcyl.star import psi, psi_inv

    alg = CrossedProductAlgebra(make_family("shift", UNIT, 0.05).generator)
    x, _ = random_pair(alg, np.random.default_rng(797), (-2, 0, 1))

    def trip():
        return alg.distance(psi_inv(psi(x), max_n=4), x)

    trip()  # the grid's masks and preimages
    tracemalloc.start()
    try:
        trip()
        gc.collect()
        one = tracemalloc.get_traced_memory()[0]
        for _ in range(19):
            trip()
        gc.collect()
        twenty = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    # one pass's spectrum rows are 17 columns of 101 complex values, 27 kB
    assert twenty - one < 4096, f"{twenty - one} bytes kept by 19 more round trips"


def _chain_end_points(alg, x):
    """Both ends of every coefficient support, and 1e-13 either side of them."""
    ends = [e for f in x.terms.values() for e in (f.support.lo, f.support.hi) if np.isfinite(e)]
    return np.array(sorted({e + d for e in ends for d in (-1e-13, 0.0, 1e-13)}))


# the shift on each carrier, and three maps that are not translations, whose
# pullbacks take their supports from image_monotone
DERIVATIVE_FAMILIES = {name: ("shift", interval, hbar, {}) for name, (interval, hbar) in CARRIERS.items()}
DERIVATIVE_FAMILIES.update({
    "disc": ("poincare", UNIT, 0.3, {}),
    "expanding_affine": ("custom", UNIT, 0.125, {"forward": "x + h*x", "inverse": "x/(1 + h)"}),
    "square": ("custom", UNIT, 0.125, {"forward": "x^2", "inverse": "sqrt(x)"}),
})


@pytest.mark.parametrize("name", DERIVATIVE_FAMILIES)
def test_derivatives_of_product_and_adjoint_coefficients_match_the_closure_evaluator(name):
    kind, interval, hbar, exprs = DERIVATIVE_FAMILIES[name]
    alg = CrossedProductAlgebra(make_family(kind, interval, hbar, **exprs).generator)
    rng = np.random.default_rng(761)
    window = Interval.closed(0.3, 0.8)  # supports that end inside their chain intervals
    for _ in range(4):
        (x, rx), (y, ry) = (random_pair(alg, rng, rng.choice(5, 3, replace=False) - 2) for _ in range(2))
        w, rw = random_pair(alg, rng, rng.choice(5, 3, replace=False) - 2, window=window)
        rxy = ref_multiply(alg, rx, ry)
        cases = [
            (x * y, rxy),
            ((x * y).adjoint(), ref_involution(alg, rxy)),
            ((x * y) * w, ref_multiply(alg, rxy, rw)),
            (w * (x * y), ref_multiply(alg, rw, rxy)),
        ]
        for got, want in cases:
            assert sorted(got.terms) == sorted(want)
            xs = np.concatenate([grid_and_offgrid(alg), _chain_end_points(alg, got)])
            memo = {}
            for n, f in got.terms.items():
                d, rd = f.derivative(), want[n].derivative()
                assert d.support == rd.support
                assert np.array_equal(d(xs, memo), rd(xs)), f"step {n}"
                assert np.array_equal(d(xs), rd(xs)), f"step {n}"


def test_derivatives_of_angle_mode_coefficients_match_the_closure_evaluator():
    from fuzzcyl.star import psi, psi_inv

    alg = CrossedProductAlgebra(make_family("shift", UNIT, 0.125).generator)
    x, _ = random_pair(alg, np.random.default_rng(767), (-1, 0, 1))
    back = psi_inv(psi(x * x.adjoint()), alg)
    xs = np.concatenate([grid_and_offgrid(alg), _chain_end_points(alg, back)])
    assert back.terms
    for n, f in back.terms.items():
        spectrum, column, factor = f.args[0].args  # the mode node below the memo node
        ref = Closure(f.support, lambda p, s=spectrum, c=column, k=factor: k * s(np.asarray(p, dtype=float))[:, c])
        assert np.array_equal(f(xs), ref(xs)), f"step {n}"
        assert np.array_equal(f.derivative()(xs), ref.derivative()(xs)), f"step {n}"
