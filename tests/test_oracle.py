import itertools

import numpy as np
import pytest

from fuzzcyl.bijection import SemigroupElement, canonicalize
from fuzzcyl.oracle import (
    FiniteCrossedProduct,
    FinitePartialBijection,
    finite_orbit,
    oracle_covariant_rep,
    oracle_represent,
)

EXACT = 1e-14


def random_fpb(rng, M, size=None):
    """Random injective partial self-map of {0..M-1}."""
    size = rng.integers(1, M + 1) if size is None else size
    dom = rng.choice(M, size=size, replace=False)
    img = rng.choice(M, size=size, replace=False)
    return FinitePartialBijection(M, {int(k): int(v) for k, v in zip(dom, img)})


def random_element(alg, rng, max_step=2, n_terms=3):
    terms = {}
    for _ in range(n_terms):
        m = int(rng.integers(-max_step, max_step + 1))
        allowed = sorted(alg.level_set(m))
        if not allowed:
            continue
        vec = np.zeros(alg.M, complex)
        for k in allowed:
            vec[k] = complex(rng.normal(), rng.normal())
        terms[m] = terms.get(m, np.zeros(alg.M, complex)) + vec
    return alg.element(terms)


def triple_for_power(m):
    if m >= 0:
        return SemigroupElement(m, 0, m)
    return SemigroupElement(0, m, m)


class TestTables:
    def test_shift_power_example(self):
        a = FinitePartialBijection.from_shift(5)
        p2 = a.power(2)
        assert p2.domain_set() == {0, 1, 2}
        assert p2.range_set() == {2, 3, 4}
        assert a.power(5).domain_set() == frozenset()

    def test_injectivity_enforced(self):
        with pytest.raises(ValueError):
            FinitePartialBijection(3, {0: 1, 2: 1})
        with pytest.raises(ValueError):
            FinitePartialBijection(3, {0: 5})

    def test_compose_and_invert(self):
        a = FinitePartialBijection(4, {0: 2, 1: 3})
        b = FinitePartialBijection(4, {2: 1, 3: 0})
        ab = a.compose(b)
        assert ab.mapping == {2: 3, 3: 2}
        assert a.inverted().mapping == {2: 0, 3: 1}

    def test_level_sets_nest(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            a = random_fpb(rng, 7)
            for n in range(0, 4):
                assert a.level_set(n + 1) <= a.level_set(n)
                assert a.level_set(-(n + 1)) <= a.level_set(-n)

    def test_cached_powers_match_table_powers(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            a = random_fpb(rng, 7)
            for n in (3, -2, 5, 0, -6, 1, 4, -1):
                step = a if n > 0 else a.inverted()
                want = FinitePartialBijection.identity(7)
                for _ in range(abs(n)):
                    want = step.compose(want)
                got = a.power(n)
                assert got == want
                assert a.power(n) is got


class TestCanonicalFormAgainstTables:
    ALPHABET = (-2, -1, 1, 2)

    def all_words(self, max_len):
        for length in range(1, max_len + 1):
            yield from itertools.product(self.ALPHABET, repeat=length)

    def test_exhaustive_words_up_to_four(self):
        rng = np.random.default_rng(11)
        tables = [FinitePartialBijection.from_shift(6)] + [random_fpb(rng, 6) for _ in range(3)]
        for a in tables:
            for word in self.all_words(4):
                direct = a.realize_word(word)
                canon = a.realize(canonicalize(word))
                assert direct.mapping == canon.mapping, (word, a.mapping)

    def test_star_matches_table_inverse(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            a = random_fpb(rng, 6)
            word = [int(rng.integers(-2, 3)) for _ in range(4)]
            s = canonicalize(word)
            assert a.realize(s.star()).mapping == a.realize(s).inverted().mapping

    def test_compose_matches_table_composition(self):
        rng = np.random.default_rng(5)
        for _ in range(40):
            a = random_fpb(rng, 7)
            s = canonicalize([int(rng.integers(-2, 3)) for _ in range(3)])
            t = canonicalize([int(rng.integers(-2, 3)) for _ in range(3)])
            assert a.realize(s.compose(t)).mapping == a.realize(s).compose(a.realize(t)).mapping


class TestConjugatedIdempotentsCommute:
    def restricted_identity(self, a, n):
        return FinitePartialBijection(a.M, {k: k for k in a.level_set(n)})

    def test_commutation_all_small_pairs(self):
        rng = np.random.default_rng(13)
        tables = [FinitePartialBijection.from_shift(6)] + [random_fpb(rng, 6) for _ in range(4)]
        for a in tables:
            for g, h in itertools.product((-2, -1, 1, 2), repeat=2):
                for t_word in [(1,), (2, -1), (-1, 1, 1)]:
                    t = a.realize_word(t_word)
                    conj = t.compose(self.restricted_identity(a, h)).compose(t.inverted())
                    eg = self.restricted_identity(a, g)
                    assert conj.compose(eg).mapping == eg.compose(conj).mapping


class TestFiniteAlgebra:
    def test_associativity_exact(self):
        rng = np.random.default_rng(17)
        for trial in range(25):
            alg = FiniteCrossedProduct(random_fpb(rng, 6, size=5))
            x, y, z = (random_element(alg, rng) for _ in range(3))
            assert ((x * y) * z).distance(x * (y * z)) <= EXACT

    def test_star_antihomomorphism_exact(self):
        rng = np.random.default_rng(19)
        for trial in range(25):
            alg = FiniteCrossedProduct(random_fpb(rng, 6, size=5))
            x, y = (random_element(alg, rng) for _ in range(2))
            assert (x * y).adjoint().distance(y.adjoint() * x.adjoint()) <= EXACT
            assert x.adjoint().adjoint().distance(x) <= EXACT

    def test_unit_decomposition(self):
        rng = np.random.default_rng(23)
        for trial in range(25):
            alg = FiniteCrossedProduct(random_fpb(rng, 7, size=6))
            x = random_element(alg, rng)
            rebuilt = alg.zero()
            for m, vec in x.terms.items():
                rebuilt = rebuilt + alg.element({0: vec}) * alg.unit_of(triple_for_power(m))
            assert rebuilt.distance(x) <= EXACT

    def test_difference_and_scaling(self):
        rng = np.random.default_rng(37)
        alg = FiniteCrossedProduct(random_fpb(rng, 6, size=5))
        x, y = (random_element(alg, rng) for _ in range(2))
        assert not x.is_zero
        assert (x - x).is_zero
        assert (x - y).distance(x + y.scale(-1.0)) == 0.0
        assert (x - y + y).distance(x) <= EXACT
        assert all(np.array_equal(v, 2.5j * x.terms[k]) for k, v in x.scale(2.5j).terms.items())
        assert set(x.scale(2.5j).terms) == set(x.terms)
        assert x.scale(0).is_zero

    def test_embedding_is_injective_homomorphism(self):
        rng = np.random.default_rng(29)
        alg = FiniteCrossedProduct(random_fpb(rng, 6, size=4))
        a = rng.normal(size=6) + 1j * rng.normal(size=6)
        b = rng.normal(size=6) + 1j * rng.normal(size=6)
        ia, ib = alg.element({0: a}), alg.element({0: b})
        assert (ia * ib).distance(alg.element({0: a * b})) <= EXACT
        assert not ia.equals(ib)

    def test_twisting_relation_uses_domain_side_restriction(self):
        rng = np.random.default_rng(31)
        for trial in range(40):
            alg = FiniteCrossedProduct(random_fpb(rng, 6, size=4))
            s = canonicalize([int(rng.integers(-2, 3)) for _ in range(3)])
            pb = alg.alpha.realize(s)
            a = rng.normal(size=6) + 1j * rng.normal(size=6)
            lhs = alg.unit_of(s) * alg.element({0: a})
            pushed = np.zeros(6, complex)
            for k, v in pb.mapping.items():
                pushed[v] = a[k]  # restrict to dom(s), then transport
            rhs = alg.element({0: pushed}) * alg.unit_of(s)
            assert lhs.distance(rhs) <= EXACT

    def test_adjoint_and_product_of_units(self):
        rng = np.random.default_rng(37)
        for trial in range(40):
            alg = FiniteCrossedProduct(random_fpb(rng, 6, size=4))
            s = canonicalize([int(rng.integers(-2, 3)) for _ in range(3)])
            t = canonicalize([int(rng.integers(-2, 3)) for _ in range(3)])
            assert alg.unit_of(s).adjoint().distance(alg.unit_of(s.star())) <= EXACT
            assert (alg.unit_of(s) * alg.unit_of(t)).distance(alg.unit_of(s.compose(t))) <= EXACT

    def test_quotient_identifies_nested_keys(self):
        alg = FiniteCrossedProduct(FinitePartialBijection.from_shift(6))
        t = SemigroupElement(1, 0, 1)
        r = canonicalize([2, -2] + t.to_word())  # deeper idempotent in front
        vec = np.zeros(6, complex)
        for k in alg.alpha.realize(r).range_set():
            vec[k] = 1.0 + 2.0j
        assert alg.element({r: vec}).equals(alg.element({t: vec}))

    def test_support_violation_flagged(self):
        alg = FiniteCrossedProduct(FinitePartialBijection.from_shift(5))
        vec = np.zeros(5, complex)
        vec[0] = 1.0  # 0 is not in the range of the shift
        with pytest.raises(ValueError):
            alg.element({1: vec})

    def test_shift_nilpotency(self):
        alg = FiniteCrossedProduct(FinitePartialBijection.from_shift(5))
        u = alg.u()
        p = u
        for k in range(2, 5):
            p = p * u
            assert not p.is_zero
        assert (p * u).is_zero


class TestFiniteRepresentation:
    def test_orbit_of_chain(self):
        a = FinitePartialBijection.from_shift(5)
        assert finite_orbit(a, 2) == [0, 1, 2, 3, 4]

    def test_orbit_of_cycle_closes(self):
        a = FinitePartialBijection(4, {0: 1, 1: 2, 2: 3, 3: 0})
        orb = finite_orbit(a, 1)
        assert sorted(orb) == [0, 1, 2, 3]
        rep = oracle_covariant_rep(a, 1)
        # cyclic permutation matrix: V^4 = identity
        assert np.array_equal(np.linalg.matrix_power(rep.V, 4), np.eye(4))

    def test_orbit_is_the_component_once_on_every_small_table(self):
        tables = 0
        for M in range(1, 5):
            for images in itertools.product(range(-1, M), repeat=M):
                mapping = {k: v for k, v in enumerate(images) if v >= 0}
                if len(set(mapping.values())) != len(mapping):
                    continue
                a = FinitePartialBijection(M, mapping)
                tables += 1
                links = {k: set() for k in range(M)}
                for k, v in mapping.items():
                    links[k].add(v)
                    links[v].add(k)
                for base in range(M):
                    component, todo = {base}, [base]
                    while todo:
                        for y in links[todo.pop()] - component:
                            component.add(y)
                            todo.append(y)
                    pts = finite_orbit(a, base)
                    assert len(pts) == len(set(pts)) and set(pts) == component
                    rep = oracle_covariant_rep(a, base)
                    assert rep.orbit.points.tolist() == pts
                    want = [pts.index(mapping[p]) if p in mapping else -1 for p in pts]
                    dst, src = rep.links(1)
                    got = np.full(len(pts), -1)
                    got[src] = dst
                    assert got.tolist() == want
        assert tables == 2 + 7 + 34 + 209

    def test_representation_is_exact_homomorphism(self):
        rng = np.random.default_rng(41)
        for trial in range(25):
            a = random_fpb(rng, 7, size=5)
            alg = FiniteCrossedProduct(a)
            base = int(next(iter(a.mapping)))
            rep = oracle_covariant_rep(a, base)
            x, y = (random_element(alg, rng) for _ in range(2))
            lhs = oracle_represent(x * y, rep)
            rhs = oracle_represent(x, rep) @ oracle_represent(y, rep)
            assert np.max(np.abs(lhs - rhs)) <= EXACT
            star = oracle_represent(x.adjoint(), rep)
            assert np.max(np.abs(star - oracle_represent(x, rep).T.conj())) <= EXACT

    def test_generator_maps_to_subdiagonal_and_projections_match(self):
        a = FinitePartialBijection.from_shift(5)
        alg = FiniteCrossedProduct(a)
        rep = oracle_covariant_rep(a, 0)
        V = oracle_represent(alg.u(), rep)
        assert np.array_equal(V, rep.V)
        assert np.max(np.abs(V @ rep.Vstar @ V - V)) <= EXACT
        # step projections are diagonal 0/1 with supports given by the level sets
        for n in (-2, -1, 1, 2):
            s = triple_for_power(n)
            Un = oracle_represent(alg.unit_of(s), rep)
            P = Un @ Un.T.conj()
            want = np.diag([1.0 if p in alg.level_set(n) else 0.0 for p in rep.orbit.points])
            assert np.array_equal(P, want.astype(complex))


class TestIntervalBridge:
    """Interval algebra sampled onto an orbit grid vs the finite tables."""

    def _finite_shift(self, hbar=0.25):
        from fuzzcyl.bijection import make_family
        from fuzzcyl.crossed import CrossedProductAlgebra
        from fuzzcyl.interval import Interval

        fam = make_family("shift", Interval.closed(0.0, 1.0), hbar)
        return CrossedProductAlgebra(fam.generator)

    def test_random_elements_agree(self):
        from conftest import random_cp_element
        from fuzzcyl.oracle import sample_interval_to_finite

        alg = self._finite_shift()
        rng = np.random.default_rng(7)
        xs = [random_cp_element(alg, rng) for _ in range(4)]
        fin, points, report = sample_interval_to_finite(alg, 0.125, elements=xs)
        assert report["M"] == 4
        assert np.allclose(points, [0.125, 0.375, 0.625, 0.875])
        assert report["membership_pass"]
        assert report["max_element_diff"] <= 1e-10
        assert report["pass"]
        assert fin.M == 4

    def test_zero_element_trivial(self):
        from fuzzcyl.oracle import sample_element, sample_interval_to_finite

        alg = self._finite_shift()
        fin, points, _ = sample_interval_to_finite(alg, 0.125)
        assert sample_element(alg.zero(), fin, points).is_zero

    def test_finite_oracle_rejects_stray_support(self):
        from fuzzcyl.oracle import sample_interval_to_finite

        alg = self._finite_shift()
        fin, points, _ = sample_interval_to_finite(alg, 0.125)
        vec = np.ones(fin.M, complex)
        with pytest.raises(ValueError):
            fin.element({1: vec})

    def test_membership_mismatches_match_pointwise_reference(self):
        from fuzzcyl.crossed import CrossedProductAlgebra
        from fuzzcyl.interval import Interval
        from fuzzcyl.oracle import sample_interval_to_finite

        class SkewedChain(CrossedProductAlgebra):
            """Chain intervals moved by 0.3, so membership disagrees at some points."""

            def interval_n(self, n):
                iv = super().interval_n(n)
                return iv if iv.is_empty else Interval(iv.lo + 0.3, iv.hi + 0.3, iv.lo_closed, iv.hi_closed)

        alg = SkewedChain(self._finite_shift(0.125).alpha)
        fin, points, report = sample_interval_to_finite(alg, 0.0625)
        want = [
            {"n": n, "index": i, "point": float(p)}
            for n in range(-(fin.M + 1), fin.M + 2)
            for i, p in enumerate(points)
            if bool(alg.interval_n(n).contains(p, 1e-10)) != (i in fin.level_set(n))
        ]
        assert want and report["membership_mismatches"] == want
        assert not report["membership_pass"]

    def test_disc_orbit_is_incompatible(self):
        from fuzzcyl.bijection import make_family
        from fuzzcyl.crossed import CrossedProductAlgebra
        from fuzzcyl.interval import Interval
        from fuzzcyl.oracle import GridIncompatible, sample_interval_to_finite

        fam = make_family("poincare", Interval.closed(-0.025, 1.0), 0.1)
        alg = CrossedProductAlgebra(fam.generator)
        with pytest.raises(GridIncompatible):
            sample_interval_to_finite(alg, 0.5, truncation=16)

    def test_half_infinite_shift_is_incompatible(self):
        from fuzzcyl.bijection import make_family
        from fuzzcyl.crossed import CrossedProductAlgebra
        from fuzzcyl.interval import Interval
        from fuzzcyl.oracle import GridIncompatible, sample_interval_to_finite

        fam = make_family("shift", Interval.at_least(0.0), 0.25)
        alg = CrossedProductAlgebra(fam.generator)
        with pytest.raises(GridIncompatible):
            sample_interval_to_finite(alg, 0.5, truncation=8)
