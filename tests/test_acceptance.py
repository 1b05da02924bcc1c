"""End-to-end acceptance gate: ten criteria, one test (one verdict line) each.

Run with -v to get the per-criterion pass/fail lines. Tolerances here are
load-bearing; they must not be loosened to force a pass.
"""

import itertools
import time

import numpy as np
import pytest

from conftest import random_cp_element
from fuzzcyl.bijection import (
    SemigroupElement,
    _poincare_forward,
    canonicalize,
    make_family,
)
from fuzzcyl.crossed import CrossedProductAlgebra, u_relations_check
from fuzzcyl.interval import Interval
from fuzzcyl.oracle import (
    FiniteCrossedProduct,
    FinitePartialBijection,
    sample_interval_to_finite,
)
from fuzzcyl.represent import build_orbit, covariance_check, matrix_rep, represent
from fuzzcyl.star import classical_limit_check
from fuzzcyl.twogen import (
    boundary_continuity_check,
    poincare_constants,
    standard_setup,
    two_gen_relations,
)
from fuzzcyl.functions import constant, polynomial

UNIT = Interval.closed(0.0, 1.0)


def shift_algebra(interval, hbar):
    return CrossedProductAlgebra(make_family("shift", interval, hbar).generator)


def test_criterion_01_associativity_and_antihomomorphism():
    kinds = {
        "finite_quarter": shift_algebra(UNIT, 0.25),
        "finite_eighth": shift_algebra(UNIT, 0.125),
        "half_finite": shift_algebra(Interval.at_least(0.0), 0.25),
        "infinite_window": shift_algebra(Interval.real_line(), 0.25),
    }
    rng = np.random.default_rng(101)
    start = time.monotonic()
    worst = 0.0
    for name, alg in kinds.items():
        for _ in range(200):
            x, y, z = (random_cp_element(alg, rng) for _ in range(3))
            worst = max(worst, alg.distance((x * y) * z, x * (y * z)))
        for _ in range(200):
            x, y = (random_cp_element(alg, rng) for _ in range(2))
            worst = max(worst, alg.distance((x * y).adjoint(), y.adjoint() * x.adjoint()))
    elapsed = time.monotonic() - start
    assert worst <= 1e-9, f"criterion 1 FAIL: residual {worst:.3e}"
    assert elapsed <= 30.0, f"criterion 1 FAIL: runtime {elapsed:.1f}s"


def test_criterion_02_step_relations_and_nilpotency():
    alg = shift_algebra(UNIT, 0.25)
    rel = u_relations_check(alg, tol=1e-12)
    assert rel["pass"], f"criterion 2 FAIL: {rel}"

    # the chain dies one step after the last nonempty interval
    k = 1
    while not alg.interval_n(k).is_empty:
        k += 1
    assert k == 5
    u = alg.generator_u()
    p = u
    for _ in range(k - 2):
        p = p * u
    assert not p.is_zero, "criterion 2 FAIL: U^(k-1) vanished early"
    assert (p * u).is_zero, "criterion 2 FAIL: U^k did not vanish"

    # orbit through the endpoint realizes the same index on matrices
    rep = matrix_rep(build_orbit(alg.alpha, 0.0))
    assert rep.dim == k
    Vk1 = np.linalg.matrix_power(rep.V, k - 1)
    assert np.max(np.abs(Vk1)) > 0.5
    assert np.max(np.abs(Vk1 @ rep.V)) == 0.0, "criterion 2 FAIL: matrix nilpotency index"


def test_criterion_03_representation_homomorphism():
    cases = [(0.25, 0.125, 4), (0.125, 0.0625, 8), (1.0 / 64, 1.0 / 128, 64)]
    rng = np.random.default_rng(103)
    for hbar, base, dim in cases:
        alg = shift_algebra(UNIT, hbar)
        rep = matrix_rep(build_orbit(alg.alpha, base, truncation=128))
        assert rep.dim == dim
        worst = 0.0
        for _ in range(100):
            x, y = (random_cp_element(alg, rng) for _ in range(2))
            d = represent(x * y, rep) - represent(x, rep) @ represent(y, rep)
            worst = max(worst, float(np.linalg.norm(d)))
        assert worst <= 1e-9 * dim, f"criterion 3 FAIL at dim {dim}: {worst:.3e}"

        pm1 = represent(alg.element({0: alg.p(-1)}), rep)
        vsv = rep.Vstar @ rep.V
        assert np.array_equal(pm1, vsv), f"criterion 3 FAIL at dim {dim}: projection mismatch"
        assert set(np.unique(pm1.real)) <= {0.0, 1.0} and np.all(pm1.imag == 0.0)


def test_criterion_04_covariance_suite():
    finite = shift_algebra(UNIT, 0.25)
    rep_f = matrix_rep(build_orbit(finite.alpha, 0.125))
    rf = covariance_check(finite, rep_f, tol=1e-10)
    assert rf["pass"], f"criterion 4 FAIL on finite orbit: {rf}"

    infinite = shift_algebra(Interval.real_line(), 0.25)
    rep_i = matrix_rep(build_orbit(infinite.alpha, 0.125, truncation=8))
    ri = covariance_check(infinite, rep_i, tol=1e-10)
    assert ri["pass"], f"criterion 4 FAIL on truncated infinite orbit: {ri}"


def _all_tables(M):
    """Every injective partial self-map of {0..M-1}."""
    idx = range(M)
    for k in range(M + 1):
        for dom in itertools.combinations(idx, k):
            for img in itertools.permutations(idx, k):
                yield FinitePartialBijection(M, dict(zip(dom, img)))


def _random_finite_element(alg, rng):
    terms = {}
    for _ in range(3):
        m = int(rng.integers(-2, 3))
        allowed = sorted(alg.level_set(m))
        if not allowed:
            continue
        vec = np.zeros(alg.M, complex)
        for k in allowed:
            vec[k] = complex(rng.normal(), rng.normal())
        terms[m] = terms.get(m, np.zeros(alg.M, complex)) + vec
    return alg.element(terms)


def test_criterion_05_finite_oracle_suite():
    EXACT = 1e-14
    rng = np.random.default_rng(105)
    tables = list(_all_tables(2)) + list(_all_tables(3))
    tables += [FinitePartialBijection.from_shift(M) for M in range(2, 9)]
    for M in (5, 6, 7, 8):
        for _ in range(10):
            size = int(rng.integers(1, M + 1))
            dom = rng.choice(M, size=size, replace=False)
            img = rng.choice(M, size=size, replace=False)
            tables.append(FinitePartialBijection(M, {int(a): int(b) for a, b in zip(dom, img)}))

    words = [w for L in (1, 2, 3) for w in itertools.product((-2, -1, 1, 2), repeat=L)]
    for a in tables:
        # canonical form agrees with direct table realization, every short word
        for w in words:
            assert a.realize_word(w).mapping == a.realize(canonicalize(w)).mapping

        alg = FiniteCrossedProduct(a)
        x, y, z = (_random_finite_element(alg, rng) for _ in range(3))
        assert ((x * y) * z).distance(x * (y * z)) <= EXACT
        assert (x * y).adjoint().distance(y.adjoint() * x.adjoint()) <= EXACT
        assert x.adjoint().adjoint().distance(x) <= EXACT

        # partial-isometry calculus of the named units
        for w in itertools.product((-2, -1, 1, 2), repeat=2):
            s, t = canonicalize(w[:1]), canonicalize(w[1:])
            assert alg.unit_of(s).adjoint().distance(alg.unit_of(s.star())) <= EXACT
            assert (alg.unit_of(s) * alg.unit_of(t)).distance(alg.unit_of(s.compose(t))) <= EXACT

        # conjugated idempotents commute
        for g, h in itertools.product((-1, 1, 2), repeat=2):
            eg = FinitePartialBijection(a.M, {k: k for k in a.level_set(g)})
            t = a.realize_word((1,))
            conj = t.compose(FinitePartialBijection(a.M, {k: k for k in a.level_set(h)})).compose(t.inverted())
            assert conj.compose(eg).mapping == eg.compose(conj).mapping

    # nested normal-form keys collapse onto the plain power (the quotient)
    alg = FiniteCrossedProduct(FinitePartialBijection.from_shift(6))
    t = SemigroupElement(1, 0, 1)
    r = canonicalize([2, -2] + t.to_word())
    vec = np.zeros(6, complex)
    for k in alg.alpha.realize(r).range_set():
        vec[k] = 1.0 + 2.0j
    assert alg.element({r: vec}).equals(alg.element({t: vec}))

    # interval algebra versus the oracle on commensurate shift grids
    for hbar, base in ((0.25, 0.125), (0.125, 0.0625)):
        ialg = shift_algebra(UNIT, hbar)
        elems = [random_cp_element(ialg, rng) for _ in range(4)]
        _, _, report = sample_interval_to_finite(ialg, base, elements=elems, tol=1e-10)
        assert report["pass"], f"criterion 5 FAIL: bridge report {report['max_element_diff']:.3e}"


def test_criterion_06_poisson_limit():
    hbars = [1e-1, 1e-2, 1e-3]
    runs = {
        "shift": (
            make_family("shift", UNIT, hbars[0]),
            {1: constant(1.0, UNIT)},
            {0: polynomial([0.0, 0.0, 1.0], UNIT)},
        ),
        "poincare": (
            make_family("poincare", UNIT, hbars[0]),
            {1: polynomial([0.5, 1.0], UNIT)},
            {0: polynomial([0.0, 0.0, 1.0], UNIT)},
        ),
    }
    for name, (fam, f, g) in runs.items():
        report = classical_limit_check(f, g, fam, hbars)
        assert 0.9 <= report["fitted_order"] <= 1.1, (
            f"criterion 6 FAIL for {name}: order {report['fitted_order']:.3f}"
        )
        assert report["bracket_ok"], (
            f"criterion 6 FAIL for {name}: bracket error {report['bracket_rel_err']:.3e}"
        )


def test_criterion_07_disc_map_constants():
    for h in (0.2, 0.1, 0.05):
        c = poincare_constants(h)
        fwd = lambda u: float(_poincare_forward(h, np.array([u]))[0])
        assert abs(fwd(1.0) - 1.0) <= 1e-9
        assert abs(fwd(0.0) + h / 2) <= h * h
        assert abs(c.edge + h / 4) <= h * h
        assert abs(c.zero_preimage - h / 2) <= h * h
        assert abs(fwd(c.zero_preimage)) <= 1e-9, f"criterion 7 FAIL at step {h}"


def test_criterion_08_two_generator_relations():
    for name in ("plane_plus", "plane_minus", "poincare"):
        rel = two_gen_relations(standard_setup(name, 0.1))
        assert rel["relations_pass"], f"criterion 8 FAIL for {name}: {rel['max_residual']:.3e}"
        assert rel["max_residual"] <= 1e-9
        assert rel["defining_equation_residual"] <= 1e-10
        assert rel["overlap_identity_residual"] <= 1e-10


def test_criterion_09_boundary_continuity():
    h = 0.1

    bnd = boundary_continuity_check(standard_setup("plane_plus", h))
    case = bnd["cases"]["only_plus"]
    assert case["applies"] and case["iff_holds"] and case["both_conditions_hold"]
    assert case["root_condition_holds"], "criterion 9 FAIL: tuned chart lost its boundary root"

    bnd0 = boundary_continuity_check(standard_setup("plane_plus", h, a=0.0))
    case0 = bnd0["cases"]["only_plus"]
    fns = [case0["commutator"], case0["anticommutator"]]
    assert not any(f["zero_at_u0"] for f in fns)
    assert abs(case0["commutator"]["value_at_u0"] - h / 2) <= 1e-6, "criterion 9 FAIL: jump"
    assert abs(case0["anticommutator"]["value_at_u0"] - h / 4) <= 1e-6, "criterion 9 FAIL: jump"
    assert case0["iff_holds"]
    assert not any(f["continuous_at_u1"] for f in fns)

    # the minus-plane weight dips to -h at the border: this failure is the result
    setup = standard_setup("plane_minus", h)
    bndm = boundary_continuity_check(setup)
    assert not bndm["valid_generator"]
    assert bndm["obstruction"] == pytest.approx(-h, rel=1e-6)
    rel = two_gen_relations(setup)
    assert rel["relations_pass"] and not rel["pass"]


def test_criterion_10_finite_from_infinite_projection():
    for N in (4, 8):
        h = 1.0 / N
        fin = shift_algebra(UNIT, h)
        rep_f = matrix_rep(build_orbit(fin.alpha, h / 2))
        assert rep_f.dim == N

        inf = shift_algebra(Interval.real_line(), h)
        rep_i = matrix_rep(build_orbit(inf.alpha, h / 2, truncation=3 * N))
        pts_i = np.asarray(rep_i.orbit.points, dtype=float)
        sub = [i for i, p in enumerate(pts_i) if -1e-12 <= p <= 1.0 + 1e-12]
        assert len(sub) == N
        assert np.array_equal(pts_i[sub], np.asarray(rep_f.orbit.points, dtype=float))

        block = rep_i.V[np.ix_(sub, sub)]
        assert np.array_equal(block, rep_f.V), f"criterion 10 FAIL: V block at N={N}"
        assert set(np.unique(block.real)) <= {0.0, 1.0} and np.all(block.imag == 0.0)

        coeffs = {
            -1: polynomial([0.3, 1.0], UNIT, support=fin.interval_n(-1)),
            0: polynomial([1.0, 0.0, 0.5j], UNIT, support=UNIT),
            2: polynomial([0.25], UNIT, support=fin.interval_n(2)),
        }
        x_f = fin.element(coeffs)
        lifted = {
            n: polynomial([0.3, 1.0] if n == -1 else ([1.0, 0.0, 0.5j] if n == 0 else [0.25]),
                          inf.carrier, support=f.support)
            for n, f in x_f.terms.items()
        }
        x_i = inf.element(lifted)
        diff = represent(x_i, rep_i)[np.ix_(sub, sub)] - represent(x_f, rep_f)
        assert float(np.max(np.abs(np.diag(diff)))) <= 1e-12, f"criterion 10 FAIL at N={N}"
        assert float(np.max(np.abs(diff))) <= 1e-12
