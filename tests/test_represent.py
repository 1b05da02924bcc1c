import numpy as np
import pytest

from conftest import random_cp_element
from fuzzcyl.interval import DEFAULT_TOL, Interval
from fuzzcyl.bijection import make_family
from fuzzcyl.crossed import CrossedProductAlgebra, Cylinder
from fuzzcyl.functions import polynomial, pullback
from fuzzcyl.represent import (
    _centered_window,
    build_orbit,
    covariance_check,
    excluded_indices,
    matrix_rep,
    represent,
)

UNIT = Interval.closed(0.0, 1.0)


class TestOrbits:
    def test_generic_orbit_points(self):
        cyl = Cylinder("finite", UNIT, 0.25)
        orbit = build_orbit(cyl.alpha, 0.125)
        assert orbit.dim == 4
        assert np.allclose(orbit.points, [0.125, 0.375, 0.625, 0.875])
        assert orbit.base_index == 0
        assert not orbit.chains[0].minus_truncated and not orbit.chains[0].plus_truncated

    def test_base_point_inside_chain(self):
        cyl = Cylinder("finite", UNIT, 0.25)
        orbit = build_orbit(cyl.alpha, 0.625)
        assert np.allclose(orbit.points, [0.125, 0.375, 0.625, 0.875])
        assert orbit.base_index == 2

    def test_outside_carrier_rejected(self):
        cyl = Cylinder("finite", UNIT, 0.25)
        with pytest.raises(ValueError):
            build_orbit(cyl.alpha, 1.5)

    def test_truncated_window_centers_on_base(self):
        cyl = Cylinder("infinite", Interval.real_line(), 0.25)
        orbit = build_orbit(cyl.alpha, 0.0, truncation=9)
        assert orbit.dim == 9
        assert orbit.chains[0].minus_truncated and orbit.chains[0].plus_truncated
        assert orbit.points[0] == pytest.approx(-1.0)
        assert orbit.points[-1] == pytest.approx(1.25) or orbit.points[-1] == pytest.approx(1.0)

    def test_centered_window_matches_alternating_walk(self):
        def alternating(len_b, len_f, truncation):
            """The window's former loop: nearest neighbours taken alternately, forward first."""
            kf = kb = 0
            for i in range(truncation - 1):
                prefer_f = i % 2 == 0
                if prefer_f and kf < len_f:
                    kf += 1
                elif not prefer_f and kb < len_b:
                    kb += 1
                elif kf < len_f:
                    kf += 1
                elif kb < len_b:
                    kb += 1
                else:
                    break
            return kb, kf

        for truncation in range(1, 34):
            for len_b in range(41):
                for len_f in range(41):
                    want = alternating(len_b, len_f, truncation)
                    assert _centered_window(len_b, len_f, truncation) == want, (len_b, len_f, truncation)

    def test_half_line_truncation_flags(self):
        cyl = Cylinder("half_finite", Interval.at_least(0.0), 0.25)
        orbit = build_orbit(cyl.alpha, 0.1, truncation=6)
        chain = orbit.chains[0]
        assert not chain.minus_truncated  # walked off the closed end
        assert chain.plus_truncated

    def test_steps_below_1e_12_keep_every_point(self):
        # walk points closer than 1e-12 are distinct basis vectors, linked by position
        shift = make_family("shift", UNIT, 4e-13).generator
        orbit = build_orbit(shift, 0.5, truncation=8)
        assert orbit.dim == 8 and len(orbit.chains) == 1
        images, sources = matrix_rep(orbit).links(1)
        assert np.array_equal(images, sources + 1) and images.size == orbit.dim - 1
        disc = make_family("poincare", UNIT, 1e-11).generator
        assert build_orbit(disc, 0.9, truncation=7).dim == 7


class TestMatrices:
    def test_generator_is_chain_matrix(self):
        cyl = Cylinder("finite", UNIT, 0.25)
        rep = matrix_rep(build_orbit(cyl.alpha, 0.125))
        V = represent(cyl.generator_u(), rep)
        assert np.array_equal(V, rep.V)
        want = np.zeros((4, 4))
        want[1, 0] = want[2, 1] = want[3, 2] = 1.0
        assert np.array_equal(rep.V.real, want)

    def test_partial_isometry_and_projections(self):
        cyl = Cylinder("finite", UNIT, 0.25)
        rep = matrix_rep(build_orbit(cyl.alpha, 0.125))
        V = rep.V
        assert np.array_equal(V @ rep.Vstar @ V, V)
        assert np.array_equal(rep.Vstar @ V, np.diag([1.0, 1.0, 1.0, 0.0]).astype(complex))

    def test_matrix_nilpotency_index_is_orbit_length(self):
        cyl = Cylinder("finite", UNIT, 0.25)
        rep = matrix_rep(build_orbit(cyl.alpha, 0.125))
        assert np.any(np.linalg.matrix_power(rep.V, 3) != 0)
        assert np.all(np.linalg.matrix_power(rep.V, 4) == 0)

    def test_homomorphism_on_full_orbit(self):
        rng = np.random.default_rng(211)
        cyl = Cylinder("finite", UNIT, 0.125)
        rep = matrix_rep(build_orbit(cyl.alpha, 0.0625))
        assert rep.dim == 8
        for _ in range(20):
            x, y = (random_cp_element(cyl, rng) for _ in range(2))
            lhs = represent(x * y, rep)
            rhs = represent(x, rep) @ represent(y, rep)
            assert np.max(np.abs(lhs - rhs)) <= 1e-9
            assert np.max(np.abs(represent(x.adjoint(), rep) - represent(x, rep).T.conj())) <= 1e-9


class TestCovariance:
    def test_full_finite_orbit_passes_exactly(self):
        cyl = Cylinder("finite", UNIT, 0.25)
        rep = matrix_rep(build_orbit(cyl.alpha, 0.125))
        report = covariance_check(cyl, rep)
        assert report["pass"], report
        for row in report["steps"]:
            assert row["excluded_indices"] == []

    def test_domain_projection_example(self):
        cyl = Cylinder("finite", UNIT, 0.25)
        rep = matrix_rep(build_orbit(cyl.alpha, 0.125))
        QV = rep.Vstar @ rep.V
        inside = cyl.interval_n(-1).contains(rep.orbit.points)
        assert inside.tolist() == [True, True, True, False]
        assert np.array_equal(QV, np.diag(inside.astype(complex)))

    def test_truncated_window_needs_exclusion(self):
        cyl = Cylinder("infinite", Interval.real_line(), 0.25)
        orbit = build_orbit(cyl.alpha, 0.0, truncation=12)
        rep = matrix_rep(orbit)
        # the corner entry really is polluted: the window edge fakes a chain start
        P = rep.V @ rep.Vstar
        first = orbit.chains[0].indices[0]
        assert P[first, first] == 0.0
        assert cyl.p(1)(float(orbit.points[first])) == 1.0
        report = covariance_check(cyl, rep)
        assert report["pass"], report
        assert excluded_indices(orbit, 2) >= excluded_indices(orbit, 1) != set()

    def test_truncated_half_line_passes_with_exclusion(self):
        cyl = Cylinder("half_finite", Interval.at_least(0.0), 0.25)
        rep = matrix_rep(build_orbit(cyl.alpha, 0.1, truncation=8))
        report = covariance_check(cyl, rep)
        assert report["pass"], report

    def test_custom_samples_and_steps(self):
        cyl = Cylinder("finite", UNIT, 0.25)
        rep = matrix_rep(build_orbit(cyl.alpha, 0.125))
        fs = [polynomial([0.0, 1.0], UNIT), polynomial([1.0, 0.0, 1.0j], UNIT)]
        report = covariance_check(cyl, rep, sample_functions=fs, ns=(-3, 3))
        assert report["pass"], report


# -- dense reference: 0/1 matrix V, matrix powers and matrix products -----


def dense_V(orbit):
    """Each point to the next in orbit order, and the last to the first on a closed window."""
    V = np.zeros((orbit.dim, orbit.dim), dtype=complex)
    for j in range(orbit.dim - 1):
        V[j + 1, j] = 1.0
    if orbit.closed:
        V[0, -1] = 1.0
    return V


def dense_power(V, n):
    return np.linalg.matrix_power(V, n) if n >= 0 else np.linalg.matrix_power(V.T.conj(), -n)


def dense_represent(x, orbit, V):
    out = np.zeros(V.shape, dtype=complex)
    for n, fn in x.terms.items():
        out += np.diag(fn(orbit.points)) @ dense_power(V, n)
    return out


def dense_covariance_check(alg, orbit, V, ns, tol=1e-10):
    """covariance_check computed with dense matrix products."""
    pts = orbit.points

    def masked_max(mat, keep):
        sub = mat[np.ix_(keep, keep)]
        return float(np.max(np.abs(sub))) if sub.size else 0.0

    rows, ok_all = [], True
    for n in ns:
        pb = alg.power(n)
        Vn = dense_power(V, n)
        excl = excluded_indices(orbit, n)
        keep = np.array([i for i in range(orbit.dim) if i not in excl], dtype=int)
        conj_res, scale = 0.0, 1.0
        for f in [polynomial([0.5, 1.0, 0.75j], alg.carrier)]:
            fr = f.restrict(alg.interval_n(-n))
            lhs = Vn @ np.diag(fr(pts)) @ Vn.T.conj()
            moved = np.diag(pullback(fr.restrict(pb.domain), pb)(pts))
            conj_res = max(conj_res, masked_max(lhs - moved, keep))
            scale = max(scale, masked_max(moved, keep))
        PnV, QnV = Vn @ Vn.T.conj(), Vn.T.conj() @ Vn
        in_range = alg.interval_n(n).contains(pts, DEFAULT_TOL).astype(complex)
        in_domain = alg.interval_n(-n).contains(pts, DEFAULT_TOL).astype(complex)
        zero_one = bool(
            np.all(np.isin(PnV.real, (0.0, 1.0))) and np.all(PnV.imag == 0.0)
            and np.all(np.isin(QnV.real, (0.0, 1.0))) and np.all(QnV.imag == 0.0)
        )
        row = {
            "n": int(n),
            "conjugation_residual": conj_res,
            "projections_zero_one": zero_one,
            "range_projection_exact": masked_max(PnV - np.diag(in_range), keep) == 0.0,
            "domain_projection_exact": masked_max(QnV - np.diag(in_domain), keep) == 0.0,
            "indicator_matches_projection": masked_max(PnV - np.diag(alg.p(n)(pts)), keep) == 0.0,
            "excluded_indices": sorted(excl),
        }
        row["pass"] = bool(
            conj_res <= tol * scale and zero_one and row["range_projection_exact"]
            and row["domain_projection_exact"] and row["indicator_matches_projection"]
        )
        ok_all = ok_all and row["pass"]
        rows.append(row)
    return {"steps": rows, "pass": ok_all}


WINDOWS = {
    "shift_unit": ("shift", "[0,1]", 0.125, 0.03, 64),
    "shift_half_line": ("shift", "[0,inf)", 0.25, 0.1, 8),
    "shift_line_truncated": ("shift", "(-inf,inf)", 1 / 16, 0.01, 24),
    "disc": ("poincare", "[0,1]", 0.1, 0.5, 16),
    "custom": ("custom", "[0,1]", 0.125, 0.05, 64),
    "shift_tiny_step": ("shift", "[0,1]", 4e-13, 0.5, 8),
}


def window(name):
    kind, interval, h, base, truncation = WINDOWS[name]
    exprs = {"forward": "x + h", "inverse": "x - h"} if kind == "custom" else {}
    alg = CrossedProductAlgebra(make_family(kind, Interval.parse(interval), h, **exprs).generator)
    return alg, build_orbit(alg.alpha, base, truncation)


class TestIndexMapsMatchDenseMatrices:
    @pytest.mark.parametrize("name", sorted(WINDOWS))
    def test_links_follow_the_map(self, name):
        alg, orbit = window(name)
        dst, src = matrix_rep(orbit).links(1)
        images = alg.alpha.apply(orbit.points[src])
        assert np.all(np.abs(images - orbit.points[dst]) <= 1e-12 * (1 + np.abs(images)))

    @pytest.mark.parametrize("name", sorted(WINDOWS))
    def test_step_powers(self, name):
        _, orbit = window(name)
        rep = matrix_rep(orbit)
        V = dense_V(orbit)
        assert np.array_equal(rep.V, V) and np.array_equal(rep.Vstar, V.T.conj())
        for n in range(-9, 10):
            assert np.array_equal(rep.step_power(n), dense_power(V, n)), n
        assert not np.any(rep.step_power(orbit.dim)) and not np.any(rep.step_power(-orbit.dim))

    @pytest.mark.parametrize("name", sorted(WINDOWS))
    def test_represent(self, name):
        alg, orbit = window(name)
        rep, V = matrix_rep(orbit), dense_V(orbit)
        rng = np.random.default_rng(17)
        for _ in range(10):
            x = random_cp_element(alg, rng, max_step=4)
            assert np.array_equal(represent(x, rep), dense_represent(x, orbit, V))

    @pytest.mark.parametrize("name", sorted(WINDOWS))
    def test_covariance_report(self, name):
        alg, orbit = window(name)
        ns = range(-orbit.dim - 1, orbit.dim + 2)
        assert covariance_check(alg, matrix_rep(orbit), ns=ns) == dense_covariance_check(
            alg, orbit, dense_V(orbit), ns
        )

    def test_walk_that_stalls_at_a_fixed_point_ends_the_window(self):
        # x^2 from 0.5 underflows: 5.6e-309 -> 0.0, which the map fixes
        fam = make_family("custom", UNIT, 0.1, forward="x^2", inverse="sqrt(x)")
        alg = CrossedProductAlgebra(fam.generator)
        orbit = build_orbit(alg.alpha, 0.5, truncation=64)
        assert orbit.dim == 64 and orbit.points[-1] == 0.0 and not orbit.closed
        [chain] = orbit.chains
        assert chain.indices == list(range(64)) and chain.minus_truncated and chain.plus_truncated
        rep = matrix_rep(orbit)
        assert np.array_equal(rep.V, dense_V(orbit))
        assert rep.V.real.sum(axis=0).max() == 1.0 and rep.V.real.sum(axis=1).max() == 1.0
        ns = range(-3, 4)
        report = covariance_check(alg, rep, ns=ns)
        assert report["pass"], report
        assert report == dense_covariance_check(alg, orbit, dense_V(orbit), ns)


def fancy_represent(x, rep):
    """represent written with a gather and a scatter-add over V^n's links."""
    out = np.zeros((rep.dim, rep.dim), dtype=complex)
    for n, fn in x.terms.items():
        images, sources = rep.links(n)
        out[images, sources] += fn(rep.orbit.points)[images]
    return out


@pytest.mark.parametrize("name", ["full_path", "truncated", "closed_point"])
def test_represent_matches_the_fancy_index_construction_bit_for_bit(name):
    if name == "closed_point":  # x^2 fixes 1: the window is that point alone, closed
        fam = make_family("custom", UNIT, 0.1, forward="x^2", inverse="sqrt(x)")
        alg = CrossedProductAlgebra(fam.generator)
        orbit = build_orbit(alg.alpha, 1.0)
        assert orbit.closed and orbit.dim == 1
    else:
        alg, orbit = window({"full_path": "shift_unit", "truncated": "shift_line_truncated"}[name])
        assert not orbit.closed and orbit.dim > 1
    rep, dim = matrix_rep(orbit), orbit.dim
    negative_zero = -polynomial([0.0], alg.carrier)  # -1 * (0 + 0j) has real part -0.0
    assert np.all(np.signbit(negative_zero(orbit.points).real))
    rng = np.random.default_rng(3)
    for _ in range(6):
        steps = [1, -2, dim - 1, dim, -dim, dim + 3, -dim - 2]
        terms = {n: polynomial(rng.normal(size=3) + 1j * rng.normal(size=3), alg.carrier) for n in steps}
        terms[0] = negative_zero
        x = alg.element(terms)
        assert any(abs(n) >= dim for n in x.terms) or name == "full_path"
        got, want = represent(x, rep), fancy_represent(x, rep)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


class TestDiscOrbitsAreSingleChains:
    def test_every_window_is_one_chain(self):
        bases = np.linspace(0.0, 1.0, 16)[:-1]  # 1 is the fixed point of the disc map
        for h in np.linspace(0.001, 0.8, 60):
            alpha = make_family("poincare", UNIT, float(h)).generator
            for b in bases:
                orbit = build_orbit(alpha, float(b), truncation=64)
                assert len(orbit.chains) == 1, (h, b)
                assert matrix_rep(orbit).links(1)[1].size == orbit.dim - 1, (h, b)
                assert alpha.apply(orbit.points[-1]) != orbit.points[-1], (h, b)  # no stall
