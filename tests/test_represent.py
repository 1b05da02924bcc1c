import dataclasses

import numpy as np
import pytest

from conftest import random_cp_element
from fuzzcyl.interval import DEFAULT_TOL, Interval
from fuzzcyl.bijection import make_family
from fuzzcyl.crossed import CrossedProductAlgebra, Cylinder
from fuzzcyl.functions import polynomial, pullback
from fuzzcyl.represent import (
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
        assert orbit.n_minus == 0 and orbit.n_plus == 3
        assert not orbit.truncated

    def test_base_point_inside_chain(self):
        cyl = Cylinder("finite", UNIT, 0.25)
        orbit = build_orbit(cyl.alpha, 0.625)
        assert np.allclose(orbit.points, [0.125, 0.375, 0.625, 0.875])
        assert orbit.n_minus == -2 and orbit.n_plus == 1

    def test_outside_carrier_rejected(self):
        cyl = Cylinder("finite", UNIT, 0.25)
        with pytest.raises(ValueError):
            build_orbit(cyl.alpha, 1.5)

    def test_truncated_window_centers_on_base(self):
        cyl = Cylinder("infinite", Interval.real_line(), 0.25)
        orbit = build_orbit(cyl.alpha, 0.0, truncation=9)
        assert orbit.dim == 9
        assert orbit.truncated
        assert orbit.points[0] == pytest.approx(-1.0)
        assert orbit.points[-1] == pytest.approx(1.25) or orbit.points[-1] == pytest.approx(1.0)

    def test_half_line_truncation_flags(self):
        cyl = Cylinder("half_finite", Interval.at_least(0.0), 0.25)
        orbit = build_orbit(cyl.alpha, 0.1, truncation=6)
        chain = orbit.chains[0]
        assert not chain.minus_truncated  # walked off the closed end
        assert chain.plus_truncated

    def test_merged_bases_same_orbit_dedup(self):
        cyl = Cylinder("finite", UNIT, 0.25)
        orbit = build_orbit(cyl.alpha, [0.125, 0.375])
        assert orbit.dim == 4

    def test_merged_bases_disjoint_orbits(self):
        cyl = Cylinder("finite", UNIT, 0.25)
        orbit = build_orbit(cyl.alpha, [0.125, 0.0625])
        assert orbit.dim == 8
        assert len(orbit.chains) == 2


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

    def test_block_structure_for_disjoint_bases(self):
        cyl = Cylinder("finite", UNIT, 0.25)
        rep = matrix_rep(build_orbit(cyl.alpha, [0.125, 0.0625]))
        # no edges between the two chains
        for chain in rep.orbit.chains:
            others = [i for i in range(rep.dim) if i not in chain.indices]
            assert np.all(rep.V[np.ix_(others, chain.indices)] == 0)


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
    V = np.zeros((orbit.dim, orbit.dim), dtype=complex)
    for j, i in enumerate(orbit.succ):
        if i >= 0:
            V[i, j] = 1.0
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
        conj_res = 0.0
        for f in [polynomial([0.5, 1.0, 0.75j], alg.carrier)]:
            fr = f.restrict(alg.interval_n(-n))
            lhs = Vn @ np.diag(fr(pts)) @ Vn.T.conj()
            moved = np.diag(pullback(fr.restrict(pb.domain), pb)(pts))
            conj_res = max(conj_res, masked_max(lhs - moved, keep))
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
            conj_res <= tol and zero_one and row["range_projection_exact"]
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
    "two_bases": ("shift", "[0,1]", 0.25, [0.125, 0.0625], 64),
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
        src = np.flatnonzero(orbit.succ >= 0)
        images = alg.alpha.apply(orbit.points[src])
        assert np.all(np.abs(images - orbit.points[orbit.succ[src]]) <= 1e-12 * (1 + np.abs(images)))

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

    def test_non_injective_map_fails_like_its_dense_matrix(self):
        alg, orbit = window("shift_unit")
        succ = orbit.succ.copy()
        succ[4] = succ[5]  # indices 4 and 5 now share the image 6
        bad = dataclasses.replace(orbit, succ=succ)
        ns = range(-3, 4)
        report = covariance_check(alg, matrix_rep(bad), ns=ns)
        assert report == dense_covariance_check(alg, bad, dense_V(bad), ns)
        rows = {row["n"]: row for row in report["steps"]}
        for n in (-2, -1, 1, 2):
            assert not rows[n]["projections_zero_one"]
        assert not rows[1]["domain_projection_exact"] and not rows[-1]["domain_projection_exact"]
        assert rows[0]["pass"] and not report["pass"]


class TestDiscOrbitsAreSingleChains:
    def test_every_window_is_one_chain(self):
        bases = np.linspace(0.0, 1.0, 16)[:-1]  # 1 is the fixed point of the disc map
        for h in np.linspace(0.001, 0.8, 60):
            alpha = make_family("poincare", UNIT, float(h)).generator
            for b in bases:
                orbit = build_orbit(alpha, float(b), truncation=64)
                assert len(orbit.chains) == 1, (h, b)
                assert np.count_nonzero(orbit.succ >= 0) == orbit.dim - 1, (h, b)
