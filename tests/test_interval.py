import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from fuzzcyl.interval import EMPTY, Interval, image_monotone


def test_closed_contains_with_tolerance():
    iv = Interval.closed(0.0, 1.0)
    assert iv.contains(1.0 + 1e-13, tol=1e-12)
    assert not iv.contains(1.0 + 1e-11, tol=1e-12)
    assert iv.contains(0.0)
    assert not iv.contains(-1e-6)


def test_open_endpoints_strict_after_widening():
    iv = Interval.open(0.0, 1.0)
    assert not iv.contains(0.0)
    assert not iv.contains(1e-13, tol=1e-12)
    assert iv.contains(1e-11, tol=1e-12)
    assert iv.contains(0.5, tol=0.0)
    assert not iv.contains(1.0, tol=0.0)


def test_exact_membership_at_zero_tolerance():
    iv = Interval.closed(0.25, 0.75)
    assert iv.contains(0.25, tol=0.0)
    assert iv.contains(0.75, tol=0.0)
    assert not iv.contains(0.75 + 1e-16, tol=0.0) or 0.75 + 1e-16 == 0.75


def test_contains_vectorized():
    iv = Interval(0.0, 1.0, True, False)
    xs = np.array([-0.1, 0.0, 0.5, 1.0, 1.1])
    got = iv.contains(xs, tol=0.0)
    assert got.tolist() == [False, True, True, False, False]


def test_empty_interval_contains_nothing():
    assert not EMPTY.contains(0.0)
    assert EMPTY.is_empty
    assert EMPTY.width == 0.0


def test_constructor_rejects_bad_endpoints():
    with pytest.raises(ValueError):
        Interval(1.0, 0.0, True, True)
    with pytest.raises(ValueError):
        Interval(0.0, 0.0, True, False)
    with pytest.raises(ValueError):
        Interval(-math.inf, 0.0, True, True)
    with pytest.raises(ValueError):
        Interval(math.nan, 1.0, True, True)


def test_intersect_example():
    got = Interval.closed(0.0, 0.75).intersect(Interval.closed(0.25, 1.0))
    assert got == Interval.closed(0.25, 0.75)


def test_intersect_disjoint_and_touching():
    a = Interval.closed(0.0, 1.0)
    assert a.intersect(Interval.closed(2.0, 3.0)) == EMPTY
    assert a.intersect(Interval.closed(1.0, 2.0)) == Interval.point(1.0)
    assert a.intersect(Interval(1.0, 2.0, False, True)) == EMPTY


def test_intersect_openness_conjunction():
    a = Interval(0.0, 1.0, True, False)
    b = Interval(0.0, 1.0, False, True)
    got = a.intersect(b)
    assert got == Interval.open(0.0, 1.0)


def test_unbounded_intersections():
    a = Interval.at_least(0.0)
    b = Interval.at_most(2.0)
    assert a.intersect(b) == Interval.closed(0.0, 2.0)
    assert Interval.real_line().intersect(a) == a


def test_image_monotone_decreasing():
    got = image_monotone(Interval.closed(0.0, 1.0), lambda x: -x)
    assert got == Interval.closed(-1.0, 0.0)


def test_image_monotone_shift_and_point():
    got = image_monotone(Interval(0.0, 1.0, True, False), lambda x: x + 0.25)
    assert got == Interval(0.25, 1.25, True, False)
    assert image_monotone(Interval.point(0.5), lambda x: 2 * x) == Interval.point(1.0)


def test_shifted_is_the_translation_image():
    one_ulp = Interval(0.5, math.nextafter(0.5, 1.0), True, True)
    cases = [
        (Interval(0.0, 1.0, True, False), 0.25),
        (Interval.at_least(0.0), -0.25),
        (Interval.at_most(1.0), 0.125),
        (Interval.real_line(), 3.0),
        (Interval.point(0.5), 0.1),
        (one_ulp, 1.0),  # collapses to a point
        (EMPTY, 1.0),
    ]
    for iv, c in cases:
        assert iv.shifted(c) == image_monotone(iv, lambda x: np.asarray(x, dtype=float) + c)
    assert one_ulp.shifted(1.0) == Interval.point(1.5)


def test_image_monotone_rejects_non_monotone():
    with pytest.raises(ValueError):
        image_monotone(Interval.closed(-1.0, 1.0), lambda x: x * x)


def test_parse_format_roundtrip():
    for text in ["[0,1]", "[0.25,1)", "(-inf,0.5]", "[2,inf)", "(-inf,inf)", "empty", "[1,1]"]:
        iv = Interval.parse(text)
        assert str(iv) == text
        assert Interval.parse(str(iv)) == iv


def test_parse_rejects_garbage():
    for text in ["", "[1,0]", "[a,b]", "[0;1]", "[-inf,0]", "0,1"]:
        with pytest.raises(ValueError):
            Interval.parse(text)


def test_difference_cases():
    a = Interval.closed(0.0, 1.0)
    mid = Interval.closed(0.25, 0.5)
    pieces = a.difference(mid)
    assert pieces == [Interval(0.0, 0.25, True, False), Interval(0.5, 1.0, False, True)]
    assert a.difference(Interval.closed(-1.0, 2.0)) == []
    assert a.difference(EMPTY) == [a]
    assert Interval.at_least(0.0).difference(Interval.at_least(0.25)) == [
        Interval(0.0, 0.25, True, False)
    ]


def test_grid_and_interior_grid():
    iv = Interval.closed(0.0, 1.0)
    g = iv.grid(11)
    assert g[0] == 0.0 and g[-1] == 1.0 and len(g) == 11
    gi = iv.interior_grid(11)
    assert gi[0] > 0.0 and gi[-1] < 1.0
    g_inf = Interval.real_line().grid(5)
    assert g_inf[0] == -8.0 and g_inf[-1] == 8.0
    assert len(Interval.point(0.5).grid(7)) == 1
    assert len(EMPTY.grid(7)) == 0


def test_grids_of_carriers_outside_the_window():
    # a carrier beyond +-8 gets a 16-wide window from its finite end
    assert np.array_equal(Interval.at_least(10.0).grid(5), np.linspace(10.0, 26.0, 5))
    assert np.array_equal(Interval.at_most(-10.0).grid(5), np.linspace(-26.0, -10.0, 5))
    # interior_grid falls back to grid where there is no interior to pull in to
    assert np.array_equal(Interval.at_least(10.0).interior_grid(5), np.linspace(10.0, 26.0, 5))
    assert np.array_equal(Interval.point(0.5).interior_grid(7), np.array([0.5]))
    assert EMPTY.interior_grid(7).size == 0


finite_intervals = st.builds(
    lambda a, b, lc, hc: Interval(min(a, b), max(a, b), lc, hc)
    if min(a, b) != max(a, b)
    else Interval.point(a),
    st.floats(-10, 10, allow_nan=False),
    st.floats(-10, 10, allow_nan=False),
    st.booleans(),
    st.booleans(),
)


@given(finite_intervals, finite_intervals)
def test_intersect_commutes(a, b):
    assert a.intersect(b) == b.intersect(a)


@given(finite_intervals, finite_intervals, finite_intervals)
def test_intersect_associates(a, b, c):
    assert a.intersect(b).intersect(c) == a.intersect(b.intersect(c))


@given(finite_intervals, finite_intervals)
def test_intersection_is_subset_of_both(a, b):
    got = a.intersect(b)
    assert got.subset_of(a)
    assert got.subset_of(b)
    assert a.subset_of(a.hull(b))


@given(finite_intervals, st.floats(-10, 10, allow_nan=False))
def test_shifted_matches_image_monotone(iv, c):
    try:
        want = image_monotone(iv, lambda x: np.asarray(x, dtype=float) + c)
    except ValueError:  # sub-ulp images of a strictly increasing sample grid
        return
    assert iv.shifted(c) == want


def test_intersect_and_hull_return_an_operand_that_is_the_result():
    a, b = Interval.closed(0.0, 1.0), Interval(0.25, 0.5, False, True)
    assert a.intersect(b) is b and b.intersect(a) is b
    assert a.hull(b) is a and b.hull(a) is a
    assert a.intersect(a) is a and a.hull(a) is a
    assert a.intersect(EMPTY) is EMPTY and a.hull(EMPTY) is a and EMPTY.hull(a) is a
    half = Interval.at_least(0.5)
    assert half.intersect(Interval.real_line()) is half
    # equal endpoints with different flags: the open end wins an intersection, the closed end a hull
    c = Interval(0.0, 1.0, False, True)
    assert a.intersect(c) is c and a.hull(c) is a
    assert Interval(0.0, 1.0, True, False).intersect(c) == Interval.open(0.0, 1.0)


def _ref_intersect(a, b):
    if a.is_empty or b.is_empty:
        return Interval(0.0, 0.0, False, False, True)
    lo, hi = max(a.lo, b.lo), min(a.hi, b.hi)
    lo_c = all(iv.lo_closed for iv in (a, b) if iv.lo == lo)
    hi_c = all(iv.hi_closed for iv in (a, b) if iv.hi == hi)
    if lo > hi or (lo == hi and not (lo_c and hi_c)):
        return Interval(0.0, 0.0, False, False, True)
    return Interval(lo, hi, lo_c, hi_c)


def _ref_hull(a, b):
    parts = [iv for iv in (a, b) if not iv.is_empty]
    if not parts:
        return Interval(0.0, 0.0, False, False, True)
    lo, hi = min(iv.lo for iv in parts), max(iv.hi for iv in parts)
    lo_c = any(iv.lo_closed for iv in parts if iv.lo == lo)
    hi_c = any(iv.hi_closed for iv in parts if iv.hi == hi)
    return Interval(lo, hi, lo_c, hi_c)


def _any_interval(a, b, lc, hc, lo_inf, hi_inf):
    lo, hi = min(a, b), max(a, b)
    if lo_inf:
        lo, lc = -math.inf, False
    if hi_inf:
        hi, hc = math.inf, False
    return Interval.point(lo) if lo == hi else Interval(lo, hi, lc, hc)


# shared endpoints are common, so equal and nested operands are too
_endpoints = st.one_of(st.sampled_from([-1.0, 0.0, 0.5, 1.0]), st.floats(-10, 10, allow_nan=False))
any_intervals = st.one_of(
    st.just(EMPTY),
    st.builds(_any_interval, _endpoints, _endpoints, st.booleans(), st.booleans(),
              st.sampled_from([False, False, True]), st.sampled_from([False, False, True])),
)


@given(any_intervals, any_intervals)
def test_intersect_and_hull_match_freshly_built_intervals(a, b):
    for got, want in ((a.intersect(b), _ref_intersect(a, b)), (a.hull(b), _ref_hull(a, b))):
        assert got == want and str(got) == str(want)
        if want == a:
            assert got is a
        elif want == b:
            assert got is b


@given(any_intervals, any_intervals)
def test_difference_pieces_cover_exactly_a_minus_b(a, b):
    pieces = a.difference(b)
    for piece in pieces:
        assert piece.subset_of(a) and piece.intersect(b).is_empty
    ends = sorted({x for iv in (a, b) for x in (iv.lo, iv.hi)})
    probes = set(ends) | {float(np.nextafter(x, d)) for x in ends for d in (-math.inf, math.inf)}
    probes |= {(x + y) / 2 for x, y in zip(ends, ends[1:]) if math.isfinite(x + y)}
    for x in probes:
        want = a.contains(x, 0.0) and not b.contains(x, 0.0)
        assert any(piece.contains(x, 0.0) for piece in pieces) == want, x
