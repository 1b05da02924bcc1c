import numpy as np
import pytest

from fuzzcyl.interval import EMPTY, Interval
from fuzzcyl.bijection import make_family, power
from fuzzcyl.functions import (
    approx_equal,
    constant,
    exp_wave,
    from_descriptor,
    partial_identity,
    polynomial,
    pullback,
    residual,
    sqrt_affine,
    zero_function,
)

UNIT = Interval.closed(0.0, 1.0)


def test_hard_zero_outside_support():
    f = polynomial([1.0], UNIT, support=Interval.closed(0.25, 0.5))
    assert f(0.3) == 1.0
    assert f(0.7) == 0.0
    assert f(-2.0) == 0.0
    xs = np.array([0.0, 0.3, 0.6])
    assert f(xs).tolist() == [0.0, 1.0, 0.0]


def test_raw_formula_never_called_outside_support():
    def raw(xs):
        assert np.all(xs >= 0.24)
        return np.sqrt(xs)

    from fuzzcyl.functions import SupportedFunction

    f = SupportedFunction(Interval.closed(0.25, 1.0), raw, UNIT)
    out = f(np.linspace(-1, 1, 21))
    assert out[0] == 0.0


def test_product_intersects_supports():
    f = constant(2.0, UNIT, support=Interval.closed(0.0, 0.5))
    g = constant(3.0, UNIT, support=Interval.closed(0.25, 1.0))
    h = f * g
    assert h.support == Interval.closed(0.25, 0.5)
    assert h(0.3) == 6.0
    assert h(0.1) == 0.0


def test_sum_hulls_supports_and_respects_masks():
    f = constant(1.0, UNIT, support=Interval.closed(0.0, 0.25))
    g = constant(1.0j, UNIT, support=Interval.closed(0.75, 1.0))
    h = f + g
    assert h.support == UNIT
    assert h(0.1) == 1.0
    assert h(0.5) == 0.0
    assert h(0.9) == 1.0j


def test_pullback_example():
    fam = make_family("shift", UNIT, 0.25)
    f = polynomial([0.0, 1.0], UNIT, support=Interval.closed(0.0, 0.75))
    g = pullback(f, fam.generator)
    assert g(0.5) == pytest.approx(0.25)
    assert g.support == Interval.closed(0.25, 1.0)
    assert g(0.1) == 0.0


def test_pullback_clips_to_domain():
    f = polynomial([0.0, 1.0], UNIT)  # supported on all of [0,1], past the domain [0, 0.75]
    fam = make_family("shift", UNIT, 0.25)
    g = pullback(f, fam.generator)
    clipped = pullback(f.restrict(fam.generator.domain), fam.generator)
    assert g.support == clipped.support == Interval.closed(0.25, 1.0)
    xs = UNIT.grid()
    assert np.array_equal(g(xs), clipped(xs))


def test_pullback_inverse_direction():
    fam = make_family("shift", UNIT, 0.25)
    back = power(fam.generator, -1)
    f = polynomial([0.0, 1.0], UNIT, support=Interval.closed(0.25, 1.0))
    g = pullback(f, back)
    assert g(0.5) == pytest.approx(0.75)


def test_conj_and_scale():
    f = exp_wave(2.0, UNIT)
    assert f.conj()(0.5) == pytest.approx(np.conj(np.exp(1.0j)))
    assert f.scale(2.0)(0.0) == 2.0
    assert f.scale(0.0).is_zero


def test_derivative_analytic_and_numeric():
    f = polynomial([0.0, 0.0, 1.0], UNIT)
    assert f.derivative()(0.5) == pytest.approx(1.0)
    g = exp_wave(3.0, UNIT)
    assert g.derivative()(0.2) == pytest.approx(3j * np.exp(0.6j))

    from fuzzcyl.functions import SupportedFunction

    h = SupportedFunction(UNIT, lambda xs: np.sin(np.asarray(xs)), UNIT)
    assert h.derivative()(0.5) == pytest.approx(np.cos(0.5), abs=1e-8)


def test_sqrt_affine_support_clipped_to_radicand():
    f = sqrt_affine(-0.25, 1.0, UNIT)
    assert f.support == Interval.closed(0.25, 1.0)
    assert f(0.5) == pytest.approx(0.5)
    assert f(0.1) == 0.0


def test_residual_and_approx_equal():
    f = polynomial([0.0, 1.0], UNIT)
    g = polynomial([0.0, 1.0], UNIT)
    assert residual(f, g) == 0.0
    h = polynomial([1e-12, 1.0], UNIT)
    assert approx_equal(f, h, tol=1e-9)
    assert not approx_equal(f, polynomial([1e-3, 1.0], UNIT), tol=1e-9)


def test_zero_function_and_empty_support():
    z = zero_function(UNIT)
    assert z.is_zero
    assert z(0.5) == 0.0
    f = partial_identity(EMPTY, UNIT)
    assert f.is_zero


def test_carrier_mismatch_rejected():
    f = polynomial([1.0], UNIT)
    g = polynomial([1.0], Interval.closed(0.0, 2.0))
    with pytest.raises(ValueError):
        _ = f * g


def test_descriptor_constructors():
    f = from_descriptor({"type": "poly", "coeffs": [1.0, [0.0, 2.0]]}, UNIT)
    assert f(0.5) == pytest.approx(1.0 + 1.0j)
    g = from_descriptor({"type": "exp_wave", "k": 1.0, "support": "[0,0.5]"}, UNIT)
    assert g(0.75) == 0.0
    ind = from_descriptor({"type": "indicator", "interval": "[0.25,0.5]"}, UNIT)
    assert ind(0.3) == 1.0 and ind(0.6) == 0.0
    prod = from_descriptor(
        {"type": "product", "factors": [{"type": "poly", "coeffs": [0.0, 1.0]}, {"type": "const", "value": 2.0}]},
        UNIT,
    )
    assert prod(0.5) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        from_descriptor({"coeffs": []}, UNIT)
    with pytest.raises(ValueError):
        from_descriptor({"type": "wat"}, UNIT)


def test_restrict_keeps_the_node_when_the_support_is_inside():
    f = polynomial([1.0, 2.0j], UNIT, support=Interval.closed(0.25, 0.5))
    assert f.restrict(UNIT) is f
    assert f.restrict(Interval.closed(0.25, 0.5)) is f
    g = f.restrict(Interval.open(0.25, 1.0))
    assert g is not f and g.support == Interval(0.25, 0.5, False, True)
    assert g(0.25) == 0.0 and g(0.5) == f(0.5)


OFF_CONTRACT_LEAVES = {
    "python_float": lambda xs: 2.5,
    "numpy_scalar": lambda xs: np.float64(-1.25),
    "complex_0d": lambda xs: np.array(1.0 - 2.0j),
    "float_array": lambda xs: 3.0 * np.asarray(xs) - 0.5,
    "int_array": lambda xs: np.arange(np.size(xs)),
}


def test_polynomial_leaf_on_a_point_set_matches_polyval_bit_for_bit():
    # the leaf kernel reads the point set's complex points, under a partial mask and a whole one
    from fuzzcyl.functions import PointSet

    rng = np.random.default_rng(17)
    xs = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 0.5, -1.25, 3.0, 1e300, -7e-310])
    finite = xs[np.isfinite(xs)]
    parts = [0.0, -0.0, 1.0, -2.5, np.inf, np.nan]
    partial = Interval.closed(-2.0, 1.0)
    for degree in range(6):
        for _ in range(20):
            cs = [complex(rng.choice(parts) if rng.random() < 0.5 else rng.normal(),
                          rng.choice(parts) if rng.random() < 0.5 else rng.normal()) for _ in range(degree + 1)]
            with np.errstate(all="ignore"):
                got = polynomial(cs, UNIT, support=partial)(PointSet(xs))
                inside = partial.contains(xs)
                want = np.zeros(xs.shape, dtype=complex)
                want[inside] = np.polynomial.polynomial.polyval(xs[inside], np.asarray(cs))
                assert 0 < np.count_nonzero(inside) < xs.size
                assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), cs
                got = polynomial(cs, UNIT, support=Interval.real_line())(PointSet(finite))
                want = np.polynomial.polynomial.polyval(finite, np.asarray(cs))
                assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), cs


@pytest.mark.parametrize("name", OFF_CONTRACT_LEAVES)
def test_off_contract_leaf_on_every_point_matches_a_scatter(name):
    from fuzzcyl.functions import SupportedFunction

    raw = OFF_CONTRACT_LEAVES[name]
    xs = np.linspace(0.0, 1.0, 11)
    need = np.ones(xs.shape, dtype=bool)
    want = np.zeros(xs.shape, dtype=complex)
    want[need] = raw(xs[need])  # the scatter a leaf did for every point
    f = SupportedFunction(UNIT, raw, UNIT)
    got = f(xs)
    assert got.dtype == complex and got.shape == xs.shape
    assert np.array_equal(got, want)
    assert np.array_equal((f * polynomial([2.0], UNIT))(xs), 2.0 * want)


def test_polynomial_leaf_matches_polyval_bit_for_bit():
    rng = np.random.default_rng(17)
    xs = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 0.5, -1.25, 3.0, 1e300, -7e-310])
    parts = [0.0, -0.0, 1.0, -2.5, np.inf, np.nan]
    for degree in range(6):
        for _ in range(40):
            cs = [complex(rng.choice(parts) if rng.random() < 0.5 else rng.normal(),
                          rng.choice(parts) if rng.random() < 0.5 else rng.normal()) for _ in range(degree + 1)]
            with np.errstate(all="ignore"):
                got = polynomial(cs, Interval.real_line()).raw(xs)
                want = np.polynomial.polynomial.polyval(xs, np.asarray(cs))
            assert got.dtype == want.dtype and got.shape == want.shape
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), cs
