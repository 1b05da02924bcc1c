"""The custom-map grammar: its values bit for bit against numpy arithmetic
written out by hand, what it refuses, and which maps it reads as translations."""

import ast

import numpy as np
import pytest

from fuzzcyl import exprgrammar
from fuzzcyl.bijection import make_family
from fuzzcyl.exprgrammar import ExpressionError, compile_expression, is_translation
from fuzzcyl.interval import Interval

X = np.linspace(-2.0, 3.0, 41)
ZERO, ONE = np.float64(0.0), np.float64(1.0)

# each text with the arithmetic it spells, in numpy; sqrt gives NaN below 0 and
# 0^-2 gives inf, so NaN positions and infinities are compared too
SPELLED = [
    ("-x^2", lambda x, h: -(x**2)),
    ("x - h - 1", lambda x, h: (x - h) - 1.0),
    ("x/2/3", lambda x, h: (x / 2.0) / 3.0),
    ("2*-x", lambda x, h: 2.0 * -x),
    ("x^-2", lambda x, h: x**-2),
    ("sqrt(x)^2", lambda x, h: np.sqrt(x) ** 2),
    ("x^2*h", lambda x, h: x**2 * h),
    ("(x + h)^3 / (1 - h*x)", lambda x, h: (x + h) ** 3 / (1.0 - h * x)),
    ("x^0 - 2^-1", lambda x, h: x**0 - np.float64(2.0) ** -1),
    ("1/0", lambda x, h: ONE / ZERO),
    ("0^-1", lambda x, h: ZERO**-1),
    ("1e400", lambda x, h: np.float64(np.inf)),
    ("+(x) - +h", lambda x, h: x - h),
    ("- -x", lambda x, h: -(-x)),
    ("-0", lambda x, h: -ZERO),
]


@pytest.mark.parametrize("text,spelled", SPELLED, ids=[t for t, _ in SPELLED])
@pytest.mark.parametrize("h", [0.0, 0.1, 1 / 3])
def test_values_are_the_arithmetic_spelled(text, spelled, h):
    got = compile_expression(text)(X, h)
    with np.errstate(all="ignore"):
        want = spelled(X, np.float64(h))
    got, want = np.asarray(got), np.asarray(want)
    assert got.dtype == want.dtype == np.float64
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


REFUSED = ["x**2", "x^x", "x^2.0", "x^+2", "x^2^3", "0x10", "1_0", "1j", "x % 2", "x // 2", "~x", "x < 1",
           "x.real", "x[0]", "sqrt(x, h)", "sqrt(x=1)", "pow(x, 2)", "lambda: x", "(x, h)", "x if h else 1",
           "__import__('os')", "e", "sqrt", "2x", "x(2)", "x;h", "", "x +", "sqrt()", "..."]


@pytest.mark.parametrize("text", REFUSED)
def test_text_outside_the_grammar_is_refused(text):
    with pytest.raises(ExpressionError):
        compile_expression(text)


def test_exponent_past_the_float_range_is_refused():
    # numpy would raise OverflowError converting it on the first evaluation
    with pytest.raises(ExpressionError):
        compile_expression("x^" + "9" * 400)
    with pytest.raises(ExpressionError):
        compile_expression("x^-" + "9" * 400)
    assert np.array_equal(compile_expression("x^99999999999999999999")(np.array([0.5, 1.0, 2.0])), [0.0, 1.0, np.inf])


@pytest.mark.parametrize("text,expected", [
    ("+(x) - 3.25", True), ("x - -h", True), ("(x) + h", True), ("x + h/2", True),
    ("h + x", False), ("x + x", False), ("-x + h", False), ("x*1 + h", False), ("x", False), ("sqrt(x) + h", False),
])
def test_is_translation(text, expected):
    assert is_translation(text) is expected


def test_a_custom_family_reads_each_text_once(monkeypatch):
    calls = []
    parse = ast.parse
    monkeypatch.setattr(ast, "parse", lambda *args, **kwargs: calls.append(args[0]) or parse(*args, **kwargs))
    exprgrammar._read.cache_clear()
    fam = make_family("custom", Interval.closed(0.0, 1.0), 0.25, forward="x + h/2", inverse="x - h/2")
    assert len(calls) == 2
    assert fam.generator.offset == 0.125
