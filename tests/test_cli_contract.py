"""The CLI contract on arbitrary configs: exit 0, 1 or 2, never a traceback.

Exit 2 must come with a machine-readable {"error", "context"} object, in
strict JSON (no NaN or Infinity), as the last line on stderr. It must come for
a tolerance that is not finite and nonnegative, a negative random_elements, a
base_point that is not finite, a family hbar that is not finite, an element
step key past MAX_STEP or past where the chain can be computed, a chain that
algebra-check or oracle cannot walk in floats, and a computed value that
overflows. Sizes are bounded (truncation <= 64, grid_size <= 33,
random_elements <= 2) so one example stays cheap.
"""

import contextlib
import io
import json
import math
import warnings

import pytest
from hypothesis import given, settings, strategies as st

from fuzzcyl.cli import COMMANDS, main

KINDS = ["shift", "plane_plus", "plane_minus", "poincare", "custom"]
INTERVALS = ["[0,1]", "(0,1)", "[0,1)", "(0,1]", "[-0.025,1]", "[0,inf)", "(-inf,0]", "(-inf,inf)"]
BAD_INTERVALS = ["[1,0]", "(0,0)", "[0,1", "interval", "", 5, None]
EXPRESSIONS = [("x + h", "x - h"), ("x - h", "x + h"), ("2*x + h", "(x - h)/2"), ("x^2", "sqrt(x)")]
BAD_EXPRESSIONS = [("x - h", "sqrt(x)"), ("x + h", "x + h"), ("x +", "x"), ("", ""), (5, ["x"]),
                   ("x" + "+0" * 2000 + "+h", "x - h"),
                   ("x + 1/0", "x - 1/0"), ("x + h/0", "x - h/0"), ("x + 0^-1", "x - 0^-1"),
                   ("x^" + "9" * 400, "x")]
# 1/19, 1/22 and 1/23: steps whose chains once needed exact counting, for every kind
HBARS = [0.25, 0.1, 1 / 3, 0.5, 1 / 64, 1e-4, 1 / 19, 1 / 22, 1 / 23]
# zero, negative, tiny, just past the disc map's bound of about 0.828, large, infinite, and not a number
EDGE_HBARS = [0.0, -0.25, 1e-12, 0.83, 0.9, 5.0, math.inf, None]
BASE_POINTS = [0.125, 0.05, 0.5, 0.3, 0.0, 1.0]
OUTSIDE_POINTS = [1.5, -0.3, 1e9, math.nan, math.inf]


def _not_strict_json(name):
    raise ValueError(f"{name} is not strict JSON")


def mostly(good, bad, odds=9):
    """good, except one draw in odds + 1."""
    return st.integers(0, odds).flatmap(lambda i: bad if i == 0 else good)


def pick(values, bad_values):
    return mostly(st.sampled_from(values), st.sampled_from(bad_values))


steps = mostly(st.sampled_from(HBARS), st.sampled_from(EDGE_HBARS), odds=3)


@st.composite
def families(draw):
    fam = {"kind": draw(pick(KINDS, ["torus"])), "interval": draw(pick(INTERVALS, BAD_INTERVALS)),
           "hbar": draw(steps)}
    if fam["kind"] == "custom":
        fam["forward"], fam["inverse"] = draw(pick(EXPRESSIONS, BAD_EXPRESSIONS))
    if draw(st.integers(0, 19)) == 0:
        del fam[draw(st.sampled_from(["kind", "interval", "hbar"]))]
    return fam


coefficients = mostly(
    st.one_of(
        st.builds(lambda v: {"type": "const", "value": v}, st.sampled_from([1.0, [0.5, -1.0], 0.0])),
        st.builds(lambda cs: {"type": "poly", "coeffs": cs},
                  st.lists(st.sampled_from([1.0, 0.0, [0.0, 2.0]]), min_size=1, max_size=3)),
        st.just({"type": "exp_wave", "k": 2.0}),
        st.just({"type": "sqrt_affine", "a": 1.0, "b": -0.5}),
    ),
    st.sampled_from([{"type": "wobble"}, {"type": "poly", "coeffs": [[1.0]]}, {"value": 1.0}, {"type": "const", "value": "i"}, 5]),
)
elements = st.builds(
    lambda terms: {"terms": terms},
    st.dictionaries(st.sampled_from(["0", "1", "-1", "2"]), coefficients, min_size=1, max_size=3),
)


@st.composite
def configs(draw):
    cfg = {}
    if draw(st.integers(0, 9)):
        cfg["family"] = draw(families())
    if draw(st.integers(0, 9)):
        cfg["base_point"] = draw(pick(BASE_POINTS, OUTSIDE_POINTS))
    optional = {
        "elements": mostly(st.lists(elements, min_size=2, max_size=2), st.lists(elements, max_size=1), odds=3),
        "hbars": st.lists(steps, min_size=1, max_size=2),
        "profiles": st.lists(pick(["plane_plus", "plane_minus", "poincare"], ["torus"]), min_size=1, max_size=2),
        "truncation": mostly(st.integers(1, 64), st.sampled_from([0, -3])),
        "grid_size": mostly(st.integers(2, 33), st.sampled_from([1, 0])),
        "tolerance": pick([1e-9, 1e-12, 1e-3], [math.nan, -1e-9, math.inf]),
        "random_elements": mostly(st.integers(0, 2), st.just(-3)),
        "seed": mostly(st.integers(0, 20), st.just(-1)),
        "format": st.sampled_from(["json", "csv"]),
    }
    for key, strategy in optional.items():
        if draw(st.booleans()):
            cfg[key] = draw(strategy)
    return cfg


@settings(max_examples=200, deadline=None, derandomize=True)
@given(command=st.sampled_from(COMMANDS), cfg=configs())
def test_exit_code_and_error_object(tmp_path_factory, command, cfg):
    work = tmp_path_factory.getbasetemp()
    cfg_path, out_path = work / "contract.cfg.json", work / "contract.out"
    cfg_path.write_text(json.dumps(cfg))
    err = io.StringIO()
    with contextlib.redirect_stderr(err), warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # numpy on a map evaluated outside its domain
        code = main([command, "--config", str(cfg_path), "--out", str(out_path)])
    assert code in (0, 1, 2)
    if not 0 <= cfg.get("tolerance", 0) < math.inf or cfg.get("random_elements", 0) < 0:
        assert code == 2
    if not math.isfinite(cfg.get("base_point", 0)):
        assert code == 2
    if not math.isfinite(cfg.get("family", {}).get("hbar") or 0):
        assert code == 2
    if code == 2:
        obj = json.loads(err.getvalue().splitlines()[-1], parse_constant=_not_strict_json)
        assert set(obj) == {"error", "context"}


@pytest.mark.parametrize("forward,inverse", BAD_EXPRESSIONS, ids=[f"pair{i}" for i in range(len(BAD_EXPRESSIONS))])
def test_bad_expression_pair_exits_two(tmp_path, forward, inverse):
    family = {"kind": "custom", "interval": "[0,1]", "hbar": 0.1, "forward": forward, "inverse": inverse}
    cfg_path = tmp_path / "pair.cfg.json"
    cfg_path.write_text(json.dumps({"family": family, "base_point": 0.5}))
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        assert main(["orbit", "--config", str(cfg_path), "--out", str(tmp_path / "out.json")]) == 2
    obj = json.loads(err.getvalue().splitlines()[-1], parse_constant=_not_strict_json)
    assert set(obj) == {"error", "context"}


# a key past the float range, a chain end that overflows at D_1024, and a key one past MAX_STEP
STEP_KEYS = [({"kind": "shift", "interval": "[0,1]", "hbar": 0.1}, 0.5, "9" * 400),
             ({"kind": "custom", "interval": "[1,inf)", "hbar": 0.1, "forward": "2*x", "inverse": "x/2"}, 1.5, "1030"),
             ({"kind": "custom", "interval": "[0,1]", "hbar": 0.1, "forward": "x^2", "inverse": "sqrt(x)"}, 0.5, "10001")]


@pytest.mark.parametrize("family,base_point,key", STEP_KEYS, ids=["shift_400_digits", "double_1030", "square_10001"])
def test_step_key_out_of_reach_exits_two(tmp_path, family, base_point, key):
    cfg_path = tmp_path / "keys.cfg.json"
    cfg_path.write_text(json.dumps({"family": family, "base_point": base_point,
                                    "elements": [{"terms": {key: {"type": "const", "value": 1.0}}}]}))
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        assert main(["rep", "--config", str(cfg_path), "--out", str(tmp_path / "out.json")]) == 2
    lines = err.getvalue().splitlines()
    assert len(lines) == 1
    assert set(json.loads(lines[0], parse_constant=_not_strict_json)) == {"error", "context"}


def _one_error_line(err):
    lines = err.getvalue().splitlines()
    assert len(lines) == 1
    assert set(json.loads(lines[0], parse_constant=_not_strict_json)) == {"error", "context"}


# at h = 1/3 the chain member D_-2 of 2*x + h rounds to the sliver [0, 2.8e-17], whose ends map to one image
SLIVER = {"family": {"kind": "custom", "interval": "[0, 1]", "hbar": 1 / 3, "forward": "2*x + h",
                     "inverse": "(x - h)/2"}, "base_point": 0.1, "random_elements": 4, "seed": 1}


@pytest.mark.parametrize("command", ["algebra-check", "oracle"])
def test_chain_sliver_computes(tmp_path, command):
    cfg_path = tmp_path / "sliver.cfg.json"
    cfg_path.write_text(json.dumps(SLIVER))
    out = tmp_path / "out.json"
    assert main([command, "--config", str(cfg_path), "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    if command == "algebra-check":
        assert report["relations"]["pass"] and report["covariance"]["pass"]
        assert report["element_pairs"] and all(row["pass"] for row in report["element_pairs"])
        assert max(row["residual"] for row in report["element_pairs"]) <= 1e-12
    else:
        assert report["pass"] is True and report["max_element_diff"] <= 1e-12


# on [1, inf) 2*x sends D_1023 = [2^1023, inf) past the float range: the product of two step-600 terms needs D_1200
CHAIN_PAST_FLOATS = {"family": {"kind": "custom", "interval": "[1, inf)", "hbar": 0.1, "forward": "2*x", "inverse": "x/2"},
                     "base_point": 1.5, "truncation": 8, "elements": [{"terms": {"600": {"type": "const", "value": 1.0}}}]}


def test_product_past_the_float_range_exits_two(tmp_path):
    cfg_path = tmp_path / "past_floats.cfg.json"
    cfg_path.write_text(json.dumps(CHAIN_PAST_FLOATS))
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        assert main(["algebra-check", "--config", str(cfg_path), "--out", str(tmp_path / "out.json")]) == 2
    _one_error_line(err)
    assert json.loads(err.getvalue())["error"] == "chain cannot be computed for this family"


# 1e308 + 1e308 x overflows on the carrier
OVERFLOW = {"family": {"kind": "shift", "interval": "[0, 1]", "hbar": 0.25}, "base_point": 0.125,
            "elements": [{"terms": {"0": {"type": "poly", "coeffs": [1e308, 1e308]}, "1": {"type": "const", "value": 1}}}]}


@pytest.mark.parametrize("command", ["rep", "algebra-check", "oracle"])
def test_overflowing_coefficient_exits_two(tmp_path, command):
    cfg_path = tmp_path / "overflow.cfg.json"
    cfg_path.write_text(json.dumps(OVERFLOW))
    err = io.StringIO()
    with contextlib.redirect_stderr(err), warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main([command, "--config", str(cfg_path), "--out", str(tmp_path / "out.json")]) == 2
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    _one_error_line(err)


# the disc map's square root is not real far out on the half-line: refused before it is evaluated there
DISC_HALF_LINE = {"family": {"kind": "poincare", "interval": "[0, inf)", "hbar": 0.25}, "base_point": 0.5}


def test_disc_on_the_half_line_leaves_only_the_json_error(tmp_path):
    cfg_path = tmp_path / "disc.cfg.json"
    cfg_path.write_text(json.dumps(DISC_HALF_LINE))
    err = io.StringIO()
    with contextlib.redirect_stderr(err), warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["orbit", "--config", str(cfg_path), "--out", str(tmp_path / "out.json")]) == 2
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    _one_error_line(err)
    assert json.loads(err.getvalue())["context"]["detail"] == "interval leaves the region where the disc map is real"


# JSON reads 1e309 as inf; a literal past the float range is a refused config
NON_FINITE = {"const": '{"type": "const", "value": 1e309}', "poly": '{"type": "poly", "coeffs": [0.5, [1.0, -1e309]]}',
              "exp_wave": '{"type": "exp_wave", "k": 1e309}', "sqrt_affine": '{"type": "sqrt_affine", "a": 1.0, "b": -1e309}'}


@pytest.mark.parametrize("descriptor", NON_FINITE.values(), ids=NON_FINITE.keys())
@pytest.mark.parametrize("command", ["rep", "algebra-check", "oracle"])
def test_non_finite_coefficient_literal_exits_two(tmp_path, command, descriptor):
    cfg_path = tmp_path / "literal.cfg.json"
    cfg_path.write_text('{"family": {"kind": "shift", "interval": "[0, 1]", "hbar": 0.25}, "base_point": 0.125,'
                        ' "elements": [{"terms": {"0": %s}}]}' % descriptor)
    err = io.StringIO()
    with contextlib.redirect_stderr(err), warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main([command, "--config", str(cfg_path), "--out", str(tmp_path / "out.json")]) == 2
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    _one_error_line(err)
