import csv
import hashlib
import io
import json
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import fuzzcyl
from fuzzcyl.cli import _HANDLERS, ConfigError, RunConfig, _build_parser, _emit, _write_csv, _write_json, main

SHIFT4 = {"family": {"kind": "shift", "interval": "[0, 1]", "hbar": 0.25}, "base_point": 0.125}

POISSON = {
    "family": {"kind": "shift", "interval": "[0, 1]", "hbar": 0.1},
    "hbars": [0.1, 0.01, 0.001],
    "elements": [
        {"terms": {"1": {"type": "const", "value": 1.0}}},
        {"terms": {"0": {"type": "poly", "coeffs": [0.0, 0.0, 1.0]}}},
    ],
}


def write_config(tmp_path, data, name="cfg.json"):
    p = tmp_path / name
    p.write_text(json.dumps(data))
    return str(p)


def _not_strict_json(name):
    raise ValueError(f"{name} is not strict JSON")


def run_json(tmp_path, argv):
    out = tmp_path / "out.json"
    code = main(argv + ["--out", str(out)])
    return code, json.loads(out.read_text())


class TestRep:
    def test_order_four_subdiagonal(self, tmp_path):
        cfg = write_config(tmp_path, SHIFT4)
        code, d = run_json(tmp_path, ["rep", "--config", cfg])
        assert code == 0
        assert d["dim"] == 4
        V = np.array([[complex(re, im) for re, im in row] for row in d["V"]])
        assert np.array_equal(V, np.diag(np.ones(3), -1))
        assert d["points"] == [0.125, 0.375, 0.625, 0.875]

    def test_elements_are_represented(self, tmp_path):
        data = dict(SHIFT4, elements=[{"terms": {"0": {"type": "const", "value": [0.0, 2.0]}}}])
        cfg = write_config(tmp_path, data)
        code, d = run_json(tmp_path, ["rep", "--config", cfg])
        assert code == 0
        M = np.array([[complex(re, im) for re, im in row] for row in d["elements"][0]])
        assert np.array_equal(M, 2j * np.eye(4))

    def test_missing_base_point_is_config_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"family": SHIFT4["family"]})
        assert main(["rep", "--config", cfg]) == 2
        err = json.loads(capsys.readouterr().err)
        assert "error" in err and "context" in err


class TestAlgebraCheck:
    def test_empty_element_list_passes(self, tmp_path):
        cfg = write_config(tmp_path, SHIFT4)
        code, d = run_json(tmp_path, ["algebra-check", "--config", cfg])
        assert code == 0
        assert d["element_pairs"] == []
        assert d["relations"]["pass"] and d["covariance"]["pass"]

    def test_random_pairs_pass(self, tmp_path):
        cfg = write_config(tmp_path, dict(SHIFT4, random_elements=3))
        code, d = run_json(tmp_path, ["algebra-check", "--config", cfg])
        assert code == 0
        assert len(d["element_pairs"]) == 9
        assert all(r["pass"] for r in d["element_pairs"])

    def test_truncated_window_pairs_exclude_boundary_rows(self, tmp_path):
        line = {"family": {"kind": "shift", "interval": "(-inf, inf)", "hbar": 0.25}, "base_point": 0.1}
        cfg = write_config(tmp_path, dict(line, truncation=16, random_elements=3, seed=7))
        code, d = run_json(tmp_path, ["algebra-check", "--config", cfg])
        assert code == 0
        assert all(r["pass"] for r in d["element_pairs"])
        assert any(r["excluded_indices"] for r in d["element_pairs"])

    def test_walk_that_stalls_at_a_fixed_point_passes(self, tmp_path):
        # x^2 from 0.5 underflows to 0.0, which the map fixes: one chain, cut at both ends
        square = {"kind": "custom", "interval": "[0, 1]", "hbar": 0.1, "forward": "x^2", "inverse": "sqrt(x)"}
        cfg = write_config(tmp_path, {"family": square, "base_point": 0.5, "truncation": 64})
        code, d = run_json(tmp_path, ["algebra-check", "--config", cfg])
        assert code == 0 and d["covariance"]["pass"]
        code, d = run_json(tmp_path, ["orbit", "--config", cfg])
        assert d["chains"] == [{"indices": list(range(64)), "minus_truncated": True, "plus_truncated": True}]

    @pytest.mark.parametrize("family,base_point", [
        ({"kind": "custom", "interval": "[0, inf)", "hbar": 0.1, "forward": "2*x + h", "inverse": "(x - h)/2"}, 0.05),
        ({"kind": "custom", "interval": "[1, inf)", "hbar": 0.1, "forward": "2*x", "inverse": "x/2"}, 1.5),
    ], ids=["affine_half_line", "double_from_one"])
    def test_pair_rows_on_expanding_windows_pass(self, tmp_path, family, base_point):
        # the window reaches 1e18 and past, so the products' rounding alone is far above tolerance * dim
        cfg = write_config(tmp_path, {"family": family, "base_point": base_point, "random_elements": 4, "seed": 1})
        code, d = run_json(tmp_path, ["algebra-check", "--config", cfg])
        assert code == 0
        assert len(d["element_pairs"]) == 16 and all(r["pass"] for r in d["element_pairs"])
        assert max(r["residual"] for r in d["element_pairs"]) > 1e6

    def test_covariance_on_an_expanding_window_passes(self, tmp_path):
        # the window reaches about 1e22, where one ulp of a moved sample is far above the tolerance
        grow = {"kind": "custom", "interval": "[1, inf)", "hbar": 0.5, "forward": "x + h*x", "inverse": "x/(1 + h)"}
        cfg = write_config(tmp_path, {"family": grow, "base_point": 1.5, "random_elements": 4, "seed": 1})
        code, d = run_json(tmp_path, ["algebra-check", "--config", cfg])
        assert code == 0
        assert all(row["pass"] for row in d["covariance"]["steps"])
        assert max(row["conjugation_residual"] for row in d["covariance"]["steps"]) > 1.0

    def test_seed_gives_byte_identical_output(self, tmp_path):
        cfg = write_config(tmp_path, dict(SHIFT4, random_elements=3))
        a, b, c = tmp_path / "a.json", tmp_path / "b.json", tmp_path / "c.json"
        assert main(["algebra-check", "--config", cfg, "--seed", "5", "--out", str(a)]) == 0
        assert main(["algebra-check", "--config", cfg, "--seed", "5", "--out", str(b)]) == 0
        assert main(["algebra-check", "--config", cfg, "--seed", "6", "--out", str(c)]) == 0
        assert a.read_bytes() == b.read_bytes()
        assert a.read_bytes() != c.read_bytes()


class TestPoissonLimit:
    def test_json_report_passes(self, tmp_path):
        cfg = write_config(tmp_path, POISSON)
        code, d = run_json(tmp_path, ["poisson-limit", "--config", cfg])
        assert code == 0
        run = d["runs"][0]
        assert 0.9 <= run["fitted_order"] <= 1.1
        assert run["bracket_ok"] and run["pass"]

    def test_csv_rows_decrease_with_step(self, tmp_path):
        cfg = write_config(tmp_path, POISSON)
        out = tmp_path / "out.csv"
        assert main(["poisson-limit", "--config", cfg, "--format", "csv", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "pair,hbar,residual,fitted_order"
        residuals = [float(l.split(",")[2]) for l in lines[1:]]
        assert residuals == sorted(residuals, reverse=True)
        for line in lines[1:]:
            cells = line.split(",")
            assert len(cells) == 4
            assert all("." in c for c in cells[1:])  # plain decimal point, no locale

    @pytest.mark.parametrize("hbar", ["nan", "inf"])
    def test_non_finite_step_is_config_error(self, tmp_path, capsys, hbar):
        cfg = write_config(tmp_path, POISSON)
        assert main(["poisson-limit", "--config", cfg, "--hbar", hbar]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["context"]["hbars"] == [hbar]

    def test_step_too_large_for_the_family_is_config_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path, POISSON)
        assert main(["poisson-limit", "--config", cfg, "--hbar", "5"]) == 2
        assert "step" in json.loads(capsys.readouterr().err)["error"]

    def test_odd_element_count_rejected(self, tmp_path, capsys):
        data = dict(POISSON, elements=POISSON["elements"][:1])
        cfg = write_config(tmp_path, data)
        assert main(["poisson-limit", "--config", cfg]) == 2
        assert "error" in json.loads(capsys.readouterr().err)


class TestSubalgebra:
    def test_all_profiles_pass_at_default_step(self, tmp_path):
        code, d = run_json(tmp_path, ["subalgebra", "--hbar", "0.1"])
        assert code == 0
        rows = {r["profile"]: r for r in d["rows"]}
        assert set(rows) == {"plane_plus", "plane_minus", "poincare"}
        assert all(r["pass"] for r in d["rows"])

    def test_plane_minus_encodes_expected_obstruction(self, tmp_path):
        code, d = run_json(tmp_path, ["subalgebra", "--hbar", "0.1", "--profile", "plane_minus"])
        assert code == 0
        row = d["rows"][0]
        assert row["expect_obstruction"]
        assert row["relations"]["relations_pass"]
        assert not row["relations"]["valid_generator"]
        assert row["boundary"]["obstruction"] == pytest.approx(-0.1, rel=1e-6)

    def test_poincare_row_carries_constants(self, tmp_path):
        code, d = run_json(tmp_path, ["subalgebra", "--hbar", "0.1", "--profile", "poincare"])
        assert code == 0
        consts = d["rows"][0]["constants"]
        assert consts["edge"] == pytest.approx(-0.025, abs=0.01)

    def test_disc_step_beyond_bound_is_config_error(self, capsys):
        assert main(["subalgebra", "--hbar", "0.9", "--profile", "poincare"]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["context"]["profile"] == "poincare" and err["context"]["hbar"] == 0.9

    def test_unknown_profile_rejected(self, capsys):
        assert main(["subalgebra", "--profile", "torus"]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["context"]["profiles"] == ["torus"]

    @pytest.mark.parametrize("family", [
        {"kind": "shift", "interval": "[0,1]", "hbar": float("inf")},
        {"kind": "torus", "interval": "[0,1]", "hbar": 0.1},
        {"kind": "shift", "interval": "[1,0", "hbar": 0.1},
    ], ids=["hbar-inf", "kind-torus", "bad-interval"])
    def test_invalid_family_is_config_error(self, tmp_path, capsys, family):
        cfg = write_config(tmp_path, {"family": family})
        assert main(["subalgebra", "--config", cfg, "--hbar", "0.1"]) == 2
        err = json.loads(capsys.readouterr().err, parse_constant=_not_strict_json)
        assert err["error"] == "bad family descriptor"


class TestOracle:
    def test_commensurate_grid_passes(self, tmp_path):
        cfg = write_config(tmp_path, dict(SHIFT4, random_elements=3, tolerance=1e-10))
        code, d = run_json(tmp_path, ["oracle", "--config", cfg])
        assert code == 0
        assert d["M"] == 4 and d["membership_pass"] and d["pass"]

    def test_unattainable_tolerance_fails_run(self, tmp_path):
        cfg = write_config(tmp_path, dict(SHIFT4, random_elements=3, tolerance=1e-18))
        code, d = run_json(tmp_path, ["oracle", "--config", cfg])
        assert code == 1
        assert not d["pass"]

    def test_plane_plus_at_one_nineteenth(self, tmp_path):
        # 19 steps of 1/19 span [0, 1]: the chain is counted, not rounded
        cfg = write_config(tmp_path, {"family": {"kind": "plane_plus", "interval": "[0, 1]", "hbar": 1 / 19},
                                      "base_point": 0.01, "random_elements": 2})
        code, d = run_json(tmp_path, ["oracle", "--config", cfg])
        assert code == 0
        assert d["M"] == 19 and d["membership_pass"] and d["pass"]

    def test_incompatible_grid_is_config_error(self, tmp_path, capsys):
        data = {
            "family": {"kind": "poincare", "interval": "[-0.025, 1]", "hbar": 0.1},
            "base_point": 0.5,
            "truncation": 16,
        }
        cfg = write_config(tmp_path, data)
        assert main(["oracle", "--config", cfg]) == 2
        err = json.loads(capsys.readouterr().err)
        assert "grid" in err["error"]


class TestOrbitCommand:
    def test_csv_points(self, tmp_path):
        cfg = write_config(tmp_path, SHIFT4)
        out = tmp_path / "orbit.csv"
        assert main(["orbit", "--config", cfg, "--format", "csv", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "index,point"
        assert [float(l.split(",")[1]) for l in lines[1:]] == [0.125, 0.375, 0.625, 0.875]

    def test_json_chains(self, tmp_path):
        cfg = write_config(tmp_path, SHIFT4)
        code, d = run_json(tmp_path, ["orbit", "--config", cfg])
        assert code == 0
        assert d["dim"] == 4
        assert d["chains"][0]["indices"] == [0, 1, 2, 3]


@pytest.mark.parametrize("command", ["rep", "orbit", "algebra-check", "oracle"])
def test_base_point_outside_carrier_is_config_error(tmp_path, capsys, command):
    cfg = write_config(tmp_path, dict(SHIFT4, base_point=1.5))
    assert main([command, "--config", cfg]) == 2
    err = json.loads(capsys.readouterr().err)
    assert "carrier" in err["error"] and err["context"]["base_point"] == 1.5


class TestConfigHandling:
    def test_echo_round_trips(self, tmp_path):
        cfg_path = write_config(tmp_path, dict(SHIFT4, random_elements=2, seed=3))
        code, d = run_json(tmp_path, ["algebra-check", "--config", cfg_path])
        assert code == 0
        echoed = RunConfig.from_dict(d["config"])
        # out was set by the runner flags; everything else must survive untouched
        direct = RunConfig.from_dict(dict(SHIFT4, random_elements=2, seed=3, command="algebra-check"))
        direct.out = echoed.out
        assert echoed == direct

    def test_unknown_field_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path, dict(SHIFT4, colour="green"))
        assert main(["rep", "--config", cfg]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["context"]["fields"] == ["colour"]

    def test_nonpositive_step_rejected(self):
        with pytest.raises(ConfigError):
            RunConfig.from_dict({"command": "subalgebra", "hbars": [0.1, -0.5]})

    @pytest.mark.parametrize(
        "command,flags,data,field",
        [
            ("algebra-check", ["--tolerance", "nan"], {}, "tolerance"),
            ("algebra-check", ["--tolerance", "-1"], {}, "tolerance"),
            ("algebra-check", [], {"tolerance": float("inf")}, "tolerance"),
            ("oracle", [], {"random_elements": -3}, "random_elements"),
            ("orbit", ["--base-point", "nan"], {}, "base_point"),
            ("orbit", ["--base-point", "inf"], {}, "base_point"),
        ],
        ids=["tolerance-nan", "tolerance-negative", "tolerance-inf", "random-elements-negative",
             "base-point-nan", "base-point-inf"],
    )
    def test_out_of_range_setting_is_config_error(self, tmp_path, capsys, command, flags, data, field):
        cfg = write_config(tmp_path, dict(SHIFT4, **data))
        assert main([command, "--config", cfg, "--out", str(tmp_path / "out.json")] + flags) == 2
        err = json.loads(capsys.readouterr().err, parse_constant=_not_strict_json)
        assert set(err) == {"error", "context"} and field in err["context"]
        assert not (tmp_path / "out.json").exists()

    def test_bad_json_file(self, tmp_path, capsys):
        p = tmp_path / "broken.json"
        p.write_text("{not json")
        assert main(["rep", "--config", str(p)]) == 2
        assert "JSON" in json.loads(capsys.readouterr().err)["error"]

    @pytest.mark.parametrize("body", [
        b"[1, 2]", b'"x"', b"null", b'{"family": "\xff"}', b"[" * 100_000 + b"]" * 100_000,
        b'{"seed": 1e400}', b'{"truncation": Infinity}', b'{"grid_size": 1e400}', b'{"random_elements": Infinity}',
        # integers past the float range, where a float is read
        b'{"family": {"kind": "shift", "interval": "[0,1]", "hbar": 1%s}, "base_point": 0.5}' % (b"0" * 400),
        b'{"family": {"kind": "shift", "interval": "[0,1]", "hbar": 0.25}, "base_point": 0.125,'
        b' "elements": [{"terms": {"0": {"type": "const", "value": 1%s}}}]}' % (b"0" * 400),
        b'{"family": {"kind": "shift", "interval": "[0,1]", "hbar": 0.25}, "base_point": 0.125,'
        b' "elements": [{"terms": {"0": {"type": "poly", "coeffs": [1%s]}}}]}' % (b"0" * 400),
    ], ids=["list", "string", "null", "not-utf8", "nested-arrays", "seed-1e400", "truncation-inf", "grid-size-1e400",
            "random-elements-inf", "hbar-huge-int", "const-huge-int", "poly-huge-int"])
    def test_malformed_config_file_is_config_error(self, tmp_path, capsys, body):
        p = tmp_path / "cfg.json"
        p.write_bytes(body)
        assert main(["rep", "--config", str(p)]) == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and set(json.loads(lines[0], parse_constant=_not_strict_json)) == {"error", "context"}

    def test_flag_overrides_config(self, tmp_path):
        cfg = write_config(tmp_path, dict(SHIFT4, base_point=0.125))
        code, d = run_json(tmp_path, ["orbit", "--config", cfg, "--base-point", "0.375"])
        assert code == 0
        assert d["points"][0] == 0.125 or 0.375 in d["points"]
        assert d["config"]["base_point"] == 0.375


@pytest.mark.parametrize(
    "command,data,detail",
    [
        # inverse(forward(x)) is NaN where x - h < 0: the pair does not invert
        ("algebra-check",
         {"family": {"kind": "custom", "interval": "[0,inf)", "hbar": 1.0, "forward": "x - h", "inverse": "sqrt(x)"},
          "base_point": 0.5, "random_elements": 2},
         "inconsistent"),
        # steps below the tolerance: the window's spacing is checked before its truncation
        ("oracle", {"family": {"kind": "plane_minus", "interval": "[0,inf)", "hbar": 1e-12}, "base_point": 0.1,
                    "truncation": 32},
         "tolerance"),
        # the window is cut below 0.3, whose preimage 0.55 is in the carrier
        ("oracle", {"family": {"kind": "plane_plus", "interval": "[0,1]", "hbar": 0.25}, "base_point": 0.05,
                    "truncation": 2, "random_elements": 2, "seed": 15},
         "preimage"),
        # the window 0.05, 0.3 is cut at its end: the image 0.55 of 0.3 is in the carrier
        ("oracle", {"family": {"kind": "shift", "interval": "[0,1]", "hbar": 0.25}, "base_point": 0.05,
                    "truncation": 2},
         "image of grid point 0.3 is"),
        # a constant part divided by zero: the map sends every point to inf
        ("algebra-check",
         {"family": {"kind": "custom", "interval": "[0,1]", "hbar": 0.1, "forward": "x + 1/0", "inverse": "x - 1/0"},
          "base_point": 0.5, "random_elements": 2},
         "strictly monotone"),
    ],
)
def test_escapes_exit_two_with_json_error(tmp_path, capsys, command, data, detail):
    cfg = write_config(tmp_path, data)
    assert main([command, "--config", cfg]) == 2
    err = json.loads(capsys.readouterr().err.splitlines()[-1])
    assert set(err) == {"error", "context"} and detail in err["context"]["detail"]


def test_custom_map_off_its_domain_leaves_only_the_json_error_on_stderr(tmp_path):
    # the inverse sqrt(x) is evaluated below 0 while the pair is checked
    cfg = write_config(tmp_path, {
        "family": {"kind": "custom", "interval": "[0,inf)", "hbar": 1.0, "forward": "x - h", "inverse": "sqrt(x)"},
        "base_point": 0.5, "random_elements": 2,
    })
    src = os.path.dirname(os.path.dirname(fuzzcyl.__file__))
    proc = subprocess.run(
        [sys.executable, "-c", "import sys; from fuzzcyl.cli import main; sys.exit(main(sys.argv[1:]))",
         "algebra-check", "--config", cfg],
        capture_output=True, text=True, timeout=120, env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 2
    lines = proc.stderr.splitlines()
    assert len(lines) == 1, proc.stderr
    assert set(json.loads(lines[0])) == {"error", "context"}


# -- report emission ---------------------------------------------------


def _jsonable_reference(v):
    """The element-wise normaliser the JSON reports were written through."""
    if isinstance(v, complex):
        return [v.real, v.imag]
    if isinstance(v, np.ndarray):
        return [_jsonable_reference(x) for x in v.tolist()]
    if isinstance(v, (np.floating, np.integer, np.bool_)):
        return v.item()
    if isinstance(v, (frozenset, set)):
        return sorted(v)
    if isinstance(v, dict):
        return {str(k): _jsonable_reference(x) for k, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [_jsonable_reference(x) for x in v]
    if v is None or isinstance(v, (bool, int, float, str)):
        return v
    return str(v)


def reference_text(v):
    return json.dumps(_jsonable_reference(v), sort_keys=True, indent=2)


def written(write, *args):
    """All the text a report writer gives its destination, as one string."""
    buf = io.StringIO()
    write(*args, buf)
    return buf.getvalue()


SPECIAL = [0.0, -0.0, 1.5, -2.25e-300, 1e16, 1e-5, 0.1, np.nan, np.inf, -np.inf]


def _scattered_specials():
    """A 64x64 complex array of +0 with a few lone entries that are not +0, in either part."""
    a = np.zeros((64, 64), complex)
    a.real[3, 5], a.imag[3, 6], a.imag[10, 0], a.real[20, 63] = -0.0, -0.0, np.nan, np.inf
    a.imag[40, 40], a.real[63, 0], a.imag[63, 1], a.real[7, 7] = -np.inf, 5e-324, 5e-324, np.nan
    return a


def _stable_id(v):
    """repr, with set members sorted so that the name does not follow PYTHONHASHSEED."""
    if isinstance(v, (set, frozenset)):
        members = "{" + ", ".join(map(repr, sorted(v))) + "}"
        return members if type(v) is set else f"frozenset({members})"
    return repr(v)


class TestReportWriter:
    @pytest.mark.parametrize(
        "value",
        [
            np.array([[1 + 2j, -0.0 - 0.0j], [3.5e-17j, 1e16 + 0.1j]]),
            np.array([complex(np.nan, 1.0), complex(0.0, -np.inf)]),
            np.array(SPECIAL),
            np.array(SPECIAL, dtype=np.float32),
            np.arange(24, dtype=float).reshape(2, 3, 4) / 7,
            np.array([[1, -2, 3]], dtype=np.int64),
            np.array([7, 255], dtype=np.uint8),
            np.array([[True, False], [False, True]]),
            np.zeros(0),
            np.zeros((3, 0), complex),
            np.zeros((0, 3)),
            np.zeros((2, 0, 3)),
            np.zeros(0, complex),
            np.zeros((3, 0)),
            np.zeros((0, 3), complex),
            np.zeros((2, 0, 3), complex),
            np.zeros((2, 3, 0)),
            np.zeros((2, 3, 0), complex),
            _scattered_specials(),
            np.zeros((3, 3), complex),
            np.full((2, 5), -0.0),
            np.array([[0.0, 0.5, 0.0, 0.0], [0.0] * 4, [-0.0, 0.0, 0.0, 0.0]], dtype=np.float32),
            np.array([[0, 0, 0], [0, -4, 0]], dtype=np.int64),
            np.array([[0, 0], [0, 0], [9, 0]], dtype=np.uint8),
            np.array([[False, False, False], [False, True, False]]),
            np.array(["a", "ħ"]),
            np.array([{"k": 1}, None], dtype=object),
        ],
        ids=lambda v: f"{v.dtype}{v.shape}",
    )
    def test_arrays_match_reference(self, value):
        assert written(_write_json, value) == reference_text(value)
        assert written(_write_json, {"x": [value, {"y": value}]}) == reference_text({"x": [value, {"y": value}]})

    @pytest.mark.parametrize(
        "value",
        [
            np.float64(0.1), np.float32(0.1), np.int32(-3), np.uint64(2**63), np.bool_(True), np.complex128(1 - 2j),
            1e308, -0.0, float("nan"), float("inf"), -float("inf"), 2**70, True, None, "", 1 + 0j,
            {3, 1, 2},
            # written in either order, the members come out sorted
            pytest.param(frozenset(("a", "b")), id="frozenset({'a', 'b'})"),
            pytest.param(frozenset(("b", "a")), id="frozenset({'b', 'a'})"),
            {10: "x", 2: "y", 1: {"z": []}}, {"": {}, "a": ()},
            "naïve ħ   \U0001f600 \x00 \"quoted\" \\ /",
            {"ключ": "значение", "\U0001f600": [1, 2.5, None]},
        ],
        ids=_stable_id,
    )
    def test_scalars_and_containers_match_reference(self, value):
        assert written(_write_json, value) == reference_text(value)
        assert written(_write_json, [value, {"k": value}]) == reference_text([value, {"k": value}])

    @pytest.mark.parametrize("value", [np.array(2.5), np.array(-1 + 0.5j), np.array(True), np.array(3)])
    def test_zero_dim_arrays_are_their_scalar(self, value):
        # the reference iterates over tolist(), which a 0-d array returns as a scalar
        with pytest.raises(TypeError):
            reference_text(value)
        assert written(_write_json, value) == reference_text(value.item())

    def test_report_body_matches_reference(self, tmp_path):
        data = dict(SHIFT4, elements=[{"terms": {"0": {"type": "poly", "coeffs": [0.5, [0.0, 1.0]]}}}])
        cfg = RunConfig.from_dict(dict(data, command="rep", out=str(tmp_path / "rep.json")))
        payload, _ = _HANDLERS["rep"](cfg)
        _emit(cfg, payload)
        echo = dict(cfg.to_dict(), out=None)
        assert (tmp_path / "rep.json").read_text() == reference_text(dict(payload, config=echo)) + "\n"


def _rep_rows_reference(V):
    """The rep CSV table as built one numpy scalar at a time."""
    return [[i, j, V[i, j].real, V[i, j].imag] for i in range(V.shape[0]) for j in range(V.shape[1])]


def _writer_text(rows):
    """The rep CSV report as csv.writer writes the reference table under its header."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows([["row", "col", "re", "im"]] + rows)
    return buf.getvalue()


class TestRepCsv:
    @pytest.mark.parametrize("hbar,dim", [(0.25, 4), (1 / 256, 256)])
    def test_rows_match_reference(self, hbar, dim):
        data = {"family": {"kind": "shift", "interval": "[0, 1]", "hbar": hbar}, "base_point": hbar / 2,
                "truncation": 512}
        cfg = RunConfig.from_dict(dict(data, command="rep", format="csv"))
        payload, _ = _HANDLERS["rep"](cfg)
        assert payload["V"].shape == (dim, dim)
        assert written(_write_csv, cfg, payload) == _writer_text(_rep_rows_reference(payload["V"]))

    def test_special_values_match_reference(self):
        V = np.array([complex(a, b) for a in SPECIAL for b in SPECIAL[:4]]).reshape(len(SPECIAL), 4)
        cfg = RunConfig.from_dict({"command": "rep", "format": "csv"})
        assert written(_write_csv, cfg, {"V": V}) == _writer_text(_rep_rows_reference(V))

    @pytest.mark.parametrize("V", [
        np.array([[0, 0, 0], [complex(-0.0, 0), 0, 0], [0, 0, 0], [0, complex(0, np.nan), 0]]),
        np.zeros((1, 1), complex),
    ], ids=["sparse", "zero1x1"])
    def test_sparse_rows_match_reference(self, V):
        cfg = RunConfig.from_dict({"command": "rep", "format": "csv"})
        assert written(_write_csv, cfg, {"V": V}) == _writer_text(_rep_rows_reference(V))


def test_parser_is_built_once_and_keeps_no_values(tmp_path):
    cfg = write_config(tmp_path, SHIFT4)
    first, second = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["orbit", "--config", cfg, "--hbar", "0.5", "--hbar", "0.75", "--profile", "poincare",
                 "--out", str(first)]) == 0
    assert main(["orbit", "--config", cfg, "--out", str(second)]) == 0
    assert _build_parser() is _build_parser()
    a, b = json.loads(first.read_text())["config"], json.loads(second.read_text())["config"]
    assert a["hbars"] == [0.5, 0.75] and a["profiles"] == ["poincare"]
    assert b["hbars"] == [] and b["profiles"] == []


# sha256 of seeded reports of points and matrices, computed before the row-at-a-time
# writer (dim 256: before the axis-at-a-time writer), and of subalgebra reports,
# computed while each check still built its own setup; the reports must stay
# byte-identical
PIN_ELEMENT = {"terms": {"0": {"type": "poly", "coeffs": [0.5, [0.0, 1.0]]}, "1": {"type": "const", "value": [1.0, -2.0]}}}
PINNED = {
    "rep:dim4": ("rep", dict(SHIFT4, elements=[PIN_ELEMENT]), {
        "json": "a212dac250245763d02b1a70dc46557cb92c6ed76614087cc9ee7b35c3f8de68",
        "csv": "13511ddc0d55892eeccf67585f656ae1624c818fc5a9a5d5dedc2f6fb717c76a",
    }),
    "rep:dim64": ("rep", {"family": {"kind": "shift", "interval": "[0, 1]", "hbar": 1 / 64}, "base_point": 0.3,
                          "truncation": 128, "elements": [PIN_ELEMENT]}, {
        "json": "6fd3df33892b59764741a7e275c4d3d6ad86051ab4261164c2492e49d63b0712",
        "csv": "e44648d5676416250d1edbf137fbe6277163675878100ccdc632963b30696d97",
    }),
    "rep:dim256": ("rep", {"family": {"kind": "shift", "interval": "[0, 1]", "hbar": 1 / 256}, "base_point": 1 / 512,
                           "truncation": 512, "elements": [PIN_ELEMENT]}, {
        "json": "3ea56becf3fdb70df027f5882a79b459b6e7b7e2515c9fb655a3f08efb4a3d07",
        "csv": "485cc454935f91ac77caf2cb6b81b8fdc1fe57c80faed8cdeca1a52d51e2a8dd",
    }),
    "orbit": ("orbit", {"family": {"kind": "custom", "interval": "[0, 1]", "hbar": 1 / 64, "forward": "x + h",
                                   "inverse": "x - h"}, "base_point": 0.3, "truncation": 128}, {
        "json": "92914395d1928b169bffa0d5725a0c3c10c5a442fe70bc71679253d918c57deb",
        "csv": "c10a61aecdc3cd132c1aad4e77343fd5dcce134e6665794729b588038e338446",
    }),
    "orbit:truncated": ("orbit", {"family": {"kind": "shift", "interval": "(-inf, inf)", "hbar": 1 / 16},
                                  "base_point": 0.01, "truncation": 24}, {
        "json": "48fcfcf01b7f782c0d1dce41edfc7c2ae0423f0146bd8aff1c7179502853b4ad",
        "csv": "5ac18278c0ae3c1e9688682cd2a2046d9c577271d54b9aa5c8024290d9549f4a",
    }),
    "orbit:disc": ("orbit", {"family": {"kind": "poincare", "interval": "[0, 1]", "hbar": 0.1},
                             "base_point": 0.5, "truncation": 16}, {
        "json": "1831e9f43a9fd140521587b4019110d8b6e6bd6fe1f665510aa6e4ab02dd3c5f",
        "csv": "87040d6b8e9c5583fdc5415423a38da05eba453449881078ddeb3751da340044",
    }),
    "subalgebra:h0.1": ("subalgebra", {"hbars": [0.1]}, {
        "json": "ed191b9ee941aff53aabcbc3b4b7581d90908c4440c3f38e582ee30065586557",
        "csv": "eacd23a3b86fde3c784e84d30af3326c217935e90f127373c6dc4a7c49f7a1ec",
    }),
    "subalgebra:h0.01": ("subalgebra", {"hbars": [0.01]}, {
        "json": "9afad41976c05715dd973bae5c629e529168bcdd8fec276dbc4e1f02ed5c0557",
        "csv": "c8ba2f9116c018ed40bdb6e5e1a974aa65325928bc5a71d5f705b4ce20dcff5b",
    }),
}


@pytest.mark.parametrize("label,fmt", [(label, fmt) for label in PINNED for fmt in ("json", "csv")])
def test_seeded_report_bytes_are_pinned(tmp_path, label, fmt):
    command, data, digests = PINNED[label]
    cfg, out = write_config(tmp_path, data), tmp_path / f"report.{fmt}"
    assert main([command, "--config", cfg, "--format", fmt, "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digests[fmt]


@pytest.mark.parametrize("label,fmt", [(label, fmt) for label in ("rep:dim256", "subalgebra:h0.1") for fmt in ("json", "csv")])
def test_stdout_report_bytes_are_pinned(tmp_path, capsysbinary, label, fmt):
    command, data, digests = PINNED[label]
    assert main([command, "--config", write_config(tmp_path, data), "--format", fmt]) == 0
    assert hashlib.sha256(capsysbinary.readouterr().out).hexdigest() == digests[fmt]


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_report_is_written_without_holding_it_whole(tmp_path, fmt):
    """Emitting the dim-256 rep report allocates at its peak less than half the report's length."""
    command, data, digests = PINNED["rep:dim256"]
    out = tmp_path / f"report.{fmt}"
    cfg = RunConfig.from_dict(dict(data, command=command, format=fmt, out=str(out)))
    payload, _ = _HANDLERS[command](cfg)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        _emit(cfg, payload)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digests[fmt]
    assert peak < out.stat().st_size / 2, (peak, out.stat().st_size)
