import json

import numpy as np
import pytest

from fuzzcyl.cli import ConfigError, RunConfig, main

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

    def test_bad_json_file(self, tmp_path, capsys):
        p = tmp_path / "broken.json"
        p.write_text("{not json")
        assert main(["rep", "--config", str(p)]) == 2
        assert "JSON" in json.loads(capsys.readouterr().err)["error"]

    def test_flag_overrides_config(self, tmp_path):
        cfg = write_config(tmp_path, dict(SHIFT4, base_point=0.125))
        code, d = run_json(tmp_path, ["orbit", "--config", cfg, "--base-point", "0.375"])
        assert code == 0
        assert d["points"][0] == 0.125 or 0.375 in d["points"]
        assert d["config"]["base_point"] == 0.375
