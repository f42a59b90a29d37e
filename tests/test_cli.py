import json
import math
import os

import pytest

from gapforge.cli import MIN_MAX_SLACK, RunConfig, load_config, main, run_pipeline
from gapforge.errors import ConfigError


def read(path):
    with open(path) as fh:
        return fh.read()


class TestLoadConfig:
    def test_minimal_design_defaults(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"command": "design", "intervals": [[1, 2]], "n": 3}))
        cfg = load_config(str(cfg_path))
        assert cfg.delta == 0.01
        assert cfg.L is None  # horizon defaults to 10*beta_m downstream
        assert cfg.resolution == 384 and cfg.theta_grid == 16

    def test_reversed_interval_names_field(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"command": "design", "intervals": [[2, 1]], "n": 3}))
        with pytest.raises(ConfigError) as err:
            load_config(str(cfg_path))
        assert err.value.field == "intervals[0]"

    def test_unknown_command_lists_valid(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"command": "frobnicate"}))
        with pytest.raises(ConfigError) as err:
            load_config(str(cfg_path))
        assert "design" in str(err.value) and "verify" in str(err.value)

    def test_unknown_field_rejected(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"command": "design", "wibble": 1}))
        with pytest.raises(ConfigError) as err:
            load_config(str(cfg_path))
        assert err.value.field == "wibble"

    def test_missing_file(self):
        with pytest.raises(ConfigError):
            load_config("/nonexistent/cfg.json")

    def test_overrides_replace_file_values(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"command": "design", "intervals": [[1, 2]], "n": 2}))
        cfg = load_config(str(cfg_path), {"n": 4})
        assert cfg.n == 4

    def test_out_of_range_knob(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"command": "bands", "theta_grid": 1}))
        with pytest.raises(ConfigError) as err:
            load_config(str(cfg_path))
        assert err.value.field == "theta_grid"


class TestCommands:
    def test_design_emits_geometry_model_mu(self, tmp_path):
        code = main(["design", "--intervals", "1,2", "--dim", "3", "--out", str(tmp_path)])
        assert code == 0
        doc = json.loads(read(tmp_path / "design.json"))
        assert doc["geometry"]["d"][0] == pytest.approx(1 / (2 * math.pi), rel=1e-14)
        assert doc["mu"][0] == pytest.approx(2.0, rel=1e-12)

    def test_dispersion_csv_sign_pattern(self, tmp_path):
        code = main([
            "dispersion", "--sigma", "1", "--rho", "1",
            "--range", "0,3", "--count", "31", "--out", str(tmp_path),
        ])
        assert code == 0
        lines = read(tmp_path / "dispersion.csv").strip().splitlines()
        assert lines[0] == "lambda,value,pole_adjacent"
        negatives = []
        for line in lines[1:]:
            lam, val, flag = line.split(",")
            if flag == "0":
                negatives.append((float(lam), float(val) < 0))
        for lam, neg in negatives:
            assert neg == (1.0 < lam < 2.0)

    def test_limit_spectrum_json(self, tmp_path):
        code = main(["limit-spectrum", "--sigma", "1", "--rho", "1", "--L", "10", "--out", str(tmp_path)])
        assert code == 0
        doc = json.loads(read(tmp_path / "limit_spectrum.json"))
        assert doc["gaps"] == [[1.0, 2.0]] or doc["gaps"][0][0] == pytest.approx(1.0)
        assert doc["bands"][0] == [0.0, 1.0]

    def test_cell_eigs(self, tmp_path):
        code = main([
            "cell-eigs", "--intervals", "1,2", "--dim", "3", "--eps", "0.1",
            "--resolution", "128", "--out", str(tmp_path),
        ])
        assert code == 0
        doc = json.loads(read(tmp_path / "cell_eigs.json"))
        assert doc["eigenvalues"][0] == pytest.approx(1.0, rel=0.02)
        assert doc["rayleigh_upper"] >= doc["lambda1_mesh_limit"] - 1e-10

    def test_cell_eigs_n2_small_eps(self, tmp_path):
        # the Rayleigh quadrature spans about 270 decades between the hole
        # and the outer radius here; at resolution 768 the Richardson pair is
        # in its asymptotic range, at 384 it is not and its mesh limit
        # overshoots the Rayleigh bound: the payload is written, exit 1
        for resolution, code_expected in (("768", 0), ("384", 1)):
            out = tmp_path / resolution
            code = main([
                "cell-eigs", "--intervals", "1,2", "--dim", "2", "--eps", "0.1",
                "--resolution", resolution, "--out", str(out),
            ])
            assert code == code_expected, resolution
            doc = json.loads(read(out / "cell_eigs.json"))
            bounded = doc["lambda1_mesh_limit"] <= doc["rayleigh_upper"] + MIN_MAX_SLACK
            assert bounded == (code_expected == 0), resolution

    def test_cell_eigs_unrepresentable_scale_exits_2(self, tmp_path):
        # 0.01: the hole radius underflows; 0.09 and 0.093: the radius is
        # representable but the squared mesh spacing next to the hole is not
        for eps in ("0.01", "0.09", "0.093"):
            out = tmp_path / eps
            code = main([
                "cell-eigs", "--intervals", "1,2", "--dim", "2", "--eps", eps,
                "--resolution", "128", "--out", str(out),
            ])
            assert code == 2, eps
            doc = json.loads(read(out / "cell_eigs_error.json"))
            assert doc["status"] == "error" and "increase eps" in doc["error"]

    def test_convergence_csv(self, tmp_path):
        code = main([
            "convergence", "--intervals", "1,2", "--dim", "3",
            "--eps-list", "0.2,0.1", "--resolution", "128", "--out", str(tmp_path),
        ])
        assert code == 0
        lines = read(tmp_path / "convergence.csv").strip().splitlines()
        assert lines[0].startswith("eps,lambda1,lambda2,rayleigh_upper")
        assert len(lines) == 3

    def test_bands_demo(self, tmp_path):
        cfg_path = tmp_path / "bands.json.cfg"
        cfg_path.write_text(json.dumps({
            "command": "bands",
            "holes": [[0.5, 0.5, 0.1, 0.3]],
            "base_resolution": 32,
            "theta_grid": 2,
            "num_bands": 6,
        }))
        code = main(["bands", "--config", str(cfg_path), "--out", str(tmp_path)])
        assert code == 0
        doc = json.loads(read(tmp_path / "bands.json"))
        assert len(doc["gaps"]) >= 1
        lines = read(tmp_path / "bands.csv").strip().splitlines()
        assert lines[0] == "theta_index,theta_1,theta_2,k,lambda"

    def test_verify_pass_exit_zero(self, tmp_path):
        code = main([
            "verify", "--intervals", "1,2;3,4", "--dim", "3",
            "--delta", "1e-9", "--out", str(tmp_path),
        ])
        assert code == 0
        doc = json.loads(read(tmp_path / "verify.json"))
        assert doc["status"] == "pass"
        names = [c["name"] for c in doc["checks"]]
        assert names == ["design_round_trip", "weight_system", "gap_match"]

    def test_verify_fail_exit_one(self, tmp_path):
        # delta below the root-solver floor: gap_match must fail honestly
        code = main([
            "verify", "--intervals", "1,2;3,4", "--dim", "3",
            "--delta", "1e-15", "--out", str(tmp_path),
        ])
        assert code == 1
        doc = json.loads(read(tmp_path / "verify.json"))
        assert doc["status"] == "fail"

    def test_missing_command_exit_two(self):
        assert main([]) == 2

    def test_bad_intervals_flag_exit_two(self, tmp_path):
        assert main(["design", "--intervals", "1;2", "--out", str(tmp_path)]) == 2

    def test_config_error_in_pipeline_writes_error_json(self, tmp_path, capsys):
        assert main(["design", "--out", str(tmp_path)]) == 2
        doc = json.loads(read(tmp_path / "design_error.json"))
        assert doc["status"] == "error" and "intervals" in doc["error"]
        assert "error: intervals:" in capsys.readouterr().err

    def test_format_option_removed(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["design", "--intervals", "1,2", "--format", "csv", "--out", str(tmp_path)])


BAD_CONFIGS = [
    pytest.param("channel", {"command": "cell-eigs", "intervals": [[1, 2]], "channel": 3},
                 id="channel-too-large"),
    pytest.param("channel", {"command": "cell-eigs", "intervals": [[1, 2]], "channel": -2},
                 id="channel-negative"),
    pytest.param("channel", {"command": "convergence", "intervals": [[1, 2], [3, 4]], "channel": -1},
                 id="channel-negative-m2"),
    pytest.param("resolution", {"command": "cell-eigs", "intervals": [[1, 2]], "resolution": "abc"},
                 id="resolution-string"),
    pytest.param("delta", {"command": "design", "intervals": [[1, 2]], "delta": "x"}, id="delta-string"),
    pytest.param("holes[0]", {"command": "bands", "holes": [[0.5, 0.5]]}, id="hole-short"),
    pytest.param("range", {"command": "dispersion", "sigma": [1.0], "range": [1.0]}, id="range-short"),
    pytest.param("intervals[0]", {"command": "design", "intervals": [1, 2]}, id="intervals-flat"),
    pytest.param("eps_list", {"command": "verify", "intervals": [[1, 2]], "eps_list": [],
                              "with_convergence": True}, id="eps-list-empty"),
    pytest.param("cell_size", {"command": "bands", "cell_size": -1}, id="cell-size-negative"),
    pytest.param("delta", {"command": "verify", "intervals": [[1, 2]], "delta": math.nan}, id="delta-nan"),
    pytest.param("holes[0]", {"command": "bands", "holes": [[0.5, 0.5, math.inf, 0.3]]}, id="hole-inf"),
    pytest.param("intervals[1]", {"command": "design", "intervals": [[1, 2], [3, math.inf]]},
                 id="interval-inf"),
]


@pytest.mark.parametrize("field, config", BAD_CONFIGS)
def test_malformed_config_value_exits_2(tmp_path, capsys, field, config):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config))
    out = tmp_path / "out"
    code = main([config["command"], "--config", str(cfg_path), "--out", str(out)])
    assert code == 2
    assert f"error: {field}:" in capsys.readouterr().err
    doc = json.loads(read(out / f"{config['command'].replace('-', '_')}_error.json"))
    assert doc["status"] == "error"


# non-finite reals given on the command line, and models whose roots leave
# the float range: exit 2 with <command>_error.json, no traceback
BAD_ARGS = [
    pytest.param("range", ["dispersion", "--sigma", "1", "--range", "0,inf"], id="range-inf"),
    pytest.param("kappa", ["design", "--intervals", "1,2", "--kappa", "inf"], id="kappa-inf"),
    pytest.param("sigma", ["dispersion", "--sigma", "nan"], id="sigma-nan"),
    pytest.param("sigma", ["dispersion", "--sigma", "inf"], id="sigma-inf"),
    pytest.param("rho", ["dispersion", "--sigma", "1", "--rho", "nan"], id="rho-nan"),
    pytest.param(None, ["dispersion", "--sigma", "1e300", "--rho", "1e300"], id="sigma-rho-overflow"),
    pytest.param(None, ["dispersion", "--sigma", "1e308", "--rho", "1.5"], id="root-overflow"),
    # the default horizon, 10 mu_m or 10 beta_m, overflows
    pytest.param(None, ["limit-spectrum", "--sigma", "2e299", "--rho", "1e8"], id="horizon-overflow-sigma"),
    pytest.param(None, ["limit-spectrum", "--intervals", "1,2;3,2e307"], id="horizon-overflow-intervals"),
    pytest.param(None, ["verify", "--intervals", "1,2;3,2e307"], id="verify-horizon-overflow"),
]


@pytest.mark.parametrize("field, argv", BAD_ARGS)
def test_unrepresentable_value_exits_2(tmp_path, capsys, field, argv):
    out = tmp_path / "out"
    assert main([*argv, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {field}:" if field else "error: ")
    name = f"{argv[0].replace('-', '_')}_error.json"
    assert sorted(os.listdir(out)) == [name]
    assert json.loads(read(out / name))["status"] == "error"


# models whose poles lie far apart, or whose last root nears the largest float
WIDE_ARGS = [
    pytest.param(["design", "--intervals", "1,2;1e300,2e300"], "design.json", id="design-1e300"),
    pytest.param(["dispersion", "--sigma", "1e300", "--rho", "1e8"], "dispersion.csv", id="bracket-overflow"),
]


@pytest.mark.parametrize("argv, artifact", WIDE_ARGS)
def test_wide_scale_model_exits_0(tmp_path, argv, artifact):
    assert main([*argv, "--out", str(tmp_path)]) == 0
    assert sorted(os.listdir(tmp_path)) == [artifact]
    text = read(tmp_path / artifact)
    assert "Infinity" not in text
    if argv[0] == "design":
        assert json.loads(text)["mu"] == pytest.approx([2.0, 2e300], rel=1e-12)


class TestDeterminism:
    def test_identical_configs_byte_identical_outputs(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        for out in (out1, out2):
            code = main([
                "verify", "--intervals", "1.1,2.3;4.5,6.7", "--dim", "3",
                "--delta", "1e-6", "--out", str(out),
            ])
            assert code == 0
        assert read(out1 / "verify.json") == read(out2 / "verify.json")

    def test_dispersion_byte_identical(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        for out in (out1, out2):
            main(["dispersion", "--sigma", "1.7", "--rho", "0.3", "--range", "0,5",
                  "--count", "101", "--out", str(out)])
        assert read(out1 / "dispersion.csv") == read(out2 / "dispersion.csv")


def test_run_pipeline_direct():
    cfg = RunConfig(command="design", intervals=[[1, 2]], n=3, out=".")
    # no filesystem writes outside out; use a temp dir instead
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        cfg.out = tmp
        report = run_pipeline(cfg)
        assert report.exit_code == 0
        assert os.path.exists(os.path.join(tmp, "design.json"))
