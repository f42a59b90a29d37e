import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from gapforge.cell import MIN_MAX_SLACK
from gapforge.cli import RunConfig, _write, load_config, main, run_pipeline
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
        assert len(lines) == 1 + 31
        # the sample on the pole is flagged, and its value spelled NaN
        assert [line for line in lines[1:] if not line.endswith(",0")] == ["1,NaN,1"]
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
        # n = 2 at 0.01: the hole radius underflows; at 0.09 and 0.093 the
        # radius is representable but the squared mesh spacing next to the
        # hole is not.  n = 3 at 1e-300 and n = 4 at 1e-200: d eps^(n/(n-2))
        # underflows to zero
        for dim, eps in (("2", "0.01"), ("2", "0.09"), ("2", "0.093"), ("3", "1e-300"), ("4", "1e-200")):
            out = tmp_path / f"{dim}-{eps}"
            code = main([
                "cell-eigs", "--intervals", "1,2", "--dim", dim, "--eps", eps,
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
        assert lines[0] == "eps,lambda1,lambda2,rayleigh_upper,eps2_lambda2,sigma_target,Lj_lambda2,resolution"
        assert len(lines) == 3

    def test_convergence_fails_when_the_bound_falls_short(self, tmp_path):
        # n = 2 at resolution 64: the (64, 128) Richardson pair is far from
        # its asymptotic range, and at eps 0.2 the mesh limit lies above the
        # Rayleigh bound, at 0.3 below it.  The table is still written, and
        # cell-eigs on the failing row exits 1 as well
        common = ["--intervals", "1,2", "--dim", "2", "--resolution", "64"]
        assert main(["convergence", *common, "--eps-list", "0.3,0.2", "--out", str(tmp_path)]) == 1
        header, *rows = read(tmp_path / "convergence.csv").strip().splitlines()
        rows = [dict(zip(header.split(","), map(float, row.split(",")))) for row in rows]
        assert [r["lambda1"] <= r["rayleigh_upper"] for r in rows] == [True, False]
        assert main(["cell-eigs", *common, "--eps", "0.2", "--out", str(tmp_path)]) == 1

    @pytest.mark.parametrize("dim", [72, 150])
    def test_convergence_high_dimension(self, tmp_path, dim):
        # a 4096-node disk mesh underflows its masses r^(n-1) from n = 72 up;
        # the disk limit is closed-form
        code = main([
            "convergence", "--intervals", "1,2", "--dim", str(dim),
            "--eps-list", "0.9,0.8", "--resolution", "64", "--out", str(tmp_path),
        ])
        assert code == 0
        assert len(read(tmp_path / "convergence.csv").strip().splitlines()) == 3

    def test_cell_eigs_agrees_with_convergence_row(self, tmp_path):
        # both commands read one radial record per eps
        common = ["--intervals", "1,2", "--dim", "3", "--resolution", "128"]
        assert main(["cell-eigs", *common, "--eps", "0.1", "--out", str(tmp_path)]) == 0
        assert main(["convergence", *common, "--eps-list", "0.2,0.1", "--out", str(tmp_path)]) == 0
        doc = json.loads(read(tmp_path / "cell_eigs.json"))
        header, _, last = read(tmp_path / "convergence.csv").strip().splitlines()
        row = dict(zip(header.split(","), map(float, last.split(","))))
        assert row["eps"] == doc["eps"] == 0.1
        assert doc["lambda1_mesh_limit"] == row["lambda1"]
        assert doc["rayleigh_upper"] == row["rayleigh_upper"]

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
    pytest.param("eps_list", {"command": "convergence", "intervals": [[1, 2]], "eps_list": [0.2, 0.2, 0.1]},
                 id="eps-list-tied"),
    pytest.param("cell_size", {"command": "bands", "cell_size": -1}, id="cell-size-negative"),
    pytest.param("delta", {"command": "verify", "intervals": [[1, 2]], "delta": math.nan}, id="delta-nan"),
    pytest.param("holes[0]", {"command": "bands", "holes": [[0.5, 0.5, math.inf, 0.3]]}, id="hole-inf"),
    pytest.param("intervals[1]", {"command": "design", "intervals": [[1, 2], [3, math.inf]]},
                 id="interval-inf"),
]


# integer fields past their bound: the limit itself passes validation (the
# pipeline is never run here, a theta_grid of 1e20 would not finish)
OVERSIZED = [("count", 10**6), ("resolution", 10**6), ("num_eigs", 10**6), ("num_bands", 10**6),
             ("theta_grid", 1000), ("base_resolution", 1000)]


@pytest.mark.parametrize("field, limit", OVERSIZED)
def test_oversized_integer_names_field(tmp_path, field, limit):
    overrides = {"command": "bands", "out": str(tmp_path)}
    assert getattr(load_config(None, {**overrides, field: limit}), field) == limit
    for value in (limit + 1, 10**20):
        with pytest.raises(ConfigError) as err:
            load_config(None, {**overrides, field: value})
        assert err.value.field == field


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


# non-numeric or non-finite reals or an integer past MAX_COUNT given on the
# command line, and models whose roots leave the float range: exit 2 with
# <command>_error.json, no traceback
BAD_ARGS = [
    pytest.param("intervals[0]", ["design", "--intervals", "1,x"], id="intervals-nonnumeric"),
    pytest.param("sigma", ["dispersion", "--sigma", "1,abc"], id="sigma-nonnumeric"),
    pytest.param("range", ["dispersion", "--sigma", "1", "--range", "0,q"], id="range-nonnumeric"),
    pytest.param("range", ["dispersion", "--sigma", "1", "--range", "0,inf"], id="range-inf"),
    pytest.param("kappa", ["design", "--intervals", "1,2", "--kappa", "inf"], id="kappa-inf"),
    pytest.param("sigma", ["dispersion", "--sigma", "nan"], id="sigma-nan"),
    pytest.param("sigma", ["dispersion", "--sigma", "inf"], id="sigma-inf"),
    pytest.param("rho", ["dispersion", "--sigma", "1", "--rho", "nan"], id="rho-nan"),
    # without sigma the model is designed, with its own rho
    pytest.param("rho", ["dispersion", "--intervals", "1,2", "--rho", "5"], id="rho-without-sigma"),
    pytest.param("count", ["dispersion", "--sigma", "1,2", "--count", "100000000000000000000"], id="count-huge"),
    pytest.param("resolution", ["cell-eigs", "--intervals", "1,2", "--resolution", "100000000000000000000"],
                 id="resolution-huge"),
    pytest.param(None, ["dispersion", "--sigma", "1e300", "--rho", "1e300"], id="sigma-rho-overflow"),
    pytest.param(None, ["dispersion", "--sigma", "1e308", "--rho", "1.5"], id="root-overflow"),
    # the default horizon, 10 mu_m or 10 beta_m, overflows
    pytest.param(None, ["limit-spectrum", "--sigma", "2e299", "--rho", "1e8"], id="horizon-overflow-sigma"),
    pytest.param(None, ["limit-spectrum", "--intervals", "1,2;3,2e307"], id="horizon-overflow-intervals"),
    pytest.param(None, ["verify", "--intervals", "1,2;3,2e307"], id="verify-horizon-overflow"),
    # the unit sphere volumes of dimension 343 and up leave the float range
    pytest.param(None, ["design", "--intervals", "1,2", "--dim", "400"], id="dim-400-design"),
    pytest.param(None, ["limit-spectrum", "--intervals", "1,2", "--dim", "400"], id="dim-400-limit-spectrum"),
    pytest.param(None, ["verify", "--intervals", "1,2", "--dim", "400"], id="dim-400-verify"),
    pytest.param(None, ["cell-eigs", "--intervals", "1,2", "--dim", "400"], id="dim-400-cell-eigs"),
    # the direct model needs a dimension as the designed one does
    pytest.param(None, ["dispersion", "--sigma", "1", "--rho", "1", "--dim", "0"], id="dim-0-dispersion"),
    pytest.param(None, ["limit-spectrum", "--sigma", "1", "--rho", "1", "--dim", "-5"],
                 id="dim-negative-limit-spectrum"),
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


# a config file that does not merge into a config: the error file goes into
# --out, which is created for it
@pytest.mark.parametrize("text", ["{", "[1, 2]"], ids=["invalid-json", "list"])
def test_unreadable_config_writes_error_json(tmp_path, capsys, text):
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text(text)
    out = tmp_path / "out"
    assert main(["design", "--config", str(cfg_path), "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: config: ")
    assert sorted(os.listdir(out)) == ["design_error.json"]
    assert json.loads(read(out / "design_error.json"))["status"] == "error"


def test_unknown_field_error_goes_to_config_out(tmp_path, monkeypatch, capsys):
    # the config's own out is read before its unknown field is rejected
    monkeypatch.chdir(tmp_path)
    (tmp_path / "c.json").write_text(json.dumps(
        {"command": "design", "intervals": [[1, 2]], "out": "want", "bogus": 1}))
    assert main(["design", "--config", "c.json"]) == 2
    assert capsys.readouterr().err.startswith("error: bogus: ")
    assert sorted(os.listdir(tmp_path)) == ["c.json", "want"]
    assert sorted(os.listdir(tmp_path / "want")) == ["design_error.json"]
    assert json.loads(read(tmp_path / "want" / "design_error.json"))["status"] == "error"


# verdicts on number types of a float field, an int field, an element of a
# list of reals and a bool field: a bool is no number, and non-finite reals
# are refused
NUMBER_VERDICTS = [
    pytest.param(1.5, True, False, True, False, id="float"),
    pytest.param(3, True, True, True, False, id="int"),
    pytest.param(np.float64(1.5), True, False, True, False, id="numpy-float64"),
    pytest.param(np.int64(3), True, True, True, False, id="numpy-int64"),
    pytest.param(Fraction(3, 2), True, False, True, False, id="fraction"),
    pytest.param(True, False, False, False, True, id="bool"),
    pytest.param(np.bool_(True), False, False, False, False, id="numpy-bool"),
    pytest.param(math.nan, False, False, False, False, id="nan"),
    pytest.param(math.inf, False, False, False, False, id="inf"),
    pytest.param("3", False, False, False, False, id="string"),
]


@pytest.mark.parametrize("value, real, integer, listed, flag", NUMBER_VERDICTS)
def test_number_type_verdicts(tmp_path, value, real, integer, listed, flag):
    base = {"command": "dispersion", "out": str(tmp_path)}
    for field, accepted in (("kappa", real), ("count", integer), ("sigma", listed), ("with_bands", flag)):
        overrides = {**base, field: [value] if field == "sigma" else value}
        if accepted:
            load_config(None, overrides)
        else:
            with pytest.raises(ConfigError) as err:
                load_config(None, overrides)
            assert err.value.field == field


def test_write_leaves_no_stale_tail(tmp_path):
    path = _write(str(tmp_path), "a.json", "a first text, longer than the second")
    assert _write(str(tmp_path), "a.json", "short") == path
    assert read(path) == "short\n"


def test_write_new_file_mode_follows_umask(tmp_path):
    old = os.umask(0o027)
    try:
        path = _write(str(tmp_path), "new.json", "x")
        with open(tmp_path / "reference.json", "w") as fh:
            fh.write("x\n")
    finally:
        os.umask(old)
    mode = os.stat(path).st_mode & 0o777
    assert mode == os.stat(tmp_path / "reference.json").st_mode & 0o777 == 0o640


# a bubble of radius 1e5 needs about 1e7 rings: refused before it is built,
# and so is one of radius 1e200, whose area leaves the float range
@pytest.mark.parametrize("b, code", [(1e5, 2), (3.0, 0), (1e200, 2)])
def test_bubble_vertex_limit(tmp_path, capsys, b, code):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"command": "bands", "holes": [[0.5, 0.5, 0.1, b]], "base_resolution": 32,
                                    "theta_grid": 2, "num_bands": 2}))
    out = tmp_path / "out"
    assert main(["bands", "--config", str(cfg_path), "--out", str(out)]) == code
    if code == 2:
        assert capsys.readouterr().err.startswith(f"error: hole 0: bubble radius {b} needs")
        assert sorted(os.listdir(out)) == ["bands_error.json"]
        assert json.loads(read(out / "bands_error.json"))["status"] == "error"
    else:
        assert sorted(os.listdir(out)) == ["bands.csv", "bands.json"]


# cells whose masses (about (cell_size / N)^2) or pencil entries (about their
# inverse) leave the float range: exit 2 with an error file, before numpy
# overflows (RuntimeWarning is an error here)
@pytest.mark.parametrize(
    "command, cell",
    [
        ("bands", {"cell_size": 1e160, "holes": [[0.5e160, 0.5e160, 0.2e160, 0.3e160]]}),
        ("bands", {"cell_size": 1e160, "holes": []}),
        ("bands", {"cell_size": 1e-160, "holes": [[0.5e-160, 0.5e-160, 0.2e-160, 0.3e-160]]}),
        ("verify", {"cell_size": 1e160, "holes": [[0.5e160, 0.5e160, 0.2e160, 0.3e160]], "intervals": [[1, 2]],
                    "with_bands": True}),
    ],
    ids=["huge-cell", "huge-cell-no-holes", "tiny-cell", "verify-huge-cell"],
)
def test_unrepresentable_cell_exits_2(tmp_path, capsys, command, cell):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"command": command, "base_resolution": 16, "theta_grid": 2, "num_bands": 2,
                                    **cell}))
    out = tmp_path / "out"
    assert main([command, "--config", str(cfg_path), "--out", str(out)]) == 2
    assert "rescale cell_size" in capsys.readouterr().err
    assert sorted(os.listdir(out)) == [f"{command}_error.json"]
    assert json.loads(read(out / f"{command}_error.json"))["status"] == "error"


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

    def test_bands_bytes_independent_of_blas_threads(self, tmp_path):
        # complex characters at 1508 unknowns take the sparse path, whose
        # last bits move with the OpenBLAS thread count unless the solver
        # pins it
        cfg = tmp_path / "cell.json"
        cfg.write_text(json.dumps({"holes": [[0.5, 0.5, 0.1, 0.3]], "base_resolution": 32,
                                   "theta_grid": 4, "num_bands": 6}))
        src = str(Path(__file__).parent.parent / "src")
        outputs = []
        for threads in ("1", "2"):
            out = tmp_path / f"threads{threads}"
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                       PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
            proc = subprocess.run([sys.executable, "-m", "gapforge.cli", "bands", "--config", str(cfg),
                                   "--out", str(out)], env=env, capture_output=True, text=True, timeout=300)
            assert proc.returncode == 0, proc.stderr
            outputs.append({name: (out / name).read_bytes() for name in ("bands.csv", "bands.json")})
        assert outputs[0] == outputs[1]


def test_run_pipeline_direct():
    cfg = RunConfig(command="design", intervals=[[1, 2]], n=3, out=".")
    # no filesystem writes outside out; use a temp dir instead
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        cfg.out = tmp
        report = run_pipeline(cfg)
        assert report.exit_code == 0
        assert os.path.exists(os.path.join(tmp, "design.json"))
