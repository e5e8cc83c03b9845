"""End-to-end tests of the command-line interface and config handling."""

from __future__ import annotations

import json
import math

import pytest

from piv.cli import (
    EXIT_CONFIG,
    EXIT_DEGENERATE,
    EXIT_IO,
    EXIT_OK,
    case_study_config,
    config_to_json_object,
    load_config,
    main,
    parse_config,
    render_json,
    replicate_report,
)
from piv import cli
from piv.core import FixedThreshold, InputValidationError, SignMismatchError, StatisticalThreshold


def base_config_object() -> dict:
    return {
        "observed": {
            "r_squared": 0.36,
            "n_ob": 7639,
            "y_t_ob": 36.77,
            "y_c_ob": 45.78,
            "var_t": 143.26,
            "var_c": 138.83,
            "pi": 0.0617,
        },
        "sign": "negative",
        "threshold": {"kind": "statistical", "critical": 1.96},
        "beliefs": [
            {"name": "corner", "point": {"y_t_un": 45.78, "y_c_un": 45.2}},
            {"name": "null-point", "point": {"y_t_un": 45.78, "y_c_un": 36.77}},
            {"name": "belief-2", "region": {"t": [None, 45.2], "c": [36.77, 45.78]}},
            {"name": "box", "region": {"t": [36.77, 45.78], "c": [36.77, 45.78]}},
        ],
        "piv_threshold": 0.8,
    }


def write_config(tmp_path, obj) -> str:
    path = tmp_path / "config.json"
    path.write_text(json.dumps(obj), encoding="utf-8")
    return str(path)


class TestConfigParsing:
    def test_valid_config(self, tmp_path):
        config = load_config(write_config(tmp_path, base_config_object()))
        assert config.observed.n_ob == 7639
        assert isinstance(config.threshold, StatisticalThreshold)
        assert config.belief("corner").point is not None
        assert config.belief("belief-2").region is not None

    def test_unknown_keys_rejected(self):
        obj = base_config_object()
        obj["extra"] = 1
        with pytest.raises(InputValidationError, match="unknown keys"):
            parse_config(obj)
        obj = base_config_object()
        obj["observed"]["bogus"] = 1
        with pytest.raises(InputValidationError, match="observed"):
            parse_config(obj)

    def test_field_level_message(self):
        obj = base_config_object()
        obj["observed"]["pi"] = 1.5
        with pytest.raises(InputValidationError, match="pi"):
            parse_config(obj)

    def test_belief_needs_exactly_one_shape(self):
        obj = base_config_object()
        obj["beliefs"][0] = {"name": "bad"}
        with pytest.raises(InputValidationError, match="point.*region|region.*point"):
            parse_config(obj)
        obj["beliefs"][0] = {
            "name": "bad",
            "point": {"y_t_un": 0, "y_c_un": 0},
            "region": {"t": [0, 1], "c": [0, 1]},
        }
        with pytest.raises(InputValidationError):
            parse_config(obj)

    def test_duplicate_names_rejected(self):
        obj = base_config_object()
        obj["beliefs"].append({"name": "corner", "point": {"y_t_un": 0, "y_c_un": 0}})
        with pytest.raises(InputValidationError, match="duplicate"):
            parse_config(obj)

    def test_empty_region_rejected(self):
        obj = base_config_object()
        obj["beliefs"][2]["region"]["t"] = [45.3, 45.2]
        with pytest.raises(InputValidationError):
            parse_config(obj)

    def test_fixed_threshold_sign_checked(self):
        obj = base_config_object()
        obj["threshold"] = {"kind": "fixed", "beta_sharp": 0.1}
        with pytest.raises(InputValidationError, match="threshold"):
            parse_config(obj)
        obj["threshold"]["beta_sharp"] = -0.1
        assert isinstance(parse_config(obj).threshold, FixedThreshold)

    def test_round_trip(self):
        config = parse_config(base_config_object())
        assert parse_config(config_to_json_object(config)) == config
        case = case_study_config()
        assert parse_config(config_to_json_object(case)) == case

    def test_round_trip_through_rendered_json(self):
        case = case_study_config()
        text = render_json(config_to_json_object(case))
        assert parse_config(json.loads(text)) == case


class TestRenderJson:
    def test_float_precision_round_trips(self):
        values = [0.1, 1.0 / 3.0, 45.224083, 6.472271608752044e-3]
        text = render_json(values)
        assert json.loads(text) == values

    def test_17_significant_digits(self):
        assert render_json(1.0 / 3.0) == "0.33333333333333331"

    def test_non_finite_rejected(self):
        for value in (math.inf, [0.5, math.nan], [[0.25, -math.inf]]):
            with pytest.raises(InputValidationError, match="non-finite"):
                render_json(value)


class TestComputeCommand:
    def test_case_study_corner(self, tmp_path, capsys):
        path = write_config(tmp_path, base_config_object())
        code = main(["compute", "--config", path, "--belief", "corner", "--format", "json"])
        assert code == EXIT_OK
        out = json.loads(capsys.readouterr().out)
        assert out["piv"] == pytest.approx(0.92, abs=5e-3)
        assert set(out) == {"piv", "probit_piv", "t_ratio", "threshold_value"}

    def test_text_output_six_decimals(self, tmp_path, capsys):
        path = write_config(tmp_path, base_config_object())
        assert main(["compute", "--config", path, "--belief", "corner"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "piv        0.918433" in out

    def test_null_consistent_point(self, tmp_path, capsys):
        # swapping the observed means gives a zero completed-sample effect
        obj = base_config_object()
        obj["beliefs"][0]["point"] = {"y_t_un": 45.78, "y_c_un": 36.77}
        path = write_config(tmp_path, obj)
        assert main(["compute", "--config", path, "--belief", "corner", "--format", "json"]) == EXIT_OK
        out = json.loads(capsys.readouterr().out)
        assert out["piv"] == pytest.approx(0.025, abs=1e-4)

    def test_malformed_config_exits_2(self, tmp_path, capsys):
        obj = base_config_object()
        obj["observed"]["pi"] = 1.5
        path = write_config(tmp_path, obj)
        assert main(["compute", "--config", path, "--belief", "corner"]) == EXIT_CONFIG
        assert "pi" in capsys.readouterr().err

    def test_fixed_sign_mismatch_exits_2(self, tmp_path, capsys):
        obj = base_config_object()
        obj["threshold"] = {"kind": "fixed", "beta_sharp": 0.1}
        path = write_config(tmp_path, obj)
        assert main(["compute", "--config", path, "--belief", "corner"]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error: threshold: ")
        assert "Traceback" not in err

    def test_any_package_error_maps_to_exit_code(self, tmp_path, capsys, monkeypatch):
        def mismatch(*args):
            raise SignMismatchError("fixed threshold on the wrong side")

        monkeypatch.setattr(cli, "piv", mismatch)
        path = write_config(tmp_path, base_config_object())
        assert main(["compute", "--config", path, "--belief", "corner"]) == EXIT_CONFIG
        assert capsys.readouterr().err == "config error: fixed threshold on the wrong side\n"

    def test_missing_config_exits_2(self, tmp_path):
        assert main(["compute", "--config", str(tmp_path / "nope.json"),
                     "--belief", "corner"]) == EXIT_CONFIG

    def test_region_belief_rejected(self, tmp_path):
        path = write_config(tmp_path, base_config_object())
        assert main(["compute", "--config", path, "--belief", "belief-2"]) == EXIT_CONFIG

    def test_degenerate_exits_3(self, tmp_path):
        obj = base_config_object()
        obj["observed"].update({"var_t": 0.0, "var_c": 0.0, "y_t_ob": 5.0, "y_c_ob": 5.0})
        obj["beliefs"][0]["point"] = {"y_t_un": 5.0, "y_c_un": 5.0}
        path = write_config(tmp_path, obj)
        assert main(["compute", "--config", path, "--belief", "corner"]) == EXIT_DEGENERATE

    def test_dump_config_round_trip(self, tmp_path, capsys):
        path = write_config(tmp_path, base_config_object())
        assert main(["compute", "--config", path, "--dump-config"]) == EXIT_OK
        dumped = json.loads(capsys.readouterr().out)
        assert parse_config(dumped) == load_config(path)


class TestBoundCommand:
    def test_belief_2_bound_and_verdict(self, tmp_path, capsys):
        path = write_config(tmp_path, base_config_object())
        code = main(["bound", "--config", path, "--belief", "belief-2", "--format", "json"])
        assert code == EXIT_OK
        out = json.loads(capsys.readouterr().out)
        assert out["piv_min"] == pytest.approx(0.936, abs=5e-3)
        assert out["verdict"] == "robust"
        assert out["argmin"] == {"y_t_un": 45.2, "y_c_un": 36.77}
        assert set(out["asymptotic_piv"]) == {"t_lo"}
        assert set(out) == {"piv_min", "argmin", "piv_max", "argmax", "asymptotic_piv",
                            "piv_threshold", "verdict"}

    def test_limit_reported_as_limit(self, tmp_path, capsys):
        obj = base_config_object()
        obj["beliefs"].append({"name": "open", "region": {"t": [None, None], "c": [None, None]}})
        path = write_config(tmp_path, obj)
        assert main(["bound", "--config", path, "--belief", "open", "--format", "json"]) == EXIT_OK
        out = json.loads(capsys.readouterr().out)
        assert out["argmin"] is None and out["argmax"] is not None
        assert set(out["asymptotic_piv"]) == {"t_lo", "t_hi", "c_lo", "c_hi"}
        assert main(["bound", "--config", path, "--belief", "open"]) == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == f"piv_min   {out['piv_min']:.6f}  approached at infinity"
        assert lines[1].startswith(f"piv_max   {out['piv_max']:.6f}  at y_t_un=")
        assert [line.split()[0] for line in lines[2:6]] == [
            "asymptotic[t_lo]", "asymptotic[t_hi]", "asymptotic[c_lo]", "asymptotic[c_hi]"]
        assert lines[6].startswith("verdict   ") and len(lines) == 7

    def test_point_belief_rejected(self, tmp_path):
        path = write_config(tmp_path, base_config_object())
        assert main(["bound", "--config", path, "--belief", "corner"]) == EXIT_CONFIG

    def test_unknown_belief_rejected(self, tmp_path):
        path = write_config(tmp_path, base_config_object())
        assert main(["bound", "--config", path, "--belief", "missing"]) == EXIT_CONFIG


class TestContourCommand:
    def test_csv_contract(self, tmp_path, capsys):
        path = write_config(tmp_path, base_config_object())
        out_path = tmp_path / "grid.csv"
        code = main(["contour", "--config", path, "--belief", "box",
                     "--out", str(out_path), "--grid", "200x200"])
        assert code == EXIT_OK
        lines = out_path.read_text(encoding="utf-8").strip().split("\n")
        assert len(lines) == 201
        assert all(len(line.split(",")) == 201 for line in lines)

    def test_small_grid_matches_compute(self, tmp_path, capsys):
        obj = base_config_object()
        obj["beliefs"].append(
            {"name": "cell", "point": {"y_t_un": 36.77, "y_c_un": 36.77}}
        )
        path = write_config(tmp_path, obj)
        out_path = tmp_path / "grid.json"
        assert main(["contour", "--config", path, "--belief", "box", "--out",
                     str(out_path), "--grid", "2x2", "--format", "json"]) == EXIT_OK
        capsys.readouterr()
        grid = json.loads(out_path.read_text(encoding="utf-8"))
        assert main(["compute", "--config", path, "--belief", "cell",
                     "--format", "json"]) == EXIT_OK
        point = json.loads(capsys.readouterr().out)
        assert grid["piv"][0][0] == point["piv"]
        assert grid["t_values"] == [36.77, 45.78]

    def test_grid_min_consistent_with_bound(self, tmp_path, capsys):
        path = write_config(tmp_path, base_config_object())
        out_path = tmp_path / "grid.csv"
        assert main(["contour", "--config", path, "--belief", "box",
                     "--out", str(out_path), "--grid", "200x200"]) == EXIT_OK
        summary = capsys.readouterr().out
        grid_min = float(next(line.split()[1] for line in summary.splitlines()
                              if line.startswith("piv_min")))
        assert main(["bound", "--config", path, "--belief", "box",
                     "--format", "json"]) == EXIT_OK
        bound = json.loads(capsys.readouterr().out)
        assert abs(grid_min - bound["piv_min"]) <= 1e-3

    def test_unwritable_out_exits_4(self, tmp_path):
        path = write_config(tmp_path, base_config_object())
        assert main(["contour", "--config", path, "--belief", "box",
                     "--out", str(tmp_path / "no_dir" / "grid.csv")]) == EXIT_IO

    def test_infinite_region_rejected(self, tmp_path):
        path = write_config(tmp_path, base_config_object())
        assert main(["contour", "--config", path, "--belief", "belief-2",
                     "--out", str(tmp_path / "grid.csv")]) == EXIT_CONFIG

    def test_missing_out_exits_2_before_grid(self, tmp_path, capsys, monkeypatch):
        def no_grid(*args):
            raise AssertionError("grid evaluated before --out was checked")

        monkeypatch.setattr(cli, "evaluate_grid", no_grid)
        path = write_config(tmp_path, base_config_object())
        assert main(["contour", "--config", path, "--belief", "box"]) == EXIT_CONFIG
        assert capsys.readouterr().err == "config error: --out is required\n"


class TestPowerCommand:
    def test_power_equals_compute_piv(self, tmp_path, capsys):
        path = write_config(tmp_path, base_config_object())
        assert main(["power", "--config", path, "--belief", "corner",
                     "--format", "json"]) == EXIT_OK
        power_out = json.loads(capsys.readouterr().out)
        assert main(["compute", "--config", path, "--belief", "corner",
                     "--format", "json"]) == EXIT_OK
        compute_out = json.loads(capsys.readouterr().out)
        assert power_out["power"] == compute_out["piv"]
        assert set(power_out) == {
            "effect", "se", "null_mean", "alt_mean", "critical_z",
            "threshold_value", "power",
        }
        assert power_out["null_mean"] == 0.0
        assert power_out["critical_z"] == pytest.approx(-1.96, abs=1e-12)

    def test_power_rises_as_treated_counterfactual_falls(self, tmp_path, capsys):
        powers = []
        for y_t_un in (45.78, 45.0, 44.0):
            obj = base_config_object()
            obj["beliefs"][0]["point"] = {"y_t_un": y_t_un, "y_c_un": 45.2}
            path = write_config(tmp_path, obj)
            assert main(["power", "--config", path, "--belief", "corner",
                         "--format", "json"]) == EXIT_OK
            powers.append(json.loads(capsys.readouterr().out)["power"])
        assert powers[0] < powers[1] < powers[2]

    def test_null_consistent_power_is_test_size(self, tmp_path, capsys):
        obj = base_config_object()
        obj["beliefs"][0]["point"] = {"y_t_un": 45.78, "y_c_un": 36.77}
        path = write_config(tmp_path, obj)
        assert main(["power", "--config", path, "--belief", "corner",
                     "--format", "json"]) == EXIT_OK
        out = json.loads(capsys.readouterr().out)
        assert out["power"] == pytest.approx(0.025, abs=1e-4)


class TestReplicateCommand:
    def test_report_values(self):
        lines, data = replicate_report()
        text = "\n".join(lines)
        assert data["bounds"]["belief-1"].piv_min == pytest.approx(0.92, abs=5e-3)
        assert data["bounds"]["belief-2"].piv_min == pytest.approx(0.936, abs=5e-3)
        assert data["bounds"]["belief-1-relaxed"].piv_min == pytest.approx(0.82, abs=5e-3)
        assert data["bounds"]["retained-effect-minus-7"].piv_min == pytest.approx(0.795, abs=5e-3)
        assert data["verdicts"]["belief-1"].value == "robust"
        assert data["verdicts"]["belief-2"].value == "robust"
        assert "154.51" in text and "109.25" in text

    def test_command_writes_grid(self, tmp_path, capsys):
        out_path = tmp_path / "contour.csv"
        code = main(["replicate", "--out", str(out_path), "--grid", "40x40"])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "0.918433" in out
        assert "robust" in out
        lines = out_path.read_text(encoding="utf-8").strip().split("\n")
        assert len(lines) == 41

    def test_dump_config(self, capsys):
        assert main(["replicate", "--dump-config"]) == EXIT_OK
        dumped = json.loads(capsys.readouterr().out)
        assert parse_config(dumped) == case_study_config()


class TestVerifyCommand:
    def test_small_run_passes(self, capsys):
        code = main(["verify", "--seeds", "5", "--reps", "1000"])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "[PASS]" in out and "[FAIL]" not in out
        assert "expected failure" in out

    def test_negative_seed_exits_2(self, capsys):
        assert main(["verify", "--seeds", "1", "--reps", "1000", "--seed", "-1"]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error: seed must be a nonnegative integer")
        assert "Traceback" not in err


def _degenerate(obj: dict) -> None:
    obj["observed"].update({"var_t": 0.0, "var_c": 0.0, "y_t_ob": 5.0, "y_c_ob": 5.0})


_MALFORMED_BELIEFS = [
    {"name": "huge", "point": {"y_t_un": 1e200, "y_c_un": 0.0}},
    {"name": "far", "region": {"t": [1e200, 2e200], "c": [36.77, 45.78]}},
    {"name": "flat", "point": {"y_t_un": 5.0, "y_c_un": 5.0}},
    {"name": "flat-point-region", "region": {"t": [5.0, 5.0], "c": [5.0, 5.0]}},
    {"name": "flat-box", "region": {"t": [4.0, 6.0], "c": [4.0, 6.0]}},
]
_CONFIG_ERROR = (EXIT_CONFIG, "config error: ")
_DEGENERATE = (EXIT_DEGENERATE, "degenerate inputs: ")

# (config edit, argv after the command's --config, expected exit code, stderr prefix)
MALFORMED_INPUTS = {
    "compute-huge-belief": (None, ["compute", "--belief", "huge"], *_CONFIG_ERROR),
    "power-huge-belief": (None, ["power", "--belief", "huge"], *_CONFIG_ERROR),
    "bound-huge-region": (None, ["bound", "--belief", "far"], *_CONFIG_ERROR),
    "contour-huge-region": (None, ["contour", "--belief", "far", "--out", "{out}"], *_CONFIG_ERROR),
    "contour-grid-1x5": (None, ["contour", "--belief", "box", "--grid", "1x5", "--out", "{out}"],
                         *_CONFIG_ERROR),
    "contour-grid-axb": (None, ["contour", "--belief", "box", "--grid", "axb", "--out", "{out}"],
                         *_CONFIG_ERROR),
    "contour-infinite-region": (None, ["contour", "--belief", "belief-2", "--out", "{out}"],
                                *_CONFIG_ERROR),
    "compute-degenerate": (_degenerate, ["compute", "--belief", "flat"], *_DEGENERATE),
    "power-degenerate": (_degenerate, ["power", "--belief", "flat"], *_DEGENERATE),
    "bound-degenerate": (_degenerate, ["bound", "--belief", "flat-point-region"], *_DEGENERATE),
    "contour-degenerate": (_degenerate, ["contour", "--belief", "flat-box", "--grid", "3x3",
                                         "--out", "{out}"], *_DEGENERATE),
    "contour-unwritable-out": (None, ["contour", "--belief", "box",
                                      "--out", "{tmp}/no_dir/grid.csv"], EXIT_IO, "cannot write "),
    "verify-negative-seed": (None, ["verify", "--seeds", "1", "--reps", "1000", "--seed", "-1"],
                             *_CONFIG_ERROR),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_INPUTS))
def test_malformed_input_exit_code(case, tmp_path, capsys):
    edit, argv, code, prefix = MALFORMED_INPUTS[case]
    obj = base_config_object()
    obj["beliefs"] += _MALFORMED_BELIEFS
    if edit is not None:
        edit(obj)
    path = write_config(tmp_path, obj)
    argv = [arg.format(out=tmp_path / "grid.csv", tmp=tmp_path) for arg in argv]
    if argv[0] != "verify":
        argv[1:1] = ["--config", path]
    assert main(argv) == code
    err = capsys.readouterr().err
    assert err.startswith(prefix)
    assert "Traceback" not in err
