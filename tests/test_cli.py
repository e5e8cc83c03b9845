"""End-to-end tests of the command-line interface and config handling."""

from __future__ import annotations

import ast
import errno
import functools
import hashlib
import json
import math
import os
import random
import subprocess
import sys
import threading
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import piv
from piv.bounds import ContourGrid, evaluate_grid
from piv.cli import (
    EXIT_CONFIG,
    EXIT_DEGENERATE,
    EXIT_IO,
    EXIT_OK,
    EXIT_VERIFY,
    case_study_config,
    config_to_json_object,
    load_config,
    main,
    parse_config,
    render_json,
)
from piv import _grid_text, bounds, cli
from piv.report import replicate_report
from piv.core import (
    CounterfactualBelief,
    DegenerateSpreadError,
    FixedThreshold,
    InputValidationError,
    SignMismatchError,
    StatisticalThreshold,
    ideal_correlation,
    piv_from_correlation,
    std_normal_cdf,
)

from helpers import cellwise_csv, random_observed_stats


# sha256 of the contour CSV that `piv replicate` writes by default, of its
# report lines joined with newlines, and of what `piv replicate --out contour.csv` prints
REPLICATE_CONTOUR_SHA256 = "1ad2c71cd78ea103e5bea94a13be92586b47a749fa5d4390449e09869cbde26b"
REPLICATE_REPORT_SHA256 = "51087f225e3c98ca4b3b442b9e2e4274b90845c7347082f9116edfbfa84f6885"
REPLICATE_STDOUT_SHA256 = "5e1320fd48c691c1ef1c4798fd2d3ad5f87390a19b94fda3a499a9709f483bbc"
# sha256 of large case-study plausible-region exports, pinned byte for byte
CONTOUR_EXPORT_SHA256 = {
    ("1000x250", "csv"): "6e612283eeb5d717c39bbe719f83f80595628fe29fa758d53b2d101607208ebf",
    ("250x1000", "json"): "28ee940373cea538495a84265224ebb13409e3d199d55cb42f257280d51bea23",
}
# what `piv bound` prints for the case study's belief-1-relaxed
BOUND_OUTPUT = {
    "json": (
        '{\n'
        '  "piv_min": 0.82028272770608257,\n'
        '  "argmin": {\n'
        '    "y_t_un": 45.780000000000001,\n'
        '    "y_c_un": 44\n'
        '  },\n'
        '  "piv_max": 1,\n'
        '  "argmax": {\n'
        '    "y_t_un": 45.780000000000001,\n'
        '    "y_c_un": 595.58917385563609\n'
        '  },\n'
        '  "asymptotic_piv": {\n'
        '    "t_lo": 1,\n'
        '    "c_hi": 1\n'
        '  },\n'
        '  "piv_threshold": 0.80000000000000004,\n'
        '  "verdict": "robust"\n'
        '}\n'
    ),
    "text": (
        "piv_min   0.820283  at y_t_un=45.780000 y_c_un=44.000000\n"
        "piv_max   1.000000  at y_t_un=45.780000 y_c_un=595.589174\n"
        "asymptotic[t_lo] 1.000000\n"
        "asymptotic[c_hi] 1.000000\n"
        "verdict   robust (piv_threshold 0.800000)\n"
    ),
}
# what `piv power --format text` prints for the case study's belief-1-corner
POWER_TEXT = (
    "effect          -0.021712\n"
    "se              0.006472\n"
    "null_mean       0.000000\n"
    "alt_mean        -3.354610\n"
    "critical_z      -1.960000\n"
    "threshold_value -0.012686\n"
    "power           0.918433\n"
)
# a belief over the case study's tipping band, where 83% of a grid's cells lie
# in (0, 1) and few rows repeat, and the size and sha256 of its 300x300 exports
TIPPING_BAND = {"name": "tipping-band", "region": {"t": [44.0, 48.0], "c": [44.0, 47.0]}}
TIPPING_BAND_SHA256 = {
    "csv": (820_885, "a379672e84934e9cbcf8bb3e8995455e95c4a53dd3b5ad5bcfeda9c19ff9c083"),
    "json": (2_278_712, "eee9b433e39a759e831062f03e8e45a354fdf5c5eecbffa6357d7f88aab833bc"),
}
# the tipping band under a fixed threshold, and mirrored for a positive estimate
# (observed means negated, the band negated with them): the size and sha256 of
# their 300x300 JSON exports, where 88% and 83% of cells lie in (0, 1)
FIXED_BAND = {"name": "tipping-band", "region": {"t": [44.0, 48.0], "c": [44.0, 47.0]}}
POSITIVE_BAND = {"name": "tipping-band", "region": {"t": [-48.0, -44.0], "c": [-47.0, -44.0]}}
MORE_BAND_SHA256 = {
    "fixed": (2_366_437, "320352d949833e86e5dafe3d49627e5adbdc5803a6185f2a961fd873eb91e713"),
    "positive": (2_279_305, "b711313c33ffad1d8bc445856c7f897df7344b6af496d30526a50653d350f18c"),
}


# regions far from the case study's tipping band, where every row is filled
# without the kernel (PIV 1.0 in the first, 0.0 in the second): the belief, and
# the size and sha256 of its 300x300 export in one format
SATURATED_EXPORT = {
    "csv": ({"name": "far", "region": {"t": [10.0, 30.0], "c": [40.0, 60.0]}},
            821_031, "bca485996481006ce2c69d571e1cb091f522fad17f07fc3c86d932bb5920b239"),
    "json": ({"name": "far", "region": {"t": [60.0, 80.0], "c": [20.0, 40.0]}},
             827_929, "ae8ec526b7d0200e88740bdea83f1205b58afc5b159746cdc64a0ca6de6ef493"),
}


def band_config_object(variant: str) -> dict:
    """The case study's dumped config with a tipping band under a fixed
    threshold of -0.02, or mirrored for a positive estimate."""
    obj = config_to_json_object(case_study_config())
    if variant == "fixed":
        obj["threshold"] = {"kind": "fixed", "beta_sharp": -0.02}
        obj["beliefs"].append(FIXED_BAND)
    else:
        obj["sign"] = "positive"
        obj["observed"]["y_t_ob"] = -obj["observed"]["y_t_ob"]
        obj["observed"]["y_c_ob"] = -obj["observed"]["y_c_ob"]
        obj["beliefs"].append(POSITIVE_BAND)
    return obj

# the environment of a child process that imports the piv this suite imports,
# the checkout's src or an installed copy
_SRC_ENV = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))

# Runs the code in argv[2], then each argv in argv[1] through main() in one
# fresh process, and prints, for each argv: its exit code, stdout and stderr,
# whether each _grid_text._row_cells call gave the cells (the row path) or
# None, and whether numpy is loaded after it; then len(calls) where the setup
# code defines calls.  The process has not loaded numpy, so grids under the
# cut take the row path.
_COLD_MAIN = """
import contextlib, io, json, sys
import piv._grid_text, piv.cli
exec(sys.argv[2])
took, row_cells = [], piv._grid_text._row_cells
def traced(*args):
    cells = row_cells(*args)
    took.append(cells is not None)
    return cells
piv._grid_text._row_cells = traced
steps = []
for argv in json.loads(sys.argv[1]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = piv.cli.main(argv)
    steps.append([code, out.getvalue(), err.getvalue(), took[:], "numpy" in sys.modules])
    took.clear()
print(json.dumps([steps, len(globals().get("calls", ()))]))
"""


def _cold_main(argvs: list[list[str]], setup: str = "") -> tuple[list[list], int]:
    proc = subprocess.run([sys.executable, "-c", _COLD_MAIN, json.dumps(argvs), setup],
                          env=_SRC_ENV, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    steps, calls = json.loads(proc.stdout)
    return steps, calls


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

    def test_many_beliefs_parse_in_linear_time(self):
        # the duplicate-name check looks each name up in a set; a scan of every
        # earlier belief would make about 2*10**8 comparisons here
        obj = base_config_object()
        obj["beliefs"] = [{"name": f"b{i}", "point": {"y_t_un": 40.0, "y_c_un": 45.0}}
                          for i in range(20_000)]
        start = time.perf_counter()
        config = parse_config(obj)
        assert time.perf_counter() - start < 2.0
        assert [belief.name for belief in config.beliefs] == [f"b{i}" for i in range(20_000)]

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

    def test_bool_and_empty_list(self):
        # bool is an int subclass, so its branch must come first
        assert render_json(True) == "true" and render_json(False) == "false"
        assert render_json([]) == "[]"
        assert render_json({"a": []}) == '{\n  "a": []\n}'

    def test_unsupported_type_rejected(self):
        for value in ({1, 2}, [b"bytes"], {"k": object()}):
            with pytest.raises(InputValidationError, match="cannot serialize (set|bytes|object)$"):
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

    def test_integer_past_digit_limit_exits_2(self, tmp_path, capsys):
        # json.loads raises a plain ValueError for an integer literal over 4300 digits
        path = tmp_path / "config.json"
        path.write_text('{"observed": ' + "9" * 5000 + "}", encoding="utf-8")
        assert main(["compute", "--config", str(path), "--belief", "corner"]) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("config error: ")

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

    @pytest.mark.parametrize("fmt", ["json", "text"])
    def test_case_study_output_pinned(self, fmt, tmp_path, capsys):
        # the JSON keys are BoundResult's fields in order, then piv_threshold and verdict
        path = write_config(tmp_path, config_to_json_object(case_study_config()))
        assert main(["bound", "--config", path, "--belief", "belief-1-relaxed",
                     "--format", fmt]) == EXIT_OK
        assert capsys.readouterr().out == BOUND_OUTPUT[fmt]

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

    def test_grid_min_and_max_taken_once(self, tmp_path, capsys, monkeypatch):
        # the finiteness check and the summary share one pass each for min and max;
        # 201x200 is the first grid past the cut, so it is a ContourGrid
        calls = []
        for name in ("min", "max"):
            method = getattr(ContourGrid, name)
            monkeypatch.setattr(ContourGrid, name, lambda grid, name=name, method=method:
                                calls.append(name) or method(grid))
        path = write_config(tmp_path, base_config_object())
        assert main(["contour", "--config", path, "--belief", "box",
                     "--out", str(tmp_path / "grid.csv"), "--grid", "201x200"]) == EXIT_OK
        assert calls == ["min", "max"]
        lines = capsys.readouterr().out.splitlines()
        assert [line.split()[0] for line in lines[1:]] == ["piv_min", "piv_max"]

    def test_unwritable_out_exits_4(self, tmp_path):
        path = write_config(tmp_path, base_config_object())
        assert main(["contour", "--config", path, "--belief", "box",
                     "--out", str(tmp_path / "no_dir" / "grid.csv")]) == EXIT_IO

    def test_infinite_region_rejected(self, tmp_path):
        path = write_config(tmp_path, base_config_object())
        assert main(["contour", "--config", path, "--belief", "belief-2",
                     "--out", str(tmp_path / "grid.csv")]) == EXIT_CONFIG

    def test_full_device_exits_4_without_traceback(self, tmp_path):
        # the grid streams out row by row, so the write can fail on any row
        if not os.path.exists("/dev/full"):
            pytest.skip("no /dev/full on this system")
        path = write_config(tmp_path, base_config_object())
        for fmt in ("csv", "json"):
            proc = subprocess.run(
                [sys.executable, "-m", "piv.cli", "contour", "--config", path, "--belief", "box",
                 "--grid", "200x200", "--format", fmt, "--out", "/dev/full"],
                env=_SRC_ENV, capture_output=True, text=True, timeout=120)
            assert proc.returncode == EXIT_IO
            assert "cannot write /dev/full" in proc.stderr
            assert "Traceback" not in proc.stderr

    def test_json_export_peak_memory_below_file_size(self, tmp_path):
        # streamed, an export holds the grid array plus one row, not the payload
        path = write_config(tmp_path, config_to_json_object(case_study_config()))
        out_path = tmp_path / "grid.json"
        argv = ["contour", "--config", path, "--belief", "plausible-region",
                "--grid", "300x300", "--format", "json", "--out", str(out_path)]
        assert main(argv) == EXIT_OK  # warm-up: imports and caches stay out of the peak
        tracemalloc.start()
        try:
            assert main(argv) == EXIT_OK
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        size = out_path.stat().st_size
        assert size > 1_000_000
        assert peak < size

    def test_csv_export_peak_memory_below_file_size(self, tmp_path):
        # a CSV cell is 9 bytes against the grid array's 8, so the blocks the grid
        # is evaluated and written in must stay small beside the grid: evaluation
        # takes 1/64 of it a block, updates its temporaries in place and builds
        # the axis tuples after the last block; the writer takes 1/128
        path = write_config(tmp_path, config_to_json_object(case_study_config()))
        out_path = tmp_path / "grid.csv"
        argv = ["contour", "--config", path, "--belief", "plausible-region",
                "--grid", "300x300", "--format", "csv", "--out", str(out_path)]
        assert main(argv) == EXIT_OK  # warm-up: imports and caches stay out of the peak
        tracemalloc.start()
        try:
            assert main(argv) == EXIT_OK
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        size = out_path.stat().st_size
        assert size > 800_000
        assert peak < size

    @pytest.mark.parametrize("copies", [1, 100])
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_rows_reused_only_for_equal_bytes(self, fmt, copies):
        # repeated rows, distinct rows between them, and -0.0 next to 0.0: a row
        # reuses the previous row's text only where their bytes are equal.  At
        # 100 copies a row is 300 cells, so its block goes through the numpy pass
        a, b = [0.25, 1.0, 0.0], [0.25, 1.0, 5e-324]
        rows = [a, a, a, b, a, b, b, [0.0] * 3, [-0.0] * 3, [-0.0] * 3, [0.0] * 3,
                [1.0, -0.0, 0.0], [1.0, 0.0, -0.0], [1.0] * 3, [1.0] * 3]
        cells = np.tile(np.array(rows), (1, copies))
        grid = ContourGrid(tuple(map(float, range(len(rows)))),
                           tuple(0.5 + i for i in range(3 * copies)), cells)
        if fmt == "csv":
            text = b"".join(_grid_text.csv_chunks(grid)).decode("ascii")
            assert text == cellwise_csv(grid.t_values, grid.c_values, cells.tolist())
        else:
            text = b"".join(_grid_text.json_chunks(grid)).decode("ascii")
            assert text == render_json(grid.to_json_object()) + "\n"
        assert text.count("-0") == 8 * copies

    @pytest.mark.parametrize("grid, fmt", list(CONTOUR_EXPORT_SHA256))
    def test_large_export_pinned(self, grid, fmt, tmp_path):
        path = write_config(tmp_path, config_to_json_object(case_study_config()))
        out_path = tmp_path / f"grid.{fmt}"
        argv = ["contour", "--config", path, "--belief", "plausible-region",
                "--grid", grid, "--format", fmt, "--out", str(out_path)]
        assert main(argv) == EXIT_OK
        assert hashlib.sha256(out_path.read_bytes()).hexdigest() == CONTOUR_EXPORT_SHA256[grid, fmt]

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no os.mkfifo on this system")
    def test_export_through_a_fifo_pinned(self, tmp_path):
        # a target that cannot seek gets the same bytes, read as they are written
        path = write_config(tmp_path, config_to_json_object(case_study_config()))
        fifo = tmp_path / "grid.fifo"
        os.mkfifo(fifo)
        digest = hashlib.sha256()

        def read():
            with open(fifo, "rb") as stream:
                for block in iter(lambda: stream.read(1 << 16), b""):
                    digest.update(block)

        reader = threading.Thread(target=read, daemon=True)
        reader.start()
        code = main(["contour", "--config", path, "--belief", "plausible-region",
                     "--grid", "1000x250", "--format", "csv", "--out", str(fifo)])
        reader.join(timeout=60)
        assert not reader.is_alive()
        assert code == EXIT_OK
        assert digest.hexdigest() == CONTOUR_EXPORT_SHA256["1000x250", "csv"]

    @pytest.mark.skipif(not hasattr(os, "writev"), reason="no os.writev on this system")
    @pytest.mark.parametrize("grid, fmt", list(CONTOUR_EXPORT_SHA256))
    def test_short_writes_resume(self, grid, fmt, tmp_path, monkeypatch):
        # a writev that takes at most 1000 bytes a call, mostly ending inside a buffer
        writev, calls = os.writev, []

        def short_writev(fd, buffers):
            head, room = [], 1000
            for buffer in buffers:
                head.append(memoryview(buffer)[:room])
                room -= len(head[-1])
                if not room:
                    break
            calls.append(1)
            return writev(fd, head)

        monkeypatch.setattr(os, "writev", short_writev)
        self.test_large_export_pinned(grid, fmt, tmp_path)
        assert len(calls) >= (tmp_path / f"grid.{fmt}").stat().st_size // 1000

    @pytest.mark.parametrize("grid, fmt", list(CONTOUR_EXPORT_SHA256))
    def test_write_fallback_without_writev(self, grid, fmt, tmp_path, monkeypatch):
        # where os.writev is missing (Windows), the writer calls os.write once a buffer
        monkeypatch.delattr(os, "writev", raising=False)
        self.test_large_export_pinned(grid, fmt, tmp_path)

    @pytest.mark.skipif(not hasattr(os, "writev"), reason="no os.writev on this system")
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_write_error_mid_export_exits_4(self, fmt, tmp_path, capsys, monkeypatch):
        writev, calls = os.writev, []

        def failing_writev(fd, buffers):
            calls.append(1)
            if len(calls) == 3:
                raise OSError(errno.EIO, os.strerror(errno.EIO))
            return writev(fd, buffers)

        monkeypatch.setattr(os, "writev", failing_writev)
        path = write_config(tmp_path, config_to_json_object(case_study_config()))
        out_path = tmp_path / f"grid.{fmt}"
        assert main(["contour", "--config", path, "--belief", "plausible-region",
                     "--grid", "300x300", "--format", fmt, "--out", str(out_path)]) == EXIT_IO
        captured = capsys.readouterr()
        assert len(calls) == 3
        assert captured.out == ""
        assert captured.err == f"cannot write {out_path}: [Errno 5] {os.strerror(errno.EIO)}\n"

    @pytest.mark.skipif(not hasattr(os, "writev"), reason="no os.writev on this system")
    @pytest.mark.parametrize("fmt", list(SATURATED_EXPORT))
    def test_repeated_rows_go_out_by_reference(self, fmt, tmp_path, monkeypatch):
        # every row of these grids is the same: the writer sends one bytes object
        # for all of them, so each call writes many times the bytes it holds
        writev, batches = os.writev, []

        def recording_writev(fd, buffers):
            batches.append(list(buffers))
            return writev(fd, buffers)

        monkeypatch.setattr(os, "writev", recording_writev)
        self.test_saturated_export_pinned(fmt, tmp_path)
        size = SATURATED_EXPORT[fmt][1]
        chunks = [chunk for batch in batches for chunk in batch]
        # a CSV row starts with ","; a JSON row after the first with ",\n"
        rows = [chunk for chunk in chunks if chunk.startswith(b"," if fmt == "csv" else b",\n")]
        assert len(rows) == (300 if fmt == "csv" else 299)
        assert all(row is rows[0] for row in rows)
        assert all(len(batch) <= _grid_text._IOV_MAX for batch in batches)
        # a writer that copies rows through an 8 KiB buffer makes about 100 writes here
        assert len(batches) <= size // (4 * _grid_text._BATCH_BYTES)

    def test_unsaturated_export_pinned(self, tmp_path):
        obj = config_to_json_object(case_study_config())
        obj["beliefs"].append(TIPPING_BAND)
        path = write_config(tmp_path, obj)
        for fmt, (size, sha256) in TIPPING_BAND_SHA256.items():
            out_path = tmp_path / f"grid.{fmt}"
            argv = ["contour", "--config", path, "--belief", "tipping-band",
                    "--grid", "300x300", "--format", fmt, "--out", str(out_path)]
            assert main(argv) == EXIT_OK
            data = out_path.read_bytes()
            assert len(data) == size
            assert hashlib.sha256(data).hexdigest() == sha256

    @pytest.mark.parametrize("fmt", list(SATURATED_EXPORT))
    def test_saturated_export_pinned(self, fmt, tmp_path):
        belief, size, sha256 = SATURATED_EXPORT[fmt]
        obj = config_to_json_object(case_study_config())
        obj["beliefs"].append(belief)
        out_path = tmp_path / f"grid.{fmt}"
        argv = ["contour", "--config", write_config(tmp_path, obj), "--belief", "far",
                "--grid", "300x300", "--format", fmt, "--out", str(out_path)]
        assert main(argv) == EXIT_OK
        data = out_path.read_bytes()
        assert len(data) == size
        assert hashlib.sha256(data).hexdigest() == sha256

    @pytest.mark.parametrize("variant", list(MORE_BAND_SHA256))
    def test_fixed_and_positive_exports_pinned(self, variant, tmp_path):
        path = write_config(tmp_path, band_config_object(variant))
        out_path = tmp_path / "grid.json"
        argv = ["contour", "--config", path, "--belief", "tipping-band",
                "--grid", "300x300", "--format", "json", "--out", str(out_path)]
        assert main(argv) == EXIT_OK
        data = out_path.read_bytes()
        size, sha256 = MORE_BAND_SHA256[variant]
        assert len(data) == size
        assert hashlib.sha256(data).hexdigest() == sha256
        cells = np.array(json.loads(data)["piv"])
        assert ((cells > 0.0) & (cells < 1.0)).mean() > 0.8

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_non_finite_grid_refused_before_file_is_opened(self, fmt, tmp_path, capsys,
                                                           monkeypatch):
        def nan_grid(*args):
            return ContourGrid((1.0, 2.0), (3.0,), np.array([[0.5], [math.nan]]))

        monkeypatch.setattr(bounds, "evaluate_grid", nan_grid)
        path = write_config(tmp_path, base_config_object())
        out_path = tmp_path / "grid.out"
        assert main(["contour", "--config", path, "--belief", "box", "--format", fmt,
                     "--grid", "201x200", "--out", str(out_path)]) == EXIT_CONFIG
        assert "non-finite" in capsys.readouterr().err
        assert not out_path.exists()

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_non_finite_cell_refused_on_the_row_path(self, fmt, tmp_path):
        # a NaN in the middle of the grid, which Python's min and max would skip;
        # in a fresh process, which takes the row path, the one caller of _grid_text._cdf
        nan_cell = ("import math\n"
                    "calls, cdf = [], piv._grid_text._cdf\n"
                    "def nan_cell(x):\n"
                    "    calls.append(x)\n"
                    "    return math.nan if len(calls) == 5 else cdf(x)\n"
                    "piv._grid_text._cdf = nan_cell\n")
        path = write_config(tmp_path, base_config_object())
        out_path = tmp_path / "grid.out"
        [(code, out, err, took, numpy_loaded)], calls = _cold_main(
            [["contour", "--config", path, "--belief", "box", "--format", fmt,
              "--grid", "3x3", "--out", str(out_path)]], nan_cell)
        assert code == EXIT_CONFIG
        assert (took, numpy_loaded) == ([True], False)
        assert calls == 9
        assert out == ""
        assert err == "config error: cannot serialize a grid with a non-finite PIV\n"
        assert not out_path.exists()

    def test_missing_out_exits_2_before_grid(self, tmp_path, capsys, monkeypatch):
        def no_grid(*args):
            raise AssertionError("grid evaluated before --out was checked")

        monkeypatch.setattr(bounds, "evaluate_grid", no_grid)
        monkeypatch.setattr(_grid_text, "_row_cells", no_grid)
        path = write_config(tmp_path, base_config_object())
        assert main(["contour", "--config", path, "--belief", "box"]) == EXIT_CONFIG
        assert capsys.readouterr().err == "config error: --out is required\n"


# the row path's byte-parity cases: config object and belief; the seeded ones
# cover both signs and both threshold kinds
def _seeded_case(sign: str, kind: str) -> tuple[dict, str]:
    rng = np.random.default_rng(["positive", "negative"].index(sign) * 2 + (kind == "fixed"))
    stats = random_observed_stats(rng)
    sd = math.sqrt(0.5 * (stats.var_t + stats.var_c))
    half = sd * float(rng.uniform(0.1, 3.0))
    t0, c0 = stats.y_t_ob + rng.uniform(-half, half), stats.y_c_ob + rng.uniform(-half, half)
    magnitude = float(rng.uniform(0.0, 0.3))
    threshold = ({"kind": "statistical", "critical": 10.0 * magnitude} if kind == "statistical"
                 else {"kind": "fixed",
                       "beta_sharp": magnitude if sign == "positive" else -magnitude})
    obj = {"observed": {**stats._asdict(), "n_ob": int(rng.integers(20, 2000))}, "sign": sign,
           "threshold": threshold, "piv_threshold": 0.8,
           "beliefs": [{"name": "grid", "region": {"t": [t0 - half, t0 + half],
                                                    "c": [c0 - half, c0 + half]}}]}
    return obj, "grid"


def _case_study_case(belief: str) -> tuple[dict, str]:
    obj = config_to_json_object(case_study_config())
    obj["beliefs"].append({**TIPPING_BAND, "region": dict(TIPPING_BAND["region"])})
    return obj, belief


ROW_PATH_CASES = {
    **{f"{sign}-{kind}": functools.partial(_seeded_case, sign, kind)
       for sign in ("positive", "negative") for kind in ("statistical", "fixed")},
    "plausible-region": functools.partial(_case_study_case, "plausible-region"),
    "tipping-band": functools.partial(_case_study_case, "tipping-band"),
}
# shape -> (the axis a zero-width interval collapses, or None; --grid); 201x200
# is the first grid past the cut
ROW_PATH_SHAPES = {"1x37": ("t", "2x37"), "37x1": ("c", "37x2"), "7x9": (None, "7x9"),
                   "101x101": (None, "101x101"), "200x200": (None, "200x200"),
                   "201x200": (None, "201x200")}
# stats whose completed sample has zero spread at t = c = 0 and overflows far
# from it, and each grid's error: mixed grids raise what evaluate_grid's blocks
# check first, the overflow, although the first cell alone raises zero spread
ZERO_SPREAD_STATS = {"r_squared": 0.1, "n_ob": 100, "y_t_ob": 0.0, "y_c_ob": 0.0,
                     "var_t": 0.0, "var_c": 0.0, "pi": 0.5}
OVERFLOW_ERROR = ("config error: completed-sample variance overflows float64; the "
                  "counterfactual means lie too far from the observed ones\n")
GRID_ERRORS = {
    "mixed": ([0.0, 1e155], EXIT_CONFIG, OVERFLOW_ERROR),
    "zero-spread": ([0.0, 1.0], EXIT_DEGENERATE, "degenerate inputs: completed sample has "
                    "zero outcome spread; correlation undefined\n"),
    "overflow": ([1e155, 2e155], EXIT_CONFIG, OVERFLOW_ERROR),
}


def _row_path_case(case: str, shape: str, directory: Path) -> tuple[str, str, str]:
    """(config path, belief, --grid) of a byte-parity case, its config written
    in directory."""
    obj, belief = ROW_PATH_CASES[case]()
    collapse, grid = ROW_PATH_SHAPES[shape]
    region = next(b["region"] for b in obj["beliefs"] if b["name"] == belief)
    if collapse is not None:
        region[collapse] = [region[collapse][0]] * 2
    directory.mkdir()
    return write_config(directory, obj), belief, grid


@pytest.fixture(scope="class")
def cold_exports(tmp_path_factory):
    """(case, shape) -> ((config path, belief, --grid), {format: step}) for every
    byte-parity case, each exported in both formats by main in one fresh
    process, a step as _cold_main gives it.  The grids past the cut run last,
    since the first of them loads numpy."""
    root = tmp_path_factory.mktemp("row-path")
    keys = sorted(((case, shape) for case in ROW_PATH_CASES for shape in ROW_PATH_SHAPES),
                  key=lambda key: key[1] == "201x200")
    cases = {key: _row_path_case(*key, root / "-".join(key)) for key in keys}
    argvs = [["contour", "--config", path, "--belief", belief, "--grid", grid, "--format", fmt,
              "--out", str(Path(path).with_name(f"grid.{fmt}"))]
             for path, belief, grid in cases.values() for fmt in ("csv", "json")]
    steps, _ = _cold_main(argvs)
    return {key: (cases[key], {"csv": steps[2 * i], "json": steps[2 * i + 1]})
            for i, key in enumerate(keys)}


# Exports the grid of argv[1] twice through main() in a fresh process, where
# piv.bounds.evaluate_grid fails, and prints the tracemalloc peak of the second
_ROW_PATH_PEAK = """
import contextlib, io, json, sys, tracemalloc
import piv.bounds, piv.cli
def no_grid(*args):
    raise AssertionError("a 120x120 grid went to evaluate_grid")
piv.bounds.evaluate_grid = no_grid
argv = json.loads(sys.argv[1])
with contextlib.redirect_stdout(io.StringIO()):
    assert piv.cli.main(argv) == 0  # warm-up: imports and caches stay out of the peak
    tracemalloc.start()
    assert piv.cli.main(argv) == 0
    print(tracemalloc.get_traced_memory()[1], file=sys.stderr)
"""


class TestRowPath:
    """Grids of at most _grid_text._ROW_PATH_CELLS cells are evaluated and written
    without numpy in a process that has not loaded it; their bytes, exit codes
    and messages are the numpy path's.  This process has loaded numpy, so
    each row-path case runs in a fresh one."""

    @pytest.mark.parametrize("shape", list(ROW_PATH_SHAPES))
    @pytest.mark.parametrize("case", list(ROW_PATH_CASES))
    def test_export_bytes_equal_the_numpy_path(self, case, shape, cold_exports):
        (path, belief, grid), steps = cold_exports[case, shape]
        config = load_config(path)
        expected = evaluate_grid(config.belief_as(belief, "region"),
                                 tuple(map(int, grid.split("x"))), config.observed,
                                 config.sign, config.threshold)
        assert "x".join(map(str, expected.piv.shape)) == shape
        past_cut = shape == "201x200"
        for fmt, chunks in (("csv", _grid_text.csv_chunks), ("json", _grid_text.json_chunks)):
            code, _, err, took, numpy_loaded = steps[fmt]
            assert (code, err) == (EXIT_OK, ""), fmt
            # under the cut the row path wrote the grid, and nothing loaded numpy
            assert (True in took, numpy_loaded) == (not past_cut, past_cut), fmt
            out_path = Path(path).with_name(f"grid.{fmt}")
            assert out_path.read_bytes() == b"".join(chunks(expected)), fmt

    @pytest.mark.parametrize("name", list(GRID_ERRORS))
    def test_errors_equal_the_numpy_path(self, name, tmp_path, capsys):
        interval, code, message = GRID_ERRORS[name]
        obj = {"observed": ZERO_SPREAD_STATS, "sign": "positive",
               "threshold": {"kind": "statistical", "critical": 1.96},
               "beliefs": [{"name": "box", "region": {"t": interval, "c": interval}}]}
        path = write_config(tmp_path, obj)
        out_path = tmp_path / "grid.csv"
        argvs = [["contour", "--config", path, "--belief", "box", "--grid", grid,
                  "--out", str(out_path)] for grid in ("3x3", "201x200")]
        for argv in argvs:  # in this process, which has numpy, both take the numpy path
            assert main(argv) == code, argv
            assert capsys.readouterr().err == message, argv
            assert not out_path.exists()
        # in a fresh process the row path tries the 3x3 grid and hands it over
        steps, _ = _cold_main(argvs)
        assert [step[:4] for step in steps] == [[code, "", message, [False]],
                                                [code, "", message, []]]
        assert not out_path.exists()
        if name == "mixed":  # in cell order, the first cell would raise first
            stats = load_config(path).observed
            with pytest.raises(DegenerateSpreadError):
                ideal_correlation(CounterfactualBelief(0.0, 0.0), stats)

    @pytest.mark.parametrize("case", list(ROW_PATH_CASES))
    def test_row_cells_are_evaluate_grids_bit_for_bit(self, case):
        # the row path's kernel, called directly: its axes and every cell's bits
        obj, belief = ROW_PATH_CASES[case]()
        config = parse_config(obj)
        region = config.belief_as(belief, "region")
        grid = evaluate_grid(region, (37, 41), config.observed, config.sign, config.threshold)
        t_values, c_values, cells = _grid_text._row_cells(region, 37, 41, config.observed,
                                                          config.sign, config.threshold)
        assert (t_values, c_values) == (grid.t_values, grid.c_values)
        assert cells.tobytes() == grid.piv.tobytes()

    @pytest.mark.parametrize("name", list(GRID_ERRORS))
    def test_row_cells_hand_a_raising_grid_over(self, name):
        # None, not the first cell's error, so that evaluate_grid raises its own
        interval = GRID_ERRORS[name][0]
        config = parse_config({"observed": ZERO_SPREAD_STATS, "sign": "positive",
                               "threshold": {"kind": "statistical", "critical": 1.96},
                               "beliefs": [{"name": "box",
                                            "region": {"t": interval, "c": interval}}]})
        assert _grid_text._row_cells(config.belief_as("box", "region"), 3, 3, config.observed,
                                     config.sign, config.threshold) is None

    def test_csv_export_peak_memory_below_one_and_a_half_file_sizes(self, tmp_path):
        # the row path holds the grid as one array('d') grown a row at a time, 8
        # bytes a cell against about 9 of CSV, and writes rows in 8 KiB batches
        path = write_config(tmp_path, config_to_json_object(case_study_config()))
        out_path = tmp_path / "grid.csv"
        argv = ["contour", "--config", path, "--belief", "plausible-region",
                "--grid", "120x120", "--format", "csv", "--out", str(out_path)]
        proc = subprocess.run([sys.executable, "-c", _ROW_PATH_PEAK, json.dumps(argv)],
                              env=_SRC_ENV, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        peak = int(proc.stderr)
        size = out_path.stat().st_size
        assert size > 120_000
        assert peak < 1.5 * size

    def test_a_process_with_numpy_takes_the_numpy_path(self, tmp_path, monkeypatch):
        # the row path only spares a fresh process numpy's import
        def no_rows(*args):
            raise AssertionError("a process with numpy took the row path")

        calls, evaluate = [], bounds.evaluate_grid
        monkeypatch.setattr(bounds, "evaluate_grid",
                            lambda *args: calls.append(args) or evaluate(*args))
        monkeypatch.setattr(_grid_text, "_row_cells", no_rows)
        path = write_config(tmp_path, config_to_json_object(case_study_config()))
        assert "numpy" in sys.modules
        assert main(["contour", "--config", path, "--belief", "plausible-region",
                     "--grid", "200x200", "--out", str(tmp_path / "grid.csv")]) == EXIT_OK
        assert len(calls) == 1


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
        assert power_out["critical_z"] == -1.96

    @pytest.mark.parametrize("n_ob, critical", [(123, 1.96), (100, 1.645)])
    def test_critical_z_is_the_signed_critical_value(self, tmp_path, capsys, n_ob, critical):
        # at these sizes (C * se) / se is one ulp away from C
        obj = config_to_json_object(case_study_config())
        obj["observed"]["n_ob"] = n_ob
        obj["threshold"] = {"kind": "statistical", "critical": critical}
        path = write_config(tmp_path, obj)
        assert main(["power", "--config", path, "--belief", "belief-1-corner",
                     "--format", "json"]) == EXIT_OK
        assert json.loads(capsys.readouterr().out)["critical_z"] == -critical

    def test_text_output_pinned(self, tmp_path, capsys):
        path = write_config(tmp_path, config_to_json_object(case_study_config()))
        assert main(["power", "--config", path, "--belief", "belief-1-corner",
                     "--format", "text"]) == EXIT_OK
        assert capsys.readouterr().out == POWER_TEXT

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
        lines, data = replicate_report(case_study_config())
        text = "\n".join(lines)
        assert data["bounds"]["belief-1"].piv_min == pytest.approx(0.92, abs=5e-3)
        assert data["bounds"]["belief-2"].piv_min == pytest.approx(0.936, abs=5e-3)
        assert data["bounds"]["belief-1-relaxed"].piv_min == pytest.approx(0.82, abs=5e-3)
        assert data["bounds"]["retained-effect-minus-7"].piv_min == pytest.approx(0.795, abs=5e-3)
        assert data["verdicts"]["belief-1"].value == "robust"
        assert data["verdicts"]["belief-2"].value == "robust"
        assert "154.51" in text and "109.25" in text

    def test_report_pinned(self):
        lines, _ = replicate_report(case_study_config())
        text = "\n".join(lines) + "\n"
        assert hashlib.sha256(text.encode()).hexdigest() == REPLICATE_REPORT_SHA256

    @staticmethod
    def _mirrored(obj: dict) -> dict:
        """The config object mirrored through zero: a significant positive estimate."""
        obj["sign"] = "positive"
        for key in ("y_t_ob", "y_c_ob"):
            obj["observed"][key] = -obj["observed"][key]
        for belief in obj["beliefs"]:
            if "point" in belief:
                belief["point"] = {k: -v for k, v in belief["point"].items()}
            else:
                belief["region"] = {axis: [None if v is None else -v for v in reversed(interval)]
                                    for axis, interval in belief["region"].items()}
        return obj

    def test_report_follows_the_sign_of_its_config(self):
        lines, data = replicate_report(parse_config(self._mirrored(
            config_to_json_object(case_study_config()))))
        _, expected = replicate_report(case_study_config())
        assert lines[3] == "step 2  critical value: C = 1.96 (significant positive estimate)"
        assert lines[4] == ("step 3  probit(PIV) = T - C with T = correlation/se, se = 0.006472, "
                            "scale sqrt(2*n_ob)/sqrt(1-R^2) = 154.51")
        for name, bound in expected["bounds"].items():
            assert data["bounds"][name].piv_min == pytest.approx(bound.piv_min, abs=1e-12), name
        assert data["corner_piv"] == pytest.approx(expected["corner_piv"], abs=1e-12)
        # the sqrt(n_ob) cross-check follows the sign too
        assert data["alt_scale_piv"] == pytest.approx(expected["alt_scale_piv"], abs=1e-12)

    @pytest.mark.parametrize("positive", [False, True], ids=["negative", "positive"])
    def test_fixed_threshold_report_stays_in_correlation_units(self, positive):
        # a fixed C is a correlation: step 3 and the sqrt(n_ob) cross-check compare it with r
        obj = config_to_json_object(case_study_config())
        obj["threshold"] = {"kind": "fixed", "beta_sharp": -0.02}
        if positive:
            obj = self._mirrored(obj)
            obj["threshold"]["beta_sharp"] = 0.02
        config = parse_config(obj)
        lines, data = replicate_report(config)
        difference = "(r - C)/se" if positive else "(C - r)/se"
        assert lines[4] == (f"step 3  probit(PIV) = {difference} with r = correlation, "
                            "se = 0.006472, scale sqrt(2*n_ob)/sqrt(1-R^2) = 154.51")
        # the sqrt(n_ob) variant divides the PIV's own probit by sqrt(2)
        r = ideal_correlation(config.belief_as("belief-1-corner", "point"), config.observed)
        result = piv_from_correlation(r, config.observed, config.sign, config.threshold)
        assert data["corner_piv"] == result.piv
        assert data["alt_scale_piv"] == pytest.approx(
            std_normal_cdf(result.probit_piv / math.sqrt(2.0)), abs=1e-12)
        assert f"{data['alt_scale_piv']:.6f}" == "0.574183"
        assert "would give 0.574183 instead" in lines[-1]

    @pytest.mark.parametrize("beta_sharp", [None, -0.02], ids=["case-study", "fixed"])
    def test_note_claims_the_published_figures_only_where_they_hold(self, beta_sharp):
        obj = config_to_json_object(case_study_config())
        if beta_sharp is not None:
            obj["threshold"] = {"kind": "fixed", "beta_sharp": beta_sharp}
        lines, data = replicate_report(parse_config(obj))
        matches = abs(data["corner_piv"] - 0.92) <= 5e-3
        assert matches is (beta_sharp is None)
        assert ("matching the published 0.92" in lines[-1]) is matches
        assert ("does not reproduce the published bounds" in lines[-1]) is matches
        if not matches:
            assert lines[-1] == (
                "note    scale coefficient 154.51 gives PIV 0.604305 at the belief-1 corner, "
                "not the published 0.92; the sqrt(n_ob) variant 109.25 would give 0.574183 "
                "instead")

    @pytest.mark.parametrize("name, kind", [("belief-1", "region"),
                                            ("belief-1-corner", "point")])
    def test_belief_of_the_wrong_kind_is_named(self, name, kind):
        obj = config_to_json_object(case_study_config())
        for belief in obj["beliefs"]:
            if belief["name"] == name:
                belief.pop(kind)
                belief["point" if kind == "region" else "region"] = (
                    {"y_t_un": 45.0, "y_c_un": 45.0} if kind == "region"
                    else {"t": [40.0, 45.0], "c": [40.0, 45.0]})
        with pytest.raises(InputValidationError, match=f"belief '{name}' is a .*needs a {kind}"):
            replicate_report(parse_config(obj))

    def test_missing_belief_is_named(self):
        obj = config_to_json_object(case_study_config())
        obj["beliefs"] = [b for b in obj["beliefs"] if b["name"] != "belief-2"]
        with pytest.raises(InputValidationError, match="unknown belief 'belief-2'"):
            replicate_report(parse_config(obj))

    def test_command_writes_grid(self, tmp_path, capsys):
        out_path = tmp_path / "contour.csv"
        code = main(["replicate", "--out", str(out_path), "--grid", "40x40"])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "0.918433" in out
        assert "robust" in out
        lines = out_path.read_text(encoding="utf-8").strip().split("\n")
        assert len(lines) == 41

    def test_contour_file_pinned(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)  # stdout names the --out path as given
        assert main(["replicate", "--out", "contour.csv"]) == EXIT_OK
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == REPLICATE_STDOUT_SHA256
        data = (tmp_path / "contour.csv").read_bytes()
        assert hashlib.sha256(data).hexdigest() == REPLICATE_CONTOUR_SHA256

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

    def test_failed_tolerance_exits_5(self, capsys, monkeypatch):
        from piv import oracle

        monkeypatch.setattr(oracle.DatasetStack, "bayes_combination_errors",
                            lambda stack: np.full(len(stack), 1e-9))
        assert main(["verify", "--seeds", "2", "--reps", "1000"]) == EXIT_VERIFY
        out = capsys.readouterr().out
        assert ("  [FAIL] half-sample combination vs stacked fit: max error 1.000e-09 "
                "(tolerance 1e-10)\n") in out
        assert out.count("[FAIL]") == 1 and out.endswith("SOME CHECKS FAILED\n")

    @pytest.mark.parametrize("check, label", [
        ("standardized_w_coefficient", "closed-form correlation vs standardized fit"),
        ("w_coefficient_via_moments", "coefficient via moments vs direct solve"),
        ("block_inverse_errors", "block-assembled inverse vs direct inverse"),
        ("bayes_combination_errors", "half-sample combination vs stacked fit"),
    ])
    def test_nan_error_in_one_dataset_fails(self, check, label, capsys, monkeypatch):
        # one NaN in the middle of a stack, in a chunk whose other stacks are
        # checked after it: a running max(worst, nan) would drop it
        from piv import oracle

        original = getattr(oracle.DatasetStack, check)

        def with_nan(stack):
            values = original(stack).copy()
            if stack.p == 1:
                values[len(stack) // 2] = math.nan
            return values

        monkeypatch.setattr(oracle.DatasetStack, check, with_nan)
        assert main(["verify", "--seeds", "30", "--reps", "1000"]) == EXIT_VERIFY
        out = capsys.readouterr().out
        assert f"  [FAIL] {label}: max error nan " in out
        assert out.count("[FAIL]") == 1 and out.endswith("SOME CHECKS FAILED\n")

    def test_negative_seed_exits_2(self, capsys):
        assert main(["verify", "--seeds", "1", "--reps", "1000", "--seed", "-1"]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error: seed must be a nonnegative integer")
        assert "Traceback" not in err

    @pytest.mark.parametrize("argv, message", [
        (["--reps", "10"], "reps must be an integer >= 1000, got 10"),
        (["--seed", "-1"], "seed must be a nonnegative integer, got -1"),
    ])
    def test_bad_reps_or_seed_refused_before_any_dataset(self, argv, message, capsys,
                                                         monkeypatch):
        from piv import oracle

        def no_dataset(spec):
            raise AssertionError("a dataset was built before the arguments were checked")

        monkeypatch.setattr(oracle, "build_exact_dataset", no_dataset)
        assert main(["verify", *argv]) == EXIT_CONFIG
        assert capsys.readouterr().err == f"config error: {message}\n"


# A child whose standard output fails: a pipe whose read end is closed before
# the child starts (EPIPE on the first write), or /dev/full (ENOSPC, which a
# buffered stdout meets only when it is flushed).
@pytest.mark.parametrize("target", ["closed-pipe", "/dev/full"])
@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("command", ["compute", "replicate"])
def test_unwritable_stdout_exits_4_with_one_line(command, unbuffered, target, tmp_path):
    if target == "/dev/full" and not os.path.exists("/dev/full"):
        pytest.skip("no /dev/full on this system")
    argv = (["compute", "--config", write_config(tmp_path, base_config_object()),
             "--belief", "corner"] if command == "compute"
            else ["replicate", "--grid", "3x3", "--out", str(tmp_path / "contour.csv")])
    env = {key: value for key, value in _SRC_ENV.items() if key != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    if target == "closed-pipe":
        read_end, stdout = os.pipe()
        os.close(read_end)
    else:
        stdout = os.open(target, os.O_WRONLY)
    try:
        proc = subprocess.run([sys.executable, "-m", "piv.cli", *argv], stdout=stdout,
                              stderr=subprocess.PIPE, env=env, text=True, timeout=120)
    finally:
        os.close(stdout)
    assert proc.returncode == EXIT_IO, proc.stderr
    assert proc.stderr.startswith("cannot write standard output: [Errno ")
    assert proc.stderr.count("\n") == 1 and proc.stderr.endswith("\n")
    assert "Traceback" not in proc.stderr and "Exception ignored" not in proc.stderr


def _redirected_child(argv, redirects: str, unbuffered: bool):
    """Run piv with argv in a child whose file descriptors a shell redirects
    ("2>&-" closes fd 2).  The shell's standard error is captured; it is the
    child's where redirects leave fd 2 alone."""
    env = {key: value for key, value in _SRC_ENV.items() if key != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    return subprocess.run(["sh", "-c", f'exec "$0" -m piv.cli "$@" {redirects}', sys.executable,
                           *argv], stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, env=env,
                          text=True, timeout=120)


# A child whose standard error cannot be written, as /dev/full or closed: its
# one line is lost, but it still exits with the documented code, not with 1
# (an error raised while reporting one) or 120 (a failed flush at exit).
@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("case, redirects, code", [
    pytest.param("config-error", "2>/dev/full", EXIT_CONFIG, id="config-error"),
    pytest.param("config-error", "2>&-", EXIT_CONFIG, id="config-error-stderr-closed"),
    pytest.param("zero-spread", "2>/dev/full", EXIT_DEGENERATE, id="zero-spread"),
    pytest.param("unwritable-stdout", ">/dev/full 2>/dev/full", EXIT_IO, id="unwritable-stdout"),
    pytest.param("unwritable-out", "2>/dev/full", EXIT_IO, id="unwritable-out"),
])
def test_exit_code_holds_when_stderr_cannot_be_written(case, redirects, code, unbuffered,
                                                       tmp_path):
    if "/dev/full" in redirects and not os.path.exists("/dev/full"):
        pytest.skip("no /dev/full on this system")
    obj = base_config_object()
    obj["beliefs"] += _MALFORMED_BELIEFS
    if case == "zero-spread":
        _degenerate(obj)
    config = write_config(tmp_path, obj)
    argv = {
        "config-error": ["compute", "--config", str(tmp_path / "missing.json"),
                         "--belief", "corner"],
        "zero-spread": ["compute", "--config", config, "--belief", "flat"],
        "unwritable-stdout": ["compute", "--config", config, "--belief", "corner"],
        "unwritable-out": ["contour", "--config", config, "--belief", "box", "--grid", "3x3",
                           "--out", "/dev/full"],
    }[case]
    proc = _redirected_child(argv, redirects, unbuffered)
    assert proc.returncode == code
    assert proc.stderr == ""  # the child's went to /dev/full or was closed; the shell's is empty


# An in-process caller whose sys.stderr fails: main drops the line and returns
# the code, and only that stream's own descriptor, if it has one, is pointed at
# devnull.  Run in a child, so that no tree under test can repoint this
# process's fd 2.
_FAILING_STDERR_CHILD = """
import io, json, os, sys
from piv.cli import main

class NoDescriptor(io.TextIOBase):
    def write(self, text):
        raise OSError(28, "No space left on device")

before = [os.fstat(fd) for fd in (0, 1, 2)]
sys.stderr = open("/dev/full", "w") if sys.argv[1] == "dev-full" else NoDescriptor()
code = main(["compute", "--config", sys.argv[2], "--belief", "corner"])
sys.stderr = sys.__stderr__
print(json.dumps([code, [os.path.samestat(a, os.fstat(fd)) for fd, a in enumerate(before)]]))
"""


@pytest.mark.parametrize("stream", ["dev-full", "no-descriptor"])
def test_a_failing_stderr_leaves_the_process_descriptors_alone(stream, tmp_path):
    if stream == "dev-full" and not os.path.exists("/dev/full"):
        pytest.skip("no /dev/full on this system")
    proc = subprocess.run([sys.executable, "-c", _FAILING_STDERR_CHILD, stream,
                           str(tmp_path / "missing.json")], stdin=subprocess.DEVNULL,
                          capture_output=True, env=_SRC_ENV, text=True, timeout=120)
    assert proc.returncode == 0 and proc.stderr == "", proc.stderr
    assert json.loads(proc.stdout) == [EXIT_CONFIG, [True, True, True]]


# A child started with fd 1 closed, where Python sets sys.stdout to None.
@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("command", ["compute", "replicate"])
def test_closed_stdout_exits_4_with_one_line(command, unbuffered, tmp_path):
    argv = (["compute", "--config", write_config(tmp_path, base_config_object()),
             "--belief", "corner"] if command == "compute"
            else ["replicate", "--grid", "3x3", "--out", str(tmp_path / "contour.csv")])
    proc = _redirected_child(argv, ">&-", unbuffered)
    assert proc.returncode == EXIT_IO, proc.stderr
    closed = OSError(errno.EBADF, os.strerror(errno.EBADF))
    assert proc.stderr == f"cannot write standard output: {closed}\n"
    assert "Traceback" not in proc.stderr and "Exception ignored" not in proc.stderr


def _degenerate(obj: dict) -> None:
    obj["observed"].update({"var_t": 0.0, "var_c": 0.0, "y_t_ob": 5.0, "y_c_ob": 5.0})


_MALFORMED_BELIEFS = [
    {"name": "huge", "point": {"y_t_un": 1e200, "y_c_un": 0.0}},
    {"name": "far", "region": {"t": [1e200, 2e200], "c": [36.77, 45.78]}},
    {"name": "flat", "point": {"y_t_un": 5.0, "y_c_un": 5.0}},
    {"name": "flat-point-region", "region": {"t": [5.0, 5.0], "c": [5.0, 5.0]}},
    {"name": "flat-box", "region": {"t": [4.0, 6.0], "c": [4.0, 6.0]}},
    {"name": "line", "region": {"t": [None, None], "c": [0.0, 0.0]}},
    {"name": "overflowing-edge", "region": {"t": [1e308, 1e308], "c": [None, None]}},
]
_CONFIG_ERROR = (EXIT_CONFIG, "config error: ")
_HUGE = 10**400  # a JSON integer that float() cannot convert
_DEGENERATE = (EXIT_DEGENERATE, "degenerate inputs: ")
# in place of a config edit: the command is run without --config
_NO_CONFIG = "no --config"
# the commands that take no --config
_CONFIGLESS = ("replicate", "verify")
_CORNER = ["compute", "--belief", "corner"]

# (config edit or _NO_CONFIG, argv, expected exit code, stderr prefix); the
# config's --config goes in after the command, if the command takes one
MALFORMED_INPUTS = {
    "compute-no-belief": (None, ["compute"], EXIT_CONFIG, "config error: --belief is required\n"),
    "compute-no-config": (_NO_CONFIG, _CORNER, EXIT_CONFIG, "config error: --config is required\n"),
    "observed-not-an-object": (lambda obj: obj.update(observed=[1.0]), _CORNER, EXIT_CONFIG,
                               "config error: observed: expected an object, got list\n"),
    "observed-missing-keys": (lambda obj: obj["observed"].pop("pi"), _CORNER, EXIT_CONFIG,
                              "config error: observed: missing keys ['pi']\n"),
    "region-side-not-a-pair": (lambda obj: obj["beliefs"][3]["region"].update(t=[36.77]),
                               ["bound", "--belief", "box"], EXIT_CONFIG,
                               "config error: beliefs[3].region.t: expected [lo, hi]"),
    "beliefs-empty": (lambda obj: obj.update(beliefs=[]), _CORNER, EXIT_CONFIG,
                      "config error: beliefs: expected a non-empty list\n"),
    "belief-name-empty": (lambda obj: obj["beliefs"][0].update(name=""), _CORNER, EXIT_CONFIG,
                          "config error: beliefs[0].name: expected a non-empty string\n"),
    "verify-zero-seeds": (None, ["verify", "--seeds", "0"], EXIT_CONFIG,
                          "config error: seeds must be >= 1, got 0\n"),
    "replicate-unwritable-out": (None, ["replicate", "--grid", "3x3",
                                        "--out", "{tmp}/no_dir/contour.csv"], EXIT_IO,
                                 "cannot write "),
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
    "compute-huge-int-observed": (lambda obj: obj["observed"].update(y_t_ob=_HUGE),
                                  ["compute", "--belief", "corner"], *_CONFIG_ERROR),
    "bound-huge-int-region": (lambda obj: obj["beliefs"][3]["region"].update(t=[36.77, _HUGE]),
                              ["bound", "--belief", "box"], *_CONFIG_ERROR),
    "compute-huge-int-critical": (lambda obj: obj["threshold"].update(critical=_HUGE),
                                  ["compute", "--belief", "corner"], *_CONFIG_ERROR),
    "bound-huge-int-piv-threshold": (lambda obj: obj.update(piv_threshold=_HUGE),
                                     ["bound", "--belief", "box"], *_CONFIG_ERROR),
    # 2.0 * n_ob overflows to inf, so se would be 0 and the probit would divide by it
    "compute-n-ob-zero-se": (lambda obj: obj["observed"].update(n_ob=10**308),
                             ["compute", "--belief", "corner"],
                             EXIT_CONFIG, "config error: observed: n_ob "),
    "bound-n-ob-zero-se": (lambda obj: obj["observed"].update(n_ob=10**308),
                           ["bound", "--belief", "box"],
                           EXIT_CONFIG, "config error: observed: n_ob "),
    "bound-edge-point-beyond-float-range": (
        lambda obj: obj.update(sign="positive", observed={
            "r_squared": 0.0, "n_ob": 100, "y_t_ob": 1e-10, "y_c_ob": 0.0,
            "var_t": 1.0, "var_c": 1.0, "pi": 1e-300}),
        ["bound", "--belief", "line"], EXIT_CONFIG,
        "config error: the region's stationary point on its edge y_c_un = 0.0 lies beyond float range\n"),
    # every belief in the region overflows the variance, and its edge point is inf/inf
    "bound-edge-point-nan": (
        lambda obj: obj.update(observed={
            "r_squared": 0.0, "n_ob": 100, "y_t_ob": -1e308, "y_c_ob": 0.0,
            "var_t": 1.0, "var_c": 1.0, "pi": 0.5}),
        ["bound", "--belief", "overflowing-edge"], EXIT_CONFIG,
        "config error: completed-sample variance overflows float64; the counterfactual means "
        "lie too far from the observed ones\n"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_INPUTS))
def test_malformed_input_exit_code(case, tmp_path, capsys):
    edit, argv, code, prefix = MALFORMED_INPUTS[case]
    obj = base_config_object()
    obj["beliefs"] += _MALFORMED_BELIEFS
    if callable(edit):
        edit(obj)
    path = write_config(tmp_path, obj)
    argv = [arg.format(out=tmp_path / "grid.csv", tmp=tmp_path) for arg in argv]
    if edit is not _NO_CONFIG and argv[0] not in _CONFIGLESS:
        argv[1:1] = ["--config", path]
    assert main(argv) == code
    err = capsys.readouterr().err
    assert err.startswith(prefix)
    assert "Traceback" not in err


# piv_threshold outside (0, 1), NaN and infinity among them: json.loads accepts
# both, and a comparison with NaN is false either way round
@pytest.mark.parametrize("value, shown", [(0, "0"), (1, "1"), (1.5, "1.5"), (-0.25, "-0.25"),
                                          (math.nan, "nan"), (math.inf, "inf")])
def test_piv_threshold_outside_the_unit_interval_exits_2(value, shown, tmp_path, capsys):
    obj = base_config_object()
    obj["piv_threshold"] = value
    argv = ["bound", "--config", write_config(tmp_path, obj), "--belief", "box"]
    assert main(argv) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err == f"config error: piv_threshold: must be in (0, 1), got {shown}\n"


# config file bytes that cannot be decoded into a JSON object
UNDECODABLE_CONFIGS = {
    "not-utf-8": b"\xff\xfe{}",
    "nested-too-deeply": b"[" * 200_000,
}


@pytest.mark.parametrize("case", sorted(UNDECODABLE_CONFIGS))
def test_undecodable_config_exits_2(case, tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_bytes(UNDECODABLE_CONFIGS[case])
    assert main(["compute", "--config", str(path), "--belief", "x"]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: ")
    assert str(path) in err
    assert "Traceback" not in err


_LONG_LIST = [0] * 200_000
_LONG_STR = "x" * 200_000

_COMPUTE = ["compute", "--belief", "corner"]

# (config edit, argv without --config): each puts a value whose repr is about
# 600 kB where a number, a keyword or a short name belongs
OVERSIZED_VALUES = {
    "observed-y_t_ob": (lambda obj: obj["observed"].update(y_t_ob=_LONG_LIST), _COMPUTE),
    "observed-n_ob": (lambda obj: obj["observed"].update(n_ob=_LONG_LIST), _COMPUTE),
    "observed-unknown-keys": (lambda obj: obj["observed"].update(
        {f"key{i:06d}": 0 for i in range(50_000)}), _COMPUTE),
    "region-bound": (lambda obj: obj["beliefs"][3]["region"].update(t=[_LONG_LIST, 45.78]),
                     _COMPUTE),
    "sign": (lambda obj: obj.update(sign=_LONG_STR), _COMPUTE),
    "threshold-kind": (lambda obj: obj["threshold"].update(kind=_LONG_STR), _COMPUTE),
    "piv_threshold": (lambda obj: obj.update(piv_threshold=_LONG_LIST), _COMPUTE),
    "grid-nt": (lambda obj: obj.update(grid={"nt": _LONG_LIST, "nc": 5}), _COMPUTE),
    "duplicate-name": (lambda obj: obj["beliefs"].extend(
        [{"name": _LONG_STR, "point": {"y_t_un": 0, "y_c_un": 0}}] * 2), _COMPUTE),
    "unknown-belief": (lambda obj: obj["beliefs"][0].update(name=_LONG_STR), _COMPUTE),
    # a point named where a region is needed, and a --grid that is not NTxNC
    "belief-kind": (lambda obj: obj["beliefs"][0].update(name=_LONG_STR),
                    ["bound", "--belief", _LONG_STR]),
    "grid-flag": (lambda obj: None, ["contour", "--belief", "box", "--grid", _LONG_STR]),
}


@pytest.mark.parametrize("case", sorted(OVERSIZED_VALUES))
def test_oversized_value_makes_one_short_error_line(case, tmp_path, capsys):
    edit, argv = OVERSIZED_VALUES[case]
    obj = base_config_object()
    edit(obj)
    path = write_config(tmp_path, obj)
    assert main([argv[0], "--config", path, *argv[1:]]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: ")
    assert err.count("\n") == 1 and err.endswith("\n")
    assert len(err) < 200


# (config edit, JSON path that the error names once, at its start)
CONFIG_ERROR_PATHS = {
    "observed": (lambda obj: obj["observed"].update(r_squared="high"), "observed"),
    "sign": (lambda obj: obj.update(sign="up"), "sign"),
    "threshold": (lambda obj: obj["threshold"].update(critical=-1.96), "threshold"),
    "point": (lambda obj: obj["beliefs"][0]["point"].update(y_t_un="a"), "beliefs[0].point"),
    "region": (lambda obj: obj["beliefs"][3]["region"].update(c=[36.77, "b"]), "beliefs[3].region"),
    "piv_threshold": (lambda obj: obj.update(piv_threshold="high"), "piv_threshold"),
    "grid": (lambda obj: obj.update(grid={"nt": 1, "nc": 5}), "grid.nt"),
}


@pytest.mark.parametrize("case", sorted(CONFIG_ERROR_PATHS))
def test_config_error_names_path_once(case, tmp_path, capsys):
    edit, path = CONFIG_ERROR_PATHS[case]
    obj = base_config_object()
    edit(obj)
    assert main(["compute", "--config", write_config(tmp_path, obj),
                 "--belief", "corner"]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {path}: ")
    assert err.count(path.split(".")[0]) == 1


# =============================================================================
# Cold path: only verify and contour grids of more than 200x200 cells import numpy
# =============================================================================

# Runs each step of argv[1] in one fresh process.  A step is a Python statement,
# run in a namespace of its own, or an argv that main() runs with stdout and
# stderr set aside.  Prints piv.__file__ and, for each step, [step, the names
# the statement bound or the argv's exit code, SystemExit's included, whether
# each module of the JSON list argv[2] is in sys.modules after it].
_MODULE_PROBE = """
import contextlib, io, json, sys
watched, steps = json.loads(sys.argv[2]), []
for step in json.loads(sys.argv[1]):
    if isinstance(step, str):
        names = {}
        exec(step, names)
        result = sorted(set(names) - {"__builtins__"})
    else:
        import piv.cli
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            try:
                result = piv.cli.main(step)
            except SystemExit as exc:
                result = exc.code
    steps.append([step, result, [module in sys.modules for module in watched]])
import piv
print(json.dumps([piv.__file__, steps]))
"""


def _probe(steps: list, modules: tuple[str, ...]) -> list[list]:
    proc = subprocess.run([sys.executable, "-c", _MODULE_PROBE, json.dumps(steps),
                           json.dumps(modules)],
                          env=_SRC_ENV, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    piv_file, steps = json.loads(proc.stdout)
    assert piv_file == piv.__file__  # the child imported the piv under test
    return steps


def _loaded_after(argvs: list[list[str]],
                  modules: tuple[str, ...] = ("numpy",)) -> dict[str, list[list]]:
    """module -> [step, whether the module is loaded after it] for import piv,
    import piv.cli and each argv, which must exit 0, in one fresh process."""
    steps = _probe(["import piv", "import piv.cli", *argvs], modules)
    assert [code for _, code, _ in steps[2:]] == [0] * len(argvs), steps
    names = [step if isinstance(step, str) else " ".join(step) for step, _, _ in steps]
    return {module: [[name, loaded[i]] for name, (_, _, loaded) in zip(names, steps)]
            for i, module in enumerate(modules)}


def test_point_bound_and_dump_config_do_not_import_numpy(tmp_path):
    path = write_config(tmp_path, config_to_json_object(case_study_config()))
    argvs = [[command, "--config", path, "--belief", belief, "--format", fmt]
             for command, belief in (("compute", "belief-1-corner"), ("power", "belief-1-corner"),
                                     ("bound", "belief-1"), ("bound", "belief-2"))
             for fmt in ("text", "json")]
    argvs.append(["compute", "--config", path, "--dump-config"])
    # nor piv.report, which only replicate and verify use, nor dataclasses and the
    # inspect it pulls in, whose import and class building would double a cold start,
    # nor array, a shared library that only grid exports use
    modules = ("numpy", "piv.report", "dataclasses", "inspect", "array")
    loaded_after = _loaded_after(argvs, modules)
    for module in modules:
        steps = loaded_after[module]
        assert len(steps) == 2 + len(argvs)
        assert [name for name, loaded in steps if loaded] == [], module


def test_plain_command_lines_load_no_argparse_and_point_commands_no_bounds(tmp_path):
    path = write_config(tmp_path, config_to_json_object(case_study_config()))
    point = [[command, "--config", path, "--belief", "belief-1-corner", "--format", fmt]
             for command in ("compute", "power") for fmt in ("text", "json")]
    point += [["compute", "--config", path, "--dump-config"],
              ["power", "--config", path, "--format", "json", "--dump-config"]]
    bound = [["bound", "--config", path, "--belief", belief, "--format", fmt]
             for belief in ("belief-1", "belief-2") for fmt in ("text", "json")]
    contour = [["contour", "--config", path, "--belief", "plausible-region", "--grid", "3x3",
                "--format", fmt, "--out", str(tmp_path / f"grid.{fmt}")]
               for fmt in ("csv", "json")]
    loaded_after = _loaded_after(point + bound + contour, ("argparse", "piv.bounds"))
    steps = loaded_after["argparse"]
    assert [name for name, loaded in steps if loaded] == []
    # import piv and import piv.cli load no bounds either; bound and contour do
    steps = loaded_after["piv.bounds"]
    assert [loaded for _, loaded in steps] == [False] * (2 + len(point)) + [True] * 6


@pytest.mark.parametrize("argv, code", [
    (["--help"], 0), (["compute", "--help"], 0), (["compute", "--bogus"], 2),
    (["compute", "--conf", "missing.json"], 2), (["verify", "--seeds", "x"], 2),
], ids=lambda value: " ".join(value) if isinstance(value, list) else f"exit-{value}")
def test_help_usage_errors_and_unusual_argv_load_argparse(argv, code):
    assert _probe([argv], ("argparse",)) == [[argv, code, [True]]]


def test_only_the_report_commands_load_the_report(tmp_path):
    path = write_config(tmp_path, config_to_json_object(case_study_config()))
    argvs = [["contour", "--config", path, "--belief", "plausible-region", "--grid", "3x3",
              "--out", str(tmp_path / "grid.csv")],
             ["verify", "--seeds", "1"]]
    steps = _loaded_after(argvs, ("piv.report",))["piv.report"]
    assert [loaded for _, loaded in steps] == [False, False, False, True]


def test_verify_loads_no_dataclasses():
    # the oracle's records are _Record values too; numpy itself loads inspect,
    # so only dataclasses is pinned on this path
    steps = _loaded_after([["verify", "--seeds", "1"]], ("dataclasses",))["dataclasses"]
    assert [loaded for _, loaded in steps] == [False, False, False]


@pytest.mark.parametrize("command", ["contour", "verify"])
def test_grid_and_oracle_commands_import_numpy(command, tmp_path):
    # a 3x3 contour is under the cut and loads no numpy; a 300x300 one does
    if command == "contour":
        path = write_config(tmp_path, config_to_json_object(case_study_config()))
        argvs = [["contour", "--config", path, "--belief", "plausible-region",
                  "--grid", grid, "--out", str(tmp_path / "grid.csv")]
                 for grid in ("3x3", "300x300")]
        loaded_after = [False, False, False, True]
    else:
        argvs = [["verify", "--seeds", "1"]]
        loaded_after = [False, False, True]
    steps = _loaded_after(argvs)["numpy"]
    assert [loaded for _, loaded in steps] == loaded_after


def test_row_path_exports_and_replicate_load_no_numpy(tmp_path):
    # the default 101x101 grid of a config without one, replicate's 200x200 grid,
    # and a 200x200 JSON grid, the last under the cut; 201x200 is the first past it
    path = write_config(tmp_path, base_config_object())
    argvs = [["contour", "--config", path, "--belief", "box", "--format", fmt,
              "--out", str(tmp_path / f"grid.{fmt}")] for fmt in ("csv", "json")]
    argvs += [["replicate", "--out", str(tmp_path / "contour.csv")]]
    argvs += [["contour", "--config", path, "--belief", "box", "--format", "json",
               "--grid", grid, "--out", str(tmp_path / "grid.json")]
              for grid in ("200x200", "201x200")]
    steps = _loaded_after(argvs)["numpy"]
    assert [loaded for _, loaded in steps] == [False] * (2 + 4) + [True]


def test_grid_writers_load_only_where_they_are_used(tmp_path):
    path = write_config(tmp_path, config_to_json_object(case_study_config()))
    argvs = [["compute", "--config", path, "--belief", "belief-1-corner", "--format", "json"],
             ["power", "--config", path, "--belief", "belief-1-corner", "--format", "json"],
             ["bound", "--config", path, "--belief", "belief-1", "--format", "json"],
             ["compute", "--config", path, "--dump-config"]]
    # grids of up to 200x200 cells are evaluated and written without numpy, every
    # row through "%"; past that cut, a 300x300 block is two rows
    argvs += [["contour", "--config", path, "--belief", "plausible-region", "--grid", grid,
               "--format", fmt, "--out", str(tmp_path / f"grid.{fmt}")]
              for grid, fmt in (("20x20", "csv"), ("20x20", "json"), ("50x50", "csv"),
                                ("50x50", "json"), ("80x80", "json"), ("300x300", "json"))]
    cold, small = [False] * (2 + 4), [True] * 5
    expected = {"numpy": cold + [False] * 5 + [True], "piv._grid_text": cold + small + [True],
                "piv._json_digits": cold + [False] * 5 + [True]}
    for module, steps in _loaded_after(argvs, tuple(expected)).items():
        assert [loaded for _, loaded in steps] == expected[module], module


# =============================================================================
# Public surface and the direction of imports: nothing in the library needs the CLI
# =============================================================================

PUBLIC_NAMES = {
    "PivError", "InputValidationError", "DegenerateSpreadError", "SignMismatchError",
    "ObservedStats", "CounterfactualBelief", "EstimateSign", "StatisticalThreshold",
    "FixedThreshold", "Threshold", "PivResult", "std_normal_cdf", "ideal_correlation",
    "se_ideal", "saturation_limits", "piv_from_correlation", "piv",
    "BeliefRegion", "ContourGrid", "BoundResult", "Verdict", "evaluate_grid", "bound_piv",
    "robustness_verdict", "__version__",
}
_SRC_PIV = Path(cli.__file__).parent


def test_public_names_are_pinned_and_resolve():
    assert len(piv.__all__) == len(PUBLIC_NAMES) == 25
    assert set(piv.__all__) == PUBLIC_NAMES
    for name in piv.__all__:
        assert getattr(piv, name) is not None, name


def _imported(source: str) -> set[str]:
    """Every module an import in source names, at any depth, as an absolute
    name: `from . import cli` and `from .cli import x` in piv both give piv.cli."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = ".".join(filter(None, ["piv" if node.level else "", node.module]))
            names.add(base)
            names.update(f"{base}.{alias.name}" for alias in node.names)
    return names


def test_import_scan_sees_imports_inside_functions():
    assert "piv.cli" in _imported("def f():\n    from .cli import render_json\n")
    assert "piv.cli" in _imported("def f():\n    from . import cli\n")
    assert "piv.cli" in _imported("def f():\n    import piv.cli\n")


def test_only_the_cli_imports_the_cli():
    sources = {path.name: path.read_text(encoding="utf-8") for path in _SRC_PIV.glob("*.py")}
    assert {"__init__.py", "bounds.py", "core.py", "_grid_text.py", "cli.py",
            "config.py", "report.py"} <= set(sources)
    importers = sorted(name for name, source in sources.items() if name != "cli.py"
                       and any(module == "piv.cli" or module.startswith("piv.cli.")
                               for module in _imported(source)))
    assert importers == []


def test_the_cli_evaluates_no_grid_cell():
    # grid evaluation, on either path, is piv._grid_text.grid_export's alone
    source = (_SRC_PIV / "cli.py").read_text(encoding="utf-8")
    functions = {node.name for node in ast.walk(ast.parse(source))
                 if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))}
    assert "_row_grid" not in functions
    assert not hasattr(cli, "_row_grid")
    kernel = {"piv.core._cdf", "piv.core._correlation", "piv.core._probit"}
    assert kernel & _imported(source) == set()
    assert "piv._grid_text.grid_export" in _imported(source)


def test_only_main_writes_stderr_or_picks_a_failure_code():
    """Every other function raises on failure, so that main alone writes the
    one stderr line and picks the exit code, which then holds whatever becomes
    of standard error."""
    failure_codes = {"EXIT_CONFIG", "EXIT_DEGENERATE", "EXIT_IO"}
    users = set()
    for path in _SRC_PIV.glob("*.py"):
        for func in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(func):
                if (isinstance(node, ast.Attribute) and node.attr in ("stderr", "__stderr__")
                        or isinstance(node, ast.Name) and node.id in failure_codes | {"stderr"}):
                    users.add(f"{path.name}:{func.name}")
    assert users == {"cli.py:main"}


def test_import_piv_leaves_the_cli_unloaded():
    loaded_after = _loaded_after([], ("piv.cli", "argparse", "piv.bounds"))
    assert loaded_after["piv.cli"] == [["import piv", False], ["import piv.cli", True]]
    for module in ("argparse", "piv.bounds"):
        assert loaded_after[module] == [["import piv", False], ["import piv.cli", False]]


def test_the_package_lends_the_bounds_names_on_first_use():
    # a private name is refused before piv.bounds is looked up, so `from piv
    # import _json_digits` does not recurse; submodules import as before
    steps = _probe(["from piv import _json_digits", "from piv import config",
                    "from piv import *"], ())
    assert set(steps[-1][1]) == PUBLIC_NAMES


# in a fresh process, where piv.bounds is not loaded yet: then `from piv import
# bound_piv` gives piv.bounds's own object
_FROM_BOUNDS = ("import sys\nfrom piv import bound_piv\n"
                "assert bound_piv is sys.modules['piv.bounds'].bound_piv")


@pytest.mark.parametrize("statement", ["from piv import config", "from piv import oracle",
                                       "from piv import BeliefRegion"])
def test_from_imports_of_other_names_load_no_bounds(statement):
    # a submodule, or a name of piv.core, is not one piv.bounds lends
    steps = _probe([statement, _FROM_BOUNDS], ("piv.bounds",))
    assert [loaded for *_, loaded in steps] == [[False], [True]]


def test_belief_region_is_one_class():
    from piv import core

    assert core.BeliefRegion is bounds.BeliefRegion is piv.BeliefRegion
    assert piv.bounds is bounds


def test_the_config_layer_loads_without_the_cli():
    steps = _probe(["import piv.config"], ("numpy", "argparse", "piv.cli", "piv.bounds"))
    assert steps == [["import piv.config", ["piv"], [False] * 4]]


# the names perfbench/ reads from piv.cli, as attributes or through a from-import
PERFBENCH_CLI_NAMES = ["main", "load_config", "parse_config", "config_to_json_object",
                       "case_study_config", "verify_report", "render_json",
                       "bound_piv", "evaluate_grid", "robustness_verdict", "piv"]


def test_the_cli_keeps_the_names_perfbench_reads():
    from piv import config, report

    for name in PERFBENCH_CLI_NAMES:
        assert callable(getattr(cli, name)), name
    # the config layer, the reports and the bounds are the same objects, not copies
    for name in ("load_config", "parse_config", "config_to_json_object", "case_study_config"):
        assert getattr(cli, name) is getattr(config, name)
    assert cli.verify_report is report.verify_report
    for name in ("bound_piv", "evaluate_grid", "robustness_verdict"):
        assert getattr(cli, name) is getattr(bounds, name)


# Help and parse errors, which main leaves to argparse: help exits 0 and a
# usage error 2.
_PARSER_EXITS = [[], ["--help"], ["-h"], ["bogus"], ["--bogus"], ["compute", "--bogus"],
                 ["compute", "extra"], ["compute", "--format", "xml"], ["contour", "--grid"],
                 ["verify", "--seeds", "x"], ["replicate", "--out"]]
_PARSER_EXITS += [[command, "--help"] for command in cli._COMMANDS]
PARSER_EXIT_CODE = {" ".join(argv): 0 if argv[-1:] in (["--help"], ["-h"]) else 2
                    for argv in _PARSER_EXITS}
# " ".join(argv) -> sha256 of json.dumps([stdout, stderr, exit code]) that main
# gives at COLUMNS=80 under Python 3.11, recorded before the parser was built
# from the flag table; Python 3.10 prints "optional arguments:" in help
PARSER_EXIT_SHA256 = {
    "": "4001714b99bafb1769069725c6c4cbaee1541d586e622aa761f14289157685b6",
    "--help": "e509cda4c851ee18e237e66fec711309ed7001d6f899d5f3e10df7494e38abcf",
    "-h": "e509cda4c851ee18e237e66fec711309ed7001d6f899d5f3e10df7494e38abcf",
    "bogus": "c8eb38ce03071d62d139785bcc67b880af3da035043d1d8d5ba0ae48f3f961e0",
    "--bogus": "4001714b99bafb1769069725c6c4cbaee1541d586e622aa761f14289157685b6",
    "compute --bogus": "85292e56846e3f10d8a853a3aacc11b1642dbceca05d96ec6fd00d21c08c1953",
    "compute extra": "3c8e8de3bcf2f2d09225641e68dc8940815963a1bd43bd227f65056e0b2b8081",
    "compute --format xml": "8baab60194d4352cb80cf43f0e062e9dd379681dc9daf2a6d03e380b2ebe8c56",
    "contour --grid": "87267fecf00bacdbbc877fad1ccdfb8c580ce2423b9e188fc4998e349cc6d9ab",
    "verify --seeds x": "95e1e60c23181f018da1f4fc86af06859b1cf5d79f35f50941d0e2c9ddb74983",
    "replicate --out": "c8443c033c71c8f6c6eb42ab8c57f9f3c15d1f7823caa5edff9650611fcc22b6",
    "compute --help": "be390629cf56cc01cec7fd27415d61beeb365a2b005a3e1f54f3899bbc48aecf",
    "bound --help": "21eec778fa1a89813694ff8c84632162faa33d8ff4411382b81052362c01c240",
    "contour --help": "25bf864fdcf9f92d3c62e2c1ff93510cae0d284627a6f1eb87d366539e21caee",
    "power --help": "3f5a80412dde7dda702156d2c056c0583a1d29f68daa86500773b49b8ae85406",
    "replicate --help": "87b74c9ade60cf2efc567331b7b0d62640003a100d8be19c694055969f1996fd",
    "verify --help": "60eac4dac559be20aeaeea3b923fa2d6acf03c5d46009b51d4953739602cda7d",
}


@pytest.mark.parametrize("argv", _PARSER_EXITS, ids=lambda argv: " ".join(argv) or "no-command")
def test_help_and_errors_match_the_full_parser(argv, monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps to the terminal width
    with pytest.raises(SystemExit) as one:
        main(argv)
    got = capsys.readouterr()
    assert one.value.code == PARSER_EXIT_CODE[" ".join(argv)]
    # help goes to stdout, a usage error to stderr, and neither writes the other stream
    shown, silent = (got.out, got.err) if one.value.code == 0 else (got.err, got.out)
    assert shown.startswith("usage: piv")
    assert silent == ""
    # help names every command, or every flag of its command, with its help;
    # compared without whitespace, since argparse may break a line at any space or hyphen
    if one.value.code == 0:
        rows = ([(name, help_text) for name, (help_text, *_) in cli._COMMANDS.items()]
                if len(argv) == 1 else
                [(flag, flag_help or "") for flag, _, _, flag_help in cli._COMMANDS[argv[0]][1]])
        text = "".join(got.out.split())
        for name, help_text in rows:
            assert name in text, name
            assert "".join(help_text.split()) in text, help_text
    if sys.version_info[:2] == (3, 11):
        text = json.dumps([got.out, got.err, one.value.code])
        assert hashlib.sha256(text.encode()).hexdigest() == PARSER_EXIT_SHA256[" ".join(argv)]


def test_usage_lists_every_command(monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit):
        main(["compute", "--bogus"])
    assert capsys.readouterr().err.startswith(
        "usage: piv [-h] {compute,bound,contour,power,replicate,verify} ...\n")


# The plain path: main reads a command and its exact flags without argparse,
# into what the full parser returns; anything else goes to argparse.
_PLAIN_STRINGS = ("cfg.json", "x y", "", "a=b", "compute", "200x200")
_PLAIN_INTS = ("0", "7", "2000", "007", " 12", "+3")


def _plain_argvs(command: str):
    """argvs of command with every subset of its flags, in table order, reversed and
    shuffled, each choice of a choices flag and various values of the others."""
    flags = cli._COMMANDS[command][1]
    rng = random.Random(command)
    for mask in range(1 << len(flags)):
        subset = [flag for i, flag in enumerate(flags) if mask >> i & 1]
        choices = next((kind for _, _, kind, _ in subset if isinstance(kind, tuple)), (None,))
        for choice in choices:
            words = []
            for k, (flag, _, kind, _) in enumerate(subset):
                if kind is bool:
                    words.append([flag])
                else:
                    value = (choice if isinstance(kind, tuple)
                             else _PLAIN_INTS[(mask + k) % len(_PLAIN_INTS)] if kind is int
                             else _PLAIN_STRINGS[(mask + k) % len(_PLAIN_STRINGS)])
                    words.append([flag, value])
            shuffled = rng.sample(words, len(words))
            for order in (words, words[::-1], shuffled):
                yield [command, *(word for pair in order for word in pair)]


@pytest.mark.parametrize("command", list(cli._COMMANDS))
def test_plain_path_parses_as_the_full_parser(command):
    parser, count = cli.build_parser(), 0
    for argv in _plain_argvs(command):
        plain = cli._plain_args(argv)
        assert plain is not None, argv
        assert vars(plain) == vars(parser.parse_args(argv)), argv
        count += 1
    assert count >= 3 * (1 << len(cli._COMMANDS[command][1]))


def _declined(path: str) -> list[list[str]]:
    point = ["--config", path, "--belief", "corner"]
    return [
        ["compute", "--conf", path, "--belief", "corner"],  # an abbreviation
        ["compute", f"--config={path}", "--belief", "corner"],
        ["compute", *point, "--format", "text", "--format", "json"],  # a repeated flag
        ["verify", "--seeds", "1", "--seed", "-1"],
        ["verify", "--seeds", "-1"],
        ["compute", *point, "--format", "xml"],
        ["verify", "--seeds", "x"],
        ["contour", *point, "--grid"],
        ["compute", *point, "extra"],
        ["compute", *point, "--"],
        ["compute", "--", *point],
        ["compute", *point, "-h"],
        ["compute", *point, "--help"],
        ["compute", "--belief", "--config", path],
        [],
        ["--config", path, "compute"],
        ["bogus", *point],
    ]


def test_plain_path_declines_what_argparse_must_read(tmp_path, monkeypatch, capsys):
    """For each argv, _plain_args gives None, and main gives the full parser's
    result: its namespace, passed to the command, or its exit and output."""
    monkeypatch.setenv("COLUMNS", "80")
    path = write_config(tmp_path, base_config_object())
    ran = []
    for name, (help_text, flags, _, kind) in list(cli._COMMANDS.items()):
        monkeypatch.setitem(cli._COMMANDS, name, (help_text, flags,
                                                  lambda args, *_: ran.append(args) or 0, kind))
    # a repeated switch too; main would print the config and run no command
    assert cli._plain_args(["compute", "--dump-config", "--config", path, "--dump-config"]) is None
    for argv in _declined(path):
        assert cli._plain_args(argv) is None, argv
        ran.clear()
        try:
            expected = vars(cli.build_parser().parse_args(argv))
        except SystemExit as full:
            output = capsys.readouterr()
            with pytest.raises(SystemExit) as one:
                main(argv)
            assert one.value.code == full.code, argv
            assert capsys.readouterr() == output, argv
            continue
        assert main(argv) == EXIT_OK, argv
        assert [vars(args) for args in ran] == [expected], argv
