"""End-to-end tests of the command-line interface and config handling."""

from __future__ import annotations

import ast
import errno
import functools
import hashlib
import importlib.util
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
from piv.config import AnalysisConfig, NamedBelief
from piv.core import (
    CounterfactualBelief,
    DegenerateSpreadError,
    EstimateSign,
    FixedThreshold,
    InputValidationError,
    ObservedStats,
    SignMismatchError,
    StatisticalThreshold,
    ideal_correlation,
    piv_from_correlation,
    std_normal_cdf,
)

from helpers import cellwise_csv, mirrored, ordered_means, random_observed_stats


# sha256 of the contour CSV that `piv replicate` writes by default, of its
# report lines joined with newlines, and of what `piv replicate --out contour.csv` prints
REPLICATE_CONTOUR_SHA256 = "1ad2c71cd78ea103e5bea94a13be92586b47a749fa5d4390449e09869cbde26b"
REPLICATE_REPORT_SHA256 = "51087f225e3c98ca4b3b442b9e2e4274b90845c7347082f9116edfbfa84f6885"
REPLICATE_STDOUT_SHA256 = "5e1320fd48c691c1ef1c4798fd2d3ad5f87390a19b94fda3a499a9709f483bbc"
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
# in (0, 1) and few rows repeat
TIPPING_BAND = {"name": "tipping-band", "region": {"t": [44.0, 48.0], "c": [44.0, 47.0]}}


def case_study_with(belief: dict) -> dict:
    """The case study's dumped config with a copy of belief added."""
    obj = config_to_json_object(case_study_config())
    obj["beliefs"].append({**belief})
    return obj


_TIPPING = case_study_with(TIPPING_BAND)
# contour exports pinned byte for byte: name -> (config object, belief, --grid,
# --format, file size, sha256, share of the grid's cells in (0, 1), to two places).
# The tipping band is also pinned under a fixed threshold, and mirrored for a
# positive estimate (observed means negated, the band negated with them).  The
# saturated regions lie far from it, so every row is filled without the kernel
# (PIV 1.0 in the first, 0.0 in the second) and every row is the same.
EXPORT_PINS = {
    "plausible-1000x250-csv": (
        config_to_json_object(case_study_config()), "plausible-region", "1000x250", "csv",
        2_272_726, "6e612283eeb5d717c39bbe719f83f80595628fe29fa758d53b2d101607208ebf", 0.16),
    "plausible-250x1000-json": (
        config_to_json_object(case_study_config()), "plausible-region", "250x1000", "json",
        2_985_262, "28ee940373cea538495a84265224ebb13409e3d199d55cb42f257280d51bea23", 0.16),
    "tipping-csv": (
        _TIPPING, "tipping-band", "300x300", "csv",
        820_885, "a379672e84934e9cbcf8bb3e8995455e95c4a53dd3b5ad5bcfeda9c19ff9c083", 0.83),
    "tipping-json": (
        _TIPPING, "tipping-band", "300x300", "json",
        2_278_712, "eee9b433e39a759e831062f03e8e45a354fdf5c5eecbffa6357d7f88aab833bc", 0.83),
    "tipping-fixed-json": (
        {**_TIPPING, "threshold": {"kind": "fixed", "beta_sharp": -0.02}}, "tipping-band",
        "300x300", "json",
        2_366_437, "320352d949833e86e5dafe3d49627e5adbdc5803a6185f2a961fd873eb91e713", 0.88),
    "tipping-positive-json": (
        mirrored(case_study_with(TIPPING_BAND)), "tipping-band", "300x300", "json",
        2_279_305, "b711313c33ffad1d8bc445856c7f897df7344b6af496d30526a50653d350f18c", 0.83),
    "saturated-csv": (
        case_study_with({"name": "far", "region": {"t": [10.0, 30.0], "c": [40.0, 60.0]}}),
        "far", "300x300", "csv",
        821_031, "bca485996481006ce2c69d571e1cb091f522fad17f07fc3c86d932bb5920b239", 0.0),
    "saturated-json": (
        case_study_with({"name": "far", "region": {"t": [60.0, 80.0], "c": [20.0, 40.0]}}),
        "far", "300x300", "json",
        827_929, "ae8ec526b7d0200e88740bdea83f1205b58afc5b159746cdc64a0ca6de6ef493", 0.0),
}

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
        obj = base_config_object()
        obj["threshold"] = {"kind": "fixed", "beta_sharp": -0.1}
        assert isinstance(parse_config(obj).threshold, FixedThreshold)

    def test_a_config_built_in_code_holds_what_a_parsed_one_holds(self):
        # a tuple of beliefs, so that the frozen record hashes, of unique names,
        # each belief of exactly one shape
        parsed = parse_config(base_config_object())
        built = AnalysisConfig(parsed.observed, parsed.threshold, list(parsed.beliefs))
        assert built == parsed and hash(built) == hash(parsed)
        corner = parsed.belief("corner")
        with pytest.raises(InputValidationError,
                           match=r"^beliefs\[1\]\.name: duplicate belief name 'corner'$"):
            AnalysisConfig(parsed.observed, parsed.threshold, [corner, corner])
        for shapes in ({}, {"point": corner.point, "region": parsed.belief("box").region}):
            with pytest.raises(InputValidationError,
                               match="^exactly one of 'point' or 'region' is required$"):
                NamedBelief("y", **shapes)

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

    def test_any_package_error_maps_to_exit_code(self, tmp_path, capsys, monkeypatch):
        def mismatch(*args):
            raise SignMismatchError("fixed threshold on the wrong side")

        monkeypatch.setattr(cli, "piv", mismatch)
        path = write_config(tmp_path, base_config_object())
        assert main(["compute", "--config", path, "--belief", "corner"]) == EXIT_CONFIG
        assert capsys.readouterr().err == "config error: fixed threshold on the wrong side\n"

    @pytest.mark.parametrize("mirror", [False, True], ids=["negative", "positive"])
    @pytest.mark.parametrize("stated", [True, False], ids=["stated", "derived"])
    def test_dump_config_round_trip(self, stated, mirror, tmp_path, capsys):
        # "sign" is optional: a config without it parses as the config with it,
        # and --dump-config writes the sign of y_t_ob - y_c_ob
        sign = "positive" if mirror else "negative"
        obj = mirrored(base_config_object()) if mirror else base_config_object()
        obj.pop("sign", None)
        if stated:
            obj["sign"] = sign
        path = write_config(tmp_path, obj)
        assert main(["compute", "--config", path, "--dump-config"]) == EXIT_OK
        dumped = json.loads(capsys.readouterr().out)
        assert dumped["sign"] == sign
        assert parse_config(dumped) == load_config(path) == parse_config({**obj, "sign": sign})

    def test_sign_is_derived_and_no_gap_refused_on_construction(self):
        config = parse_config(base_config_object())
        assert list(config._asdict()) == ["observed", "threshold", "beliefs", "piv_threshold",
                                          "grid"]
        assert config.sign is EstimateSign.NEGATIVE
        flat = ObservedStats(**{**config.observed._asdict(), "y_t_ob": config.observed.y_c_ob})
        with pytest.raises(InputValidationError, match="^observed: no gap between y_t_ob"):
            AnalysisConfig(flat, config.threshold, config.beliefs)


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


class TestContourCommand:
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
        # a header row of c values, then each t value and its row of cells
        lines = out_path.read_text(encoding="utf-8").strip().split("\n")
        assert len(lines) == 201
        assert all(len(line.split(",")) == 201 for line in lines)
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

    @pytest.mark.parametrize("fmt, least", [("csv", 800_000), ("json", 1_000_000)])
    def test_export_peak_memory_below_file_size(self, fmt, least, tmp_path):
        # streamed, an export holds the grid array plus one row, not the payload.
        # A CSV cell is 9 bytes against the grid array's 8, so the blocks the grid
        # is evaluated and written in must stay small beside the grid: evaluation
        # takes 1/64 of it a block, updates its temporaries in place and builds
        # the axis tuples after the last block; the writer takes 1/128
        path = write_config(tmp_path, config_to_json_object(case_study_config()))
        out_path = tmp_path / f"grid.{fmt}"
        argv = ["contour", "--config", path, "--belief", "plausible-region",
                "--grid", "300x300", "--format", fmt, "--out", str(out_path)]
        assert main(argv) == EXIT_OK  # warm-up: imports and caches stay out of the peak
        tracemalloc.start()
        try:
            assert main(argv) == EXIT_OK
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        size = out_path.stat().st_size
        assert size > least
        assert peak < size

    def test_first_json_export_peak_memory_below_file_size(self, tmp_path):
        # nothing warmed in a fresh process: the first export also builds the digit tables
        path = write_config(tmp_path, config_to_json_object(case_study_config()))
        out_path = tmp_path / "grid.json"
        argv = ["contour", "--config", path, "--belief", "plausible-region",
                "--grid", "300x300", "--format", "json", "--out", str(out_path)]
        child = ("import json, sys, tracemalloc\n"
                 "import numpy, piv._grid_text, piv._json_digits, piv.cli\n"
                 "tracemalloc.start()\n"
                 "assert piv.cli.main(json.loads(sys.argv[1])) == 0\n"
                 "print(tracemalloc.get_traced_memory()[1], file=sys.stderr)")
        proc = subprocess.run([sys.executable, "-c", child, json.dumps(argv)],
                              env=_SRC_ENV, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert int(proc.stderr) < out_path.stat().st_size

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

    @staticmethod
    def _export(name, tmp_path) -> bytes:
        """The pinned export name, written by main, checked against its size and sha256."""
        obj, belief, grid, fmt, size, sha256, _ = EXPORT_PINS[name]
        out_path = tmp_path / f"grid.{fmt}"
        assert main(["contour", "--config", write_config(tmp_path, obj), "--belief", belief,
                     "--grid", grid, "--format", fmt, "--out", str(out_path)]) == EXIT_OK
        data = out_path.read_bytes()
        assert len(data) == size
        assert hashlib.sha256(data).hexdigest() == sha256
        return data

    @pytest.mark.parametrize("name", EXPORT_PINS)
    def test_export_pinned(self, name, tmp_path):
        self._export(name, tmp_path)
        obj, belief, grid, *_, share = EXPORT_PINS[name]
        config = parse_config(obj)
        cells = evaluate_grid(config.belief_as(belief, "region"), tuple(map(int, grid.split("x"))),
                              config.observed, config.sign, config.threshold).piv
        assert round(((cells > 0.0) & (cells < 1.0)).mean(), 2) == share

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no os.mkfifo on this system")
    def test_export_through_a_fifo_pinned(self, tmp_path):
        # a target that cannot seek gets the same bytes, read as they are written
        obj, belief, grid, fmt, size, sha256, _ = EXPORT_PINS["plausible-1000x250-csv"]
        fifo = tmp_path / "grid.fifo"
        os.mkfifo(fifo)
        received = bytearray()

        def read():
            with open(fifo, "rb") as stream:
                for block in iter(lambda: stream.read(1 << 16), b""):
                    received.extend(block)

        reader = threading.Thread(target=read, daemon=True)
        reader.start()
        code = main(["contour", "--config", write_config(tmp_path, obj), "--belief", belief,
                     "--grid", grid, "--format", fmt, "--out", str(fifo)])
        reader.join(timeout=60)
        assert not reader.is_alive()
        assert code == EXIT_OK
        assert (len(received), hashlib.sha256(received).hexdigest()) == (size, sha256)

    @pytest.mark.skipif(not hasattr(os, "writev"), reason="no os.writev on this system")
    @pytest.mark.parametrize("name", EXPORT_PINS)
    def test_short_writes_resume(self, name, tmp_path, monkeypatch):
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
        size = len(self._export(name, tmp_path))
        assert len(calls) >= size // 1000

    @pytest.mark.parametrize("name", EXPORT_PINS)
    def test_write_fallback_without_writev(self, name, tmp_path, monkeypatch):
        # where os.writev is missing (Windows), the writer calls os.write once a buffer
        monkeypatch.delattr(os, "writev", raising=False)
        self._export(name, tmp_path)

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
    @pytest.mark.parametrize("name", [name for name, pin in EXPORT_PINS.items() if pin[-1] == 0])
    def test_repeated_rows_go_out_by_reference(self, name, tmp_path, monkeypatch):
        # every row of these grids is the same: the writer sends one bytes object
        # for all of them, so each call writes many times the bytes it holds
        writev, batches = os.writev, []

        def recording_writev(fd, buffers):
            batches.append(list(buffers))
            return writev(fd, buffers)

        monkeypatch.setattr(os, "writev", recording_writev)
        size, fmt = len(self._export(name, tmp_path)), EXPORT_PINS[name][3]
        chunks = [chunk for batch in batches for chunk in batch]
        # a CSV row starts with ","; a JSON row after the first with ",\n"
        rows = [chunk for chunk in chunks if chunk.startswith(b"," if fmt == "csv" else b",\n")]
        assert len(rows) == (300 if fmt == "csv" else 299)
        assert all(row is rows[0] for row in rows)
        assert all(len(batch) <= _grid_text._IOV_MAX for batch in batches)
        # a writer that copies rows through an 8 KiB buffer makes about 100 writes here
        assert len(batches) <= size // (4 * _grid_text._BATCH_BYTES)

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
    stats = ordered_means(random_observed_stats(rng), EstimateSign(sign))
    sd = math.sqrt(0.5 * (stats.var_t + stats.var_c))
    half = sd * float(rng.uniform(0.1, 3.0))
    t0, c0 = stats.y_t_ob + rng.uniform(-half, half), stats.y_c_ob + rng.uniform(-half, half)
    magnitude = float(rng.uniform(0.0, 0.3))
    threshold = ({"kind": "statistical", "critical": 10.0 * magnitude} if kind == "statistical"
                 else {"kind": "fixed",
                       "beta_sharp": magnitude if sign == "positive" else -magnitude})
    obj = {"observed": {**stats._asdict(), "n_ob": int(rng.integers(20, 2000))},
           "threshold": threshold, "piv_threshold": 0.8,
           "beliefs": [{"name": "grid", "region": {"t": [t0 - half, t0 + half],
                                                    "c": [c0 - half, c0 + half]}}]}
    return obj, "grid"


def _case_study_case(belief: str) -> tuple[dict, str]:
    return case_study_with({**TIPPING_BAND, "region": dict(TIPPING_BAND["region"])}), belief


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
# check first, the overflow, although the first cell alone raises zero spread.
# A config needs a gap between the observed means; this one squares to zero.
ZERO_SPREAD_STATS = {"r_squared": 0.1, "n_ob": 100, "y_t_ob": 1e-200, "y_c_ob": 0.0,
                     "var_t": 0.0, "var_c": 0.0, "pi": 0.5}
OVERFLOW_ERROR = ("config error: completed-sample variance overflows float64; the "
                  "counterfactual means lie too far from the observed ones\n")
ZERO_SPREAD_ERROR = ("degenerate inputs: completed sample has zero outcome spread; "
                     "correlation undefined\n")
GRID_ERRORS = {
    "mixed": ([0.0, 1e155], EXIT_CONFIG, OVERFLOW_ERROR),
    "zero-spread": ([0.0, 1.0], EXIT_DEGENERATE, ZERO_SPREAD_ERROR),
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

    def test_report_follows_the_sign_of_its_config(self):
        lines, data = replicate_report(parse_config(mirrored(
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
            obj = mirrored(obj)
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
    """Zero spread at the observed means: no variance, and a gap that squares to zero."""
    obj.update(sign="positive", observed=dict(ZERO_SPREAD_STATS))


def _no_gap(obj: dict) -> None:
    obj["observed"]["y_t_ob"] = obj["observed"]["y_c_ob"]


_MALFORMED_BELIEFS = [
    {"name": "huge", "point": {"y_t_un": 1e200, "y_c_un": 0.0}},
    {"name": "far", "region": {"t": [1e200, 2e200], "c": [36.77, 45.78]}},
    {"name": "flat", "point": {"y_t_un": 1e-200, "y_c_un": 0.0}},
    {"name": "flat-point-region", "region": {"t": [1e-200, 1e-200], "c": [0.0, 0.0]}},
    {"name": "flat-box", "region": {"t": [-1.0, 1.0], "c": [-1.0, 1.0]}},
    {"name": "line", "region": {"t": [None, None], "c": [0.0, 0.0]}},
    {"name": "overflowing-edge", "region": {"t": [1e308, 1e308], "c": [None, None]}},
]
_HUGE = 10**400  # a JSON integer that float() cannot convert
_TOO_LARGE = "got an integer too large for a float\n"
_OVERFLOW = (EXIT_CONFIG, OVERFLOW_ERROR)
_DEGENERATE = (EXIT_DEGENERATE, ZERO_SPREAD_ERROR)
_NO_GAP = (EXIT_CONFIG,
           "config error: observed: no gap between y_t_ob and y_c_ob, so no estimate\n")
# the case study's estimate is negative
_OTHER_SIGN = (EXIT_CONFIG, "config error: sign: got 'positive', but y_t_ob - y_c_ob = -9.01 "
               "makes the estimate negative\n")
_ZERO_SE = (EXIT_CONFIG, "config error: observed: n_ob is too large for a positive standard "
            "error, got 1e+308\n")
_ONE_SHAPE = (EXIT_CONFIG,
              "config error: beliefs[0]: exactly one of 'point' or 'region' is required\n")
# in place of a config edit: the argv is run as it is, with no --config put in
_NO_CONFIG = "no --config"
# the commands that take no --config
_CONFIGLESS = ("replicate", "verify")
_CORNER = ["compute", "--belief", "corner"]

# The CLI's refusals of bad input: name -> (config edit, argv, exit code, stderr).
# An edit is a function of the config object, bytes written as the config file
# in place of its JSON, _NO_CONFIG or None.  The config's --config goes in after
# the command, if the command takes one.  "{tmp}" in the argv or stderr is the
# test's directory, "{out}" in the argv a file in it.  The stderr is one line,
# the whole of it, or only its start where the line ends in an OS error or in
# Python's own message.
MALFORMED_INPUTS = {
    "compute-no-belief": (None, ["compute"], EXIT_CONFIG, "config error: --belief is required\n"),
    "compute-no-config": (_NO_CONFIG, _CORNER, EXIT_CONFIG, "config error: --config is required\n"),
    "config-missing": (_NO_CONFIG, ["compute", "--config", "{tmp}/nope.json", "--belief", "corner"],
                       EXIT_CONFIG, "config error: cannot read config {tmp}/nope.json: "),
    "config-not-utf-8": (b"\xff\xfe{}", _CORNER, EXIT_CONFIG,
                         "config error: cannot read config {tmp}/config.json: 'utf-8' codec "
                         "can't decode byte 0xff in position 0: invalid start byte\n"),
    "config-nested-too-deeply": (b"[" * 200_000, _CORNER, EXIT_CONFIG,
                                 "config error: config {tmp}/config.json is nested too deeply "
                                 "to parse\n"),
    # json.loads raises a plain ValueError for an integer literal over 4300 digits
    "config-integer-past-digit-limit": (b'{"observed": ' + b"9" * 5000 + b"}", _CORNER, EXIT_CONFIG,
                                        "config error: config {tmp}/config.json is not valid JSON: "),
    "config-unknown-keys": (lambda obj: obj.update(extra=1), _CORNER, EXIT_CONFIG,
                            "config error: config: unknown keys ['extra']\n"),
    "observed-unknown-keys": (lambda obj: obj["observed"].update(bogus=1), _CORNER, EXIT_CONFIG,
                              "config error: observed: unknown keys ['bogus']\n"),
    "observed-not-an-object": (lambda obj: obj.update(observed=[1.0]), _CORNER, EXIT_CONFIG,
                               "config error: observed: expected an object, got list\n"),
    "observed-missing-keys": (lambda obj: obj["observed"].pop("pi"), _CORNER, EXIT_CONFIG,
                              "config error: observed: missing keys ['pi']\n"),
    "observed-pi-out-of-range": (lambda obj: obj["observed"].update(pi=1.5), _CORNER, EXIT_CONFIG,
                                 "config error: observed: pi must be strictly inside (0, 1), "
                                 "got 1.5\n"),
    "observed-not-a-number": (lambda obj: obj["observed"].update(r_squared="high"), _CORNER,
                              EXIT_CONFIG, "config error: observed: r_squared must be a finite "
                              "real number, got 'high'\n"),
    "sign-not-a-sign": (lambda obj: obj.update(sign="up"), _CORNER, EXIT_CONFIG,
                        "config error: sign: got 'up', but y_t_ob - y_c_ob = -9.01 makes the "
                        "estimate negative\n"),
    "threshold-not-positive": (lambda obj: obj["threshold"].update(critical=-1.96), _CORNER,
                               EXIT_CONFIG, "config error: threshold: critical_magnitude must be "
                               "> 0, got -1.96\n"),
    "point-not-a-number": (lambda obj: obj["beliefs"][0]["point"].update(y_t_un="a"), _CORNER,
                           EXIT_CONFIG, "config error: beliefs[0].point: y_t_un must be a finite "
                           "real number, got 'a'\n"),
    "region-not-a-number": (lambda obj: obj["beliefs"][3]["region"].update(c=[36.77, "b"]),
                            _CORNER, EXIT_CONFIG, "config error: beliefs[3].region: c_interval "
                            "upper bound must be a real number or +/-inf, got 'b'\n"),
    "grid-too-small": (lambda obj: obj.update(grid={"nt": 1, "nc": 5}), _CORNER, EXIT_CONFIG,
                       "config error: grid.nt: must be an integer >= 2, got 1\n"),
    "fixed-threshold-other-sign": (
        lambda obj: obj.update(threshold={"kind": "fixed", "beta_sharp": 0.1}), _CORNER,
        EXIT_CONFIG, "config error: threshold: fixed threshold 0.1 is positive but the estimate "
        "sign is negative\n"),
    "region-side-not-a-pair": (lambda obj: obj["beliefs"][3]["region"].update(t=[36.77]),
                               ["bound", "--belief", "box"], EXIT_CONFIG,
                               "config error: beliefs[3].region.t: expected [lo, hi] with null "
                               "for an unbounded side\n"),
    "region-empty": (lambda obj: obj["beliefs"][2]["region"].update(t=[45.3, 45.2]), _CORNER,
                     EXIT_CONFIG, "config error: beliefs[2].region: t_interval is empty: lower "
                     "bound 45.3 exceeds upper bound 45.2\n"),
    "beliefs-empty": (lambda obj: obj.update(beliefs=[]), _CORNER, EXIT_CONFIG,
                      "config error: beliefs: expected a non-empty list\n"),
    "belief-name-empty": (lambda obj: obj["beliefs"][0].update(name=""), _CORNER, EXIT_CONFIG,
                          "config error: beliefs[0].name: expected a non-empty string\n"),
    "belief-no-shape": (lambda obj: obj["beliefs"][0].pop("point"), _CORNER, *_ONE_SHAPE),
    "belief-both-shapes": (lambda obj: obj["beliefs"][0].update(region={"t": [0, 1], "c": [0, 1]}),
                           _CORNER, *_ONE_SHAPE),
    "belief-duplicate-name": (lambda obj: obj["beliefs"].append(
        {"name": "corner", "point": {"y_t_un": 0, "y_c_un": 0}}), _CORNER, EXIT_CONFIG,
        "config error: beliefs[11].name: duplicate belief name 'corner'\n"),
    "compute-region-belief": (None, ["compute", "--belief", "belief-2"], EXIT_CONFIG,
                              "config error: belief 'belief-2' is a region; this command needs "
                              "a point\n"),
    "bound-point-belief": (None, ["bound", "--belief", "corner"], EXIT_CONFIG,
                           "config error: belief 'corner' is a point; this command needs a "
                           "region\n"),
    "bound-unknown-belief": (None, ["bound", "--belief", "missing"], EXIT_CONFIG,
                             "config error: unknown belief 'missing'; config defines: ['corner', "
                             "'null-point', 'belief-2', 'box', 'huge', 'far', ...]\n"),
    "verify-zero-seeds": (None, ["verify", "--seeds", "0"], EXIT_CONFIG,
                          "config error: seeds must be >= 1, got 0\n"),
    "verify-negative-seed": (None, ["verify", "--seeds", "1", "--reps", "1000", "--seed", "-1"],
                             EXIT_CONFIG, "config error: seed must be a nonnegative integer, "
                             "got -1\n"),
    "replicate-unwritable-out": (None, ["replicate", "--grid", "3x3",
                                        "--out", "{tmp}/no_dir/contour.csv"], EXIT_IO,
                                 "cannot write {tmp}/no_dir/contour.csv: "),
    "compute-huge-belief": (None, ["compute", "--belief", "huge"], *_OVERFLOW),
    "power-huge-belief": (None, ["power", "--belief", "huge"], *_OVERFLOW),
    "bound-huge-region": (None, ["bound", "--belief", "far"], *_OVERFLOW),
    "contour-huge-region": (None, ["contour", "--belief", "far", "--out", "{out}"], *_OVERFLOW),
    "contour-grid-1x5": (None, ["contour", "--belief", "box", "--grid", "1x5", "--out", "{out}"],
                         EXIT_CONFIG, "config error: resolution nt must be an integer >= 2, "
                         "got 1\n"),
    "contour-grid-axb": (None, ["contour", "--belief", "box", "--grid", "axb", "--out", "{out}"],
                         EXIT_CONFIG, "config error: --grid expects NTxNC, got 'axb'\n"),
    "contour-infinite-region": (None, ["contour", "--belief", "belief-2", "--out", "{out}"],
                                EXIT_CONFIG, "config error: a contour grid needs a finite "
                                "region\n"),
    "compute-degenerate": (_degenerate, ["compute", "--belief", "flat"], *_DEGENERATE),
    "power-degenerate": (_degenerate, ["power", "--belief", "flat"], *_DEGENERATE),
    "bound-degenerate": (_degenerate, ["bound", "--belief", "flat-point-region"], *_DEGENERATE),
    "contour-degenerate": (_degenerate, ["contour", "--belief", "flat-box", "--grid", "3x3",
                                         "--out", "{out}"], *_DEGENERATE),
    # with no gap there is no estimate: a config error, where zero spread was exit 3
    "compute-no-gap": (_no_gap, ["compute", "--belief", "corner"], *_NO_GAP),
    "power-no-gap": (_no_gap, ["power", "--belief", "corner"], *_NO_GAP),
    "bound-no-gap": (_no_gap, ["bound", "--belief", "box"], *_NO_GAP),
    "contour-no-gap": (_no_gap, ["contour", "--belief", "box", "--out", "{out}"], *_NO_GAP),
    "dump-config-no-gap": (_no_gap, ["compute", "--dump-config"], *_NO_GAP),
    # a stated sign must be the sign of y_t_ob - y_c_ob
    "compute-other-sign": (lambda obj: obj.update(sign="positive"), _CORNER, *_OTHER_SIGN),
    "bound-other-sign": (lambda obj: obj.update(sign="positive"), ["bound", "--belief", "belief-2"],
                         *_OTHER_SIGN),
    "contour-unwritable-out": (None, ["contour", "--belief", "box",
                                      "--out", "{tmp}/no_dir/grid.csv"], EXIT_IO,
                               "cannot write {tmp}/no_dir/grid.csv: "),
    "compute-huge-int-observed": (lambda obj: obj["observed"].update(y_t_ob=_HUGE),
                                  ["compute", "--belief", "corner"], EXIT_CONFIG,
                                  "config error: observed: y_t_ob must be a finite real number, "
                                  + _TOO_LARGE),
    "bound-huge-int-region": (lambda obj: obj["beliefs"][3]["region"].update(t=[36.77, _HUGE]),
                              ["bound", "--belief", "box"], EXIT_CONFIG,
                              "config error: beliefs[3].region: t_interval upper bound must be a "
                              "real number or +/-inf, " + _TOO_LARGE),
    "compute-huge-int-critical": (lambda obj: obj["threshold"].update(critical=_HUGE),
                                  ["compute", "--belief", "corner"], EXIT_CONFIG,
                                  "config error: threshold: critical_magnitude must be a finite "
                                  "real number, " + _TOO_LARGE),
    "bound-huge-int-piv-threshold": (lambda obj: obj.update(piv_threshold=_HUGE),
                                     ["bound", "--belief", "box"], EXIT_CONFIG,
                                     "config error: piv_threshold: must be in (0, 1), "
                                     + _TOO_LARGE),
    # 2.0 * n_ob overflows to inf, so se would be 0 and the probit would divide by it
    "compute-n-ob-zero-se": (lambda obj: obj["observed"].update(n_ob=10**308),
                             ["compute", "--belief", "corner"], *_ZERO_SE),
    "bound-n-ob-zero-se": (lambda obj: obj["observed"].update(n_ob=10**308),
                           ["bound", "--belief", "box"], *_ZERO_SE),
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
        ["bound", "--belief", "overflowing-edge"], *_OVERFLOW),
}
# piv_threshold outside (0, 1), NaN and infinity among them, or not a number:
# json.loads accepts NaN and infinity, and a comparison with NaN is false either way round
MALFORMED_INPUTS.update({
    f"piv-threshold-{value}": (lambda obj, value=value: obj.update(piv_threshold=value),
                               ["bound", "--belief", "box"], EXIT_CONFIG,
                               f"config error: piv_threshold: must be in (0, 1), got {shown}\n")
    for value, shown in [(0, "0"), (1, "1"), (1.5, "1.5"), (-0.25, "-0.25"), (math.nan, "nan"),
                         (math.inf, "inf"), ("high", "'high'")]})


@pytest.mark.parametrize("case", sorted(MALFORMED_INPUTS))
def test_malformed_input_exit_code(case, tmp_path, capsys):
    edit, argv, code, message = MALFORMED_INPUTS[case]
    obj = base_config_object()
    obj["beliefs"] += _MALFORMED_BELIEFS
    if callable(edit):
        edit(obj)
    path = write_config(tmp_path, obj)
    if isinstance(edit, bytes):
        Path(path).write_bytes(edit)
    argv = [arg.format(out=tmp_path / "grid.csv", tmp=tmp_path) for arg in argv]
    if edit is not _NO_CONFIG and argv[0] not in _CONFIGLESS:
        argv[1:1] = ["--config", path]
    assert main(argv) == code
    err, message = capsys.readouterr().err, message.format(tmp=tmp_path)
    assert err == message if message.endswith("\n") else err.startswith(message)
    assert err.count("\n") == 1 and err.endswith("\n")  # one line, no traceback


@pytest.mark.parametrize("command", cli._COMMANDS)
def test_every_command_states_its_refusals(command):
    assert any(argv[0] == command and code != EXIT_OK
               for _, argv, code, _ in MALFORMED_INPUTS.values())


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


def test_belief_region_is_one_class():
    from piv import core

    assert core.BeliefRegion is bounds.BeliefRegion is piv.BeliefRegion
    assert piv.bounds is bounds


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


def test_the_perfbench_tracer_finds_every_name_it_wraps():
    # install() raises AttributeError on a name it wraps that is gone
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    from piv import core, oracle

    originals = core.piv, bounds.bound_piv, oracle.monte_carlo_piv
    tracer = tracing.Tracer()
    try:
        tracing.install(tracer)
        assert core.piv is not originals[0]
    finally:
        tracer.restore()
    assert (core.piv, bounds.bound_piv, oracle.monte_carlo_piv) == originals


def test_every_perfbench_config_parses_with_the_sign_it_states():
    # gen writes "sign" as the sign of y_t_ob - y_c_ob, breaking a tie toward
    # positive; a config refuses a tie, but with both means drawn as uniform
    # floats one is practically impossible
    path = Path(__file__).resolve().parents[1] / "perfbench" / "gen.py"
    spec = importlib.util.spec_from_file_location("perfbench_gen", path)
    gen = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = gen  # @dataclass looks its module up there
    try:
        spec.loader.exec_module(gen)
        for seed in range(200):
            rng = random.Random(seed)
            for _ in range(10):
                obj = gen.config_object(rng)
                assert parse_config(obj).sign.value == obj["sign"], seed
    finally:
        del sys.modules[spec.name]


# =============================================================================
# Cold path: what a fresh process loads, step by step
# =============================================================================

# Runs each step of the JSON list argv[1] in one fresh process: a Python
# statement, in a namespace of its own, or "piv ARGS", which main() runs with
# stdout and stderr set aside.  Prints piv.__file__ and, for each step, [step,
# the names the statement bound or the exit code, SystemExit's included, the
# modules of the JSON list argv[2] that are loaded after the step and were not before].
_MODULE_PROBE = """
import contextlib, io, json, sys
watched, loaded, steps = json.loads(sys.argv[2]), set(), []
for step in json.loads(sys.argv[1]):
    if step.startswith("piv "):
        import piv.cli
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            try:
                result = piv.cli.main(step.split()[1:])
            except SystemExit as exc:
                result = exc.code
    else:
        names = {}
        exec(step, names)
        result = sorted(set(names) - {"__builtins__"})
    now = {module for module in watched if module in sys.modules}
    steps.append([step, result, sorted(now - loaded)])
    loaded = now
import piv
print(json.dumps([piv.__file__, steps]))
"""

# numpy imports inspect itself, so inspect is watched only in groups that never
# load numpy, as is array, a shared library that only grids under the cut use
_WATCHED = ("numpy", "argparse", "dataclasses", "piv.bounds", "piv.cli", "piv.report",
            "piv.oracle", "piv._grid_text", "piv._json_digits")
_NO_NUMPY = _WATCHED + ("inspect", "array")
_CASE, _BOX = "--config case.json", "--config box.json --belief box"
_REGION = f"{_CASE} --belief plausible-region"

# group -> (the modules it watches, its steps, run in order in one fresh process).
# A step is (a statement or "piv ARGS", the watched modules it is the first to load,
# and optionally the names the statement binds or the exit code, else 0); case.json
# is the case study and box.json base_config_object().  A step that loads numpy or
# argparse first starts a group: numpy picks a grid's path, and either hides what a
# later step loads.
COLD_PATH = {
    # compute, power and --dump-config load neither argparse nor piv.bounds, and
    # grids of up to 200x200 cells are evaluated and written without numpy, every
    # row through "%"
    "commands without numpy": (_NO_NUMPY, [
        ("import piv", (), ["piv"]),
        ("import piv.cli", ("piv.cli",), ["piv"]),
        *[(f"piv {command} {_CASE} --belief belief-1-corner --format {fmt}", ())
          for command in ("compute", "power") for fmt in ("text", "json")],
        (f"piv compute {_CASE} --dump-config", ()),
        (f"piv power {_CASE} --format json --dump-config", ()),
        (f"piv bound {_CASE} --belief belief-1 --format text", ("piv.bounds",)),
        *[(f"piv bound {_CASE} --belief {belief} --format {fmt}", ())
          for belief, fmt in (("belief-1", "json"), ("belief-2", "text"), ("belief-2", "json"))],
        (f"piv contour {_REGION} --grid 20x20 --format csv --out grid.csv",
         ("piv._grid_text", "array")),
        *[(f"piv contour {_REGION} --grid {grid} --format {fmt} --out grid.{fmt}", ())
          for grid, fmt in (("20x20", "json"), ("50x50", "csv"), ("50x50", "json"),
                            ("80x80", "json"), ("3x3", "csv"), ("3x3", "json"))],
        # the default 101x101 grid of a config without one, and 200x200, the last under the cut
        (f"piv contour {_BOX} --format csv --out grid.csv", ()),
        (f"piv contour {_BOX} --format json --out grid.json", ()),
        ("piv replicate --out contour.csv", ("piv.report",)),
        (f"piv contour {_BOX} --format json --grid 200x200 --out grid.json", ()),
    ]),
    # past the cut a grid loads numpy, and a JSON block of digits its formatter;
    # 201x200 is the first grid past it
    "300x300 csv": (_WATCHED, [(f"piv contour {_REGION} --grid 300x300 --out grid.csv",
                                ("piv.cli", "numpy", "piv.bounds", "piv._grid_text"))]),
    "300x300 json": (_WATCHED, [
        (f"piv contour {_REGION} --grid 300x300 --format json --out grid.json",
         ("piv.cli", "numpy", "piv.bounds", "piv._grid_text", "piv._json_digits"))]),
    "201x200 json": (_WATCHED, [
        (f"piv contour {_BOX} --format json --grid 201x200 --out grid.json",
         ("piv.cli", "numpy", "piv.bounds", "piv._grid_text"))]),
    # verify bounds nothing, and the oracle's records are _Record values, not dataclasses
    "verify": (_WATCHED, [("piv verify --seeds 1",
                           ("piv.cli", "numpy", "piv.oracle", "piv.report"))]),
    # import piv.config loads no CLI.  A private name is refused before piv.bounds is
    # looked up, so `from piv import _json_digits` does not recurse
    "import piv.config": (_WATCHED, [
        ("import piv.config", (), ["piv"]),
        ("from piv import _json_digits",
         ("numpy", "piv.bounds", "piv._grid_text", "piv._json_digits"), ["_json_digits"]),
        ("from piv import *", (), sorted(PUBLIC_NAMES)),
    ]),
    # a submodule, or a name of piv.core, is not one that piv.bounds lends; the first
    # name it lends imports it, and is piv.bounds's own object
    "from piv import": (_WATCHED, [
        ("from piv import BeliefRegion", (), ["BeliefRegion"]),
        ("from piv import config", (), ["config"]),
        ("from piv import oracle", ("numpy", "piv.oracle"), ["oracle"]),
        ("import sys\nfrom piv import bound_piv\n"
         "assert bound_piv is sys.modules['piv.bounds'].bound_piv",
         ("piv.bounds",), ["bound_piv", "sys"]),
    ]),
}
# help, usage errors and any argv the plain path declines load argparse
COLD_PATH.update({argv: (("argparse",), [(f"piv {argv}", ("argparse",), code)])
                  for argv, code in (("--help", 0), ("compute --help", 0), ("compute --bogus", 2),
                                     ("compute --conf missing.json", 2), ("verify --seeds x", 2))})


@pytest.mark.parametrize("group", COLD_PATH)
def test_cold_path(group, tmp_path):
    (tmp_path / "case.json").write_text(json.dumps(config_to_json_object(case_study_config())))
    (tmp_path / "box.json").write_text(json.dumps(base_config_object()))
    watched, steps = COLD_PATH[group]
    proc = subprocess.run([sys.executable, "-c", _MODULE_PROBE,
                           json.dumps([step for step, *_ in steps]), json.dumps(watched)],
                          cwd=tmp_path, env=_SRC_ENV, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    piv_file, probed = json.loads(proc.stdout)
    assert piv_file == piv.__file__  # the child imported the piv under test
    assert probed == [[step, result[0] if result else 0, sorted(loads)]
                      for step, loads, *result in steps]


@pytest.mark.parametrize("command", cli._COMMANDS)
def test_every_command_states_its_cold_path(command):
    # in a group that watches what a cold start must not load before it needs it
    assert any(step.split()[:2] == ["piv", command]
               for watched, steps in COLD_PATH.values()
               if {"numpy", "argparse", "piv.bounds"} <= set(watched)
               for step, *_ in steps)


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
