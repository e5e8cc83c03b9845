"""Output checks.  Each returns a list of problems; an empty list means correct."""

from __future__ import annotations

import json
import math

from piv.bounds import Verdict, bound_piv
from piv.cli import case_study_config, parse_config
from piv.core import CounterfactualBelief, piv

PROBE_TOL = 1e-9

# Published lower bounds of the kindergarten-retention case study.
CASE_STUDY_PINS = {
    "belief-1": 0.92,
    "belief-1-relaxed": 0.82,
    "belief-2": 0.936,
    "retained-effect-minus-7": 0.795,
}
PIN_TOL = 0.005


def bound_problems(piv_min, piv_max, asymptotic, verdict, piv_threshold, analysis, probe_points,
                   slack=0.0) -> tuple[list[str], int]:
    """Ordering, verdict agreement, and every probe inside the reported range.

    Returns the problems and the number of probe violations.  ``slack`` widens
    the range for values read back from 6-decimal text output.
    """
    problems = []
    if not piv_min <= piv_max:
        problems.append(f"piv_min {piv_min} > piv_max {piv_max}")
    expected = (Verdict.ROBUST if piv_min >= piv_threshold
                else Verdict.NOT_ROBUST if piv_max < piv_threshold
                else Verdict.INDETERMINATE)
    if verdict is not expected:
        problems.append(f"verdict {verdict.value} disagrees with bounds (expected {expected.value})")
    lo = min([piv_min, *asymptotic]) - PROBE_TOL - slack
    hi = max([piv_max, *asymptotic]) + PROBE_TOL + slack
    violations = 0
    for point in probe_points:
        value = piv(point, analysis.stats, analysis.sign, analysis.threshold).piv
        if not lo <= value <= hi:
            violations += 1
            problems.append(f"probe ({point.y_t_un}, {point.y_c_un}) gives {value} outside [{lo}, {hi}]")
    return problems, violations


def pin_problems() -> list[str]:
    """Case-study lower bounds within PIN_TOL of the published values."""
    config = case_study_config()
    problems = []
    for name, published in CASE_STUDY_PINS.items():
        got = bound_piv(config.belief(name).region, config.observed, config.sign,
                        config.threshold).piv_min
        if abs(got - published) > PIN_TOL:
            problems.append(f"case study {name}: lower bound {got} vs published {published}")
    return problems


def contour_file_problems(path: str, fmt: str, shape: tuple[int, int], analysis, spots) -> list[str]:
    """Re-read a contour file and compare spot cells with piv().

    CSV cells must equal piv() printed to 6 decimals; JSON cells must equal
    it exactly.  ``spots`` are (row, column) fractions in [0, 1).  A CSV file
    is split only at the rows checked, so the check stays small next to the
    program's own memory use.
    """
    with open(path, encoding="utf-8") as handle:
        text = handle.read()
    if fmt == "json":
        obj = json.loads(text)
        t_values, c_values, rows = obj["t_values"], obj["c_values"], obj["piv"]
        row = lambda i: (t_values[i], rows[i])
        n_rows = len(rows) if len(rows) == len(t_values) else -1
    else:
        lines = text.splitlines()
        header = lines[0].split(",")
        if header[0] != "y_t_un":
            return [f"bad CSV header {header[0]!r}"]
        c_values = [float(v) for v in header[1:]]

        def row(i: int):
            cells = lines[i + 1].split(",")
            return float(cells[0]), cells[1:]
        n_rows = len(lines) - 1
    if (n_rows, len(c_values)) != shape:
        return [f"grid shape {(n_rows, len(c_values))}, expected {shape}"]
    problems = []
    for ft, fc in spots:
        i, j = int(ft * shape[0]), int(fc * shape[1])
        t, cells = row(i)
        if len(cells) != shape[1]:
            problems.append(f"row {i} has {len(cells)} cells")
            continue
        want = piv(CounterfactualBelief(t, c_values[j]),
                   analysis.stats, analysis.sign, analysis.threshold).piv
        got = cells[j]
        ok = got == want if fmt == "json" else got == f"{want:.6f}"
        if not ok:
            problems.append(f"cell ({i}, {j}) is {got}, piv() gives {want}")
    return problems


def dump_config_problems(text: str, loaded) -> list[str]:
    """--dump-config output re-parses to the config the file holds."""
    try:
        reparsed = parse_config(json.loads(text))
    except ValueError as exc:
        return [f"--dump-config output does not re-parse: {exc}"]
    return [] if reparsed == loaded else ["--dump-config output differs from the loaded config"]


def monte_carlo_problems(rate: float, closed: float, reps: int) -> list[str]:
    tolerance = 3.0 * math.sqrt(closed * (1.0 - closed) / reps) + 0.02
    if abs(rate - closed) > tolerance:
        return [f"monte carlo rate {rate} vs closed form {closed} (tolerance {tolerance})"]
    return []
