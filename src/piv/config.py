"""The analysis config: its JSON schema, and the built-in case study.

parse_config checks the shape of a decoded JSON object, rejecting unknown
keys, and leaves the values to the domain types; config_to_json_object is its
inverse.  The sign is that of y_t_ob - y_c_ob; a "sign" key, if given, must
agree.  This module loads neither numpy, argparse nor piv.bounds, so a caller
that only reads configs loads neither the command line nor the bound search.
"""

from __future__ import annotations

import json
import math
import reprlib
from contextlib import contextmanager

from .core import (
    BeliefRegion,
    CounterfactualBelief,
    EstimateSign,
    FixedThreshold,
    InputValidationError,
    ObservedStats,
    PivError,
    StatisticalThreshold,
    Threshold,
    _Record,
    _as_float,
    _require_int,
)


class NamedBelief(_Record):
    __slots__ = ("name", "point", "region")

    def __init__(self, name: str, point: CounterfactualBelief | None = None,
                 region: BeliefRegion | None = None) -> None:
        if (point is None) == (region is None):
            raise InputValidationError("exactly one of 'point' or 'region' is required")
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "point", point)
        object.__setattr__(self, "region", region)


def _estimate_sign(observed: ObservedStats) -> EstimateSign:
    """The sign of y_t_ob - y_c_ob, the estimate the PIV retests; a zero gap has none."""
    if observed.y_t_ob == observed.y_c_ob:
        raise InputValidationError("observed: no gap between y_t_ob and y_c_ob, so no estimate")
    return EstimateSign.POSITIVE if observed.y_t_ob > observed.y_c_ob else EstimateSign.NEGATIVE


class AnalysisConfig(_Record):
    __slots__ = ("observed", "threshold", "beliefs", "piv_threshold", "grid")

    def __init__(self, observed: ObservedStats, threshold: Threshold,
                 beliefs: tuple[NamedBelief, ...], piv_threshold: float = 0.8,
                 grid: tuple[int, int] | None = None) -> None:
        _estimate_sign(observed)  # refuses a zero gap
        beliefs = tuple(beliefs)
        names: set[str] = set()
        for i, belief in enumerate(beliefs):
            if belief.name in names:
                raise InputValidationError(
                    f"beliefs[{i}].name: duplicate belief name {reprlib.repr(belief.name)}")
            names.add(belief.name)
        object.__setattr__(self, "observed", observed)
        object.__setattr__(self, "threshold", threshold)
        object.__setattr__(self, "beliefs", beliefs)
        object.__setattr__(self, "piv_threshold", piv_threshold)
        object.__setattr__(self, "grid", grid)

    @property
    def sign(self) -> EstimateSign:
        return _estimate_sign(self.observed)

    def belief(self, name: str) -> NamedBelief:
        for belief in self.beliefs:
            if belief.name == name:
                return belief
        known = reprlib.repr([belief.name for belief in self.beliefs])
        raise InputValidationError(
            f"unknown belief {reprlib.repr(name)}; config defines: {known}")

    def belief_as(self, name: str, kind: str):
        """The point or the region (kind) of the named belief; a belief of the
        other kind is an InputValidationError naming it."""
        value = getattr(self.belief(name), kind)
        if value is None:
            other = "region" if kind == "point" else "point"
            raise InputValidationError(
                f"belief {reprlib.repr(name)} is a {other}; this command needs a {kind}")
        return value


# threshold kind -> (domain type, JSON key of its one value)
_THRESHOLDS = {"statistical": (StatisticalThreshold, "critical"),
               "fixed": (FixedThreshold, "beta_sharp")}


def _require_mapping(obj, path: str) -> dict:
    if not isinstance(obj, dict):
        raise InputValidationError(f"{path}: expected an object, got {type(obj).__name__}")
    return obj


def _check_keys(obj, path: str, required: tuple[str, ...], optional: tuple[str, ...] = ()) -> dict:
    """obj, checked to be an object holding every required key and no key
    outside required and optional."""
    obj = _require_mapping(obj, path)
    unknown = set(obj) - set(required) - set(optional)
    if unknown:
        raise InputValidationError(f"{path}: unknown keys {reprlib.repr(sorted(unknown))}")
    missing = [k for k in required if k not in obj]
    if missing:
        raise InputValidationError(f"{path}: missing keys {missing}")
    return obj


@contextmanager
def _at(path: str):
    """Re-raise an error of the domain types as a config error naming the JSON path."""
    try:
        yield
    except PivError as exc:
        raise InputValidationError(f"{path}: {exc}") from exc


def _interval(value, path: str) -> tuple:
    if not isinstance(value, list) or len(value) != 2:
        raise InputValidationError(f"{path}: expected [lo, hi] with null for an unbounded side")
    lo, hi = value
    return (-math.inf if lo is None else lo, math.inf if hi is None else hi)


def parse_config(obj) -> AnalysisConfig:
    """Validate a decoded JSON object into an AnalysisConfig; unknown keys are rejected.

    This checks the JSON shape; the domain types check the values.
    """
    root = _check_keys(obj, "config", ("observed", "threshold", "beliefs"),
                       ("sign", "piv_threshold", "grid"))

    observed_obj = _check_keys(root["observed"], "observed",
                               ObservedStats.__slots__)
    with _at("observed"):
        observed = ObservedStats(**observed_obj)

    sign = _estimate_sign(observed)
    if root.get("sign", sign.value) != sign.value:
        raise InputValidationError(
            f"sign: got {reprlib.repr(root['sign'])}, but y_t_ob - y_c_ob = "
            f"{observed.y_t_ob - observed.y_c_ob:g} makes the estimate {sign.value}")

    threshold_obj = _require_mapping(root["threshold"], "threshold")
    kind = threshold_obj.get("kind")
    if not isinstance(kind, str) or kind not in _THRESHOLDS:
        raise InputValidationError(
            f"threshold.kind: expected 'statistical' or 'fixed', got {reprlib.repr(kind)}")
    threshold_type, key = _THRESHOLDS[kind]
    _check_keys(threshold_obj, "threshold", ("kind", key))
    with _at("threshold"):
        threshold = threshold_type(threshold_obj[key])
        threshold.signed(sign)

    beliefs_obj = root["beliefs"]
    if not isinstance(beliefs_obj, list) or not beliefs_obj:
        raise InputValidationError("beliefs: expected a non-empty list")
    beliefs: list[NamedBelief] = []
    for i, entry in enumerate(beliefs_obj):
        path = f"beliefs[{i}]"
        entry = _check_keys(entry, path, ("name",), ("point", "region"))
        name = entry["name"]
        if not isinstance(name, str) or not name:
            raise InputValidationError(f"{path}.name: expected a non-empty string")
        point = region = None
        if "point" in entry:
            point_obj = _check_keys(entry["point"], f"{path}.point", ("y_t_un", "y_c_un"))
            with _at(f"{path}.point"):
                point = CounterfactualBelief(**point_obj)
        if "region" in entry:
            region_obj = _check_keys(entry["region"], f"{path}.region", ("t", "c"))
            t, c = (_interval(region_obj[axis], f"{path}.region.{axis}") for axis in ("t", "c"))
            with _at(f"{path}.region"):
                region = BeliefRegion(t, c)
        with _at(path):
            beliefs.append(NamedBelief(name, point, region))

    piv_threshold = root.get("piv_threshold", 0.8)
    if not 0.0 < _as_float(piv_threshold, "piv_threshold:", "in (0, 1)") < 1.0:
        raise InputValidationError(
            f"piv_threshold: must be in (0, 1), got {reprlib.repr(piv_threshold)}")

    grid = None
    if "grid" in root:
        grid_obj = _check_keys(root["grid"], "grid", ("nt", "nc"))
        grid = (grid_obj["nt"], grid_obj["nc"])
        for label, n in zip(("nt", "nc"), grid):
            _require_int(n, f"grid.{label}:", 2)

    return AnalysisConfig(
        observed=observed,
        threshold=threshold,
        beliefs=beliefs,
        piv_threshold=piv_threshold,
        grid=grid,
    )


def load_config(path: str) -> AnalysisConfig:
    try:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise InputValidationError(f"cannot read config {path}: {exc}") from exc
    try:
        obj = json.loads(text)
    except ValueError as exc:  # JSONDecodeError, or an integer literal past the digit limit
        raise InputValidationError(f"config {path} is not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise InputValidationError(f"config {path} is nested too deeply to parse") from exc
    return parse_config(obj)


def config_to_json_object(config: AnalysisConfig) -> dict:
    """Inverse of parse_config: an object that re-parses to an identical analysis."""
    kind, key = next((kind, key) for kind, (threshold_type, key) in _THRESHOLDS.items()
                     if isinstance(config.threshold, threshold_type))
    (threshold_value,) = config.threshold._values()
    beliefs = []
    for belief in config.beliefs:
        if belief.point is not None:
            beliefs.append({"name": belief.name, "point": belief.point._asdict()})
        else:  # only an unbounded side is infinite; JSON writes it as null
            beliefs.append({"name": belief.name, "region": {
                axis: [None if math.isinf(v) else v for v in interval]
                for axis, interval in zip(("t", "c"), belief.region._values())}})
    obj = {
        "observed": config.observed._asdict(),
        "sign": config.sign.value,
        "threshold": {"kind": kind, key: threshold_value},
        "beliefs": beliefs,
        "piv_threshold": config.piv_threshold,
    }
    if config.grid is not None:
        obj["grid"] = {"nt": config.grid[0], "nc": config.grid[1]}
    return obj


# =============================================================================
# Built-in case study: kindergarten retention (Hong and Raudenbush 2005)
# =============================================================================

_CASE_STUDY_GRAND_MEAN = 45.2


def case_study_config() -> AnalysisConfig:
    """The kindergarten-retention analysis: a significant negative effect of
    retention on reading achievement, from published summary statistics."""
    return parse_config({
        "observed": {
            "r_squared": 0.36,
            "n_ob": 7639,
            "y_t_ob": 36.77,
            "y_c_ob": 45.78,
            "var_t": 143.26,
            "var_c": 138.83,
            "pi": 0.0617,
        },
        "threshold": {"kind": "statistical", "critical": 1.96},
        "beliefs": [
            {"name": "belief-1",
             "region": {"t": [None, 45.78], "c": [_CASE_STUDY_GRAND_MEAN, _CASE_STUDY_GRAND_MEAN]}},
            {"name": "belief-1-relaxed",
             "region": {"t": [None, 45.78], "c": [44.0, None]}},
            {"name": "belief-2",
             "region": {"t": [None, _CASE_STUDY_GRAND_MEAN], "c": [36.77, 45.78]}},
            {"name": "retained-effect-minus-7",
             "region": {"t": [_CASE_STUDY_GRAND_MEAN, 45.78], "c": [43.77, None]}},
            {"name": "plausible-region",
             "region": {"t": [36.77, 45.78], "c": [36.77, 45.78]}},
            {"name": "belief-1-corner",
             "point": {"y_t_un": 45.78, "y_c_un": _CASE_STUDY_GRAND_MEAN}},
        ],
        "piv_threshold": 0.8,
        "grid": {"nt": 200, "nc": 200},
    })
