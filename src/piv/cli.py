"""Command-line front end: point evaluation, bounding, contour export, verification.

Commands operate on a JSON analysis config holding the observed summary
statistics, the estimate sign, the rejection threshold and a list of named
beliefs (points or rectangles).  `piv replicate` runs the built-in
kindergarten-retention case study end to end; `piv verify` drives the
brute-force oracle checks.

Exit codes: 0 success, 2 config error (any other invalid input), 3 degenerate
math, 4 I/O error, 5 verification failure.
"""

from __future__ import annotations

import argparse
import json
import math
import reprlib
import sys
from contextlib import contextmanager
from dataclasses import asdict, astuple, dataclass, fields

from .bounds import (
    BeliefRegion,
    BoundResult,
    bound_piv,
    evaluate_grid,
    robustness_verdict,
)
from .core import (
    CounterfactualBelief,
    DegenerateSpreadError,
    EstimateSign,
    FixedThreshold,
    InputValidationError,
    ObservedStats,
    PivError,
    StatisticalThreshold,
    Threshold,
    ideal_correlation,
    piv,
    piv_from_correlation,
    se_ideal,
    std_normal_cdf,
)

__all__ = [
    "AnalysisConfig",
    "NamedBelief",
    "parse_config",
    "load_config",
    "config_to_json_object",
    "case_study_config",
    "replicate_report",
    "verify_report",
    "main",
    "entrypoint",
]

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DEGENERATE = 3
EXIT_IO = 4
EXIT_VERIFY = 5


# =============================================================================
# Analysis configuration
# =============================================================================


@dataclass(frozen=True)
class NamedBelief:
    name: str
    point: CounterfactualBelief | None = None
    region: BeliefRegion | None = None


@dataclass(frozen=True)
class AnalysisConfig:
    observed: ObservedStats
    sign: EstimateSign
    threshold: Threshold
    beliefs: tuple[NamedBelief, ...]
    piv_threshold: float = 0.8
    grid: tuple[int, int] | None = None

    def belief(self, name: str) -> NamedBelief:
        for belief in self.beliefs:
            if belief.name == name:
                return belief
        known = reprlib.repr([belief.name for belief in self.beliefs])
        raise InputValidationError(
            f"unknown belief {reprlib.repr(name)}; config defines: {known}")


def _belief(config: AnalysisConfig, name: str | None, kind: str):
    """The point or region (kind) of the named belief; name None means --belief was not given."""
    if name is None:
        raise InputValidationError("--belief is required")
    value = getattr(config.belief(name), kind)
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


def _check_keys(obj: dict, path: str, required: tuple[str, ...], optional: tuple[str, ...] = ()) -> None:
    unknown = set(obj) - set(required) - set(optional)
    if unknown:
        raise InputValidationError(f"{path}: unknown keys {reprlib.repr(sorted(unknown))}")
    missing = [k for k in required if k not in obj]
    if missing:
        raise InputValidationError(f"{path}: missing keys {missing}")


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
    root = _require_mapping(obj, "config")
    _check_keys(root, "config", ("observed", "sign", "threshold", "beliefs"),
                ("piv_threshold", "grid"))

    observed_obj = _require_mapping(root["observed"], "observed")
    _check_keys(observed_obj, "observed", tuple(f.name for f in fields(ObservedStats)))
    with _at("observed"):
        observed = ObservedStats(**observed_obj)

    sign_value = root["sign"]
    if sign_value not in ("positive", "negative"):
        raise InputValidationError(
            f"sign: expected 'positive' or 'negative', got {reprlib.repr(sign_value)}")
    sign = EstimateSign(sign_value)

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
        entry = _require_mapping(entry, path)
        _check_keys(entry, path, ("name",), ("point", "region"))
        name = entry["name"]
        if not isinstance(name, str) or not name:
            raise InputValidationError(f"{path}.name: expected a non-empty string")
        if any(belief.name == name for belief in beliefs):
            raise InputValidationError(f"{path}.name: duplicate belief name {reprlib.repr(name)}")
        if ("point" in entry) == ("region" in entry):
            raise InputValidationError(f"{path}: exactly one of 'point' or 'region' is required")
        if "point" in entry:
            point = _require_mapping(entry["point"], f"{path}.point")
            _check_keys(point, f"{path}.point", ("y_t_un", "y_c_un"))
            with _at(f"{path}.point"):
                beliefs.append(NamedBelief(name, point=CounterfactualBelief(**point)))
        else:
            region = _require_mapping(entry["region"], f"{path}.region")
            _check_keys(region, f"{path}.region", ("t", "c"))
            t, c = (_interval(region[axis], f"{path}.region.{axis}") for axis in ("t", "c"))
            with _at(f"{path}.region"):
                beliefs.append(NamedBelief(name, region=BeliefRegion(t, c)))

    piv_threshold = root.get("piv_threshold", 0.8)
    if (isinstance(piv_threshold, bool) or not isinstance(piv_threshold, (int, float))
            or not 0.0 < piv_threshold < 1.0):
        raise InputValidationError(
            f"piv_threshold: must be in (0, 1), got {reprlib.repr(piv_threshold)}")

    grid = None
    if "grid" in root:
        grid_obj = _require_mapping(root["grid"], "grid")
        _check_keys(grid_obj, "grid", ("nt", "nc"))
        grid = (grid_obj["nt"], grid_obj["nc"])
        for label, n in zip(("nt", "nc"), grid):
            if isinstance(n, bool) or not isinstance(n, int) or n < 2:
                raise InputValidationError(
                    f"grid.{label}: expected an integer >= 2, got {reprlib.repr(n)}")

    return AnalysisConfig(
        observed=observed,
        sign=sign,
        threshold=threshold,
        beliefs=tuple(beliefs),
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
    (threshold_value,) = astuple(config.threshold)
    beliefs = []
    for belief in config.beliefs:
        if belief.point is not None:
            beliefs.append({"name": belief.name, "point": asdict(belief.point)})
        else:  # only an unbounded side is infinite; JSON writes it as null
            beliefs.append({"name": belief.name, "region": {
                axis: [None if math.isinf(v) else v for v in interval]
                for axis, interval in zip(("t", "c"), astuple(belief.region))}})
    obj = {
        "observed": asdict(config.observed),
        "sign": config.sign.value,
        "threshold": {"kind": kind, key: threshold_value},
        "beliefs": beliefs,
        "piv_threshold": config.piv_threshold,
    }
    if config.grid is not None:
        obj["grid"] = {"nt": config.grid[0], "nc": config.grid[1]}
    return obj


# =============================================================================
# Deterministic rendering (text: 6 decimals; JSON: 17 significant digits)
# =============================================================================


def render_json(value, indent: int = 0) -> str:
    pad = "  " * indent
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        if not math.isfinite(value):
            raise InputValidationError(f"cannot serialize non-finite number {value}")
        return format(value, ".17g")
    if isinstance(value, str):
        return json.dumps(value)
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        inner = ",\n".join(pad + "  " + render_json(v, indent + 1) for v in value)
        return f"[\n{inner}\n{pad}]"
    if isinstance(value, dict):
        if not value:
            return "{}"
        inner = ",\n".join(
            pad + "  " + json.dumps(str(k)) + ": " + render_json(v, indent + 1)
            for k, v in value.items()
        )
        return f"{{\n{inner}\n{pad}}}"
    raise InputValidationError(f"cannot serialize {type(value).__name__}")


def _fmt(x: float) -> str:
    return f"{x:.6f}"


def _bound_json(bound: BoundResult, verdict, piv_threshold: float) -> dict:
    return {
        "piv_min": bound.piv_min,
        "argmin": None if bound.argmin is None else asdict(bound.argmin),
        "piv_max": bound.piv_max,
        "argmax": None if bound.argmax is None else asdict(bound.argmax),
        "asymptotic_piv": dict(bound.asymptotic_piv),
        "piv_threshold": piv_threshold,
        "verdict": verdict.value,
    }


def _where(belief: CounterfactualBelief | None) -> str:
    if belief is None:
        return "approached at infinity"
    return f"at y_t_un={_fmt(belief.y_t_un)} y_c_un={_fmt(belief.y_c_un)}"


def _bound_text(bound: BoundResult, verdict, piv_threshold: float) -> list[str]:
    lines = [
        f"piv_min   {_fmt(bound.piv_min)}  {_where(bound.argmin)}",
        f"piv_max   {_fmt(bound.piv_max)}  {_where(bound.argmax)}",
    ]
    for side, value in bound.asymptotic_piv.items():
        lines.append(f"asymptotic[{side}] {_fmt(value)}")
    lines.append(f"verdict   {verdict.value} (piv_threshold {_fmt(piv_threshold)})")
    return lines


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
        "sign": "negative",
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


def _describe(interval: tuple[float, float]) -> str:
    lo, hi = interval
    if lo == hi:
        return f"= {lo}"
    if lo == -math.inf:
        return f"<= {hi}"
    if hi == math.inf:
        return f">= {lo}"
    return f"in [{lo}, {hi}]"


def replicate_report() -> tuple[list[str], dict]:
    """Six-step case-study analysis; returns the report lines and the raw numbers."""
    config = case_study_config()
    stats, sign, threshold = config.observed, config.sign, config.threshold
    critical = threshold.signed(sign)

    lines = ["Kindergarten retention case study (Hong and Raudenbush 2005)", ""]
    lines.append("step 1  observed statistics: "
                 f"r_squared={stats.r_squared} n_ob={stats.n_ob} y_t_ob={stats.y_t_ob} "
                 f"y_c_ob={stats.y_c_ob} var_t={stats.var_t} var_c={stats.var_c} pi={stats.pi}")
    lines.append(f"step 2  critical value: C = {critical} (significant negative estimate)")
    scale = math.sqrt(2.0 * stats.n_ob) / math.sqrt(1.0 - stats.r_squared)
    lines.append("step 3  probit(PIV) = C - T with T = correlation/se, "
                 f"se = {_fmt(se_ideal(stats))}, scale sqrt(2*n_ob)/sqrt(1-R^2) = {scale:.2f}")

    # steps 4, 5 and 6 each give one line per belief, built in one pass
    data: dict = {"scale_coefficient": scale, "bounds": {}, "verdicts": {}}
    steps = (["step 4  beliefs about the mean counterfactual outcomes:"],
             ["step 5  PIV bounds:"],
             [f"step 6  verdicts at PIV threshold {config.piv_threshold}:"])
    for name in ("belief-1", "belief-1-relaxed", "belief-2", "retained-effect-minus-7"):
        region = _belief(config, name, "region")
        bound = bound_piv(region, stats, sign, threshold)
        verdict = robustness_verdict(bound, config.piv_threshold)
        data["bounds"][name], data["verdicts"][name] = bound, verdict
        where = ("approached at infinity" if bound.argmin is None else
                 f"at (y_t_un={_fmt(bound.argmin.y_t_un)}, y_c_un={_fmt(bound.argmin.y_c_un)})")
        for step, text in zip(steps, (
                f"y_t_un {_describe(region.t_interval)}, y_c_un {_describe(region.c_interval)}",
                f"lower bound {_fmt(bound.piv_min)} {where}",
                verdict.value)):
            step.append(f"        {name}: {text}")
    lines += [line for step in steps for line in step]

    # Scale-factor cross-check: the sqrt(2*n_ob) form reproduces the published
    # bounds; a sqrt(n_ob) variant of the coefficient would not.
    r = ideal_correlation(_belief(config, "belief-1-corner", "point"), stats)
    corner_piv = piv_from_correlation(r, stats, sign, threshold).piv
    alt_scale = math.sqrt(stats.n_ob) / math.sqrt(1.0 - stats.r_squared)
    alt_piv = std_normal_cdf(critical - alt_scale * r)
    data.update(corner_piv=corner_piv, alt_scale_coefficient=alt_scale, alt_scale_piv=alt_piv)
    lines += ["", f"note    scale coefficient {scale:.2f} gives PIV {_fmt(corner_piv)} at the "
              f"belief-1 corner, matching the published 0.92; the sqrt(n_ob) variant "
              f"{alt_scale:.2f} would give {_fmt(alt_piv)} instead and does not reproduce the "
              "published bounds"]
    return lines, data


# =============================================================================
# Oracle verification report
# =============================================================================


# check -> (report label, tolerance on its worst error over the seeded datasets)
_ORACLE_CHECKS = {
    "closed_form": ("closed-form correlation vs standardized fit", 1e-10),
    "moments": ("coefficient via moments vs direct solve", 1e-10),
    "block": ("block-assembled inverse vs direct inverse", 1e-9),
    "bayes": ("half-sample combination vs stacked fit", 1e-10),
}


def verify_report(seeds: int, reps: int, seed: int = 0) -> tuple[list[str], bool]:
    """Run every oracle check; returns the report lines and an overall pass flag."""
    from . import oracle

    if seeds < 1:
        raise InputValidationError(f"seeds must be >= 1, got {seeds}")
    # The Monte Carlo arguments are checked before any dataset is built:
    # SyntheticSpec refuses a bad seed and _require_reps a bad reps.
    mc_spec = oracle.SyntheticSpec(
        n_ob=1000, pi=0.1, y_t_ob=10.0, y_c_ob=12.0,
        y_t_un=12.0, y_c_un=10.0, var_t=20.0, var_c=25.0, seed=seed,
    )
    oracle._require_reps(reps)
    worst = dict.fromkeys(_ORACLE_CHECKS, 0.0)
    for i in range(seeds):
        spec = oracle.random_spec(i)
        dataset = oracle.build_exact_dataset(spec)
        stats = spec.observed_stats(0.0)
        belief = CounterfactualBelief(spec.y_t_un, spec.y_c_un)
        r = ideal_correlation(belief, stats)
        std_w = oracle.standardized_w_coefficient(dataset)
        worst["closed_form"] = max(worst["closed_form"], abs(std_w - r) / abs(r))
        direct = float(oracle.ols_fit(dataset)[-1])
        via_moments = oracle.w_coefficient_via_moments(dataset)
        worst["moments"] = max(worst["moments"], abs(via_moments - direct) / max(abs(direct), 1e-30))
        worst["block"] = max(worst["block"], oracle.block_inverse_check(dataset))
        worst["bayes"] = max(worst["bayes"], oracle.bayes_combination_check(dataset))

    ok = True
    lines = [f"oracle checks over {seeds} seeded exact-moment datasets:"]
    for key, (label, tolerance) in _ORACLE_CHECKS.items():
        passed = worst[key] <= tolerance
        ok &= passed
        lines.append(
            f"  [{'PASS' if passed else 'FAIL'}] {label}: max error "
            f"{worst[key]:.3e} (tolerance {tolerance:.0e})"
        )

    # Monte Carlo size: a null-consistent belief must reject at the one-sided rate.
    rate = oracle.monte_carlo_piv(
        mc_spec, mc_spec.observed_stats(0.0), EstimateSign.NEGATIVE,
        StatisticalThreshold(1.96), reps=reps, seed=seed,
    )
    size = std_normal_cdf(-1.96)
    mc_tol = 3.0 * math.sqrt(size * (1.0 - size) / reps) + 0.02
    mc_ok = abs(rate - size) <= mc_tol
    ok &= mc_ok
    lines.append(
        f"  [{'PASS' if mc_ok else 'FAIL'}] monte carlo size: rate {rate:.4f} vs "
        f"{size:.4f} (tolerance {mc_tol:.4f}, reps {reps})"
    )

    # Rank-deficient designs must be refused, not silently fitted.
    singular_spec = oracle.random_spec(0, p=2)
    base = oracle.build_exact_dataset(singular_spec)
    z = base.z.copy()
    z[:, 1] = z[:, 0]
    degenerate = oracle.IdealDataset(outcome=base.outcome, w=base.w, z=z, observed=base.observed)
    try:
        oracle.ols_fit(degenerate)
    except oracle.SingularDesignError:
        lines.append("  [PASS] duplicated covariate rejected as singular (expected failure)")
    else:
        ok = False
        lines.append("  [FAIL] duplicated covariate was not rejected")

    lines.append("all checks passed" if ok else "SOME CHECKS FAILED")
    return lines, ok


# =============================================================================
# Commands
# =============================================================================


def _print(lines) -> None:
    sys.stdout.write("\n".join(lines) + "\n")


def cmd_compute(args, config: AnalysisConfig) -> int:
    point = _belief(config, args.belief, "point")
    result = piv(point, config.observed, config.sign, config.threshold)
    payload = {"piv": result.piv, "probit_piv": result.probit_piv, "t_ratio": result.t_ratio,
               "threshold_value": result.threshold_value}
    if args.format == "json":
        _print([render_json(payload)])
    else:  # the text labels are the keys, threshold_value shortened to threshold
        _print([f"{key.removesuffix('_value'):<11}{_fmt(value)}" for key, value in payload.items()])
    return EXIT_OK


def cmd_bound(args, config: AnalysisConfig) -> int:
    region = _belief(config, args.belief, "region")
    bound = bound_piv(region, config.observed, config.sign, config.threshold)
    verdict = robustness_verdict(bound, config.piv_threshold)
    if args.format == "json":
        _print([render_json(_bound_json(bound, verdict, config.piv_threshold))])
    else:
        _print(_bound_text(bound, verdict, config.piv_threshold))
    return EXIT_OK


def _parse_grid_flag(text: str) -> tuple[int, int]:
    try:
        nt, nc = map(int, text.lower().split("x"))
    except ValueError as exc:
        raise InputValidationError(f"--grid expects NTxNC, got {reprlib.repr(text)}") from exc
    return nt, nc


def _export_grid(args, config: AnalysisConfig, region: BeliefRegion, fmt: str):
    """Evaluate the grid over region and stream it to --out, row by row or block by block.

    Returns the grid, or None when the file cannot be written.
    """
    resolution = _parse_grid_flag(args.grid) if args.grid is not None else config.grid or (101, 101)
    if args.out is None:
        raise InputValidationError("--out is required")
    grid = evaluate_grid(region, resolution, config.observed, config.sign, config.threshold)
    # refuse before the file is opened, so a refused grid leaves no partial file;
    # min and max propagate NaN, and take no grid-sized temporary as isfinite would
    if not (math.isfinite(grid.min()) and math.isfinite(grid.max())):
        raise InputValidationError("cannot serialize a grid with a non-finite PIV")
    from ._grid_text import csv_chunks, json_chunks  # on first use, as numpy is

    try:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.writelines((csv_chunks if fmt == "csv" else json_chunks)(grid))
    except OSError as exc:
        sys.stderr.write(f"cannot write {args.out}: {exc}\n")
        return None
    return grid


def cmd_contour(args, config: AnalysisConfig) -> int:
    region = _belief(config, args.belief, "region")
    if not region.is_finite:
        raise InputValidationError("contour requires a finite region")
    grid = _export_grid(args, config, region, args.format)
    if grid is None:
        return EXIT_IO
    _print([
        f"wrote {args.out} ({len(grid.t_values)}x{len(grid.c_values)} cells, format {args.format})",
        f"piv_min   {_fmt(grid.min())}",
        f"piv_max   {_fmt(grid.max())}",
    ])
    return EXIT_OK


def cmd_power(args, config: AnalysisConfig) -> int:
    point = _belief(config, args.belief, "point")
    effect = ideal_correlation(point, config.observed)
    # the same value piv() gives: both are _probit of this one correlation
    result = piv_from_correlation(effect, config.observed, config.sign, config.threshold)
    se = se_ideal(config.observed)
    critical_z = result.threshold_value / se
    payload = {
        "effect": effect,
        "se": se,
        "null_mean": 0.0,
        "alt_mean": result.t_ratio,
        "critical_z": critical_z,
        "threshold_value": result.threshold_value,
        "power": result.piv,
    }
    if args.format == "json":
        _print([render_json(payload)])
    else:
        _print([f"{key:<16}{_fmt(value)}" for key, value in payload.items()])
    return EXIT_OK


def cmd_replicate(args, config: AnalysisConfig) -> int:
    lines, _ = replicate_report()
    _print(lines)
    grid = _export_grid(args, config, _belief(config, "plausible-region", "region"), "csv")
    if grid is None:
        return EXIT_IO
    _print([f"wrote contour grid to {args.out} "
            f"({len(grid.t_values)}x{len(grid.c_values)} cells)"])
    return EXIT_OK


def cmd_verify(args, _config) -> int:
    lines, ok = verify_report(seeds=args.seeds, reps=args.reps, seed=args.seed)
    _print(lines)
    return EXIT_OK if ok else EXIT_VERIFY


def _add_common(p, formats=("text", "json")) -> None:
    p.add_argument("--config", help="path to the analysis config (JSON)")
    p.add_argument("--belief", help="name of the belief to evaluate")
    p.add_argument("--format", choices=formats, default=formats[0])
    p.add_argument("--dump-config", action="store_true",
                   help="print the parsed config as canonical JSON and exit")


def _add_contour(p) -> None:
    _add_common(p, formats=("csv", "json"))
    p.add_argument("--out", help="output file path")
    p.add_argument("--grid", help="grid resolution NTxNC (default from config, else 101x101)")


def _add_replicate(p) -> None:
    p.add_argument("--out", default="piv_contour.csv",
                   help="contour output path (default piv_contour.csv)")
    p.add_argument("--grid", help="contour resolution NTxNC (default 200x200)")
    p.add_argument("--dump-config", action="store_true",
                   help="print the case-study config as canonical JSON and exit")


def _add_verify(p) -> None:
    p.add_argument("--seeds", type=int, default=100, help="number of seeded datasets")
    p.add_argument("--reps", type=int, default=2000, help="monte carlo replications")
    p.add_argument("--seed", type=int, default=0, help="monte carlo seed")


# command -> (help, adds its arguments, runs it)
_COMMANDS = {
    "compute": ("PIV at a point belief", _add_common, cmd_compute),
    "bound": ("extremal PIV over a belief region, with verdict", _add_common, cmd_bound),
    "contour": ("export a PIV grid over a finite region", _add_contour, cmd_contour),
    "power": ("retest power quantities at a point belief", _add_common, cmd_power),
    "replicate": ("run the built-in kindergarten-retention case study", _add_replicate,
                  cmd_replicate),
    "verify": ("run the brute-force oracle checks", _add_verify, cmd_verify),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The argument parser, with only command's subparser when command names one.

    A process runs one command, and each add_argument call costs time and
    leaves cyclic garbage, so main builds the subparser of the command it
    was given.  For no command, an unknown one or a flag such as --help,
    every subparser is built, so help and errors list them all.  The usage
    line names every command either way, so each output is the same as the
    full parser's.
    """
    parser = argparse.ArgumentParser(
        prog="piv",
        description="Bound the probability that a significant two-group regression "
                    "inference survives retesting on the counterfactual-completed sample.",
    )
    only = command in _COMMANDS
    sub = parser.add_subparsers(dest="command", required=True,
                                metavar="{" + ",".join(_COMMANDS) + "}" if only else None)
    for name, (help_text, add_arguments, func) in _COMMANDS.items():
        if only and name != command:
            continue
        p = sub.add_parser(name, help=help_text)
        add_arguments(p)
        p.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = build_parser(argv[0] if argv else None).parse_args(argv)
    try:
        if args.command == "verify":
            config = None
        elif args.command == "replicate":
            config = case_study_config()
        elif args.config is None:
            raise InputValidationError("--config is required")
        else:
            config = load_config(args.config)
        if getattr(args, "dump_config", False):
            _print([render_json(config_to_json_object(config))])
            return EXIT_OK
        return args.func(args, config)
    except DegenerateSpreadError as exc:
        sys.stderr.write(f"degenerate inputs: {exc}\n")
        return EXIT_DEGENERATE
    except PivError as exc:
        sys.stderr.write(f"config error: {exc}\n")
        return EXIT_CONFIG


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
