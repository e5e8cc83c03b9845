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
import sys
from dataclasses import dataclass

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
    SignMismatchError,
    StatisticalThreshold,
    Threshold,
    ideal_correlation,
    piv,
    piv_from_correlation,
    resolve_threshold,
    se_ideal,
    std_normal_cdf,
)
from . import oracle

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
        known = ", ".join(b.name for b in self.beliefs) or "<none>"
        raise InputValidationError(f"unknown belief {name!r}; config defines: {known}")


def _require_mapping(obj, path: str) -> dict:
    if not isinstance(obj, dict):
        raise InputValidationError(f"{path}: expected an object, got {type(obj).__name__}")
    return obj


def _check_keys(obj: dict, path: str, required: tuple[str, ...], optional: tuple[str, ...] = ()) -> None:
    unknown = set(obj) - set(required) - set(optional)
    if unknown:
        raise InputValidationError(f"{path}: unknown keys {sorted(unknown)}")
    missing = [k for k in required if k not in obj]
    if missing:
        raise InputValidationError(f"{path}: missing keys {missing}")


def _number(obj: dict, key: str, path: str) -> float:
    v = obj[key]
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise InputValidationError(f"{path}.{key}: expected a number, got {v!r}")
    return float(v)


def _interval(value, path: str) -> tuple[float, float]:
    if not isinstance(value, list) or len(value) != 2:
        raise InputValidationError(f"{path}: expected [lo, hi] with null for an unbounded side")
    lo, hi = value
    if lo is None:
        lo = -math.inf
    if hi is None:
        hi = math.inf
    for name, v in (("lo", lo), ("hi", hi)):
        if isinstance(v, bool) or not isinstance(v, (int, float)):
            raise InputValidationError(f"{path}.{name}: expected a number or null, got {v!r}")
    return float(lo), float(hi)


def parse_config(obj) -> AnalysisConfig:
    """Validate a decoded JSON object into an AnalysisConfig; unknown keys are rejected."""
    root = _require_mapping(obj, "config")
    _check_keys(root, "config", ("observed", "sign", "threshold", "beliefs"),
                ("piv_threshold", "grid"))

    observed_obj = _require_mapping(root["observed"], "observed")
    fields = ("r_squared", "n_ob", "y_t_ob", "y_c_ob", "var_t", "var_c", "pi")
    _check_keys(observed_obj, "observed", fields)
    n_ob = observed_obj["n_ob"]
    if isinstance(n_ob, bool) or not isinstance(n_ob, int):
        raise InputValidationError(f"observed.n_ob: expected an integer, got {n_ob!r}")
    try:
        observed = ObservedStats(
            r_squared=_number(observed_obj, "r_squared", "observed"),
            n_ob=n_ob,
            y_t_ob=_number(observed_obj, "y_t_ob", "observed"),
            y_c_ob=_number(observed_obj, "y_c_ob", "observed"),
            var_t=_number(observed_obj, "var_t", "observed"),
            var_c=_number(observed_obj, "var_c", "observed"),
            pi=_number(observed_obj, "pi", "observed"),
        )
    except InputValidationError as exc:
        raise InputValidationError(f"observed: {exc}") from exc

    sign_value = root["sign"]
    if sign_value not in ("positive", "negative"):
        raise InputValidationError(f"sign: expected 'positive' or 'negative', got {sign_value!r}")
    sign = EstimateSign(sign_value)

    threshold_obj = _require_mapping(root["threshold"], "threshold")
    kind = threshold_obj.get("kind")
    if kind == "statistical":
        _check_keys(threshold_obj, "threshold", ("kind", "critical"))
        threshold: Threshold = StatisticalThreshold(_number(threshold_obj, "critical", "threshold"))
    elif kind == "fixed":
        _check_keys(threshold_obj, "threshold", ("kind", "beta_sharp"))
        threshold = FixedThreshold(_number(threshold_obj, "beta_sharp", "threshold"))
    else:
        raise InputValidationError(f"threshold.kind: expected 'statistical' or 'fixed', got {kind!r}")
    try:
        resolve_threshold(threshold, sign, observed)
    except SignMismatchError as exc:
        raise InputValidationError(f"threshold: {exc}") from exc

    beliefs_obj = root["beliefs"]
    if not isinstance(beliefs_obj, list) or not beliefs_obj:
        raise InputValidationError("beliefs: expected a non-empty list")
    beliefs = []
    seen = set()
    for i, entry in enumerate(beliefs_obj):
        path = f"beliefs[{i}]"
        entry = _require_mapping(entry, path)
        _check_keys(entry, path, ("name",), ("point", "region"))
        name = entry["name"]
        if not isinstance(name, str) or not name:
            raise InputValidationError(f"{path}.name: expected a non-empty string")
        if name in seen:
            raise InputValidationError(f"{path}.name: duplicate belief name {name!r}")
        seen.add(name)
        has_point = "point" in entry
        has_region = "region" in entry
        if has_point == has_region:
            raise InputValidationError(f"{path}: exactly one of 'point' or 'region' is required")
        try:
            if has_point:
                point_obj = _require_mapping(entry["point"], f"{path}.point")
                _check_keys(point_obj, f"{path}.point", ("y_t_un", "y_c_un"))
                beliefs.append(NamedBelief(name=name, point=CounterfactualBelief(
                    y_t_un=_number(point_obj, "y_t_un", f"{path}.point"),
                    y_c_un=_number(point_obj, "y_c_un", f"{path}.point"),
                )))
            else:
                region_obj = _require_mapping(entry["region"], f"{path}.region")
                _check_keys(region_obj, f"{path}.region", ("t", "c"))
                beliefs.append(NamedBelief(name=name, region=BeliefRegion(
                    t_interval=_interval(region_obj["t"], f"{path}.region.t"),
                    c_interval=_interval(region_obj["c"], f"{path}.region.c"),
                )))
        except InputValidationError as exc:
            raise InputValidationError(f"{path}: {exc}") from exc

    piv_threshold = 0.8
    if "piv_threshold" in root:
        piv_threshold = _number(root, "piv_threshold", "config")
        if not 0.0 < piv_threshold < 1.0:
            raise InputValidationError(f"piv_threshold: must be in (0, 1), got {piv_threshold}")

    grid = None
    if "grid" in root:
        grid_obj = _require_mapping(root["grid"], "grid")
        _check_keys(grid_obj, "grid", ("nt", "nc"))
        nt, nc = grid_obj["nt"], grid_obj["nc"]
        for label, n in (("nt", nt), ("nc", nc)):
            if isinstance(n, bool) or not isinstance(n, int) or n < 2:
                raise InputValidationError(f"grid.{label}: expected an integer >= 2, got {n!r}")
        grid = (nt, nc)

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
    except OSError as exc:
        raise InputValidationError(f"cannot read config {path}: {exc}") from exc
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputValidationError(f"config {path} is not valid JSON: {exc}") from exc
    return parse_config(obj)


def config_to_json_object(config: AnalysisConfig) -> dict:
    """Inverse of parse_config: an object that re-parses to an identical analysis."""

    def interval_to_json(interval: tuple[float, float]) -> list:
        lo, hi = interval
        return [None if lo == -math.inf else lo, None if hi == math.inf else hi]

    threshold: dict
    if isinstance(config.threshold, StatisticalThreshold):
        threshold = {"kind": "statistical", "critical": config.threshold.critical_magnitude}
    else:
        threshold = {"kind": "fixed", "beta_sharp": config.threshold.beta_sharp}
    beliefs = []
    for belief in config.beliefs:
        if belief.point is not None:
            beliefs.append({"name": belief.name, "point": {
                "y_t_un": belief.point.y_t_un, "y_c_un": belief.point.y_c_un}})
        else:
            assert belief.region is not None
            beliefs.append({"name": belief.name, "region": {
                "t": interval_to_json(belief.region.t_interval),
                "c": interval_to_json(belief.region.c_interval)}})
    obj = {
        "observed": {
            "r_squared": config.observed.r_squared,
            "n_ob": config.observed.n_ob,
            "y_t_ob": config.observed.y_t_ob,
            "y_c_ob": config.observed.y_c_ob,
            "var_t": config.observed.var_t,
            "var_c": config.observed.var_c,
            "pi": config.observed.pi,
        },
        "sign": config.sign.value,
        "threshold": threshold,
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
        if set(map(type, value)) == {float} and all(map(math.isfinite, value)):
            # a flat list of finite floats, such as a contour row, skips the
            # per-element recursion; anything else takes it and its checks
            inner = ",\n".join([pad + "  " + format(v, ".17g") for v in value])
        else:
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


def _belief_json(belief: CounterfactualBelief) -> dict:
    return {"y_t_un": belief.y_t_un, "y_c_un": belief.y_c_un}


def _bound_json(bound: BoundResult, verdict, piv_threshold: float) -> dict:
    return {
        "piv_min": bound.piv_min,
        "argmin": None if bound.argmin is None else _belief_json(bound.argmin),
        "piv_max": bound.piv_max,
        "argmax": None if bound.argmax is None else _belief_json(bound.argmax),
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


def replicate_report() -> tuple[list[str], dict]:
    """Six-step case-study analysis; returns the report lines and the raw numbers."""
    config = case_study_config()
    stats = config.observed
    sign = config.sign
    threshold = config.threshold
    assert isinstance(threshold, StatisticalThreshold)

    lines = ["Kindergarten retention case study (Hong and Raudenbush 2005)", ""]
    lines.append("step 1  observed statistics: "
                 f"r_squared={stats.r_squared} n_ob={stats.n_ob} y_t_ob={stats.y_t_ob} "
                 f"y_c_ob={stats.y_c_ob} var_t={stats.var_t} var_c={stats.var_c} pi={stats.pi}")
    lines.append(f"step 2  critical value: C = -{threshold.critical_magnitude} "
                 "(significant negative estimate)")
    se = se_ideal(stats)
    scale = math.sqrt(2.0 * stats.n_ob) / math.sqrt(1.0 - stats.r_squared)
    lines.append(f"step 3  probit(PIV) = C - T with T = correlation/se, se = {_fmt(se)}, "
                 f"scale sqrt(2*n_ob)/sqrt(1-R^2) = {scale:.2f}")
    def describe(interval: tuple[float, float]) -> str:
        lo, hi = interval
        if lo == hi:
            return f"= {lo}"
        if lo == -math.inf:
            return f"<= {hi}"
        if hi == math.inf:
            return f">= {lo}"
        return f"in [{lo}, {hi}]"

    lines.append("step 4  beliefs about the mean counterfactual outcomes:")
    bound_names = ["belief-1", "belief-1-relaxed", "belief-2", "retained-effect-minus-7"]
    for name in bound_names:
        region = config.belief(name).region
        assert region is not None
        lines.append(f"        {name}: y_t_un {describe(region.t_interval)}, "
                     f"y_c_un {describe(region.c_interval)}")

    data: dict = {"scale_coefficient": scale, "bounds": {}, "verdicts": {}}
    lines.append("step 5  PIV bounds:")
    for name in bound_names:
        belief = config.belief(name)
        assert belief.region is not None
        bound = bound_piv(belief.region, stats, sign, threshold)
        verdict = robustness_verdict(bound, config.piv_threshold)
        data["bounds"][name] = bound
        data["verdicts"][name] = verdict
        where = ("approached at infinity" if bound.argmin is None else
                 f"at (y_t_un={_fmt(bound.argmin.y_t_un)}, y_c_un={_fmt(bound.argmin.y_c_un)})")
        lines.append(f"        {name}: lower bound {_fmt(bound.piv_min)} {where}")
    lines.append(f"step 6  verdicts at PIV threshold {config.piv_threshold}:")
    for name in bound_names:
        lines.append(f"        {name}: {data['verdicts'][name].value}")

    # Scale-factor cross-check: the sqrt(2*n_ob) form reproduces the published
    # bounds; a sqrt(n_ob) variant of the coefficient would not.
    corner = config.belief("belief-1-corner").point
    assert corner is not None
    r = ideal_correlation(corner, stats)
    corner_piv = piv_from_correlation(r, stats, sign, threshold).piv
    alt_scale = math.sqrt(stats.n_ob) / math.sqrt(1.0 - stats.r_squared)
    alt_probit = -threshold.critical_magnitude - alt_scale * r
    alt_piv = std_normal_cdf(alt_probit)
    data["corner_piv"] = corner_piv
    data["alt_scale_coefficient"] = alt_scale
    data["alt_scale_piv"] = alt_piv
    lines.append("")
    lines.append(
        f"note    scale coefficient {scale:.2f} gives PIV {_fmt(corner_piv)} at the belief-1 "
        f"corner, matching the published 0.92; the sqrt(n_ob) variant {alt_scale:.2f} "
        f"would give {_fmt(alt_piv)} instead and does not reproduce the published bounds"
    )
    return lines, data


# =============================================================================
# Oracle verification report
# =============================================================================


def verify_report(seeds: int, reps: int, seed: int = 0) -> tuple[list[str], bool]:
    """Run every oracle check; returns the report lines and an overall pass flag."""
    if seeds < 1:
        raise InputValidationError(f"seeds must be >= 1, got {seeds}")
    worst = {"closed_form": 0.0, "moments": 0.0, "block": 0.0, "bayes": 0.0}
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

    tolerances = {"closed_form": 1e-10, "moments": 1e-10, "block": 1e-9, "bayes": 1e-10}
    labels = {
        "closed_form": "closed-form correlation vs standardized fit",
        "moments": "coefficient via moments vs direct solve",
        "block": "block-assembled inverse vs direct inverse",
        "bayes": "half-sample combination vs stacked fit",
    }
    ok = True
    lines = [f"oracle checks over {seeds} seeded exact-moment datasets:"]
    for key in ("closed_form", "moments", "block", "bayes"):
        passed = worst[key] <= tolerances[key]
        ok &= passed
        lines.append(
            f"  [{'PASS' if passed else 'FAIL'}] {labels[key]}: max error "
            f"{worst[key]:.3e} (tolerance {tolerances[key]:.0e})"
        )

    # Monte Carlo size: a null-consistent belief must reject at the one-sided rate.
    mc_spec = oracle.SyntheticSpec(
        n_ob=1000, pi=0.1, y_t_ob=10.0, y_c_ob=12.0,
        y_t_un=12.0, y_c_un=10.0, var_t=20.0, var_c=25.0, seed=seed,
    )
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


def _maybe_dump_config(args, config: AnalysisConfig) -> bool:
    if getattr(args, "dump_config", False):
        sys.stdout.write(render_json(config_to_json_object(config)) + "\n")
        return True
    return False


def _load_for(args) -> AnalysisConfig:
    if args.config is None:
        raise InputValidationError("--config is required")
    return load_config(args.config)


def _named_point(config: AnalysisConfig, name: str | None) -> CounterfactualBelief:
    if name is None:
        raise InputValidationError("--belief is required")
    belief = config.belief(name)
    if belief.point is None:
        raise InputValidationError(f"belief {name!r} is a region; this command needs a point")
    return belief.point


def _named_region(config: AnalysisConfig, name: str | None) -> BeliefRegion:
    if name is None:
        raise InputValidationError("--belief is required")
    belief = config.belief(name)
    if belief.region is None:
        raise InputValidationError(f"belief {name!r} is a point; this command needs a region")
    return belief.region


def cmd_compute(args) -> int:
    config = _load_for(args)
    if _maybe_dump_config(args, config):
        return EXIT_OK
    point = _named_point(config, args.belief)
    result = piv(point, config.observed, config.sign, config.threshold)
    if args.format == "json":
        _print([render_json({
            "piv": result.piv,
            "probit_piv": result.probit_piv,
            "t_ratio": result.t_ratio,
            "threshold_value": result.threshold_value,
        })])
    else:
        _print([
            f"piv        {_fmt(result.piv)}",
            f"probit_piv {_fmt(result.probit_piv)}",
            f"t_ratio    {_fmt(result.t_ratio)}",
            f"threshold  {_fmt(result.threshold_value)}",
        ])
    return EXIT_OK


def cmd_bound(args) -> int:
    config = _load_for(args)
    if _maybe_dump_config(args, config):
        return EXIT_OK
    region = _named_region(config, args.belief)
    bound = bound_piv(region, config.observed, config.sign, config.threshold)
    verdict = robustness_verdict(bound, config.piv_threshold)
    if args.format == "json":
        _print([render_json(_bound_json(bound, verdict, config.piv_threshold))])
    else:
        _print(_bound_text(bound, verdict, config.piv_threshold))
    return EXIT_OK


def _parse_grid_flag(text: str) -> tuple[int, int]:
    parts = text.lower().split("x")
    if len(parts) != 2:
        raise InputValidationError(f"--grid expects NTxNC, got {text!r}")
    try:
        nt, nc = int(parts[0]), int(parts[1])
    except ValueError as exc:
        raise InputValidationError(f"--grid expects NTxNC, got {text!r}") from exc
    if nt < 2 or nc < 2:
        raise InputValidationError(f"--grid sizes must be >= 2, got {text!r}")
    return nt, nc


def _write_grid(grid, out: str, fmt: str) -> None:
    payload = grid.to_csv_text() if fmt == "csv" else render_json(grid.to_json_object()) + "\n"
    with open(out, "w", encoding="utf-8") as handle:
        handle.write(payload)


def cmd_contour(args) -> int:
    config = _load_for(args)
    if _maybe_dump_config(args, config):
        return EXIT_OK
    region = _named_region(config, args.belief)
    if not region.is_finite:
        raise InputValidationError("contour requires a finite region")
    if args.grid is not None:
        resolution = _parse_grid_flag(args.grid)
    elif config.grid is not None:
        resolution = config.grid
    else:
        resolution = (101, 101)
    if args.out is None:
        raise InputValidationError("--out is required")
    grid = evaluate_grid(region, resolution, config.observed, config.sign, config.threshold)
    try:
        _write_grid(grid, args.out, args.format)
    except OSError as exc:
        sys.stderr.write(f"cannot write {args.out}: {exc}\n")
        return EXIT_IO
    _print([
        f"wrote {args.out} ({len(grid.t_values)}x{len(grid.c_values)} cells, format {args.format})",
        f"piv_min   {_fmt(grid.min())}",
        f"piv_max   {_fmt(grid.max())}",
    ])
    return EXIT_OK


def cmd_power(args) -> int:
    config = _load_for(args)
    if _maybe_dump_config(args, config):
        return EXIT_OK
    point = _named_point(config, args.belief)
    result = piv(point, config.observed, config.sign, config.threshold)
    effect = ideal_correlation(point, config.observed)
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


def cmd_replicate(args) -> int:
    config = case_study_config()
    if _maybe_dump_config(args, config):
        return EXIT_OK
    lines, _ = replicate_report()
    _print(lines)
    region = config.belief("plausible-region").region
    assert region is not None
    resolution = _parse_grid_flag(args.grid) if args.grid is not None else config.grid
    assert resolution is not None
    grid = evaluate_grid(region, resolution, config.observed, config.sign, config.threshold)
    out = args.out if args.out is not None else "piv_contour.csv"
    try:
        _write_grid(grid, out, "csv")
    except OSError as exc:
        sys.stderr.write(f"cannot write {out}: {exc}\n")
        return EXIT_IO
    _print([f"wrote contour grid to {out} "
            f"({len(grid.t_values)}x{len(grid.c_values)} cells)"])
    return EXIT_OK


def cmd_verify(args) -> int:
    lines, ok = verify_report(seeds=args.seeds, reps=args.reps, seed=args.seed)
    _print(lines)
    return EXIT_OK if ok else EXIT_VERIFY


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="piv",
        description="Bound the probability that a significant two-group regression "
                    "inference survives retesting on the counterfactual-completed sample.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, formats=("text", "json")) -> None:
        p.add_argument("--config", help="path to the analysis config (JSON)")
        p.add_argument("--belief", help="name of the belief to evaluate")
        p.add_argument("--format", choices=formats, default=formats[0])
        p.add_argument("--dump-config", action="store_true",
                       help="print the parsed config as canonical JSON and exit")

    p = sub.add_parser("compute", help="PIV at a point belief")
    add_common(p)
    p.set_defaults(func=cmd_compute)

    p = sub.add_parser("bound", help="extremal PIV over a belief region, with verdict")
    add_common(p)
    p.set_defaults(func=cmd_bound)

    p = sub.add_parser("contour", help="export a PIV grid over a finite region")
    add_common(p, formats=("csv", "json"))
    p.add_argument("--out", help="output file path")
    p.add_argument("--grid", help="grid resolution NTxNC (default from config, else 101x101)")
    p.set_defaults(func=cmd_contour)

    p = sub.add_parser("power", help="retest power quantities at a point belief")
    add_common(p)
    p.set_defaults(func=cmd_power)

    p = sub.add_parser("replicate", help="run the built-in kindergarten-retention case study")
    p.add_argument("--out", help="contour output path (default piv_contour.csv)")
    p.add_argument("--grid", help="contour resolution NTxNC (default 200x200)")
    p.add_argument("--dump-config", action="store_true",
                   help="print the case-study config as canonical JSON and exit")
    p.set_defaults(func=cmd_replicate)

    p = sub.add_parser("verify", help="run the brute-force oracle checks")
    p.add_argument("--seeds", type=int, default=100, help="number of seeded datasets")
    p.add_argument("--reps", type=int, default=2000, help="monte carlo replications")
    p.add_argument("--seed", type=int, default=0, help="monte carlo seed")
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
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
