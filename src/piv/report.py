"""The reports of `piv replicate` and `piv verify`, as lines of text.

replicate_report walks a config through the six PIV steps with piv.bounds, and
verify_report runs piv.oracle's brute-force checks; each imports on first call.
"""

from __future__ import annotations

import math

from .config import AnalysisConfig
from .core import (
    CounterfactualBelief,
    EstimateSign,
    InputValidationError,
    StatisticalThreshold,
    _cdf,
    _probit,
    _threshold,
    ideal_correlation,
    std_normal_cdf,
)


def _describe(interval: tuple[float, float]) -> str:
    lo, hi = interval
    if lo == hi:
        return f"= {lo}"
    if lo == -math.inf:
        return f"<= {hi}"
    if hi == math.inf:
        return f">= {lo}"
    return f"in [{lo}, {hi}]"


def replicate_report(config: AnalysisConfig) -> tuple[list[str], dict]:
    """Six-step analysis of the case-study config (case_study_config());
    returns the report lines and the raw numbers.

    The config's sign and threshold kind set the wording of steps 2 and 3.
    Its beliefs must include the case study's four regions and the point
    belief-1-corner: a missing one, or one of the other kind, is an
    InputValidationError naming it.
    """
    from .bounds import bound_piv, robustness_verdict

    stats, sign, threshold = config.observed, config.sign, config.threshold
    resolved = se, critical, _, statistical, positive = _threshold(stats, sign, threshold)

    lines = ["Kindergarten retention case study (Hong and Raudenbush 2005)", ""]
    lines.append("step 1  observed statistics: "
                 f"r_squared={stats.r_squared} n_ob={stats.n_ob} y_t_ob={stats.y_t_ob} "
                 f"y_c_ob={stats.y_c_ob} var_t={stats.var_t} var_c={stats.var_c} pi={stats.pi}")
    lines.append(f"step 2  critical value: C = {critical} (significant {sign.value} estimate)")
    scale = math.sqrt(2.0 * stats.n_ob) / math.sqrt(1.0 - stats.r_squared)
    # a statistical C is in standard errors, so it meets T = r/se; a fixed C is a correlation
    if statistical:
        probit = f"{'T - C' if positive else 'C - T'} with T = correlation/se"
    else:
        probit = f"{'(r - C)/se' if positive else '(C - r)/se'} with r = correlation"
    lines.append(f"step 3  probit(PIV) = {probit}, "
                 f"se = {se:.6f}, scale sqrt(2*n_ob)/sqrt(1-R^2) = {scale:.2f}")

    # steps 4, 5 and 6 each give one line per belief, built in one pass
    data: dict = {"scale_coefficient": scale, "bounds": {}, "verdicts": {}}
    steps = (["step 4  beliefs about the mean counterfactual outcomes:"],
             ["step 5  PIV bounds:"],
             [f"step 6  verdicts at PIV threshold {config.piv_threshold}:"])
    for name in ("belief-1", "belief-1-relaxed", "belief-2", "retained-effect-minus-7"):
        region = config.belief_as(name, "region")
        bound = bound_piv(region, stats, sign, threshold)
        verdict = robustness_verdict(bound, config.piv_threshold)
        data["bounds"][name], data["verdicts"][name] = bound, verdict
        where = ("approached at infinity" if bound.argmin is None else
                 f"at (y_t_un={bound.argmin.y_t_un:.6f}, y_c_un={bound.argmin.y_c_un:.6f})")
        for step, text in zip(steps, (
                f"y_t_un {_describe(region.t_interval)}, y_c_un {_describe(region.c_interval)}",
                f"lower bound {bound.piv_min:.6f} {where}",
                verdict.value)):
            step.append(f"        {name}: {text}")
    lines += [line for step in steps for line in step]

    # Scale-factor cross-check: the sqrt(2*n_ob) form reproduces the published
    # bounds; a sqrt(n_ob) variant of the coefficient would not.
    r = ideal_correlation(config.belief_as("belief-1-corner", "point"), stats)
    corner_piv = _cdf(_probit(r, resolved))
    alt_scale = math.sqrt(stats.n_ob) / math.sqrt(1.0 - stats.r_squared)
    # the PIV's own probit steps, with the variant's se = 1/alt_scale
    alt_se = math.sqrt(1.0 - stats.r_squared) / math.sqrt(stats.n_ob)
    alt_piv = _cdf(_probit(r, (alt_se, *resolved[1:])))
    data.update(corner_piv=corner_piv, alt_scale_coefficient=alt_scale, alt_scale_piv=alt_piv)
    # the published corner PIV, within the 5e-3 that the acceptance suite allows
    published = abs(corner_piv - 0.92) <= 5e-3
    lines += ["", f"note    scale coefficient {scale:.2f} gives PIV {corner_piv:.6f} at the "
              f"belief-1 corner, {'matching' if published else 'not'} the published 0.92; the "
              f"sqrt(n_ob) variant {alt_scale:.2f} would give {alt_piv:.6f} instead"
              + (" and does not reproduce the published bounds" if published else "")]
    return lines, data


# check -> (report label, tolerance on its worst error over the seeded datasets)
_ORACLE_CHECKS = {
    "closed_form": ("closed-form correlation vs standardized fit", 1e-10),
    "moments": ("coefficient via moments vs direct solve", 1e-10),
    "block": ("block-assembled inverse vs direct inverse", 1e-9),
    "bayes": ("half-sample combination vs stacked fit", 1e-10),
}


# Seeds per chunk: the datasets of one chunk are reduced and checked in
# stacks, one per covariate count, so memory stays bounded in --seeds.
_CHUNK_SEEDS = 128


def _seeded_stacks(seeds: int):
    """(specs, stack) for the seeded datasets 0..seeds-1: consecutive chunks of
    _CHUNK_SEEDS seeds, each split into one stack per covariate count."""
    from . import oracle

    for start in range(0, seeds, _CHUNK_SEEDS):
        by_p: dict[int, list] = {}
        for i in range(start, min(start + _CHUNK_SEEDS, seeds)):
            spec = oracle.random_spec(i)
            by_p.setdefault(spec.p, []).append(spec)
        for specs in by_p.values():
            yield specs, oracle.DatasetStack(map(oracle.build_exact_dataset, specs))


def verify_report(seeds: int, reps: int, seed: int = 0) -> tuple[list[str], bool]:
    """Run every oracle check; returns the report lines and an overall pass flag.

    A NaN error in any dataset is kept as the check's worst error, so the
    check fails.
    """
    import numpy as np

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
    for specs, stack in _seeded_stacks(seeds):
        r = np.array([ideal_correlation(CounterfactualBelief(spec.y_t_un, spec.y_c_un),
                                        spec.observed_stats(0.0)) for spec in specs])
        direct = stack.fit[:, -1]
        errors = {
            "closed_form": np.abs(stack.standardized_w_coefficient() - r) / np.abs(r),
            "moments": np.abs(stack.w_coefficient_via_moments() - direct)
            / np.maximum(np.abs(direct), 1e-30),
            "block": stack.block_inverse_errors(),
            "bayes": stack.bayes_combination_errors(),
        }
        for key, values in errors.items():
            # np.maximum and .max() keep a NaN, where max(0.0, nan) would drop it
            worst[key] = float(np.maximum(worst[key], values.max()))

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
        oracle.DatasetStack([degenerate]).fit
    except oracle.SingularDesignError:
        lines.append("  [PASS] duplicated covariate rejected as singular (expected failure)")
    else:
        ok = False
        lines.append("  [FAIL] duplicated covariate was not rejected")

    lines.append("all checks passed" if ok else "SOME CHECKS FAILED")
    return lines, ok
