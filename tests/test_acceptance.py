"""Acceptance suite: every release criterion at its stated tolerance.

Each test prints one [PASS]/[FAIL] line (visible with pytest -s); a criterion
only passes if its assertion holds at the tolerance pinned here.
"""

from __future__ import annotations

import math
import time

import numpy as np

from piv.bounds import BeliefRegion, bound_piv
from piv.core import (
    CounterfactualBelief,
    EstimateSign,
    ObservedStats,
    StatisticalThreshold,
    ideal_correlation,
    piv,
    piv_from_correlation,
    saturation_limits,
    se_ideal,
    std_normal_cdf,
)
from piv.oracle import (
    DatasetStack,
    SyntheticSpec,
    build_exact_dataset,
    monte_carlo_piv,
    random_spec,
)
from piv.cli import case_study_config
from piv.report import replicate_report

from helpers import (
    CASE_STUDY,
    binomial_mc_tolerance,
    random_belief,
    random_observed_stats,
    random_sign,
)

NEG = EstimateSign.NEGATIVE
POS = EstimateSign.POSITIVE
C196 = StatisticalThreshold(1.96)


def _report(number: int, description: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {number}: {description} ({detail})")
    assert ok, f"criterion {number} failed: {detail}"


def _timed_bound(region: BeliefRegion) -> tuple[float, float]:
    start = time.perf_counter()
    bound = bound_piv(region, CASE_STUDY, NEG, C196)
    return bound.piv_min, time.perf_counter() - start


def test_criterion_1_belief_1_bound():
    region = BeliefRegion(t_interval=(-math.inf, 45.78), c_interval=(45.2, 45.2))
    piv_min, elapsed = _timed_bound(region)
    ok = abs(piv_min - 0.92) <= 0.005 and elapsed < 1.0
    _report(1, "belief 1 lower bound 0.92 +/- 0.005 in < 1 s", ok,
            f"piv_min={piv_min:.6f}, elapsed={elapsed:.3f}s")


def test_criterion_2_relaxed_control_belief():
    region = BeliefRegion(t_interval=(-math.inf, 45.78), c_interval=(44.0, math.inf))
    piv_min, elapsed = _timed_bound(region)
    ok = abs(piv_min - 0.82) <= 0.005 and elapsed < 1.0
    _report(2, "relaxed variant lower bound 0.82 +/- 0.005 in < 1 s", ok,
            f"piv_min={piv_min:.6f}, elapsed={elapsed:.3f}s")


def test_criterion_3_belief_2_bound():
    region = BeliefRegion(t_interval=(-math.inf, 45.2), c_interval=(36.77, 45.78))
    piv_min, elapsed = _timed_bound(region)
    ok = abs(piv_min - 0.936) <= 0.005 and elapsed < 1.0
    _report(3, "belief 2 lower bound 0.936 +/- 0.005 in < 1 s", ok,
            f"piv_min={piv_min:.6f}, elapsed={elapsed:.3f}s")


def test_criterion_4_minus_seven_anchor():
    region = BeliefRegion(t_interval=(45.2, 45.78), c_interval=(43.77, math.inf))
    piv_min, elapsed = _timed_bound(region)
    ok = abs(piv_min - 0.795) <= 0.005 and elapsed < 1.0
    _report(4, "-7 anchor lower bound 0.795 +/- 0.005 in < 1 s", ok,
            f"piv_min={piv_min:.6f}, elapsed={elapsed:.3f}s")


def test_criterion_5_probit_identity():
    rng = np.random.default_rng(50)
    worst = 0.0
    for _ in range(1000):
        stats = random_observed_stats(rng)
        belief = random_belief(rng)
        sign = random_sign(rng)
        magnitude = float(rng.uniform(0.5, 3.5))
        probit = piv(belief, stats, sign, StatisticalThreshold(magnitude)).probit_piv
        t_ratio = ideal_correlation(belief, stats) / se_ideal(stats)
        if sign is POS:
            expected = t_ratio - magnitude
        else:
            expected = -magnitude - t_ratio
        worst = max(worst, abs(probit - expected))
    ok = worst <= 1e-12
    _report(5, "probit identity T - C / C - T over 1000 random tuples to 1e-12", ok,
            f"worst |difference|={worst:.3e}")


def test_criterion_6_oracle_equivalence():
    start = time.perf_counter()
    specs = [random_spec(i) for i in range(100)]
    specs.append(random_spec(200, p=6, n_ob=8))
    specs.append(random_spec(201, p=6, n_ob=512))
    worst_closed_form = worst_block = worst_bayes = 0.0
    sizes, covariate_counts = set(), set()
    for spec in specs:
        sizes.add(spec.n_ob)
        covariate_counts.add(spec.p)
        stack = DatasetStack([build_exact_dataset(spec)])
        r = ideal_correlation(
            CounterfactualBelief(spec.y_t_un, spec.y_c_un), spec.observed_stats(0.0)
        )
        # np.maximum keeps a NaN error, which then fails the criterion;
        # max(worst, nan) would drop it
        worst_closed_form = float(np.maximum(
            worst_closed_form, abs(stack.standardized_w_coefficient()[0] - r) / abs(r)
        ))
        worst_block = float(np.maximum(worst_block, stack.block_inverse_errors()[0]))
        worst_bayes = float(np.maximum(worst_bayes, stack.bayes_combination_errors()[0]))
    elapsed = time.perf_counter() - start
    ok = (
        worst_closed_form <= 1e-10
        and worst_block <= 1e-9
        and worst_bayes <= 1e-9
        and covariate_counts == set(range(7))
        and min(sizes) == 8
        and max(sizes) == 512
        and elapsed < 30.0
    )
    _report(6, "closed form vs least-squares oracle over 102 seeded datasets", ok,
            f"closed_form={worst_closed_form:.3e}, block={worst_block:.3e}, "
            f"bayes={worst_bayes:.3e}, elapsed={elapsed:.1f}s")


def test_criterion_7_monte_carlo_power():
    start = time.perf_counter()
    n_ob, pi, reps = 2000, 0.06, 10_000
    # closed-form PIV at these points spans ~0.05 to ~0.99
    beliefs = [
        (45.78, 45.2),
        (45.4, 45.2),
        (45.0, 45.2),
        (46.2, 45.4),
        (44.6, 45.2),
    ]
    details = []
    ok = True
    for i, (y_t_un, y_c_un) in enumerate(beliefs):
        spec = SyntheticSpec(
            n_ob=n_ob, pi=pi, y_t_ob=36.77, y_c_ob=45.78, y_t_un=y_t_un,
            y_c_un=y_c_un, var_t=143.26, var_c=138.83, seed=i,
        )
        r = ideal_correlation(
            CounterfactualBelief(y_t_un, y_c_un), spec.observed_stats(0.0)
        )
        closed = piv_from_correlation(r, spec.observed_stats(r * r), NEG, C196).piv
        rate = monte_carlo_piv(spec, spec.observed_stats(0.0), NEG, C196,
                               reps=reps, seed=100 + i)
        tolerance = binomial_mc_tolerance(closed, reps)
        ok &= abs(rate - closed) <= tolerance
        details.append(f"{rate:.3f}/{closed:.3f}")
    # null-consistent belief: swapping the observed means zeroes the effect
    null_spec = SyntheticSpec(
        n_ob=n_ob, pi=pi, y_t_ob=36.77, y_c_ob=45.78, y_t_un=45.78,
        y_c_un=36.77, var_t=143.26, var_c=138.83,
    )
    size = std_normal_cdf(-1.96)
    null_rate = monte_carlo_piv(null_spec, null_spec.observed_stats(0.0), NEG, C196,
                                reps=reps, seed=999)
    ok &= abs(null_rate - size) <= binomial_mc_tolerance(size, reps)
    elapsed = time.perf_counter() - start
    ok &= elapsed < 60.0
    _report(7, "monte carlo rate matches closed form at n_ob=2000, reps=10^4", ok,
            f"rate/closed={details}, size={null_rate:.4f} vs {size:.4f}, "
            f"elapsed={elapsed:.1f}s")


def _limit_residual(stats: ObservedStats, magnitude: float) -> float:
    t_limit, c_limit = saturation_limits(stats)
    anchor_t, anchor_c = stats.y_t_ob, stats.y_c_ob
    return max(
        abs(ideal_correlation(CounterfactualBelief(magnitude, anchor_c), stats) - t_limit),
        abs(ideal_correlation(CounterfactualBelief(-magnitude, anchor_c), stats) + t_limit),
        abs(ideal_correlation(CounterfactualBelief(anchor_t, magnitude), stats) + c_limit),
        abs(ideal_correlation(CounterfactualBelief(anchor_t, -magnitude), stats) - c_limit),
    )


def test_criterion_8_saturation_limits():
    worst = _limit_residual(CASE_STUDY, 1e6)
    ok = worst <= 1e-4
    # the limits are approached at a first-order rate for any valid stats
    rng = np.random.default_rng(80)
    for _ in range(20):
        stats = random_observed_stats(rng)
        near, far = _limit_residual(stats, 1e6), _limit_residual(stats, 1e8)
        ok &= far <= near / 50.0 + 1e-12
    _report(8, "correlation at +/-1e6 matches saturation limits to 1e-4", ok,
            f"worst |difference|={worst:.3e}")


def test_criterion_9_scale_factor_resolution():
    lines, data = replicate_report(case_study_config())
    text = "\n".join(lines)
    corner = data["corner_piv"]
    alternative = data["alt_scale_piv"]
    ok = (
        abs(data["scale_coefficient"] - 154.51) <= 0.1
        and abs(data["alt_scale_coefficient"] - 109.25) <= 0.01
        and abs(corner - 0.92) <= 0.005
        and abs(alternative - 0.67) <= 0.02
        and abs(alternative - 0.92) > 0.1
        and "154.51" in text
        and "109.25" in text
    )
    _report(9, "sqrt(2 n_ob) scale reproduces 0.92; sqrt(n_ob) variant gives ~0.67", ok,
            f"corner={corner:.4f}, alternative={alternative:.4f}")
