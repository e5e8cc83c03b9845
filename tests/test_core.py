"""Unit and property tests for the closed-form engine.

Expected values tagged as frozen were produced by direct arithmetic on the
defining formulas (independent of piv.core) and then pinned; the normal CDF
is checked against an 80-digit Decimal power-series oracle implemented here.
"""

from __future__ import annotations

import dataclasses
import math
from decimal import Decimal, getcontext

import numpy as np
import pytest

from piv.core import (
    CounterfactualBelief,
    DegenerateSpreadError,
    EstimateSign,
    FixedThreshold,
    InputValidationError,
    ObservedStats,
    PivResult,
    SignMismatchError,
    StatisticalThreshold,
    ideal_correlation,
    ideal_means,
    ideal_sd,
    piv,
    piv_from_correlation,
    resolve_threshold,
    saturation_limits,
    se_ideal,
    std_normal_cdf,
)

from helpers import (
    BELIEF_1_CORNER,
    CASE_STUDY,
    negate_belief,
    negate_stats,
    random_belief,
    random_observed_stats,
    random_sign,
)

NEG = EstimateSign.NEGATIVE
POS = EstimateSign.POSITIVE
C196 = StatisticalThreshold(1.96)


# =============================================================================
# Domain type validation
# =============================================================================


class TestObservedStats:
    def test_case_study_accepted(self):
        assert CASE_STUDY.pi == 0.0617

    @pytest.mark.parametrize(
        "field,value",
        [
            ("r_squared", -0.01),
            ("r_squared", 1.0),
            ("r_squared", math.nan),
            ("n_ob", 1),
            ("n_ob", 7639.0),
            ("y_t_ob", math.inf),
            ("var_t", -1.0),
            ("var_c", -1e-9),
            ("pi", 0.0),
            ("pi", 1.0),
            ("pi", 1.5),
        ],
    )
    def test_invalid_field_rejected(self, field, value):
        kwargs = dict(
            r_squared=0.36, n_ob=7639, y_t_ob=36.77, y_c_ob=45.78,
            var_t=143.26, var_c=138.83, pi=0.0617,
        )
        kwargs[field] = value
        with pytest.raises(InputValidationError):
            ObservedStats(**kwargs)

    def test_belief_rejects_non_finite(self):
        with pytest.raises(InputValidationError):
            CounterfactualBelief(math.nan, 0.0)
        with pytest.raises(InputValidationError):
            CounterfactualBelief(0.0, math.inf)

    def test_threshold_validation(self):
        with pytest.raises(InputValidationError):
            StatisticalThreshold(0.0)
        with pytest.raises(InputValidationError):
            StatisticalThreshold(-1.96)
        with pytest.raises(InputValidationError):
            FixedThreshold(math.nan)


# =============================================================================
# Completed-sample statistics
# =============================================================================


class TestIdealMeans:
    def test_case_study_point(self):
        # frozen: (1-0.0617)*45.78 + 0.0617*36.77 and 0.0617*45.2 + (1-0.0617)*45.78
        y_t_id, y_c_id = ideal_means(BELIEF_1_CORNER, CASE_STUDY)
        assert y_t_id == pytest.approx(45.224083, abs=1e-9)
        assert y_c_id == pytest.approx(45.744214, abs=1e-9)

    def test_belief_at_observed_means_is_identity(self):
        belief = CounterfactualBelief(CASE_STUDY.y_t_ob, CASE_STUDY.y_c_ob)
        assert ideal_means(belief, CASE_STUDY) == (CASE_STUDY.y_t_ob, CASE_STUDY.y_c_ob)

    def test_symmetric_weights_average(self):
        stats = ObservedStats(0.2, 100, 3.0, 7.0, 1.0, 1.0, 0.5)
        y_t_id, y_c_id = ideal_means(CounterfactualBelief(5.0, 1.0), stats)
        assert y_t_id == pytest.approx((5.0 + 3.0) / 2, abs=1e-15)
        assert y_c_id == pytest.approx((1.0 + 7.0) / 2, abs=1e-15)


class TestIdealSd:
    def test_mixture_collapse(self):
        # belief at the observed means with equal group means: sd reduces to sqrt(v)
        stats = ObservedStats(0.1, 50, 4.0, 4.0, 9.0, 9.0, 0.3)
        assert ideal_sd(CounterfactualBelief(4.0, 4.0), stats) == pytest.approx(3.0, abs=1e-15)

    def test_case_study_value_and_lower_bound(self):
        sd = ideal_sd(BELIEF_1_CORNER, CASE_STUDY)
        assert sd == pytest.approx(11.977990478997208, rel=1e-12)
        assert sd**2 >= 0.5 * (CASE_STUDY.var_t + CASE_STUDY.var_c)

    def test_swap_symmetry_under_equal_variances(self):
        # with var_t == var_c, equal observed means and pi = 1/2, the two squared
        # deviations enter symmetrically once the completed mean gap is held fixed
        stats = ObservedStats(0.0, 40, 10.0, 10.0, 4.0, 4.0, 0.5)
        a, b = 2.5, -1.25
        first = ideal_sd(CounterfactualBelief(10.0 + a, 10.0 + b), stats)
        second = ideal_sd(CounterfactualBelief(10.0 - b, 10.0 - a), stats)
        assert first == pytest.approx(second, rel=1e-14)

    def test_degenerate_spread_is_zero_then_raises_downstream(self):
        stats = ObservedStats(0.0, 10, 5.0, 5.0, 0.0, 0.0, 0.5)
        belief = CounterfactualBelief(5.0, 5.0)
        assert ideal_sd(belief, stats) == 0.0
        with pytest.raises(DegenerateSpreadError):
            ideal_correlation(belief, stats)
        with pytest.raises(DegenerateSpreadError):
            piv(belief, stats, NEG, C196)

    def test_overflowing_variance_raises(self):
        # the squared distance to the observed means exceeds float64
        belief = CounterfactualBelief(1e200, 0.0)
        for call in (lambda: ideal_sd(belief, CASE_STUDY),
                     lambda: ideal_correlation(belief, CASE_STUDY),
                     lambda: piv(belief, CASE_STUDY, NEG, C196)):
            with pytest.raises(InputValidationError, match="variance overflows"):
                call()


class TestIdealCorrelation:
    def test_zero_when_completed_means_equal(self):
        # swapping the observed means into the belief equalizes the completed arms
        belief = CounterfactualBelief(CASE_STUDY.y_c_ob, CASE_STUDY.y_t_ob)
        assert ideal_correlation(belief, CASE_STUDY) == 0.0

    def test_case_study_value(self):
        # frozen by direct evaluation of the defining ratio
        r = ideal_correlation(BELIEF_1_CORNER, CASE_STUDY)
        assert r == pytest.approx(-0.021711947463642682, rel=1e-12)

    def test_equals_half_standardized_gap(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            stats = random_observed_stats(rng)
            belief = random_belief(rng)
            y_t_id, y_c_id = ideal_means(belief, stats)
            sd = ideal_sd(belief, stats)
            r = ideal_correlation(belief, stats)
            assert r == pytest.approx(0.5 * (y_t_id - y_c_id) / sd, rel=1e-14)

    def test_saturation_as_t_grows(self):
        limit = math.sqrt((1 - CASE_STUDY.pi) / (1 + CASE_STUDY.pi))
        r = ideal_correlation(CounterfactualBelief(1e6, 45.2), CASE_STUDY)
        assert r == pytest.approx(limit, abs=1e-4)

    def test_ideal_stats_invariants(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            stats = random_observed_stats(rng)
            belief = random_belief(rng)
            y_t_id, y_c_id = ideal_means(belief, stats)
            assert min(belief.y_t_un, stats.y_t_ob) <= y_t_id <= max(belief.y_t_un, stats.y_t_ob)
            assert min(belief.y_c_un, stats.y_c_ob) <= y_c_id <= max(belief.y_c_un, stats.y_c_ob)
            assert ideal_sd(belief, stats) > 0.0
            assert abs(ideal_correlation(belief, stats)) < 1.0

    def test_joint_saturation_exceeds_axis_limits(self):
        # along x = s*(1-pi, -pi) the correlation tends to
        # sqrt(1 - 2*pi*(1-pi)), beyond both single-axis limits
        rng = np.random.default_rng(13)
        for pi in rng.uniform(0.01, 0.99, 200):
            stats = dataclasses.replace(CASE_STUDY, pi=float(pi))
            far = CounterfactualBelief(stats.y_t_ob + 1e8 * (1.0 - pi), stats.y_c_ob - 1e8 * pi)
            r = ideal_correlation(far, stats)
            assert r == pytest.approx(math.sqrt(1.0 - 2.0 * pi * (1.0 - pi)), abs=1e-6)
            assert r > max(saturation_limits(stats))


class TestSeIdeal:
    def test_case_study_value(self):
        assert se_ideal(CASE_STUDY) == pytest.approx(0.006472271608752044, rel=1e-15)

    def test_exact_small_case(self):
        assert se_ideal(ObservedStats(0.0, 2, 0.0, 0.0, 1.0, 1.0, 0.5)) == 0.5

    def test_vanishes_as_r_squared_tends_to_one(self):
        assert se_ideal(ObservedStats(1.0 - 1e-12, 100, 0, 0, 1, 1, 0.5)) < 1e-7


# =============================================================================
# Thresholds and PIV
# =============================================================================


class TestResolveThreshold:
    def test_statistical_negative_case_study(self):
        value = resolve_threshold(C196, NEG, CASE_STUDY)
        assert value == pytest.approx(-0.012685652353154006, rel=1e-12)

    def test_fixed_passthrough(self):
        assert resolve_threshold(FixedThreshold(0.1), POS, CASE_STUDY) == 0.1

    def test_statistical_positive_sign(self):
        assert resolve_threshold(C196, POS, CASE_STUDY) == pytest.approx(
            1.96 * se_ideal(CASE_STUDY), rel=1e-15
        )

    def test_fixed_sign_mismatch(self):
        with pytest.raises(SignMismatchError):
            resolve_threshold(FixedThreshold(-0.1), POS, CASE_STUDY)
        with pytest.raises(SignMismatchError):
            resolve_threshold(FixedThreshold(0.1), NEG, CASE_STUDY)
        # zero is on neither side
        assert resolve_threshold(FixedThreshold(0.0), POS, CASE_STUDY) == 0.0
        assert resolve_threshold(FixedThreshold(0.0), NEG, CASE_STUDY) == 0.0


class TestProbitPiv:
    def test_case_study_corner(self):
        # frozen: C - r/se with C = -1.96
        value = piv(BELIEF_1_CORNER, CASE_STUDY, NEG, C196).probit_piv
        assert value == pytest.approx(1.3946100621430948, rel=1e-12)

    def test_zero_effect_gives_minus_critical(self):
        belief = CounterfactualBelief(CASE_STUDY.y_c_ob, CASE_STUDY.y_t_ob)  # r == 0
        assert piv(belief, CASE_STUDY, POS, C196).probit_piv == -1.96
        assert piv(belief, CASE_STUDY, NEG, C196).probit_piv == -1.96

    def test_sign_branches_are_reflections(self):
        rng = np.random.default_rng(17)
        for _ in range(200):
            stats = random_observed_stats(rng)
            belief = random_belief(rng)
            # shared fixed threshold: the two branches sum to zero
            fixed = FixedThreshold(0.0)
            total = piv(belief, stats, POS, fixed).probit_piv + piv(belief, stats, NEG, fixed).probit_piv
            assert total == pytest.approx(0.0, abs=1e-9)
            # statistical threshold: the signed critical values differ by 2C
            mag = float(rng.uniform(0.5, 3.0))
            stat = StatisticalThreshold(mag)
            total = piv(belief, stats, POS, stat).probit_piv + piv(belief, stats, NEG, stat).probit_piv
            assert total == pytest.approx(-2.0 * mag, abs=1e-9)

    def test_statistical_equals_fixed_at_resolved_value(self):
        rng = np.random.default_rng(23)
        for _ in range(300):
            stats = random_observed_stats(rng)
            belief = random_belief(rng)
            sign = random_sign(rng)
            mag = float(rng.uniform(0.5, 3.0))
            via_statistical = piv(belief, stats, sign, StatisticalThreshold(mag)).probit_piv
            resolved = resolve_threshold(StatisticalThreshold(mag), sign, stats)
            via_fixed = piv(belief, stats, sign, FixedThreshold(resolved)).probit_piv
            assert via_statistical == pytest.approx(via_fixed, abs=1e-12)


class TestPiv:
    def test_published_lower_bound_values(self):
        assert piv(BELIEF_1_CORNER, CASE_STUDY, NEG, C196).piv == pytest.approx(0.92, abs=5e-3)
        assert piv(CounterfactualBelief(45.78, 44.0), CASE_STUDY, NEG, C196).piv == pytest.approx(
            0.82, abs=5e-3
        )

    def test_null_consistent_belief_rejects_at_half_level(self):
        belief = CounterfactualBelief(CASE_STUDY.y_c_ob, CASE_STUDY.y_t_ob)
        result = piv(belief, CASE_STUDY, NEG, C196)
        assert result.piv == pytest.approx(0.024997895148220435, rel=1e-12)

    def test_result_internally_consistent(self):
        rng = np.random.default_rng(29)
        for _ in range(300):
            stats = random_observed_stats(rng)
            belief = random_belief(rng)
            sign = random_sign(rng)
            result = piv(belief, stats, sign, C196)
            assert isinstance(result, PivResult)
            assert result.piv == std_normal_cdf(result.probit_piv)
            # strictly inside (0, 1) wherever float64 can represent it; the
            # cdf saturates to exactly 0.0 or 1.0 beyond |probit| ~ 8.3/37
            assert 0.0 <= result.piv <= 1.0
            if abs(result.probit_piv) <= 8.0:
                assert 0.0 < result.piv < 1.0
            # statistical-threshold identity, exact by construction
            c = 1.96 if sign is POS else -1.96
            expected = result.t_ratio - c if sign is POS else c - result.t_ratio
            assert result.probit_piv == expected

    def test_sign_duality(self):
        rng = np.random.default_rng(31)
        for _ in range(300):
            stats = random_observed_stats(rng)
            belief = random_belief(rng)
            mag = float(rng.uniform(0.5, 3.0))
            direct = piv(belief, stats, NEG, StatisticalThreshold(mag)).piv
            mirrored = piv(
                negate_belief(belief), negate_stats(stats), POS, StatisticalThreshold(mag)
            ).piv
            assert direct == pytest.approx(mirrored, abs=1e-12)
            b_sharp = float(rng.uniform(0.0, 0.2))
            direct = piv(belief, stats, NEG, FixedThreshold(-b_sharp)).piv
            mirrored = piv(
                negate_belief(belief), negate_stats(stats), POS, FixedThreshold(b_sharp)
            ).piv
            assert direct == pytest.approx(mirrored, abs=1e-12)

    def test_correlation_never_exceeds_global_supremum(self):
        # exact supremum over all beliefs, derived by maximizing the squared
        # correlation along the steepest joint direction:
        #   sup r^2 = f / (1 + f),
        #   f = (pi^2 + (1-pi)^2) / (2 pi (1-pi))
        #       + (y_t_ob - y_c_ob)^2 / (2 (var_t + var_c))
        rng = np.random.default_rng(37)
        for _ in range(50):
            stats = random_observed_stats(rng)
            q_sq = stats.pi**2 + (1.0 - stats.pi) ** 2
            f = q_sq / (2.0 * stats.pi * (1.0 - stats.pi)) + (
                stats.y_t_ob - stats.y_c_ob
            ) ** 2 / (2.0 * (stats.var_t + stats.var_c))
            cap = math.sqrt(f / (1.0 + f)) + 1e-12
            for _ in range(20):
                assert abs(ideal_correlation(random_belief(rng), stats)) <= cap

    def test_correlation_capped_by_axis_limits_in_case_study_regime(self):
        # with a modest observed gap relative to the outcome spread, no grid
        # point pushes |r| meaningfully past the single-axis saturation caps
        t_limit, c_limit = saturation_limits(CASE_STUDY)
        cap = max(t_limit, c_limit) + 2e-3
        for t in np.linspace(-1e6, 1e6, 41):
            for c in np.linspace(-1e6, 1e6, 41):
                r = ideal_correlation(CounterfactualBelief(float(t), float(c)), CASE_STUDY)
                assert abs(r) <= cap


class TestPowerOfIdealTest:
    """The PIV is the power of the one-sided z test in the completed sample."""

    def test_zero_effect_is_test_size(self):
        power = piv_from_correlation(0.0, CASE_STUDY, NEG, C196).piv
        assert power == std_normal_cdf(-1.96)

    def test_effect_on_critical_boundary(self):
        se = se_ideal(CASE_STUDY)
        assert piv_from_correlation(1.96 * se, CASE_STUDY, POS, C196).piv == pytest.approx(
            0.5, abs=1e-12
        )
        assert piv_from_correlation(-1.96 * se, CASE_STUDY, NEG, C196).piv == pytest.approx(
            0.5, abs=1e-12
        )

    @staticmethod
    def _z_test_power(effect: float, stats, sign, critical_magnitude: float) -> float:
        # reject beyond the signed critical value, z ~ N(effect / se, 1)
        shift = effect / se_ideal(stats)
        if sign is POS:
            return 1.0 - std_normal_cdf(critical_magnitude - shift)
        return std_normal_cdf(-critical_magnitude - shift)

    def test_identity_with_piv(self):
        r = ideal_correlation(BELIEF_1_CORNER, CASE_STUDY)
        power = self._z_test_power(r, CASE_STUDY, NEG, 1.96)
        assert power == pytest.approx(piv(BELIEF_1_CORNER, CASE_STUDY, NEG, C196).piv, abs=1e-12)

    def test_identity_with_piv_randomized(self):
        rng = np.random.default_rng(41)
        for _ in range(200):
            stats = random_observed_stats(rng)
            belief = random_belief(rng)
            sign = random_sign(rng)
            mag = float(rng.uniform(0.5, 3.0))
            r = ideal_correlation(belief, stats)
            assert self._z_test_power(r, stats, sign, mag) == pytest.approx(
                piv(belief, stats, sign, StatisticalThreshold(mag)).piv, abs=1e-12
            )


# =============================================================================
# Normal distribution plumbing
# =============================================================================

getcontext().prec = 80

_PI_100 = Decimal(
    "3.14159265358979323846264338327950288419716939937510582097494459230781640628620899862803482534211707"
)


def _phi_series_oracle(x: float) -> Decimal:
    """80-digit Phi(x) via the Maclaurin series of erf; independent of math.erfc.

    erf(z) = (2/sqrt(pi)) * sum over n of (-1)^n z^(2n+1) / (n! (2n+1));
    the n > z^2 guard keeps the loop from stopping before the terms peak.
    """
    z = Decimal(x) / Decimal(2).sqrt()
    z_sq = z * z
    total = Decimal(0)
    power = z
    factorial = Decimal(1)
    n = 0
    while True:
        contribution = power / (factorial * (2 * n + 1))
        total += -contribution if n % 2 else contribution
        if abs(contribution) < Decimal("1e-60") and Decimal(n) > z_sq:
            break
        n += 1
        power *= z_sq
        factorial *= n
    erf = total * 2 / _PI_100.sqrt()
    return (Decimal(1) + erf) / 2


class TestStdNormalCdf:
    def test_half_at_zero(self):
        assert std_normal_cdf(0.0) == 0.5

    def test_against_series_oracle(self):
        for x in np.linspace(-8.0, 8.0, 161):
            expected = _phi_series_oracle(float(x))
            assert abs(Decimal(std_normal_cdf(float(x))) - expected) <= Decimal("1e-14")

    def test_two_sided_quantile_value(self):
        assert std_normal_cdf(1.959964) == pytest.approx(0.975, abs=1e-6)

    def test_symmetry_and_monotonicity(self):
        xs = np.linspace(-10.0, 10.0, 2001)
        values = [std_normal_cdf(float(x)) for x in xs]
        for x, v in zip(xs, values):
            assert abs(v + std_normal_cdf(float(-x)) - 1.0) <= 1e-15
        assert all(b >= a for a, b in zip(values, values[1:]))
        # strictly inside (0, 1) wherever float64 can represent the tail
        assert all(0.0 < std_normal_cdf(float(x)) < 1.0 for x in np.linspace(-8.0, 8.0, 201))
