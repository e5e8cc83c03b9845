"""Tests for grid evaluation, region bounding and verdicts."""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest

from piv.bounds import (
    BeliefRegion,
    BoundResult,
    Verdict,
    bound_piv,
    evaluate_grid,
    robustness_verdict,
)
from piv.cli import render_json
from piv.core import (
    CounterfactualBelief,
    DegenerateSpreadError,
    EstimateSign,
    FixedThreshold,
    InputValidationError,
    ObservedStats,
    StatisticalThreshold,
    ideal_correlation,
    piv,
    piv_from_correlation,
    saturation_limits,
)

from helpers import CASE_STUDY, random_observed_stats, random_sign

NEG = EstimateSign.NEGATIVE
C196 = StatisticalThreshold(1.96)
PLAUSIBLE = BeliefRegion(t_interval=(36.77, 45.78), c_interval=(36.77, 45.78))


class TestBeliefRegion:
    def test_accepts_unbounded_sides(self):
        region = BeliefRegion(t_interval=(-math.inf, 45.78), c_interval=(44.0, math.inf))
        assert not region.is_finite

    def test_rejects_empty_interval(self):
        with pytest.raises(InputValidationError):
            BeliefRegion(t_interval=(2.0, 1.0), c_interval=(0.0, 1.0))

    def test_rejects_pointless_interval(self):
        with pytest.raises(InputValidationError):
            BeliefRegion(t_interval=(math.inf, math.inf), c_interval=(0.0, 1.0))
        with pytest.raises(InputValidationError):
            BeliefRegion(t_interval=(0.0, 1.0), c_interval=(-math.inf, -math.inf))

    def test_rejects_nan(self):
        with pytest.raises(InputValidationError):
            BeliefRegion(t_interval=(math.nan, 1.0), c_interval=(0.0, 1.0))

    def test_point_region_is_valid(self):
        region = BeliefRegion(t_interval=(45.2, 45.2), c_interval=(44.0, 44.0))
        assert region.is_finite


class TestEvaluateGrid:
    def test_two_by_two_matches_pointwise(self):
        grid = evaluate_grid(PLAUSIBLE, (2, 2), CASE_STUDY, NEG, C196)
        assert grid.t_values == (36.77, 45.78)
        assert grid.c_values == (36.77, 45.78)
        for i, t in enumerate(grid.t_values):
            for j, c in enumerate(grid.c_values):
                exact = piv(CounterfactualBelief(t, c), CASE_STUDY, NEG, C196).piv
                assert grid.piv[i][j] == exact

    def test_single_point_region(self):
        region = BeliefRegion(t_interval=(45.78, 45.78), c_interval=(45.2, 45.2))
        grid = evaluate_grid(region, (5, 5), CASE_STUDY, NEG, C196)
        assert len(grid.t_values) == 1 and len(grid.c_values) == 1
        assert grid.piv[0][0] == piv(CounterfactualBelief(45.78, 45.2), CASE_STUDY, NEG, C196).piv

    def test_endpoints_included_exactly(self):
        grid = evaluate_grid(PLAUSIBLE, (7, 3), CASE_STUDY, NEG, C196)
        assert grid.t_values[0] == 36.77 and grid.t_values[-1] == 45.78
        assert grid.c_values[0] == 36.77 and grid.c_values[-1] == 45.78
        assert len(grid.t_values) == 7 and len(grid.c_values) == 3

    def test_rejects_infinite_region(self):
        region = BeliefRegion(t_interval=(-math.inf, 45.78), c_interval=(44.0, 45.0))
        with pytest.raises(InputValidationError):
            evaluate_grid(region, (3, 3), CASE_STUDY, NEG, C196)

    def test_rejects_bad_resolution_and_cap(self):
        with pytest.raises(InputValidationError):
            evaluate_grid(PLAUSIBLE, (1, 5), CASE_STUDY, NEG, C196)
        with pytest.raises(InputValidationError):
            evaluate_grid(PLAUSIBLE, (4000, 4000), CASE_STUDY, NEG, C196)

    def test_monotone_over_plausible_region(self):
        # decreasing in y_t_un and increasing in y_c_un at every grid point,
        # checked by first differences over a dense grid; the PIV itself
        # saturates to exactly 1.0 in float64 over much of this region, so
        # strictness is asserted on the probit and on the unsaturated PIV
        grid = evaluate_grid(PLAUSIBLE, (200, 200), CASE_STUDY, NEG, C196)
        probit = np.array(
            [
                [
                    piv(CounterfactualBelief(t, c), CASE_STUDY, NEG, C196).probit_piv
                    for c in grid.c_values
                ]
                for t in grid.t_values
            ]
        )
        assert np.all(np.diff(probit, axis=0) < 0)
        assert np.all(np.diff(probit, axis=1) > 0)
        matrix = np.array(grid.piv)
        assert np.all(np.diff(matrix, axis=0) <= 0)
        assert np.all(np.diff(matrix, axis=1) >= 0)
        unsaturated = matrix < 1.0 - 1e-12
        dt = np.diff(matrix, axis=0)
        assert np.all(dt[unsaturated[1:, :] & unsaturated[:-1, :]] < 0)
        dc = np.diff(matrix, axis=1)
        assert np.all(dc[unsaturated[:, 1:] & unsaturated[:, :-1]] > 0)


def _random_grid_case(rng: np.random.Generator):
    """A seeded analysis over both signs and threshold kinds, pi near 0 or 1
    now and then, and a box around the observed means up to 1e6 sd wide."""
    stats = random_observed_stats(rng)
    pi = float(rng.choice([stats.pi, 1e-4, 0.9999]))
    stats = dataclasses.replace(stats, pi=pi)
    sign = random_sign(rng)
    if rng.random() < 0.5:
        threshold = StatisticalThreshold(float(rng.uniform(0.5, 4.0)))
    else:
        magnitude = float(rng.uniform(0.0, 0.5))
        threshold = FixedThreshold(magnitude if sign is EstimateSign.POSITIVE else -magnitude)
    sd = math.sqrt(0.5 * (stats.var_t + stats.var_c))
    half = sd * 10.0 ** float(rng.uniform(-2.0, 6.0))
    t0 = stats.y_t_ob + float(rng.uniform(-1.0, 1.0)) * half
    c0 = stats.y_c_ob + float(rng.uniform(-1.0, 1.0)) * half
    region = BeliefRegion(t_interval=(t0 - half, t0 + half), c_interval=(c0 - half, c0 + half))
    return region, stats, sign, threshold


class TestGridMatchesPiv:
    def test_every_cell_equals_piv_exactly(self):
        rng = np.random.default_rng(20260418)
        for _ in range(60):
            region, stats, sign, threshold = _random_grid_case(rng)
            grid = evaluate_grid(region, (9, 11), stats, sign, threshold)
            assert grid.piv.dtype == np.float64 and grid.piv.shape == (9, 11)
            for i, t in enumerate(grid.t_values):
                for j, c in enumerate(grid.c_values):
                    assert grid.piv[i, j] == piv(CounterfactualBelief(t, c), stats, sign, threshold).piv

    def test_cells_are_read_only(self):
        grid = evaluate_grid(PLAUSIBLE, (3, 3), CASE_STUDY, NEG, C196)
        assert not grid.piv.flags.writeable
        with pytest.raises(ValueError):
            grid.piv[0, 0] = 0.5

    def test_degenerate_point_raises(self):
        stats = ObservedStats(0.0, 10, 5.0, 5.0, 0.0, 0.0, 0.5)
        region = BeliefRegion(t_interval=(4.0, 6.0), c_interval=(4.0, 6.0))
        with pytest.raises(DegenerateSpreadError):
            evaluate_grid(region, (3, 3), stats, NEG, C196)

    def test_overflowing_belief_raises(self):
        region = BeliefRegion(t_interval=(1e200, 2e200), c_interval=(36.77, 45.78))
        with pytest.raises(InputValidationError, match="variance overflows"):
            evaluate_grid(region, (3, 3), CASE_STUDY, NEG, C196)
        with pytest.raises(InputValidationError, match="variance overflows"):
            bound_piv(region, CASE_STUDY, NEG, C196)


def _cellwise_csv(t_values, c_values, rows) -> str:
    lines = ["y_t_un," + ",".join(repr(c) for c in c_values)]
    for t, row in zip(t_values, rows):
        lines.append(repr(t) + "," + ",".join(f"{v:.6f}" for v in row))
    return "\n".join(lines) + "\n"


def _cellwise_json(t_values, c_values, rows) -> str:
    def floats(values, pad: str) -> str:
        return "[\n" + ",\n".join(pad + "  " + format(v, ".17g") for v in values) + "\n" + pad + "]"

    piv_rows = ",\n".join("    " + floats(row, "    ") for row in rows)
    return (
        "{\n"
        f'  "t_values": {floats(t_values, "  ")},\n'
        f'  "c_values": {floats(c_values, "  ")},\n'
        f'  "piv": [\n{piv_rows}\n  ]\n'
        "}"
    )


class TestCsvAndJson:
    def test_bytes_equal_cellwise_rendering(self):
        rng = np.random.default_rng(7)
        cases = [(PLAUSIBLE, CASE_STUDY, NEG, C196)]
        cases += [_random_grid_case(rng) for _ in range(5)]
        for region, stats, sign, threshold in cases:
            grid = evaluate_grid(region, (7, 5), stats, sign, threshold)
            rows = [
                [piv(CounterfactualBelief(t, c), stats, sign, threshold).piv for c in grid.c_values]
                for t in grid.t_values
            ]
            assert grid.to_csv_text() == _cellwise_csv(grid.t_values, grid.c_values, rows)
            assert render_json(grid.to_json_object()) == _cellwise_json(
                grid.t_values, grid.c_values, rows
            )

    def test_csv_shape_and_values(self):
        grid = evaluate_grid(PLAUSIBLE, (200, 200), CASE_STUDY, NEG, C196)
        lines = grid.to_csv_text().strip().split("\n")
        assert len(lines) == 201  # header plus one row per t value
        header = lines[0].split(",")
        assert header[0] == "y_t_un"
        assert len(header) == 201
        assert [float(v) for v in header[1:]] == list(grid.c_values)
        first = lines[1].split(",")
        assert float(first[0]) == grid.t_values[0]
        assert first[1] == f"{grid.piv[0][0]:.6f}"

    def test_json_object_round_trips(self):
        grid = evaluate_grid(PLAUSIBLE, (3, 4), CASE_STUDY, NEG, C196)
        obj = grid.to_json_object()
        assert obj["t_values"] == list(grid.t_values)
        assert obj["c_values"] == list(grid.c_values)
        assert obj["piv"] == [list(row) for row in grid.piv]


class TestBoundPiv:
    def test_belief_1(self):
        region = BeliefRegion(t_interval=(-math.inf, 45.78), c_interval=(45.2, 45.2))
        bound = bound_piv(region, CASE_STUDY, NEG, C196)
        assert bound.piv_min == pytest.approx(0.92, abs=5e-3)
        assert bound.argmin.y_t_un == pytest.approx(45.78, abs=1e-6)
        assert bound.argmin.y_c_un == 45.2
        assert set(bound.asymptotic_piv) == {"t_lo"}
        assert bound.argmax is not None

    def test_belief_2(self):
        region = BeliefRegion(t_interval=(-math.inf, 45.2), c_interval=(36.77, 45.78))
        bound = bound_piv(region, CASE_STUDY, NEG, C196)
        assert bound.piv_min == pytest.approx(0.936, abs=5e-3)
        assert bound.argmin.y_t_un == pytest.approx(45.2, abs=1e-6)
        assert bound.argmin.y_c_un == pytest.approx(36.77, abs=1e-6)

    def test_minus_seven_anchor(self):
        region = BeliefRegion(t_interval=(45.2, 45.78), c_interval=(43.77, 45.78))
        bound = bound_piv(region, CASE_STUDY, NEG, C196)
        assert bound.piv_min == pytest.approx(0.795, abs=5e-3)
        assert bound.argmin.y_t_un == pytest.approx(45.78, abs=1e-6)
        assert bound.argmin.y_c_un == pytest.approx(43.77, abs=1e-6)

    def test_extrema_consistent_with_dense_grid(self):
        bound = bound_piv(PLAUSIBLE, CASE_STUDY, NEG, C196)
        grid = evaluate_grid(PLAUSIBLE, (200, 200), CASE_STUDY, NEG, C196)
        assert bound.piv_min <= grid.min() + 1e-6
        assert bound.piv_max >= grid.max() - 1e-6
        assert bound.argmin is not None and bound.argmax is not None
        assert bound.asymptotic_piv == {}

    def test_asymptotic_piv_matches_saturated_correlation(self):
        region = BeliefRegion(t_interval=(-math.inf, math.inf), c_interval=(-math.inf, math.inf))
        bound = bound_piv(region, CASE_STUDY, NEG, C196)
        t_limit, c_limit = saturation_limits(CASE_STUDY)
        expected = {
            "t_lo": piv_from_correlation(-t_limit, CASE_STUDY, NEG, C196).piv,
            "t_hi": piv_from_correlation(t_limit, CASE_STUDY, NEG, C196).piv,
            "c_lo": piv_from_correlation(c_limit, CASE_STUDY, NEG, C196).piv,
            "c_hi": piv_from_correlation(-c_limit, CASE_STUDY, NEG, C196).piv,
        }
        assert bound.asymptotic_piv == expected
        # L0 < 0 here: the largest correlation is the limit along
        # (1-pi, -pi), which no belief attains; the smallest is attained
        g_norm = math.sqrt(1.0 - 2.0 * CASE_STUDY.pi * (1.0 - CASE_STUDY.pi))
        assert bound.argmin is None
        assert bound.piv_min == piv_from_correlation(g_norm, CASE_STUDY, NEG, C196).piv
        assert bound.argmax is not None

    def test_point_region(self):
        region = BeliefRegion(t_interval=(45.78, 45.78), c_interval=(45.2, 45.2))
        bound = bound_piv(region, CASE_STUDY, NEG, C196)
        exact = piv(CounterfactualBelief(45.78, 45.2), CASE_STUDY, NEG, C196).piv
        assert bound.piv_min == exact and bound.piv_max == exact

    def test_case_study_lower_bounds_exact(self):
        pins = {
            (-math.inf, 45.78, 45.2, 45.2): 0.9184332704,
            (-math.inf, 45.78, 44.0, math.inf): 0.8202827277,
            (-math.inf, 45.2, 36.77, 45.78): 0.9363803440,
            (45.2, 45.78, 43.77, math.inf): 0.7952356893,
        }
        for (t_lo, t_hi, c_lo, c_hi), expected in pins.items():
            region = BeliefRegion(t_interval=(t_lo, t_hi), c_interval=(c_lo, c_hi))
            assert bound_piv(region, CASE_STUDY, NEG, C196).piv_min == pytest.approx(
                expected, abs=1e-9
            )

    def test_optimum_far_outside_observed_spread(self):
        # the interior stationary point x* = (V/(D*L0))*(1-pi, -pi) lies at
        # (202, -200), 20 outcome sd from the observed means
        stats = ObservedStats(0.0, 30, 2.0, 0.0, 100.0, 100.0, 0.5)
        open_region = BeliefRegion((-math.inf, math.inf), (-math.inf, math.inf))
        bound = bound_piv(open_region, stats, EstimateSign.POSITIVE, FixedThreshold(0.70))
        assert bound.piv_max == pytest.approx(0.5273686, abs=1e-7)
        assert bound.argmax.y_t_un == pytest.approx(202.0, abs=1e-9)
        assert bound.argmax.y_c_un == pytest.approx(-200.0, abs=1e-9)

    def test_bound_approached_only_at_infinity(self):
        stats = ObservedStats(0.0, 100, 10.0, 0.0, 1.0, 1.0, 0.5)
        region = BeliefRegion(t_interval=(-math.inf, 10.0), c_interval=(0.0, 0.0))
        bound = bound_piv(region, stats, EstimateSign.POSITIVE, C196)
        assert bound.piv_min < 1e-20
        assert bound.argmin is None
        assert bound.piv_min == bound.asymptotic_piv["t_lo"]
        assert robustness_verdict(bound, 0.8) is Verdict.INDETERMINATE


def _cut(lo: float, hi: float, centre: float, width: float) -> tuple[float, float]:
    """Replace the infinite ends of [lo, hi] by finite ones `width` away."""
    if lo == -math.inf:
        lo = (centre if hi == math.inf else hi) - width
    if hi == math.inf:
        hi = max(lo, centre) + width
    return lo, hi


def _limit_directions(region, stats) -> list[tuple[tuple[float, float], float]]:
    """(direction, limit correlation) for every way of leaving the region to infinity."""
    (t_lo, t_hi), (c_lo, c_hi) = region.t_interval, region.c_interval
    t_limit, c_limit = saturation_limits(stats)
    pi = stats.pi
    g_norm = math.sqrt(1.0 - 2.0 * pi * (1.0 - pi))
    g = ((1.0 - pi) / g_norm, -pi / g_norm)
    options = [
        (t_lo == -math.inf, (-1.0, 0.0), -t_limit),
        (t_hi == math.inf, (1.0, 0.0), t_limit),
        (c_lo == -math.inf, (0.0, -1.0), c_limit),
        (c_hi == math.inf, (0.0, 1.0), -c_limit),
        (t_hi == math.inf and c_lo == -math.inf, g, g_norm),
        (t_lo == -math.inf and c_hi == math.inf, (-g[0], -g[1]), -g_norm),
    ]
    return [(direction, r) for allowed, direction, r in options if allowed]


class TestExactBoundProperty:
    # finite, half-open, fully open and zero-width sides, including both
    # quadrants that hold a direction of steepest correlation growth
    SHAPES = (
        ("finite", "finite"),
        ("lo-open", "finite"),
        ("finite", "hi-open"),
        ("hi-open", "lo-open"),
        ("lo-open", "hi-open"),
        ("open", "open"),
        ("point", "open"),
        ("point", "point"),
    )

    @staticmethod
    def _interval(rng, shape: str) -> tuple[float, float]:
        a, b = sorted(float(v) for v in rng.uniform(-150.0, 150.0, 2))
        return {
            "finite": (a, b),
            "lo-open": (-math.inf, b),
            "hi-open": (a, math.inf),
            "open": (-math.inf, math.inf),
            "point": (a, a),
        }[shape]

    def test_random_regions(self):
        rng = np.random.default_rng(53)
        for case in range(160):
            # small samples keep the PIV away from 0 and 1, where float64
            # would hide a missed extreme
            stats = dataclasses.replace(random_observed_stats(rng), n_ob=int(rng.integers(2, 60)))
            sign = random_sign(rng)
            if rng.random() < 0.5:
                threshold = StatisticalThreshold(float(rng.uniform(1.0, 3.0)))
            else:
                magnitude = float(rng.uniform(0.0, 0.3))
                threshold = FixedThreshold(magnitude if sign is EstimateSign.POSITIVE else -magnitude)
            t_shape, c_shape = self.SHAPES[case % len(self.SHAPES)]
            region = BeliefRegion(self._interval(rng, t_shape), self._interval(rng, c_shape))
            bound = bound_piv(region, stats, sign, threshold)
            lo, hi = bound.piv_min - 1e-9, bound.piv_max + 1e-9
            sd = math.sqrt(max(stats.var_t, stats.var_c))

            def box(width: float) -> BeliefRegion:
                return BeliefRegion(_cut(*region.t_interval, stats.y_t_ob, width),
                                    _cut(*region.c_interval, stats.y_c_ob, width))

            grid = evaluate_grid(box(1e3 * sd), (41, 41), stats, sign, threshold)
            assert lo <= grid.min() and grid.max() <= hi
            probes = evaluate_grid(box(1e6 * sd), (5, 5), stats, sign, threshold)
            assert lo <= probes.min() and probes.max() <= hi
            start = box(0.0)
            limits = _limit_directions(region, stats)
            for (dt, dc), _ in limits:
                far = CounterfactualBelief(start.t_interval[0] + 1e6 * sd * dt,
                                           start.c_interval[0] + 1e6 * sd * dc)
                assert lo <= piv(far, stats, sign, threshold).piv <= hi

            for value, belief in ((bound.piv_min, bound.argmin), (bound.piv_max, bound.argmax)):
                if belief is not None:
                    assert region.t_interval[0] <= belief.y_t_un <= region.t_interval[1]
                    assert region.c_interval[0] <= belief.y_c_un <= region.c_interval[1]
                    assert piv(belief, stats, sign, threshold).piv == value
                    continue
                matches = [
                    (direction, r) for direction, r in limits
                    if piv_from_correlation(r, stats, sign, threshold).piv == value
                ]
                assert matches
                (dt, dc), r = matches[0]
                far = CounterfactualBelief(start.t_interval[0] + 1e8 * sd * dt,
                                           start.c_interval[0] + 1e8 * sd * dc)
                assert ideal_correlation(far, stats) == pytest.approx(r, abs=1e-6)


class TestVerdict:
    def _bound(self, piv_min: float, piv_max: float) -> BoundResult:
        point = CounterfactualBelief(0.0, 0.0)
        return BoundResult(
            piv_min=piv_min, argmin=point, piv_max=piv_max, argmax=point,
            asymptotic_piv={},
        )

    def test_robust(self):
        assert robustness_verdict(self._bound(0.92, 0.99)) is Verdict.ROBUST

    def test_not_robust(self):
        assert robustness_verdict(self._bound(0.2, 0.5)) is Verdict.NOT_ROBUST

    def test_indeterminate(self):
        assert robustness_verdict(self._bound(0.4, 0.95)) is Verdict.INDETERMINATE

    def test_threshold_validation(self):
        with pytest.raises(InputValidationError):
            robustness_verdict(self._bound(0.4, 0.95), piv_threshold=1.0)

    def test_case_study_belief_1_is_robust(self):
        region = BeliefRegion(t_interval=(-math.inf, 45.78), c_interval=(45.2, 45.2))
        bound = bound_piv(region, CASE_STUDY, NEG, C196)
        assert robustness_verdict(bound, 0.8) is Verdict.ROBUST
