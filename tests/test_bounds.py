"""Tests for grid evaluation, region bounding and verdicts."""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import random
import sys

import numpy as np
import pytest

from piv import _grid_text, bounds, core
from piv.bounds import (
    BeliefRegion,
    BoundResult,
    Verdict,
    _completed_piv,
    _min_max,
    bound_piv,
    evaluate_grid,
    robustness_verdict,
)
from piv.cli import main, render_json
from piv.config import AnalysisConfig, NamedBelief, config_to_json_object
from piv.core import (
    CounterfactualBelief,
    DegenerateSpreadError,
    EstimateSign,
    FixedThreshold,
    InputValidationError,
    ObservedStats,
    PivError,
    SignMismatchError,
    StatisticalThreshold,
    _correlation,
    _probit,
    _threshold,
    ideal_correlation,
    piv,
    piv_from_correlation,
    saturation_limits,
)

from helpers import (
    CASE_STUDY,
    cellwise_csv,
    negate_stats,
    ordered_means,
    random_observed_stats,
    random_sign,
    replace,
)

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

    @pytest.mark.parametrize("interval", [(1.0, 2.0, 3.0), (1.0,), (), 5.0, None, "ab"])
    @pytest.mark.parametrize("axis", ["t", "c"])
    def test_rejects_an_interval_that_is_not_a_pair(self, axis, interval):
        intervals = {"t_interval": (0.0, 1.0), "c_interval": (0.0, 1.0), f"{axis}_interval": interval}
        with pytest.raises(InputValidationError, match=rf"^{axis}_interval must be a \(lo, hi\) pair$"):
            BeliefRegion(**intervals)

    def test_checks_both_shapes_before_any_bound(self):
        # a NaN bound on t does not hide that c is no pair
        with pytest.raises(InputValidationError, match=r"^c_interval must be a \(lo, hi\) pair$"):
            BeliefRegion((math.nan, 1.0), (1.0, 2.0, 3.0))
        assert BeliefRegion([0.0, 1.0], [2.0, 3.0]).c_interval == (2.0, 3.0)


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

    def test_cap_checked_before_axes_are_built(self, monkeypatch):
        # a zero-width axis counts as one coordinate, whatever its requested count
        point = BeliefRegion(t_interval=(45.78, 45.78), c_interval=(45.2, 45.2))
        assert evaluate_grid(point, (10**12, 10**12), CASE_STUDY, NEG, C196).piv.shape == (1, 1)

        def no_axes(*args):
            raise AssertionError("axis points built before the cell cap was checked")

        monkeypatch.setattr(bounds, "_axis_points", no_axes)
        with pytest.raises(InputValidationError, match="exceeds cap"):
            evaluate_grid(PLAUSIBLE, (10**12, 10**12), CASE_STUDY, NEG, C196)

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


def _random_grid_case(rng: np.random.Generator, ordered: bool = False):
    """A seeded analysis over both signs and threshold kinds, pi near 0 or 1
    now and then, observed means shifted far from zero now and then (so that
    the gap y_t_id - y_c_id cancels), and a box around the observed means up
    to 1e6 sd wide.  If ordered, the two means are swapped where the drawn
    sign needs it, as a config needs; the draws are the same either way."""
    stats = random_observed_stats(rng)
    pi = float(rng.choice([stats.pi, 1e-4, 0.9999]))
    shift = float(rng.choice([0.0, 0.0, 1e5, -1e9]))
    stats = replace(stats, pi=pi, y_t_ob=stats.y_t_ob + shift, y_c_ob=stats.y_c_ob + shift)
    sign = random_sign(rng)
    if ordered:
        stats = ordered_means(stats, sign)
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


def _piv_cells(grid, stats, sign, threshold) -> np.ndarray:
    """piv() at every cell of a grid."""
    return np.array([
        [piv(CounterfactualBelief(t, c), stats, sign, threshold).piv for c in grid.c_values]
        for t in grid.t_values
    ])


def _saturated(grid, stats, sign, threshold) -> np.ndarray:
    """Per row, whether every cell's erfc argument lies past one cut of
    _erfc_cuts; the arguments come from the kernel's steps on the whole grid."""
    t = np.array(grid.t_values)[:, None]
    r = _correlation(t, np.array(grid.c_values), stats, np.sqrt, _min_max)
    x = _probit(r, _threshold(stats, sign, threshold)) / -core._SQRT2
    lo, hi = bounds._erfc_cuts()
    return (x <= lo).all(axis=1) | (x >= hi).all(axis=1)


class TestGridMatchesPiv:
    def test_every_cell_equals_piv_exactly(self, monkeypatch):
        # 240 seeded grids over both signs and threshold kinds, with rows that
        # the kernel evaluates and rows filled without it
        evaluated = []

        def spy(y_t_un, *args, **kwargs):
            evaluated.append(len(y_t_un))
            return _completed_piv(y_t_un, *args, **kwargs)

        monkeypatch.setattr(bounds, "_completed_piv", spy)
        rng = np.random.default_rng(20260418)
        kinds = set()
        for _ in range(240):
            region, stats, sign, threshold = _random_grid_case(rng)
            grid = evaluate_grid(region, (9, 11), stats, sign, threshold)
            assert grid.piv.dtype == np.float64 and grid.piv.shape == (9, 11)
            assert grid.piv.tobytes() == _piv_cells(grid, stats, sign, threshold).tobytes()
            kinds.add((sign, type(threshold)))
        assert len(kinds) == 4
        assert 500 < sum(evaluated) < 240 * 9 - 500

    def test_block_rows(self):
        # writing: about 4096 cells per block, at most 1/128 of the grid, never less than a row
        share = _grid_text._BLOCK_SHARE
        assert share == 128
        assert bounds._block_rows(1000, 1000, share) == 4
        assert bounds._block_rows(500, 500, share) == 3
        assert bounds._block_rows(300, 300, share) == 2
        assert bounds._block_rows(1000, 7, share) == 7
        assert bounds._block_rows(3, 4097, share) == 1
        assert bounds._block_rows(2, 2, share) == 1

    def test_eval_block_rows(self):
        # evaluation: about 4096 cells per block, at most 1/64 of the grid, never less than a row
        share = bounds._EVAL_BLOCK_SHARE
        assert share == 64
        assert bounds._block_rows(300, 300, share) == 4
        assert bounds._block_rows(500, 500, share) == 7
        assert bounds._block_rows(250, 1000, share) == 3
        assert bounds._block_rows(1000, 250, share) == 15
        assert bounds._block_rows(1000, 7, share) == 15
        assert bounds._block_rows(3, 4097, share) == 1
        assert bounds._block_rows(2, 2, share) == 1
        # so 250k-cell grids take 67 to 84 kernel calls, against 143 to 250 at the writer's rule
        assert -(-1000 // bounds._block_rows(1000, 250, share)) == 67
        assert -(-250 // bounds._block_rows(250, 1000, share)) == 84

    @pytest.mark.parametrize("shape", [(3, 4097), (5, 4095), (1000, 7)])
    @pytest.mark.parametrize("sign", [EstimateSign.POSITIVE, NEG])
    @pytest.mark.parametrize("kind", ["statistical", "fixed"])
    def test_every_cell_equals_piv_across_block_boundaries(self, shape, sign, kind, monkeypatch):
        if kind == "statistical":
            threshold = C196
        else:
            threshold = FixedThreshold(0.05 if sign is EstimateSign.POSITIVE else -0.05)
        grid = evaluate_grid(PLAUSIBLE, shape, CASE_STUDY, sign, threshold)
        expected = np.array([
            [piv(CounterfactualBelief(t, c), CASE_STUDY, sign, threshold).piv for c in grid.c_values]
            for t in grid.t_values
        ])
        assert np.array_equal(grid.piv, expected)
        # again with blocks of up to 4096 cells whatever the grid size: 1000x7
        # then takes 585 rows a block, the last block partial
        monkeypatch.setattr(bounds, "_EVAL_BLOCK_SHARE", 1)
        assert bounds._block_rows(1000, 7, bounds._EVAL_BLOCK_SHARE) == 585
        assert np.array_equal(evaluate_grid(PLAUSIBLE, shape, CASE_STUDY, sign, threshold).piv, expected)

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


class TestArrayKernel:
    """The kernel's in-place steps write only over temporaries it made itself."""

    def test_grid_hands_the_kernel_read_only_axes_a_block_at_a_time(self, monkeypatch):
        seen = []

        def spy(y_t_un, y_c_un, *args, **kwargs):
            seen.append((y_t_un[:, 0].tolist(), y_t_un.flags.writeable, y_c_un.flags.writeable))
            return _completed_piv(y_t_un, y_c_un, *args, **kwargs)

        monkeypatch.setattr(bounds, "_completed_piv", spy)
        grid = evaluate_grid(PLAUSIBLE, (1000, 250), CASE_STUDY, NEG, C196)
        # the rows skipped are those whose every erfc argument lies past one cut;
        # each maximal run of the others goes in blocks of 15 rows, the last partial
        skipped = _saturated(grid, CASE_STUDY, NEG, C196)
        assert 0 < skipped.sum() < 1000
        expected = []
        for saturated, run in itertools.groupby(skipped.tolist()):
            length = len(list(run))
            if not saturated:
                expected += [15] * (length // 15) + [length % 15] * (length % 15 > 0)
        assert [len(rows) for rows, _, _ in seen] == expected
        assert sum((rows for rows, _, _ in seen), []) == np.array(grid.t_values)[~skipped].tolist()
        assert not any(t or c for _, t, c in seen)

    @pytest.mark.parametrize("sign", [EstimateSign.POSITIVE, NEG])
    @pytest.mark.parametrize("kind", ["statistical", "fixed"])
    def test_read_only_inputs_left_unchanged(self, sign, kind):
        if kind == "statistical":
            threshold = C196
        else:
            threshold = FixedThreshold(0.05 if sign is EstimateSign.POSITIVE else -0.05)
        # cells past both erfc cuts and between them, so every step runs
        region = BeliefRegion(t_interval=(0.0, 100.0), c_interval=(0.0, 100.0))
        grid = evaluate_grid(region, (60, 41), CASE_STUDY, sign, threshold)
        t = np.array(grid.t_values)[:, None]
        c = np.array(grid.c_values)
        t.flags.writeable = c.flags.writeable = False
        t_bytes, c_bytes = t.tobytes(), c.tobytes()
        cells = _completed_piv(t, c, CASE_STUDY, sign, threshold)
        assert t.tobytes() == t_bytes and c.tobytes() == c_bytes
        assert cells.shape == grid.piv.shape
        assert cells.tobytes() == grid.piv.tobytes()


def _floats_from(start: float, step: int, n: int) -> np.ndarray:
    """n consecutive floats from start, moving its bit pattern by step each time
    (+1 is away from zero, -1 toward it)."""
    bits = np.array([start]).view(np.int64)[0]
    return (bits + step * np.arange(n, dtype=np.int64)).view(np.float64)


def _erfc_bytes(values: np.ndarray) -> bytes:
    return np.array([math.erfc(v) for v in values.tolist()]).tobytes()


class TestErfcSkip:
    """_erfc calls math.erfc only strictly between the cuts; past them it
    writes the 2.0 or 0.0 that math.erfc gives, bit for bit."""

    def test_cuts_are_where_erfc_saturates(self):
        lo, hi = bounds._erfc_cuts()
        assert lo < 0.0 < hi
        assert math.erfc(lo) == 2.0 and math.erfc(math.nextafter(lo, 0.0)) < 2.0
        assert math.erfc(hi) == 0.0 and math.erfc(math.nextafter(hi, 0.0)) > 0.0
        x = np.array([lo, math.nextafter(lo, 0.0), hi, math.nextafter(hi, 0.0)])
        assert bounds._erfc(x.copy()).tobytes() == _erfc_bytes(x)

    @pytest.mark.parametrize("side", ["lo", "hi"])
    def test_floats_past_each_cut(self, side):
        lo, hi = bounds._erfc_cuts()
        cut, saturated = (lo, 2.0) if side == "lo" else (hi, 0.0)
        rng = np.random.default_rng(20261018)
        beyond = np.concatenate([
            _floats_from(cut, 1, 100_000),
            np.copysign(10.0 ** rng.uniform(math.log10(abs(cut)), 308.0, 10_000), cut),
            cut + np.copysign(rng.uniform(0.0, 100.0, 10_000), cut),
        ])
        assert all(math.erfc(v) == saturated for v in beyond.tolist())
        assert bounds._erfc(beyond.copy()).tobytes() == _erfc_bytes(beyond)
        # inside the cut every float goes through math.erfc; mixed with the
        # floats beyond it, each block row takes the masked path
        inside = _floats_from(math.nextafter(cut, 0.0), -1, 100_000)
        mixed = np.stack([inside, beyond[:100_000]], axis=1).reshape(400, 500)
        assert bounds._erfc(inside.copy()).tobytes() == _erfc_bytes(inside)
        assert bounds._erfc(mixed.copy()).tobytes() == _erfc_bytes(mixed.ravel())

    def test_only_cells_between_the_cuts_call_erfc(self, monkeypatch):
        lo, hi = bounds._erfc_cuts()
        x = np.array([[lo, math.nextafter(lo, 0.0), -math.inf, 0.0, math.nan],
                      [hi, math.nextafter(hi, 0.0), math.inf, -1e300, 1e300]])
        expected = _erfc_bytes(x.ravel())
        calls = []
        real_erfc = math.erfc

        def spy(v):
            calls.append(v)
            return real_erfc(v)

        monkeypatch.setattr(math, "erfc", spy)
        assert bounds._erfc(x).tobytes() == expected
        assert calls[:2] == [math.nextafter(lo, 0.0), 0.0]
        assert math.isnan(calls[2])
        assert calls[3:] == [math.nextafter(hi, 0.0)]

    @pytest.mark.parametrize("sign", [EstimateSign.POSITIVE, NEG])
    @pytest.mark.parametrize("kind", ["statistical", "fixed"])
    def test_grid_straddling_both_cuts_equals_piv(self, sign, kind):
        # the probit here spans about -140..140, so the grid holds cells past
        # both cuts and between them; at 60x41 each block is one row
        if kind == "statistical":
            threshold = C196
        else:
            threshold = FixedThreshold(0.05 if sign is EstimateSign.POSITIVE else -0.05)
        region = BeliefRegion(t_interval=(0.0, 100.0), c_interval=(0.0, 100.0))
        assert bounds._block_rows(60, 41, bounds._EVAL_BLOCK_SHARE) == 1
        grid = evaluate_grid(region, (60, 41), CASE_STUDY, sign, threshold)
        assert (grid.piv == 1.0).any() and (grid.piv == 0.0).any()
        assert ((grid.piv > 0.0) & (grid.piv < 1.0)).any()
        expected = np.array([
            [piv(CounterfactualBelief(t, c), CASE_STUDY, sign, threshold).piv for c in grid.c_values]
            for t in grid.t_values
        ])
        assert grid.piv.tobytes() == expected.tobytes()


class TestSaturatedRows:
    """Rows whose every cell saturates are filled without the kernel, and
    equal piv() bit for bit; rows that may not are evaluated as before."""

    @pytest.mark.parametrize("variance", [0.0, 5e-324])
    def test_zero_spread_fills_no_row(self, variance):
        # the cell (1, 1) has zero spread, and no candidate of its row does; a
        # subnormal variance halves to zero in the kernel, so it is zero there too
        stats = ObservedStats(0.0, 10**6, 1.0, 1.0, variance, variance, 0.3)
        region = BeliefRegion(t_interval=(0.0, 2.0), c_interval=(0.0, 2.0))
        with pytest.raises(DegenerateSpreadError):
            evaluate_grid(region, (5, 5), stats, EstimateSign.POSITIVE, FixedThreshold(0.9))

    @pytest.mark.parametrize("t_interval, threshold, error", [
        # the overflowing cell is in the last row; the grid raises as the kernel does
        ((0.0, 1.0), C196, InputValidationError),
        # a threshold across zero from the sign is refused by the first block,
        # unless that block overflows first
        ((0.0, 1.0), FixedThreshold(0.05), SignMismatchError),
        ((-1.0, 0.0), FixedThreshold(0.05), InputValidationError),
    ])
    def test_overflowing_corner_raises_as_unfilled(self, t_interval, threshold, error):
        # dt^2 + dc^2 overflows at one corner only, and every other cell saturates
        big = math.sqrt(0.6 * sys.float_info.max)
        region = BeliefRegion(t_interval=(t_interval[0] * big, t_interval[1] * big),
                              c_interval=(0.0, big))
        corner = CounterfactualBelief(big if t_interval[1] else -big, big)
        with pytest.raises(InputValidationError) as scalar:
            piv(corner, CASE_STUDY, NEG, C196)
        with pytest.raises(error) as raised:
            evaluate_grid(region, (3, 3), CASE_STUDY, NEG, threshold)
        if error is InputValidationError:
            assert str(raised.value) == str(scalar.value) == core._VARIANCE_OVERFLOW
        for t in (region.t_interval[0], sum(region.t_interval) / 2, region.t_interval[1]):
            for c in (0.0, big / 2, big):
                if (t, c) != (corner.y_t_un, corner.y_c_un):
                    assert piv(CounterfactualBelief(t, c), CASE_STUDY, NEG, C196).piv in (0.0, 1.0)

    @pytest.mark.parametrize("cut", ["lo", "hi"])
    @pytest.mark.parametrize("sign", [EstimateSign.POSITIVE, NEG])
    def test_row_extremes_within_ulps_of_each_cut(self, cut, sign):
        # One row under fixed thresholds that put the row's extreme erfc
        # argument at each of the nine floats around the cut, give or take the
        # threshold's own ulp.  r is greatest at the row's stationary point
        # c* = -3 and least at its end c = -1, which give the least and the
        # greatest argument for a positive estimate.  A negative estimate
        # mirrors the means, the row and the threshold.
        stats = ObservedStats(0.0, 100, 1.0, 0.0, 1.0, 1.0, 0.5)
        region = BeliefRegion(t_interval=(2.0, 2.0), c_interval=(-6.0, -1.0))
        assert bounds._edge_stationary(2.0 - 1.0, 0.5, -0.5, bounds._plane(stats)) == -3.0  # y_c_ob is 0
        cells = [CounterfactualBelief(2.0, c) for c in evaluate_grid(
            region, (2, 41), stats, EstimateSign.POSITIVE, C196).c_values]
        r = [ideal_correlation(belief, stats) for belief in cells]
        assert int(np.argmax(r)) == 24 and int(np.argmin(r)) == 40
        x_cut = bounds._erfc_cuts()[cut == "hi"]

        def extreme(beta: float) -> float:
            x = [piv(belief, stats, EstimateSign.POSITIVE, FixedThreshold(beta)).probit_piv
                 / -core._SQRT2 for belief in cells]
            return max(x) if cut == "lo" else min(x)

        def beta_at(target: float) -> float:
            # x = (r - beta)/se/-sqrt(2): Newton steps on beta, whose ulp moves
            # x by at most about 1.3 ulps here
            beta = min(r) if cut == "lo" else max(r)
            for _ in range(4):
                beta += (target - extreme(beta)) * core.se_ideal(stats) * core._SQRT2
            return beta

        betas = np.array([beta_at(x_cut + k * math.ulp(x_cut)) for k in range(-4, 5)])
        if sign is NEG:
            stats = negate_stats(stats)
            region = BeliefRegion(t_interval=(-2.0, -2.0), c_interval=(1.0, 6.0))
            betas = -betas
        sides = set()
        for beta in betas.tolist():
            threshold = FixedThreshold(beta)
            grid = evaluate_grid(region, (2, 41), stats, sign, threshold)
            assert grid.piv.tobytes() == _piv_cells(grid, stats, sign, threshold).tobytes()
            x = [piv(CounterfactualBelief(grid.t_values[0], c), stats, sign, threshold).probit_piv
                 / -core._SQRT2 for c in grid.c_values]
            extreme_x = max(x) if cut == "lo" else min(x)
            assert abs(extreme_x - x_cut) <= 8 * math.ulp(x_cut)
            sides.add(extreme_x < x_cut)
        assert sides == {True, False}

    def test_rows_whose_gap_cancels_equal_piv(self):
        # Observed means near 1e9 with unit spread: the gap y_t_id - y_c_id
        # cancels, so each cell's r carries rounding noise of about 1e-8, more
        # than r changes over this row 1e-3 wide around its stationary point.
        # A cell of the noise, not a candidate, holds the row's greatest erfc
        # argument, about 7e-8 above the candidates'.  Thresholds step it
        # across the lower cut 1e-8 at a time.  (Just below the upper cut
        # erfc is the least subnormal, which halves to a PIV of 0.0 anyway.)
        shift = 1e9
        stats = ObservedStats(0.0, 100, shift + 1.0, shift, 1.0, 1.0, 0.5)
        t, c_star = shift + 2.0, shift - 3.0
        region = BeliefRegion(t_interval=(t, t), c_interval=(c_star - 5e-4, c_star + 5e-4))
        pos = EstimateSign.POSITIVE
        cells = [CounterfactualBelief(t, c) for c in evaluate_grid(region, (2, 41), stats, pos, C196).c_values]
        r = np.array([ideal_correlation(belief, stats) for belief in cells])
        assert int(np.argmin(r)) not in (0, 20, 40)
        lo = bounds._erfc_cuts()[0]
        for step in range(-20, 21):
            threshold = FixedThreshold(float(r.min() + (lo + step * 1e-8) * core.se_ideal(stats) * core._SQRT2))
            grid = evaluate_grid(region, (2, 41), stats, pos, threshold)
            assert grid.piv.tobytes() == _piv_cells(grid, stats, pos, threshold).tobytes()

    def test_kernel_sees_no_row_of_a_saturated_grid(self, monkeypatch):
        seen = []

        def spy(y_t_un, *args, **kwargs):
            seen.append(len(y_t_un))
            return _completed_piv(y_t_un, *args, **kwargs)

        monkeypatch.setattr(bounds, "_completed_piv", spy)
        for region, value in ((BeliefRegion((10.0, 30.0), (40.0, 60.0)), 1.0),
                              (BeliefRegion((60.0, 80.0), (20.0, 40.0)), 0.0)):
            grid = evaluate_grid(region, (300, 300), CASE_STUDY, NEG, C196)
            assert seen == [] and (grid.piv == value).all()
        # and every row of a grid with no saturated row, in blocks of 4
        band = BeliefRegion((45.0, 46.5), (44.0, 47.0))
        grid = evaluate_grid(band, (300, 300), CASE_STUDY, NEG, C196)
        assert not _saturated(grid, CASE_STUDY, NEG, C196).any()
        assert seen == [4] * 75
        assert grid.piv.tobytes() == _piv_cells(grid, CASE_STUDY, NEG, C196).tobytes()


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


def _shaped(region: BeliefRegion, shape: str) -> tuple[BeliefRegion, tuple[int, int]]:
    """The region and resolution for a shape; a zero-width axis keeps its lower bound."""
    if shape == "1x5":
        return replace(region, t_interval=(region.t_interval[0],) * 2), (7, 5)
    if shape == "7x1":
        return replace(region, c_interval=(region.c_interval[0],) * 2), (7, 5)
    nt, nc = map(int, shape.split("x"))
    return region, (nt, nc)


class TestCsvAndJson:
    def test_bytes_equal_cellwise_rendering(self, tmp_path):
        rng = np.random.default_rng(7)
        cases = [(PLAUSIBLE, CASE_STUDY, NEG, C196)]
        # ordered, since the CLI leg writes each case as a config
        cases += [_random_grid_case(rng, ordered=True) for _ in range(5)]
        for base, stats, sign, threshold in cases:
            for shape in ("7x5", "2x2", "1x5", "7x1"):
                region, resolution = _shaped(base, shape)
                grid = evaluate_grid(region, resolution, stats, sign, threshold)
                assert grid.piv.shape == tuple(map(int, shape.split("x")))
                rows = [
                    [piv(CounterfactualBelief(t, c), stats, sign, threshold).piv for c in grid.c_values]
                    for t in grid.t_values
                ]
                csv = cellwise_csv(grid.t_values, grid.c_values, rows)
                json_text = _cellwise_json(grid.t_values, grid.c_values, rows)
                assert grid.to_csv_text() == csv
                assert render_json(grid.to_json_object()) == json_text

                # the files piv contour streams to --out, row by row
                config = AnalysisConfig(stats, threshold, (NamedBelief("box", region=region),))
                path = tmp_path / "config.json"
                path.write_text(render_json(config_to_json_object(config)), encoding="utf-8")
                for fmt, expected in (("csv", csv), ("json", json_text + "\n")):
                    out = tmp_path / f"grid.{fmt}"
                    argv = ["contour", "--config", str(path), "--belief", "box", "--format", fmt,
                            "--grid", "x".join(map(str, resolution)), "--out", str(out)]
                    assert main(argv) == 0
                    assert out.read_bytes() == expected.encode()

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


def _hand_grid(values: np.ndarray) -> bounds.ContourGrid:
    """A ContourGrid holding arbitrary cell values, on axes 0, 1, 2, ..."""
    nt, nc = values.shape
    return bounds.ContourGrid(tuple(map(float, range(nt))), tuple(map(float, range(nc))), values)


def _hard_cells(rng: np.random.Generator) -> np.ndarray:
    """PIV-range values where a fixed-width "%.6f" writer can go wrong."""
    ties = [m / 128 for m in range(1, 128, 2)]  # m/128 * 1e6 is exactly a half-integer
    near = []
    for k in rng.integers(0, 1_000_000, 300).tolist():
        mid = (k + 0.5) / 1e6
        near += [float(np.nextafter(mid, 0.0)), mid, float(np.nextafter(mid, 2.0))]
    edges = [0.0, 5e-324, 1e-7, 4.9999999e-7, 5e-7,
             float(np.nextafter(0.9999995, 0.0)), 0.9999995, float(np.nextafter(0.9999995, 2.0)),
             float(np.nextafter(1.0, 0.0)), 1.0]
    return np.array(ties + near + edges + rng.random(500).tolist())


class TestCsvWriterExact:
    """The CSV writer builds cells as fixed-width ASCII in numpy; every cell
    must still read as format(v, ".6f")."""

    OUT_OF_RANGE = [-0.0, 1.5, 2.0, -1e-9, float(np.nextafter(1.0, 2.0)), 1e308,
                    math.inf, -math.inf, math.nan]

    @staticmethod
    def _check(grid: bounds.ContourGrid) -> None:
        assert grid.to_csv_text() == cellwise_csv(grid.t_values, grid.c_values, grid.piv.tolist())

    @pytest.mark.parametrize("shape", [(1, 2000), (2000, 1), (2, 4100), (3, 4097), (1000, 7),
                                       (601, 260)])
    def test_hard_cells_equal_format(self, shape):
        # 1xN and Nx1; rows longer than a block; blocks of several rows, the last
        # partial, under the CSV format's min_cells (1000x7) and over it (601x260)
        rng = np.random.default_rng(20261018)
        cells = rng.permutation(np.resize(_hard_cells(rng), shape[0] * shape[1]))
        self._check(_hand_grid(cells.reshape(shape)))

    @pytest.mark.parametrize("value", OUT_OF_RANGE, ids=repr)
    def test_out_of_range_cell_takes_format_path(self, value):
        rng = np.random.default_rng(5)
        cells = rng.random((400, 30))
        cells[171, 11] = value
        grid = _hand_grid(cells)
        self._check(grid)
        # only the row holding the value leaves the fixed-width path
        exact = _grid_text._csv_block(grid.piv)[2]
        assert [i for i, ok in enumerate(exact) if not ok] == [171]

    def test_ties_take_format_path(self):
        ties = np.array([[m / 128] for m in range(1, 128, 2)])
        assert not any(_grid_text._csv_block(ties)[2])
        # 0.0078125 prints as 0.007812: the tie rounds to the even digit
        assert _hand_grid(ties).to_csv_text().split("\n")[1] == "0.0,0.007812"

    def test_in_range_cells_take_fixed_width_path(self):
        rng = np.random.default_rng(11)
        cells = np.concatenate([rng.random(4001), [0.0, 5e-324, 1.0]]).reshape(-1, 7)
        assert all(_grid_text._csv_block(cells)[2])


class TestContourGridCheck:
    """A ContourGrid refuses, when it is constructed, a piv that does not fill
    its two finite, non-empty axes; its cells are not checked."""

    @pytest.mark.parametrize("nt, nc, shape", [(3, 0, (3, 0)), (0, 3, (0, 3)), (0, 0, (0, 0)),
                                               (2, 3, (2, 2)), (2, 3, (3, 2)), (2, 3, (6,))])
    def test_piv_that_does_not_fill_its_axes_refused(self, nt, nc, shape):
        # before the check, (3, 0) and (0, 3) raised ZeroDivisionError on export,
        # and (2, 2) on 3 c values wrote a CSV whose header and rows disagree
        t_values, c_values = tuple(map(float, range(nt))), tuple(map(float, range(nc)))
        with pytest.raises(InputValidationError, match="ContourGrid"):
            bounds.ContourGrid(t_values, c_values, np.full(shape, 0.5))

    def test_piv_that_is_not_an_array_refused(self):
        with pytest.raises(InputValidationError, match="ContourGrid"):
            bounds.ContourGrid((0.0,), (0.0, 1.0), [[0.5, 0.5]])

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=repr)
    @pytest.mark.parametrize("axis", ["t_values", "c_values"])
    def test_non_finite_axis_value_refused(self, axis, value):
        axes = {"t_values": (0.0, 1.0), "c_values": (0.0, 1.0, 2.0)}
        axes[axis] = (value,) + axes[axis][1:]
        with pytest.raises(InputValidationError, match="finite"):
            bounds.ContourGrid(piv=np.full((2, 3), 0.5), **axes)

    @pytest.mark.parametrize("value", [math.nan, -0.0, math.inf, -math.inf], ids=repr)
    @pytest.mark.parametrize("shape", [(3, 4), (300, 2)])
    def test_any_cell_value_constructs_and_exports(self, value, shape):
        cells = np.full(shape, 0.5)
        cells[1, 1] = value
        grid = _hand_grid(cells)
        rows = grid.piv.tolist()
        assert grid.to_csv_text() == cellwise_csv(grid.t_values, grid.c_values, rows)
        assert (b"".join(_grid_text.json_chunks(grid)).decode("ascii")
                == _cellwise_json(grid.t_values, grid.c_values, rows) + "\n")

    @pytest.mark.parametrize("n", [5, 300, 5000])
    @pytest.mark.parametrize("axis", ["t", "c"])
    def test_zero_width_grids_construct_and_export(self, axis, n):
        # a zero-width axis gives a 1xN or Nx1 grid; 5000 cells is wider than a block
        region = replace(PLAUSIBLE, **{f"{axis}_interval": (45.2, 45.2)})
        grid = evaluate_grid(region, (n, n), CASE_STUDY, NEG, C196)
        assert grid.piv.shape == ((1, n) if axis == "t" else (n, 1))
        rows = grid.piv.tolist()
        assert grid.to_csv_text() == cellwise_csv(grid.t_values, grid.c_values, rows)
        assert (b"".join(_grid_text.json_chunks(grid)).decode("ascii")
                == _cellwise_json(grid.t_values, grid.c_values, rows) + "\n")


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

    def test_ties_go_to_the_first_corner(self):
        # far from the tipping band every candidate reads exactly 1.0, so both
        # extremes are the first candidate, the corner (t_lo, c_lo)
        region = BeliefRegion((10.0, 30.0), (40.0, 60.0))
        for t, c in itertools.product((10.0, 30.0), (40.0, 60.0)):
            assert piv(CounterfactualBelief(t, c), CASE_STUDY, NEG, C196).piv == 1.0
        bound = bound_piv(region, CASE_STUDY, NEG, C196)
        assert bound.piv_min == bound.piv_max == 1.0
        assert bound.argmin == bound.argmax == CounterfactualBelief(10.0, 40.0)

    def test_ties_go_to_an_attained_belief_before_a_limit(self):
        # the limit as y_t_un runs to -inf reads 1.0, as every attained candidate
        # does; the first attained corner, (t_hi, c_lo), wins over the limit
        region = BeliefRegion((-math.inf, 30.0), (40.0, 60.0))
        bound = bound_piv(region, CASE_STUDY, NEG, C196)
        assert bound.asymptotic_piv == {"t_lo": 1.0}
        assert bound.piv_min == bound.piv_max == 1.0
        assert bound.argmin == bound.argmax == CounterfactualBelief(30.0, 40.0)

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


    @pytest.mark.parametrize("stats, region, message", [
        # the stationary point on the edge y_c_un = 0 lies near y_t_un = 2e310
        (ObservedStats(0.0, 100, 1e-10, 0.0, 1.0, 1.0, 1e-300),
         BeliefRegion(t_interval=(-math.inf, math.inf), c_interval=(0.0, 0.0)),
         "the region's stationary point on its edge y_c_un = 0.0 lies beyond float range"),
        # and the one on the edge y_t_un = 1e-310 near y_c_un = -4e310
        (ObservedStats(0.0, 100, 1e-310, 0.0, 1.0, 1.0, 0.5),
         BeliefRegion(t_interval=(1e-310, 1e-310), c_interval=(-math.inf, math.inf)),
         "the region's stationary point on its edge y_t_un = 1e-310 lies beyond float range"),
    ])
    def test_edge_point_beyond_float_range_refused(self, stats, region, message):
        with pytest.raises(InputValidationError) as raised:
            bound_piv(region, stats, EstimateSign.POSITIVE, C196)
        assert str(raised.value) == message

    @pytest.mark.parametrize("sign", list(EstimateSign))
    @pytest.mark.parametrize("stats, region, belief", [
        # the edge y_t_un = 1e308 lies 2e308 (inf) from y_t_ob, so its edge
        # point is inf/inf = NaN; no corner is finite
        (ObservedStats(0.0, 100, -1e308, 0.0, 1.0, 1.0, 0.5),
         BeliefRegion(t_interval=(1e308, 1e308), c_interval=(-math.inf, math.inf)),
         CounterfactualBelief(1e308, 0.0)),
        (ObservedStats(0.0, 100, 0.0, 1e308, 1.0, 1.0, 0.5),
         BeliefRegion(t_interval=(-math.inf, math.inf), c_interval=(-1e308, -1e308)),
         CounterfactualBelief(0.0, -1e308)),
    ], ids=["t-edge", "c-edge"])
    def test_region_whose_every_belief_overflows_refused(self, stats, region, belief, sign):
        with pytest.raises(InputValidationError) as at_point:
            piv(belief, stats, sign, C196)
        with pytest.raises(InputValidationError) as bounded:
            bound_piv(region, stats, sign, C196)
        assert str(bounded.value) == str(at_point.value)
        assert str(bounded.value).startswith("completed-sample variance overflows float64")

    def test_edge_point_has_one_float_order(self):
        # _edge_stationary on an array of offsets gives, element by element, the
        # bits of the scalar call with the same plane; where the scalar call
        # divides by zero, the array holds inf or NaN
        rng = np.random.default_rng(20261019)
        zero_divisions = 0
        for case in range(200):
            stats = random_observed_stats(rng)
            if case % 4 == 0:
                stats = replace(stats, y_c_ob=stats.y_t_ob)  # l0 = 0
            plane = pi, a, _, _, _ = bounds._plane(stats)
            offsets = np.concatenate([rng.uniform(-300.0, 300.0, 40),
                                      10.0 ** rng.uniform(-8.0, 160.0, 8), [0.0]])
            for g_fixed, g_free in ((a, -pi), (-pi, a)):
                with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
                    array = bounds._edge_stationary(offsets, g_fixed, g_free, plane)
                for offset, value in zip(offsets.tolist(), array.tolist()):
                    try:
                        scalar = bounds._edge_stationary(offset, g_fixed, g_free, plane)
                    except ZeroDivisionError:
                        zero_divisions += 1
                        assert not math.isfinite(value)
                        continue
                    assert scalar.hex() == value.hex()
        assert zero_divisions == 100  # offset 0.0 on both edges when l0 = 0

    def test_weighs_candidates_without_records(self, monkeypatch):
        # each candidate is weighed as a float; only argmin and argmax become
        # beliefs, and no PivResult is built at all
        built = {"beliefs": 0, "results": 0}

        def counting(cls, key):
            init = cls.__init__

            def wrapper(self, *args, **kwargs):
                built[key] += 1
                init(self, *args, **kwargs)
            monkeypatch.setattr(cls, "__init__", wrapper)

        counting(CounterfactualBelief, "beliefs")
        counting(core.PivResult, "results")
        rng = random.Random(20261020)
        bounded = 0
        for i in range(400):
            region, stats, sign, threshold, _ = _sweep_case(rng, i)
            built.update(beliefs=0, results=0)
            try:
                bound = bound_piv(region, stats, sign, threshold)
            except PivError:
                continue
            bounded += 1
            assert built["results"] == 0
            assert built["beliefs"] == (bound.argmin is not None) + (bound.argmax is not None)
        assert bounded > 300

    def test_correlation_error_comes_before_threshold_error(self):
        # as in piv(): the first candidate's correlation is computed before the
        # threshold is resolved, so zero spread at the first corner wins over a
        # fixed threshold across zero; with no attained candidate the threshold raises
        stats = ObservedStats(0.0, 100, 5.0, 5.0, 0.0, 0.0, 0.5)
        across = FixedThreshold(-0.1)
        with pytest.raises(DegenerateSpreadError):
            piv(CounterfactualBelief(5.0, 5.0), stats, EstimateSign.POSITIVE, across)
        with pytest.raises(DegenerateSpreadError):
            bound_piv(BeliefRegion((5.0, 6.0), (5.0, 6.0)), stats, EstimateSign.POSITIVE, across)
        open_region = BeliefRegion((-math.inf, math.inf), (-math.inf, math.inf))
        with pytest.raises(SignMismatchError):
            bound_piv(open_region, stats, EstimateSign.POSITIVE, across)

    # d*l0 underflows to 0 here, so r has no interior stationary point in float range
    TINY_PI = {"r_squared": 0.0, "n_ob": 100, "y_t_ob": 1e-300, "y_c_ob": 0.0,
               "var_t": 1.0, "var_c": 1.0, "pi": 1e-300}
    # here d*l0 is a subnormal, and v/(d*l0) overflows to inf
    TINY_GAP = {"r_squared": 0.0, "n_ob": 100, "y_t_ob": 1e-308, "y_c_ob": 0.0,
                "var_t": 1.0, "var_c": 1.0, "pi": 0.5}

    @staticmethod
    def _bound_command(tmp_path, capsys, observed, region):
        config = AnalysisConfig(ObservedStats(**observed), StatisticalThreshold(1.96),
                                (NamedBelief("box", region=region),))
        path = tmp_path / "config.json"
        path.write_text(render_json(config_to_json_object(config)), encoding="utf-8")
        code = main(["bound", "--config", str(path), "--belief", "box", "--format", "json"])
        out, err = capsys.readouterr()
        assert "Traceback" not in err
        return code, out, err

    @pytest.mark.parametrize("sign", list(EstimateSign))
    def test_interior_denominator_that_underflows_gives_no_candidate(self, sign, tmp_path,
                                                                     capsys):
        stats = ObservedStats(**self.TINY_PI)
        region = BeliefRegion((0.0, 1.0), (0.0, 1.0))
        bound = bound_piv(region, stats, sign, C196)
        for value, belief in ((bound.piv_min, bound.argmin), (bound.piv_max, bound.argmax)):
            assert piv(belief, stats, sign, C196).piv == value
        grid = evaluate_grid(region, (41, 41), stats, sign, C196)
        assert bound.piv_min <= grid.min() and grid.max() <= bound.piv_max
        if sign is EstimateSign.POSITIVE:
            code, out, _ = self._bound_command(tmp_path, capsys, self.TINY_PI, region)
            assert code == 0
            assert json.loads(out)["piv_min"] == bound.piv_min

    def test_interior_point_beyond_float_range_refused(self, tmp_path, capsys):
        message = "the region's interior stationary point lies beyond float range"
        stats = ObservedStats(**self.TINY_GAP)
        open_region = BeliefRegion((-math.inf, math.inf), (-math.inf, math.inf))
        with pytest.raises(InputValidationError) as raised:
            bound_piv(open_region, stats, EstimateSign.POSITIVE, C196)
        assert str(raised.value) == message
        code, out, err = self._bound_command(tmp_path, capsys, self.TINY_GAP, open_region)
        assert (code, out, err) == (2, "", f"config error: {message}\n")


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
            stats = replace(random_observed_stats(rng), n_ob=int(rng.integers(2, 60)))
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


def _convexity_cases(seed: int, n: int):
    """(stats, sign, threshold, region, sign*L at each corner) for n seeded finite
    boxes.  n_ob < 12 and r_squared < 0.5 keep the PIV away from 0 and 1 (below
    1 - 1e-9), where float64 would tie distinct correlations."""
    rng = np.random.default_rng(seed)
    for _ in range(n):
        stats = replace(random_observed_stats(rng), n_ob=int(rng.integers(2, 12)),
                        r_squared=float(rng.uniform(0.0, 0.5)))
        sign = random_sign(rng)
        if rng.random() < 0.5:
            threshold = StatisticalThreshold(float(rng.uniform(0.0, 2.0)))
        else:
            magnitude = float(rng.uniform(0.0, 0.5))
            threshold = FixedThreshold(magnitude if sign is EstimateSign.POSITIVE else -magnitude)
        sd = math.sqrt(0.5 * (stats.var_t + stats.var_c))
        t0, c0 = np.array([stats.y_t_ob, stats.y_c_ob]) + sd * rng.uniform(-3.0, 3.0, 2)
        half_t, half_c = sd * 10.0 ** rng.uniform(-1.0, 1.0, 2)
        region = BeliefRegion((float(t0 - half_t), float(t0 + half_t)),
                              (float(c0 - half_c), float(c0 + half_c)))
        pi, a, l0, _, _ = bounds._plane(stats)
        s = 1.0 if sign is EstimateSign.POSITIVE else -1.0
        signed_l = [s * (a * (t - stats.y_t_ob) - pi * (c - stats.y_c_ob) + l0)
                    for t in region.t_interval for c in region.c_interval]
        yield stats, sign, threshold, region, signed_l


def _corner_misses(stats, sign, threshold, region) -> tuple[bool, bool]:
    """Whether bound_piv's least PIV, and its argmin's signed r, lie below the
    least corner's."""
    s = 1.0 if sign is EstimateSign.POSITIVE else -1.0
    corners = [CounterfactualBelief(t, c) for t in region.t_interval for c in region.c_interval]
    bound = bound_piv(region, stats, sign, threshold)
    least_piv = min(piv(belief, stats, sign, threshold).piv for belief in corners)
    least_r = min(s * ideal_correlation(belief, stats) for belief in corners)
    assert bound.piv_min <= least_piv  # the corners are candidates
    return bound.piv_min < least_piv, s * ideal_correlation(bound.argmin, stats) < least_r


class TestConvexRobustSet:
    """The fact in _plane's docstring: where sign*L > 0 on a finite region,
    the least PIV is at a corner."""

    def test_least_piv_at_a_corner_where_l_keeps_the_estimates_sign(self):
        checked = 0
        for stats, sign, threshold, region, signed_l in _convexity_cases(61, 2000):
            if min(signed_l) > 0.0:
                # bit for bit, in the PIV and in the argmin's correlation
                assert _corner_misses(stats, sign, threshold, region) == (False, False)
                checked += 1
        assert checked > 700

    def test_power_where_l_changes_sign_the_least_piv_leaves_the_corners(self):
        # the check above fails on regions where L changes sign: the least PIV
        # then lies on an edge or inside, below every corner
        misses = checked = 0
        for stats, sign, threshold, region, signed_l in _convexity_cases(62, 2000):
            if min(signed_l) < 0.0 < max(signed_l):
                missed_piv, missed_r = _corner_misses(stats, sign, threshold, region)
                assert missed_piv == missed_r
                misses += missed_piv
                checked += 1
        assert checked > 200
        assert misses > checked // 5


def _sweep_case(rng: random.Random, i: int):
    """Draw i of the seeded sweep: (region, stats, sign, threshold, scale).

    Draw i has infinite sides by the bits of i % 16 (t_lo, t_hi, c_lo, c_hi),
    sign by (i // 16) % 2 and threshold kind by (i // 32) % 2.  Every 7th draw
    has l0 = 0, every 11th zero variances, every 5th n_ob up to 10**5 (else
    below 60), and every 17th a region 1e160 wide, where the variance
    overflows.  On every 23rd draw a fixed threshold lies across zero from
    the sign.  Every 13th has pi = 1/2 and integer means, and puts t_lo at
    y_t_ob - 2*l0 and c_hi at y_c_ob + 2*l0, edges on which r has no
    stationary point.  Every 19th has a zero-width t side.
    """
    y_t, y_c = rng.uniform(-100.0, 100.0), rng.uniform(-100.0, 100.0)
    var_t, var_c = rng.uniform(0.05, 200.0), rng.uniform(0.05, 200.0)
    pi = rng.uniform(0.01, 0.99)
    if i % 13 == 0:
        pi, y_t, y_c = 0.5, float(round(y_t)), float(round(y_c))
    if i % 7 == 0:
        y_c = y_t
    if i % 11 == 0:
        var_t = var_c = 0.0
    # mostly small samples, where the PIV seldom saturates and so shows each bit
    n_ob = rng.randrange(2, 100_000) if i % 5 == 0 else rng.randrange(2, 60)
    stats = ObservedStats(rng.uniform(0.0, 0.95), n_ob, y_t, y_c, var_t, var_c, pi)
    sign = (EstimateSign.POSITIVE, NEG)[(i // 16) % 2]
    if (i // 32) % 2:
        magnitude = rng.uniform(0.0, 0.3)
        across = (sign is EstimateSign.POSITIVE) == (i % 23 == 0)
        threshold = FixedThreshold(-magnitude if across else magnitude)
    else:
        threshold = StatisticalThreshold(rng.uniform(0.5, 3.0))
    scale = 1e160 if i % 17 == 0 else 10.0 ** rng.uniform(-1.0, 3.0)
    t_lo, c_lo = y_t + rng.uniform(-scale, scale), y_c + rng.uniform(-scale, scale)
    t_hi, c_hi = t_lo + rng.uniform(0.0, 2.0 * scale), c_lo + rng.uniform(0.0, 2.0 * scale)
    if i % 19 == 0:
        t_hi = t_lo
    if i % 13 == 0:
        t_lo, c_hi = y_t - 2.0 * (y_t - y_c), y_c + 2.0 * (y_t - y_c)
        t_hi, c_lo = max(t_lo, t_hi), min(c_lo, c_hi)
    ends = [t_lo, t_hi, c_lo, c_hi]
    for bit, infinity in enumerate((-math.inf, math.inf, -math.inf, math.inf)):
        if i >> bit & 1:
            ends[bit] = infinity
    region = BeliefRegion((ends[0], ends[1]), (ends[2], ends[3]))
    return region, stats, sign, threshold, scale


def _sweep_line(call) -> str:
    """What call() returns, as text, or the type and text of the PivError it raises."""
    try:
        result = call()
    except PivError as exc:
        return f"{type(exc).__name__}: {exc}"
    if isinstance(result, bounds.ContourGrid):
        return result.piv.tobytes().hex()
    beliefs = ["-" if b is None else f"{b.y_t_un.hex()},{b.y_c_un.hex()}"
               for b in (result.argmin, result.argmax)]
    limits = [f"{side}={value.hex()}" for side, value in sorted(result.asymptotic_piv.items())]
    return " ".join([result.piv_min.hex(), result.piv_max.hex(), *beliefs, *limits])


class TestSeededSweep:
    # sha256 of _sweep_line over the 2400 draws of _sweep_case, with a 40x30
    # grid on every 10th draw's region, its infinite sides cut to finite ones
    SWEEP_SHA256 = "06c400fd03f3de45fcf20b9b1438abf045f84a8c39cead2d4f04e08a46b609d0"

    def test_bounds_and_grids_pinned(self):
        rng = random.Random(20260419)
        digest = hashlib.sha256()
        for i in range(2400):
            region, stats, sign, threshold, scale = _sweep_case(rng, i)
            line = _sweep_line(lambda: bound_piv(region, stats, sign, threshold))
            digest.update(line.encode() + b"\n")
            if i % 10 == 0:
                box = BeliefRegion(_cut(*region.t_interval, stats.y_t_ob, scale),
                                   _cut(*region.c_interval, stats.y_c_ob, scale))
                line = _sweep_line(lambda: evaluate_grid(box, (40, 30), stats, sign, threshold))
                digest.update(line.encode() + b"\n")
        assert digest.hexdigest() == self.SWEEP_SHA256


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

    @pytest.mark.parametrize("piv_threshold, shown", [
        ("0.5", "'0.5'"), (None, "None"), ([0.5], "[0.5]"), (True, "True"),
        (0.0, "0.0"), (1, "1"), (math.nan, "nan"), (-math.inf, "-inf"),
    ])
    def test_threshold_refused_as_an_input_error(self, piv_threshold, shown):
        # a non-number is refused by the rule parse_config uses, not by a TypeError from <
        with pytest.raises(InputValidationError) as info:
            robustness_verdict(self._bound(0.4, 0.95), piv_threshold)
        assert str(info.value) == f"piv_threshold must be in (0, 1), got {shown}"

    def test_case_study_belief_1_is_robust(self):
        region = BeliefRegion(t_interval=(-math.inf, 45.78), c_interval=(45.2, 45.2))
        bound = bound_piv(region, CASE_STUDY, NEG, C196)
        assert robustness_verdict(bound, 0.8) is Verdict.ROBUST
