"""Bounding the PIV over rectangular belief regions.

A belief about the mean counterfactual outcomes is rarely a single point;
more often it is a rectangle "y_t_un at most A, y_c_un between B and C",
possibly unbounded on some sides.  This module evaluates the PIV on grids
over such rectangles, finds its exact extrema from a short list of closed-form
candidates, and turns the resulting lower bound into a robustness verdict.

The correlation saturates at finite limits as the counterfactual means run
to infinity, so a bound approached only at infinity is reported as that
limit, with no belief attaining it; the exact asymptotic PIV for each
unbounded side is reported alongside.

A grid row whose PIV is exactly 1.0 or 0.0 in every cell, as three
candidates per row show with a margin for rounding, is filled without the
kernel.  The other rows are evaluated in blocks of whole rows, at most 1/64
of the grid each, each one numpy pass of the kernel piv() uses, broadcast
over the block.  The kernel gets read-only axis arrays and works in place on
its own temporaries; the axis tuples are built from the arrays after the
last block.  Only evaluate_grid uses numpy, and it imports it on first
call, so bounding and verdicts run without loading numpy.  Its checks
(_grid_shape) and axes (_axis_points) use none, so the numpy-free path of
piv._grid_text.grid_export refuses the same inputs and builds the same
axes.  A ContourGrid refuses a piv array that does not fill its axes and
makes it read-only; piv._grid_text writes it as CSV or JSON.
"""

from __future__ import annotations

import functools
import math
import sys
from enum import Enum

from .core import (
    _SQRT2,
    _VARIANCE_OVERFLOW,
    BeliefRegion,  # a public name of piv.core; perfbench/gen.py imports it from here
    CounterfactualBelief,
    EstimateSign,
    InputValidationError,
    ObservedStats,
    PivError,
    Threshold,
    _cdf,
    _correlation,
    _kernel_terms,
    _probit,
    _read_only,
    _Record,
    _require_int,
    _require_piv_threshold,
    _threshold,
    piv,  # unused here; perfbench/tracing.py wraps bounds.piv by name
    saturation_limits,
)

__all__ = [
    "ContourGrid",
    "BoundResult",
    "Verdict",
    "evaluate_grid",
    "bound_piv",
    "robustness_verdict",
]

_CELL_CAP = 10_000_000
# Grids are evaluated, and written by piv._grid_text, in blocks of whole rows:
# about 4096 cells, enough to amortize numpy's per-call cost, and at most
# 1/share of the grid (1/64 here), so that a block's temporaries stay small
# beside the grid array.
_BLOCK_CELLS = 4096
_EVAL_BLOCK_SHARE = 64


def _block_rows(nt: int, nc: int, share: int) -> int:
    return max(1, min(_BLOCK_CELLS, nt * nc // share) // nc)


class ContourGrid(_Record):
    """PIV evaluated on a rectangular grid: one row per t value, one column per c value.

    piv is a float64 array of shape (len(t_values), len(c_values)), on finite,
    non-empty axes; construction checks both and makes piv read-only, in every
    copy too.  Cells are not checked.  A grid equals and hashes only as itself.
    """

    __slots__ = ("t_values", "c_values", "piv")
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __init__(self, t_values: tuple[float, ...], c_values: tuple[float, ...],
                 piv: np.ndarray) -> None:
        shape = (len(t_values), len(c_values))
        if not all(shape) or getattr(piv, "shape", None) != shape:
            raise InputValidationError(
                f"ContourGrid needs non-empty axes and a piv of their shape, got axes of "
                f"{shape} and piv of {getattr(piv, 'shape', type(piv).__name__)}")
        if not all(map(math.isfinite, (*t_values, *c_values))):
            raise InputValidationError("ContourGrid axis values must be finite")
        object.__setattr__(self, "t_values", t_values)
        object.__setattr__(self, "c_values", c_values)
        object.__setattr__(self, "piv", _read_only(piv))

    def min(self) -> float:
        return float(self.piv.min())

    def max(self) -> float:
        return float(self.piv.max())

    def to_csv_text(self) -> str:
        """The CSV export as one string: see _grid_text.csv_chunks."""
        from ._grid_text import csv_chunks

        return b"".join(csv_chunks(self)).decode("ascii")

    def to_json_object(self) -> dict:
        return {
            "t_values": list(self.t_values),
            "c_values": list(self.c_values),
            "piv": self.piv.tolist(),
        }


class BoundResult(_Record):
    """Extremal PIV over a belief region.

    argmin and argmax are the beliefs attaining the bounds, or None where the
    bound is a limit at infinity that no belief attains.  asymptotic_piv holds
    the exact limit PIV for each unbounded side (keys t_lo, t_hi, c_lo, c_hi).
    """

    __slots__ = ("piv_min", "argmin", "piv_max", "argmax", "asymptotic_piv")

    def __init__(self, piv_min: float, argmin: CounterfactualBelief | None, piv_max: float,
                 argmax: CounterfactualBelief | None, asymptotic_piv: dict[str, float]) -> None:
        object.__setattr__(self, "piv_min", piv_min)
        object.__setattr__(self, "argmin", argmin)
        object.__setattr__(self, "piv_max", piv_max)
        object.__setattr__(self, "argmax", argmax)
        object.__setattr__(self, "asymptotic_piv", asymptotic_piv)


class Verdict(Enum):
    ROBUST = "robust"
    NOT_ROBUST = "not_robust"
    INDETERMINATE = "indeterminate"


def _axis_points(lo: float, hi: float, n: int) -> tuple[float, ...]:
    if n == 1:
        return (lo,)
    step = (hi - lo) / (n - 1)
    points = [lo + i * step for i in range(n)]
    points[-1] = hi
    return tuple(points)


def _grid_shape(region: BeliefRegion, resolution: tuple[int, int]) -> tuple[int, int]:
    """(nt, nc), the axis lengths of a grid over region, checked as evaluate_grid
    documents, before any axis is built; _axis_points builds the axes."""
    if not region.is_finite:
        raise InputValidationError("a contour grid needs a finite region")
    nt, nc = resolution
    for name, n in (("nt", nt), ("nc", nc)):
        _require_int(n, f"resolution {name}", 2)
    (t_lo, t_hi), (c_lo, c_hi) = region.t_interval, region.c_interval
    nt, nc = (1 if t_lo == t_hi else nt), (1 if c_lo == c_hi else nc)
    if nt * nc > _CELL_CAP:
        raise InputValidationError(f"grid of {nt}x{nc} cells exceeds cap {_CELL_CAP}")
    return nt, nc


@functools.cache
def _erfc_cuts() -> tuple[float, float]:
    """(lo, hi): math.erfc is exactly 2.0 at every x <= lo and exactly 0.0 at
    every x >= hi.

    The cuts depend on the libm, so they are found at first use, by bisection
    over the bit patterns of |x| (which order as the non-negative floats do)
    against math.erfc itself, which is monotone: lo is the negative float of
    least magnitude where it gives 2.0, hi the least positive float where it
    gives 0.0.  With glibc they are -5.863584748755168 and 27.226364135742188.
    """
    def magnitude(bits: int) -> float:
        return memoryview(bits.to_bytes(8, "little")).cast("d")[0]

    def least(sign: float, value: float) -> float:
        below, above = 0, 0x7FF0000000000000  # the bits of 0.0, where erfc is 1.0, and of inf
        while above - below > 1:
            middle = (below + above) // 2
            if math.erfc(sign * magnitude(middle)) == value:
                above = middle
            else:
                below = middle
        return sign * magnitude(above)

    return least(-1.0, 2.0), least(1.0, 0.0)


def _erfc(x):
    """math.erfc of each element of a float64 array, written over the array.

    numpy has no erfc, so cells call math.erfc, the scalar path's erfc,
    through one map over a memoryview.  Only cells strictly between the cuts
    of _erfc_cuts make that call, and so does NaN, which compares false with
    both.  A cell at or below lo is set to 2.0 and one at or above hi to 0.0,
    which are the values math.erfc gives there, so every element is
    bit-identical to math.erfc.  The kernel passes a temporary, so it is
    written over.  Each mask is built once, the two saturation masks are
    dropped before the map, and math.erfc is not mapped at all when no cell
    lies between the cuts.
    """
    import numpy as np

    lo, hi = _erfc_cuts()
    low = x <= lo
    high = x >= hi
    between = ~(low | high)
    x[low] = 2.0
    x[high] = 0.0
    del low, high
    cells = x[between]
    if cells.size:
        x[between] = np.fromiter(map(math.erfc, memoryview(cells)), float, cells.size)
    return x


def _min_max(values):
    """(min, max) of an array, with no bool temporary; numpy gives NaN for both
    where an element is NaN."""
    return values.min(), values.max()


def _completed_piv(y_t_un, y_c_un, stats: ObservedStats, sign: EstimateSign,
                   threshold: Threshold):
    """The PIV elementwise over arrays of beliefs, by the steps piv() takes at one,
    with np.sqrt and _erfc.  Raises InputValidationError where the completed-sample
    variance overflows or is NaN, and DegenerateSpreadError where it is zero."""
    import numpy as np

    # r is not kept past _probit, so that an array kernel does not hold it through _cdf
    probit = _probit(_correlation(y_t_un, y_c_un, _kernel_terms(stats), np.sqrt, _min_max),
                     _threshold(stats, sign, threshold))
    return _cdf(probit, _erfc)


def _plane(stats: ObservedStats) -> tuple[float, float, float, float, float]:
    """(pi, a, l0, v, d), the terms of r over the plane of counterfactual means.

    With x = (y_t_un - y_t_ob, y_c_un - y_c_ob), g = (a, -pi) where a = 1-pi,
    l0 = y_t_ob - y_c_ob, v = (var_t + var_c)/2 and d = pi*(1-pi)/2, the
    completed-sample correlation is r = L / (2*sqrt(Q)) with L = g.x + l0 and
    Q = v + d*|x|^2 + L^2/4.  piv.core's kernel keeps its own float order.

    The robust set is convex.  r = s/sqrt(4 + s^2) with s = L/sqrt(v + d*|x|^2),
    so r and s order beliefs alike.  For k > 0, {x : sign*L >= k*sqrt(v +
    d*|x|^2)} is a section of a second-order cone, so convex: sign*s is
    quasi-concave where sign*L > 0.  The PIV rises with sign*r, so on a finite
    region where sign*L > 0, which holds there if it holds at the corners, the
    least PIV is at a corner.  Where L changes sign it need not be.
    """
    pi = stats.pi
    a = 1.0 - pi
    return pi, a, stats.y_t_ob - stats.y_c_ob, 0.5 * (stats.var_t + stats.var_c), 0.5 * pi * a


def _edge_stationary(offset, g_fixed, g_free, plane):
    """Where r is stationary along a line on which one counterfactual mean is fixed.

    In the notation of _plane, with plane its values, the fixed coordinate
    sits offset from its observed mean, g_fixed and g_free are g's entries for
    the fixed and the free coordinate, and the result is the free coordinate's
    offset: g_free*(v + d*offset^2) / (d*(g_fixed*offset + l0)).  It uses
    only + - * /, so a float and a numpy array of offsets give the same bits.
    A zero denominator raises ZeroDivisionError for a float and gives inf or
    NaN in an array; so can an overflow.
    """
    _, _, l0, v, d = plane
    return g_free * (v + d * (offset * offset)) / (d * (g_fixed * offset + l0))


# Saturated rows, in the notation of _plane.  Take the kernel's formula with
# its own float constants and exact arithmetic.  Along a row, where t is
# fixed, r is then a linear function of c over the square root of a positive
# quadratic in c.  So r has at most one stationary point on the row, the edge
# point c* of bound_piv, and over [c_lo, c_hi] its extremes lie among c_lo,
# c_hi and c* clipped into the interval.  The erfc argument x = probit/-sqrt(2) is affine in r, and
# math.erfc is exactly 2.0 at or below _erfc_cuts()[0] and exactly 0.0 at or
# above [1].  So when the computed x of the three candidates lies past a cut
# by more than the rounding error between computed and exact x, every cell's
# computed x lies past it too, and the kernel and piv() give the cell exactly
# 1.0 or 0.0.  With u = 2**-53, one cell or candidate is off by at most:
#
# * in r, 7u from relative roundings, plus 3u*M/sqrt(B) from cancellation in
#   the gap y_t_id - y_c_id.  M = |a*t| + |pi*y_t_ob| + pi*max|c| +
#   |a*y_c_ob| bounds the gap's terms, and B = v + d*dt^2 bounds the
#   variance from below.  r lies in [-1, 1], so a bound above 2 holds trivially.
# * in x, that over se, plus 2u/se + 6u|x| from the probit steps.
# * in the third candidate, delta = 2**-48*(|c*| + |c* - y_c_ob|*(1 + N/|A|))
#   from computing c*.  A = a*dt + l0 is the sum in its denominator, and
#   N = a*|dt| + |y_t_ob| + |y_c_ob| + |A| bounds that sum's terms.  The
#   bound needs |A| > 2**-48*N.  r is stationary at the exact c*, so r at a
#   point within delta of it is within 2*delta^2*d/B of the extreme.
#
# The margin adds the first two bounds for one candidate and for one cell
# (whose |x| is at most the cut's) and the third once, with 2**-48 = 32u in
# place of each u; the 2u/se terms fold into the first bound's constant.
# That leaves a factor of at least 3 over the sum.  A row is
# evaluated, never filled, when c* is not finite or |A| is within 2**-48*N of
# zero.  It is also evaluated when a float upper bound on its variance, built
# in the kernel's order of operations from the row's largest |dc| and gap,
# overflows: rounding is monotone, so no cell of a filled row can overflow.
# No row is filled when the kernel's constant term 0.5*var_t + 0.5*var_c is
# below the least normal float.  It can then be zero, so that a cell can
# have zero spread, which the kernel must see and raise on; and underflow
# can break the bounds above.
_ROW_ERROR = 2.0 ** -48


def _saturated_rows(t, c_lo: float, c_hi: float, stats: ObservedStats,
                    sign: EstimateSign, threshold: Threshold):
    """Per row of the t axis: 1.0 or 0.0 where every cell of the row takes that
    PIV, else NaN.

    See the comment above.  The candidates go through the kernel piv() runs.
    If that raises, no row is filled, so that the blocks raise what they
    would, in their order.  The caller ignores numpy's float warnings.
    """
    import numpy as np

    terms = y_t, y_c, _, half_var_t, half_var_c, *_ = _kernel_terms(stats)
    rows = np.full(len(t), math.nan)
    plane = pi, a, l0, v, d = _plane(stats)
    # the kernel's constant term, in the kernel's order of operations
    if not half_var_t + half_var_c >= sys.float_info.min:
        return rows
    dt = t - y_t
    offset = _edge_stationary(dt, a, -pi, plane)
    c_star = y_c + offset
    candidates = np.empty((len(t), 3))
    candidates[:, 0] = c_lo
    candidates[:, 1] = c_hi
    # a non-finite c* is not evaluated: its row is not filled
    candidates[:, 2] = np.where(np.isfinite(c_star), np.clip(c_star, c_lo, c_hi), c_lo)
    try:
        resolved = _threshold(stats, sign, threshold)
        probit = _probit(_correlation(t[:, None], candidates, terms, np.sqrt, _min_max), resolved)
    except PivError:
        return rows
    x = probit / -_SQRT2
    x_min, x_max = x.min(axis=1), x.max(axis=1)

    b = v + d * (dt * dt)
    c_abs = max(abs(c_lo), abs(c_hi))
    m = (np.abs(a * t) + abs(pi * y_t)) + (pi * c_abs + abs(a * y_c))
    r_error = _ROW_ERROR * (1.0 + m / np.sqrt(b))
    a_sum = a * dt + l0
    n = a * np.abs(dt) + (abs(y_t) + abs(y_c)) + np.abs(a_sum)
    delta = _ROW_ERROR * (np.abs(c_star) + np.abs(offset) * (1.0 + n / np.abs(a_sum)))
    delta[~(np.abs(a_sum) > _ROW_ERROR * n)] = math.inf
    margin = (2.0 * r_error + 2.0 * (delta * delta) * d / b) / resolved[0]

    # the row's variance bound, in the kernel's order of operations
    dc = max(abs(c_lo - y_c), abs(c_hi - y_c))
    variance = (dt * dt + dc * dc) * d + half_var_t + half_var_c + m * m * 0.25
    lo, hi = _erfc_cuts()
    ones = x_max + (margin + _ROW_ERROR * (np.abs(x_max) + abs(lo))) <= lo
    zeros = x_min - (margin + _ROW_ERROR * (np.abs(x_min) + hi)) >= hi
    rows[ones] = 1.0
    rows[zeros] = 0.0
    rows[~(variance < math.inf)] = math.nan
    return rows


def evaluate_grid(
    region: BeliefRegion,
    resolution: tuple[int, int],
    stats: ObservedStats,
    sign: EstimateSign,
    threshold: Threshold,
) -> ContourGrid:
    """Evaluate the PIV on a uniform grid over a finite region.

    Both endpoints of each axis are included; a zero-width axis yields a
    single coordinate.  A grid of more than 10**7 cells is refused before any
    coordinate is built.  First, three candidates per row (c_lo, c_hi and the
    stationary point of r, as _plane writes it, between them) bound the row's
    erfc argument; a row whose bound lies past a cut of _erfc_cuts, with a
    margin for rounding, is filled with the exact 1.0 or 0.0 that every cell
    of it takes (see the comment above _saturated_rows).  When both variances
    are zero, or so small that the kernel's constant term 0.5*var_t +
    0.5*var_c is below the least normal float, no row is filled, since a cell
    may then have zero spread.  The remaining rows, in order, are evaluated in
    blocks of at most _block_rows rows, the t column broadcast against
    the c row, by the kernel piv() uses.  The kernel's arithmetic is + - * / and
    sqrt, which numpy rounds as floats do, and erfc is math.erfc, so every
    cell equals piv() at that belief.  Evaluated cells whose erfc argument
    lies at or beyond a cut skip the math.erfc call and take the exact 2.0
    or 0.0 it would return.
    """
    nt, nc = _grid_shape(region, resolution)
    import numpy as np

    # read-only, so that a kernel step writing over an input raises at once
    t = _read_only(np.array(_axis_points(*region.t_interval, nt)))
    c = _read_only(np.array(_axis_points(*region.c_interval, nc)))
    values = np.empty((nt, nc))
    step = _block_rows(nt, nc, _EVAL_BLOCK_SHARE)
    # an overflowing variance raises from the kernel, and a zero denominator
    # gives a non-finite c*; keep numpy from warning first
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        rows = _saturated_rows(t, *region.c_interval, stats, sign, threshold)
        evaluate = np.isnan(rows)
        values[~evaluate] = rows[~evaluate, None]
        # the rows left to evaluate, step at a time; a fancy-index copy is writable, so mark it
        rows_left = np.flatnonzero(evaluate)
        for start in range(0, len(rows_left), step):
            index = rows_left[start:start + step]
            values[index] = _completed_piv(_read_only(t[index, None]), c, stats, sign, threshold)
    # the axes as Python floats, built after the blocks so that they are not
    # alive beside the kernel's temporaries; tolist gives back the same floats
    return ContourGrid(t_values=tuple(t.tolist()), c_values=tuple(c.tolist()), piv=values)


def _edge_coordinate(value: float, edge: str, at: float) -> float:
    """An edge's stationary coordinate that lies in the region, refused where it overflowed.

    NaN is inf/inf: its denominator overflows only where the edge, or the
    observed means, lie so far out that the completed-sample variance
    overflows at every belief on the edge, which is what piv() reports there.
    """
    if math.isnan(value):
        raise InputValidationError(_VARIANCE_OVERFLOW)
    if math.isinf(value):
        raise InputValidationError(
            f"the region's stationary point on its edge {edge} = {at!r} lies beyond float range")
    return value


def bound_piv(
    region: BeliefRegion,
    stats: ObservedStats,
    sign: EstimateSign,
    threshold: Threshold,
) -> BoundResult:
    """Exact extremal PIV over a belief region.

    PIV is monotone in r, written as in _plane, so each extreme over the
    rectangle is one of these candidates:

    * a finite corner;
    * the stationary point of r on a finite edge (the quadratic terms cancel
      in the derivative, leaving a linear equation);
    * the interior stationary point x* = (v/(d*l0))*g;
    * a limit at infinity: the saturation limit along each unbounded axis
      direction, and +/-|g| = +/-sqrt(1 - 2*pi*(1-pi)) along +/-g when both
      sides the direction needs are unbounded.

    Ties go to an attained candidate, then in the order corner, edge,
    interior, limit.  Each candidate is weighed as a float, by piv()'s steps
    on its correlation, with the threshold resolved once, after the first
    correlation, so that errors come in piv()'s order; only argmin and argmax
    become beliefs.  There is no interior candidate where d*l0 is zero, l0 or
    an underflow; one that lies in the region but beyond float range is
    refused, as an edge's is.
    """
    terms = _kernel_terms(stats)
    plane = pi, a, l0, v, d = _plane(stats)
    y_t, y_c = stats.y_t_ob, stats.y_c_ob
    (t_lo, t_hi), (c_lo, c_hi) = region.t_interval, region.c_interval
    ts = [t for t in region.t_interval if math.isfinite(t)]
    cs = [c for c in region.c_interval if math.isfinite(c)]

    points = [(t, c) for t in ts for c in cs]
    for t in ts:
        try:
            c = y_c + _edge_stationary(t - y_t, a, -pi, plane)
        except ZeroDivisionError:  # r has no stationary point on this edge
            continue
        if not (c < c_lo or c > c_hi):  # NaN too, which _edge_coordinate refuses
            points.append((t, _edge_coordinate(c, "y_t_un", t)))
    for c in cs:
        try:
            t = y_t + _edge_stationary(c - y_c, -pi, a, plane)
        except ZeroDivisionError:
            continue
        if not (t < t_lo or t > t_hi):
            points.append((_edge_coordinate(t, "y_c_un", c), c))
    denominator = d * l0
    if denominator != 0.0:  # zero where l0 is, or where the product underflows
        scale = v / denominator
        t, c = y_t + a * scale, y_c - pi * scale
        if t_lo <= t <= t_hi and c_lo <= c <= c_hi:
            if not (math.isfinite(t) and math.isfinite(c)):
                raise InputValidationError(
                    "the region's interior stationary point lies beyond float range")
            points.append((t, c))

    values = []
    for t, c in points:
        r = _correlation(t, c, terms)
        if not values:  # as in piv(), the first correlation raises before the threshold does
            resolved = _threshold(stats, sign, threshold)
        values.append(_cdf(_probit(r, resolved)))
    if not points:
        resolved = _threshold(stats, sign, threshold)
    t_limit, c_limit = saturation_limits(stats)
    limits = {}
    for side, end, r in (("t_lo", t_lo, -t_limit), ("t_hi", t_hi, t_limit),
                         ("c_lo", c_lo, c_limit), ("c_hi", c_hi, -c_limit)):
        if math.isinf(end):
            limits[side] = _cdf(_probit(r, resolved))
            values.append(limits[side])
    g_norm = math.sqrt(1.0 - 2.0 * pi * a)
    if "t_hi" in limits and "c_lo" in limits:
        values.append(_cdf(_probit(g_norm, resolved)))
    if "t_lo" in limits and "c_hi" in limits:
        values.append(_cdf(_probit(-g_norm, resolved)))
    # index finds the first of equal values, which gives the tie order above
    piv_min, piv_max = min(values), max(values)
    i, j = values.index(piv_min), values.index(piv_max)
    return BoundResult(piv_min, CounterfactualBelief(*points[i]) if i < len(points) else None,
                       piv_max, CounterfactualBelief(*points[j]) if j < len(points) else None,
                       limits)


def robustness_verdict(bound: BoundResult, piv_threshold: float = 0.8) -> Verdict:
    """Classify a bound against a PIV threshold (0.8 is the usual strong-power mark).

    Robust when even the lower bound clears the threshold; not robust when
    even the upper bound misses it; indeterminate otherwise.
    """
    _require_piv_threshold(piv_threshold, "piv_threshold")
    if bound.piv_min >= piv_threshold:
        return Verdict.ROBUST
    if bound.piv_max < piv_threshold:
        return Verdict.NOT_ROBUST
    return Verdict.INDETERMINATE
