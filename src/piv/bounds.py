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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .core import (
    CounterfactualBelief,
    EstimateSign,
    InputValidationError,
    ObservedStats,
    Threshold,
    _completed_piv,
    piv,
    piv_from_correlation,
    saturation_limits,
)

__all__ = [
    "BeliefRegion",
    "ContourGrid",
    "BoundResult",
    "Verdict",
    "evaluate_grid",
    "bound_piv",
    "robustness_verdict",
]

_DEFAULT_CELL_CAP = 10_000_000

# numpy has no erfc; math.erfc mapped over an array gives the scalar path's values.
_erfc = np.frompyfunc(math.erfc, 1, 1)


def _check_bound(value: float, name: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise InputValidationError(f"{name} must be a real number or +/-inf, got {value!r}")
    x = float(value)
    if math.isnan(x):
        raise InputValidationError(f"{name} must not be NaN")
    return x


@dataclass(frozen=True)
class BeliefRegion:
    """Rectangle of plausible (y_t_un, y_c_un) values; either side may be infinite."""

    t_interval: tuple[float, float]
    c_interval: tuple[float, float]

    def __post_init__(self) -> None:
        for axis, interval in (("t", self.t_interval), ("c", self.c_interval)):
            lo = _check_bound(interval[0], f"{axis}_interval lower bound")
            hi = _check_bound(interval[1], f"{axis}_interval upper bound")
            if lo > hi:
                raise InputValidationError(
                    f"{axis}_interval is empty: lower bound {lo} exceeds upper bound {hi}"
                )
            if lo == math.inf or hi == -math.inf:
                raise InputValidationError(f"{axis}_interval contains no finite point")
            object.__setattr__(self, f"{axis}_interval", (lo, hi))

    @property
    def is_finite(self) -> bool:
        return all(math.isfinite(v) for v in (*self.t_interval, *self.c_interval))


@dataclass(frozen=True, eq=False)
class ContourGrid:
    """PIV evaluated on a rectangular grid: one row per t value, one column per c value.

    piv is a read-only float64 array of shape (len(t_values), len(c_values)).
    """

    t_values: tuple[float, ...]
    c_values: tuple[float, ...]
    piv: np.ndarray

    def min(self) -> float:
        return float(self.piv.min())

    def max(self) -> float:
        return float(self.piv.max())

    def to_csv_text(self) -> str:
        """CSV serialization: header row of c values, first column of t values, PIV to 6 decimals."""
        lines = ["y_t_un," + ",".join(repr(c) for c in self.c_values)]
        # one row of Python floats at a time keeps the peak memory of a large grid down
        for t, row in zip(self.t_values, self.piv):
            lines.append(repr(t) + "," + ",".join([f"{v:.6f}" for v in row.tolist()]))
        return "\n".join(lines) + "\n"

    def to_json_object(self) -> dict:
        return {
            "t_values": list(self.t_values),
            "c_values": list(self.c_values),
            "piv": self.piv.tolist(),
        }


@dataclass(frozen=True)
class BoundResult:
    """Extremal PIV over a belief region.

    argmin and argmax are the beliefs attaining the bounds, or None where the
    bound is a limit at infinity that no belief attains.  asymptotic_piv holds
    the exact limit PIV for each unbounded side (keys t_lo, t_hi, c_lo, c_hi).
    """

    piv_min: float
    argmin: CounterfactualBelief | None
    piv_max: float
    argmax: CounterfactualBelief | None
    asymptotic_piv: dict[str, float]


class Verdict(Enum):
    ROBUST = "robust"
    NOT_ROBUST = "not_robust"
    INDETERMINATE = "indeterminate"


def _axis_points(lo: float, hi: float, n: int) -> tuple[float, ...]:
    if lo == hi:
        return (lo,)
    step = (hi - lo) / (n - 1)
    points = [lo + i * step for i in range(n)]
    points[-1] = hi
    return tuple(points)


def evaluate_grid(
    region: BeliefRegion,
    resolution: tuple[int, int],
    stats: ObservedStats,
    sign: EstimateSign,
    threshold: Threshold,
    *,
    cell_cap: int = _DEFAULT_CELL_CAP,
) -> ContourGrid:
    """Evaluate the PIV on a uniform grid over a finite region.

    Both endpoints of each axis are included; a zero-width axis yields a
    single coordinate.  Each t row is evaluated at once over the c axis by
    the kernel piv() uses, so every cell equals piv() at that belief.
    """
    if not region.is_finite:
        raise InputValidationError("evaluate_grid requires a finite region")
    nt, nc = resolution
    for name, n in (("nt", nt), ("nc", nc)):
        if isinstance(n, bool) or not isinstance(n, int) or n < 2:
            raise InputValidationError(f"resolution {name} must be an integer >= 2, got {n!r}")
    t_values = _axis_points(region.t_interval[0], region.t_interval[1], nt)
    c_values = _axis_points(region.c_interval[0], region.c_interval[1], nc)
    if len(t_values) * len(c_values) > cell_cap:
        raise InputValidationError(
            f"grid of {len(t_values)}x{len(c_values)} cells exceeds cap {cell_cap}"
        )
    c = np.array(c_values)
    values = np.empty((len(t_values), len(c_values)))
    # an overflowing variance raises from the kernel; keep numpy from warning first
    with np.errstate(over="ignore", invalid="ignore"):
        for i, t in enumerate(t_values):
            values[i] = _completed_piv(
                t, c, stats, sign, threshold, sqrt=np.sqrt, erfc=_erfc, every=np.all
            )[0]
    values.flags.writeable = False
    return ContourGrid(t_values=t_values, c_values=c_values, piv=values)


def bound_piv(
    region: BeliefRegion,
    stats: ObservedStats,
    sign: EstimateSign,
    threshold: Threshold,
) -> BoundResult:
    """Exact extremal PIV over a belief region.

    With x = (y_t_un - y_t_ob, y_c_un - y_c_ob), g = (1-pi, -pi),
    L0 = y_t_ob - y_c_ob, V = (var_t + var_c)/2 and D = pi*(1-pi)/2, the
    completed-sample correlation is r = L / (2*sqrt(Q)) with L = g.x + L0 and
    Q = V + D*|x|^2 + L^2/4.  PIV is monotone in r, so each extreme over the
    rectangle is one of these candidates:

    * a finite corner;
    * the stationary point of r on a finite edge (the quadratic terms cancel
      in the derivative, leaving a linear equation);
    * the interior stationary point x* = (V/(D*L0))*g;
    * a limit at infinity: the saturation limit along each unbounded axis
      direction, and +/-|g| = +/-sqrt(1 - 2*pi*(1-pi)) along +/-g when both
      sides the direction needs are unbounded.

    Ties go to an attained candidate, then in the order corner, edge,
    interior, limit.
    """
    pi = stats.pi
    y_t, y_c = stats.y_t_ob, stats.y_c_ob
    l0 = y_t - y_c
    v = 0.5 * (stats.var_t + stats.var_c)
    d = 0.5 * pi * (1.0 - pi)
    (t_lo, t_hi), (c_lo, c_hi) = region.t_interval, region.c_interval
    ts = [t for t in region.t_interval if math.isfinite(t)]
    cs = [c for c in region.c_interval if math.isfinite(c)]

    points = [(t, c) for t in ts for c in cs]
    for t in ts:
        dt = t - y_t
        denominator = d * ((1.0 - pi) * dt + l0)
        if denominator != 0.0:
            c = y_c - pi * (v + d * (dt * dt)) / denominator
            if c_lo <= c <= c_hi:
                points.append((t, c))
    for c in cs:
        dc = c - y_c
        denominator = d * (l0 - pi * dc)
        if denominator != 0.0:
            t = y_t + (1.0 - pi) * (v + d * (dc * dc)) / denominator
            if t_lo <= t <= t_hi:
                points.append((t, c))
    if l0 != 0.0:
        scale = v / (d * l0)
        t, c = y_t + (1.0 - pi) * scale, y_c - pi * scale
        if t_lo <= t <= t_hi and c_lo <= c <= c_hi:
            points.append((t, c))
    candidates: list[tuple[float, CounterfactualBelief | None]] = []
    for t, c in points:
        belief = CounterfactualBelief(t, c)
        candidates.append((piv(belief, stats, sign, threshold).piv, belief))

    def limit_piv(r: float) -> float:
        return piv_from_correlation(r, stats, sign, threshold).piv

    t_limit, c_limit = saturation_limits(stats)
    sides = {"t_lo": (t_lo, -t_limit), "t_hi": (t_hi, t_limit),
             "c_lo": (c_lo, c_limit), "c_hi": (c_hi, -c_limit)}
    asymptotic = {side: limit_piv(r) for side, (end, r) in sides.items() if math.isinf(end)}
    limits = list(asymptotic.values())
    g_norm = math.sqrt(1.0 - 2.0 * pi * (1.0 - pi))
    if "t_hi" in asymptotic and "c_lo" in asymptotic:
        limits.append(limit_piv(g_norm))
    if "t_lo" in asymptotic and "c_hi" in asymptotic:
        limits.append(limit_piv(-g_norm))
    candidates.extend((value, None) for value in limits)

    # min and max keep the first of equal values, which gives the tie order above.
    piv_min, argmin = min(candidates, key=lambda item: item[0])
    piv_max, argmax = max(candidates, key=lambda item: item[0])
    return BoundResult(
        piv_min=piv_min,
        argmin=argmin,
        piv_max=piv_max,
        argmax=argmax,
        asymptotic_piv=asymptotic,
    )


def robustness_verdict(bound: BoundResult, piv_threshold: float = 0.8) -> Verdict:
    """Classify a bound against a PIV threshold (0.8 is the usual strong-power mark).

    Robust when even the lower bound clears the threshold; not robust when
    even the upper bound misses it; indeterminate otherwise.
    """
    if not (0.0 < piv_threshold < 1.0):
        raise InputValidationError(f"piv_threshold must be in (0, 1), got {piv_threshold}")
    if bound.piv_min >= piv_threshold:
        return Verdict.ROBUST
    if bound.piv_max < piv_threshold:
        return Verdict.NOT_ROBUST
    return Verdict.INDETERMINATE
