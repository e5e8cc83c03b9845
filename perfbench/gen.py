"""Seeded inputs for the benchmark workloads.

Everything here is drawn from ``random.Random(seed)``, so the same seed gives
the same analyses, regions, beliefs and configs, and no numpy is imported on
behalf of the harness.  The program under test only ever sees what these
functions return.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from piv.bounds import BeliefRegion
from piv.core import (
    CounterfactualBelief,
    EstimateSign,
    FixedThreshold,
    ObservedStats,
    StatisticalThreshold,
)

INF = math.inf

# Region shapes, cycled in this order so every run sees the same mix: finite,
# half-unbounded, fully unbounded and zero-width axes.  Each entry is the
# (t axis, c axis) shape.
REGION_SHAPES = (
    ("finite", "finite"),
    ("lo-open", "finite"),
    ("finite", "hi-open"),
    ("lo-open", "hi-open"),
    ("open", "open"),
    ("point", "finite"),
    ("finite", "point"),
    ("lo-open", "point"),
)


@dataclass(frozen=True)
class Analysis:
    stats: ObservedStats
    sign: EstimateSign
    threshold: StatisticalThreshold | FixedThreshold


def analysis(rng: random.Random) -> Analysis:
    """Random summary statistics over the ranges the test suite uses.

    The sign follows the observed mean difference, so both signs occur; a
    fixed threshold is drawn with the sign of the estimate, because the
    program rejects the other sign.
    """
    stats = ObservedStats(
        r_squared=rng.uniform(0.0, 0.95),
        n_ob=rng.randrange(2, 100_000),
        y_t_ob=rng.uniform(-100.0, 100.0),
        y_c_ob=rng.uniform(-100.0, 100.0),
        var_t=rng.uniform(0.05, 200.0),
        var_c=rng.uniform(0.05, 200.0),
        pi=rng.uniform(0.01, 0.99),
    )
    positive = stats.y_t_ob >= stats.y_c_ob
    sign = EstimateSign.POSITIVE if positive else EstimateSign.NEGATIVE
    if rng.random() < 0.5:
        threshold = StatisticalThreshold(rng.uniform(1.64, 2.58))
    else:
        magnitude = rng.uniform(0.01, 0.3)
        threshold = FixedThreshold(magnitude if positive else -magnitude)
    return Analysis(stats, sign, threshold)


def _sd(stats: ObservedStats) -> float:
    return math.sqrt(max(stats.var_t, stats.var_c))


def _interval(rng: random.Random, center: float, sd: float, shape: str) -> tuple[float, float]:
    if shape == "point":
        v = center + rng.uniform(-2.0, 2.0) * sd
        return v, v
    lo = center + rng.uniform(-3.0, 1.0) * sd
    hi = lo + rng.uniform(0.1, 4.0) * sd
    if shape in ("lo-open", "open"):
        lo = -INF
    if shape in ("hi-open", "open"):
        hi = INF
    return lo, hi


def region(rng: random.Random, stats: ObservedStats, shape: tuple[str, str]) -> BeliefRegion:
    """A belief rectangle of the given shape around the observed means."""
    sd = _sd(stats)
    return BeliefRegion(
        t_interval=_interval(rng, stats.y_t_ob, sd, shape[0]),
        c_interval=_interval(rng, stats.y_c_ob, sd, shape[1]),
    )


def probes(rng: random.Random, stats: ObservedStats, reg: BeliefRegion, n: int = 8) -> list[CounterfactualBelief]:
    """Points inside a region, including points far beyond the search clamp.

    An unbounded side contributes values 30, 10^3 and 10^6 outcome standard
    deviations out from the observed means; a finite axis contributes its
    endpoints, its midpoint and a uniform draw.
    """
    sd = _sd(stats)

    def axis_values(interval: tuple[float, float], center: float) -> list[float]:
        lo, hi = interval
        finite_lo = lo if lo > -INF else min(hi, center) - 50.0 * sd
        finite_hi = hi if hi < INF else max(lo, center) + 50.0 * sd
        values = [finite_lo, finite_hi, 0.5 * (finite_lo + finite_hi),
                  rng.uniform(finite_lo, finite_hi)]
        for far in (30.0, 1e3, 1e6):
            if lo == -INF:
                values.append(min(hi, center) - far * sd)
            if hi == INF:
                values.append(max(lo, center) + far * sd)
        return values

    t_values = axis_values(reg.t_interval, stats.y_t_ob)
    c_values = axis_values(reg.c_interval, stats.y_c_ob)
    return [CounterfactualBelief(rng.choice(t_values), rng.choice(c_values)) for _ in range(n)]


def beliefs_in(rng: random.Random, stats: ObservedStats, reg: BeliefRegion, n: int) -> list[CounterfactualBelief]:
    """n uniform point beliefs in the region, with unbounded sides cut at 20 sd."""
    sd = _sd(stats)

    def cut(interval: tuple[float, float], center: float) -> tuple[float, float]:
        lo, hi = interval
        lo = lo if lo > -INF else min(hi, center) - 20.0 * sd
        hi = hi if hi < INF else max(lo, center) + 20.0 * sd
        return lo, hi

    t_lo, t_hi = cut(reg.t_interval, stats.y_t_ob)
    c_lo, c_hi = cut(reg.c_interval, stats.y_c_ob)
    return [CounterfactualBelief(rng.uniform(t_lo, t_hi), rng.uniform(c_lo, c_hi)) for _ in range(n)]


def config_object(rng: random.Random) -> dict:
    """A random analysis as a CLI config: two points, one region per shape
    class, and a finite region for contour export."""
    a = analysis(rng)
    s = a.stats

    def json_interval(interval: tuple[float, float]) -> list:
        lo, hi = interval
        return [None if lo == -INF else lo, None if hi == INF else hi]

    if isinstance(a.threshold, StatisticalThreshold):
        threshold = {"kind": "statistical", "critical": a.threshold.critical_magnitude}
    else:
        threshold = {"kind": "fixed", "beta_sharp": a.threshold.beta_sharp}
    beliefs = []
    for i, point in enumerate(beliefs_in(rng, s, region(rng, s, ("finite", "finite")), 2)):
        beliefs.append({"name": f"point-{i}", "point": {"y_t_un": point.y_t_un, "y_c_un": point.y_c_un}})
    for name, shape in (("finite", ("finite", "finite")), ("half-open", ("lo-open", "hi-open")),
                        ("open", ("open", "open")), ("grid", ("finite", "finite"))):
        reg = region(rng, s, shape)
        beliefs.append({"name": name, "region": {"t": json_interval(reg.t_interval),
                                                 "c": json_interval(reg.c_interval)}})
    return {
        "observed": {"r_squared": s.r_squared, "n_ob": s.n_ob, "y_t_ob": s.y_t_ob,
                     "y_c_ob": s.y_c_ob, "var_t": s.var_t, "var_c": s.var_c, "pi": s.pi},
        "sign": a.sign.value,
        "threshold": threshold,
        "beliefs": beliefs,
        "piv_threshold": rng.uniform(0.5, 0.95),
    }
