"""Shared generators and fixtures for the test suite."""

from __future__ import annotations

import math

import numpy as np

from piv.core import CounterfactualBelief, EstimateSign, ObservedStats

# Published summary statistics of the kindergarten-retention analysis
# (Hong and Raudenbush 2005): significant negative effect of retention
# on reading achievement.
CASE_STUDY = ObservedStats(
    r_squared=0.36,
    n_ob=7639,
    y_t_ob=36.77,
    y_c_ob=45.78,
    var_t=143.26,
    var_c=138.83,
    pi=0.0617,
)

BELIEF_1_CORNER = CounterfactualBelief(45.78, 45.2)


def random_observed_stats(rng: np.random.Generator) -> ObservedStats:
    """Well-conditioned random stats: positive variances, pi away from 0/1."""
    return ObservedStats(
        r_squared=float(rng.uniform(0.0, 0.95)),
        n_ob=int(rng.integers(2, 100_000)),
        y_t_ob=float(rng.uniform(-100.0, 100.0)),
        y_c_ob=float(rng.uniform(-100.0, 100.0)),
        var_t=float(rng.uniform(0.05, 200.0)),
        var_c=float(rng.uniform(0.05, 200.0)),
        pi=float(rng.uniform(0.01, 0.99)),
    )


def random_belief(rng: np.random.Generator) -> CounterfactualBelief:
    return CounterfactualBelief(
        y_t_un=float(rng.uniform(-100.0, 100.0)),
        y_c_un=float(rng.uniform(-100.0, 100.0)),
    )


def random_sign(rng: np.random.Generator) -> EstimateSign:
    return EstimateSign.POSITIVE if rng.random() < 0.5 else EstimateSign.NEGATIVE


def negate_stats(stats: ObservedStats) -> ObservedStats:
    return ObservedStats(
        r_squared=stats.r_squared,
        n_ob=stats.n_ob,
        y_t_ob=-stats.y_t_ob,
        y_c_ob=-stats.y_c_ob,
        var_t=stats.var_t,
        var_c=stats.var_c,
        pi=stats.pi,
    )


def ordered_means(stats: ObservedStats, sign: EstimateSign) -> ObservedStats:
    """stats with its two observed means swapped if need be, so that the
    estimate y_t_ob - y_c_ob has the given sign."""
    if (stats.y_t_ob > stats.y_c_ob) == (sign is EstimateSign.POSITIVE):
        return stats
    return replace(stats, y_t_ob=stats.y_c_ob, y_c_ob=stats.y_t_ob)


def mirrored(obj: dict) -> dict:
    """A config object mirrored through zero, in place: the observed means and
    every belief negated, which turns a significant negative estimate into a
    positive one.  A stated "sign" would contradict the mirrored means, so it
    is dropped; the config derives the sign."""
    obj.pop("sign", None)
    for key in ("y_t_ob", "y_c_ob"):
        obj["observed"][key] = -obj["observed"][key]
    for belief in obj["beliefs"]:
        if "point" in belief:
            belief["point"] = {k: -v for k, v in belief["point"].items()}
        else:
            belief["region"] = {axis: [None if v is None else -v for v in reversed(interval)]
                                for axis, interval in belief["region"].items()}
    return obj


def replace(record, **changes):
    """record with the named fields changed, rebuilt through its constructor,
    so that the new values are validated."""
    return type(record)(**{**record._asdict(), **changes})


def negate_belief(belief: CounterfactualBelief) -> CounterfactualBelief:
    return CounterfactualBelief(y_t_un=-belief.y_t_un, y_c_un=-belief.y_c_un)


def cellwise_csv(t_values, c_values, rows) -> str:
    """A contour CSV built cell by cell, each PIV as format(v, ".6f")."""
    lines = ["y_t_un," + ",".join(repr(c) for c in c_values)]
    for t, row in zip(t_values, rows):
        lines.append(repr(t) + "," + ",".join(f"{v:.6f}" for v in row))
    return "\n".join(lines) + "\n"


def binomial_mc_tolerance(p: float, reps: int) -> float:
    """Monte Carlo acceptance band: three binomial sd plus systematic slack."""
    return 3.0 * math.sqrt(p * (1.0 - p) / reps) + 0.02
