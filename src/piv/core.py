"""Closed-form engine for the probability that an inference survives retesting.

A significant two-group regression estimate rests on outcomes that were never
observed: every treated subject has an unrealized control outcome and vice
versa.  Completing the observed sample with those counterfactual rows (one
extra row per subject, treatment flipped, covariates identical) yields a
balanced "completed" sample in which the treatment coefficient has a known
normal distribution.  The PIV is the probability that the null hypothesis
would be rejected again in that completed sample, given one's belief about
the two mean counterfactual outcomes.

Everything here is a pure function of seven observed summary statistics

    r_squared   regression R-square of the fitted model
    n_ob        observed sample size
    y_t_ob      adjusted mean outcome, observed treated group
    y_c_ob      adjusted mean outcome, observed control group
    var_t       outcome variance in the observed treated group
    var_c       outcome variance in the observed control group
    pi          proportion of treated subjects

plus a belief (y_t_un, y_c_un) about the two mean counterfactual outcomes.

The completed-sample quantities are:

    y_t_id  = (1 - pi) * y_t_un + pi * y_t_ob
    y_c_id  = pi * y_c_un + (1 - pi) * y_c_ob
    sd_id   = sqrt(0.5*var_t + 0.5*pi*(1-pi)*[(y_t_un - y_t_ob)^2
              + (y_c_un - y_c_ob)^2] + 0.5*var_c
              + 0.25*(y_t_id - y_c_id)^2)
    r_id    = 0.5 * (y_t_id - y_c_id) / sd_id

and the treatment coefficient (standardized) is distributed

    N( r_id, (1 - r_squared) / (2 * n_ob) ).

With T = r_id / se and a signed critical value C, probit(PIV) = T - C for a
significant positive estimate and C - T for a significant negative one.
Counterfactual within-group variances are taken equal to the corresponding
observed within-group variances; the observed R-square is reused for the
completed-sample standard error.  The normal approximation is intended for
n_ob >= 30.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

__all__ = [
    "PivError",
    "InputValidationError",
    "DegenerateSpreadError",
    "SignMismatchError",
    "ObservedStats",
    "CounterfactualBelief",
    "EstimateSign",
    "StatisticalThreshold",
    "FixedThreshold",
    "Threshold",
    "PivResult",
    "std_normal_cdf",
    "ideal_means",
    "ideal_sd",
    "ideal_correlation",
    "se_ideal",
    "resolve_threshold",
    "saturation_limits",
    "piv_from_correlation",
    "piv",
]


class PivError(Exception):
    """Base error for this package."""


class InputValidationError(PivError, ValueError):
    """Inputs violate a documented contract (domain, type, finiteness)."""


class DegenerateSpreadError(PivError):
    """The completed sample has zero outcome spread; the correlation is undefined."""


class SignMismatchError(PivError, ValueError):
    """A fixed threshold lies on the wrong side of zero for the declared estimate sign."""


def _require_finite(value: float, name: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise InputValidationError(f"{name} must be a finite real number, got {value!r}")
    x = float(value)
    if not math.isfinite(x):
        raise InputValidationError(f"{name} must be finite, got {x}")
    return x


# =============================================================================
# Domain types
# =============================================================================


@dataclass(frozen=True)
class ObservedStats:
    """The seven observed summary statistics, validated on construction.

    r_squared in [0, 1); n_ob integer >= 2; var_t, var_c >= 0; pi in (0, 1).
    """

    r_squared: float
    n_ob: int
    y_t_ob: float
    y_c_ob: float
    var_t: float
    var_c: float
    pi: float

    def __post_init__(self) -> None:
        r2 = _require_finite(self.r_squared, "r_squared")
        if not 0.0 <= r2 < 1.0:
            raise InputValidationError(f"r_squared must be in [0, 1), got {r2}")
        if isinstance(self.n_ob, bool) or not isinstance(self.n_ob, int):
            raise InputValidationError(f"n_ob must be an integer, got {self.n_ob!r}")
        if self.n_ob < 2:
            raise InputValidationError(f"n_ob must be >= 2, got {self.n_ob}")
        _require_finite(self.y_t_ob, "y_t_ob")
        _require_finite(self.y_c_ob, "y_c_ob")
        for name in ("var_t", "var_c"):
            v = _require_finite(getattr(self, name), name)
            if v < 0.0:
                raise InputValidationError(f"{name} must be >= 0, got {v}")
        p = _require_finite(self.pi, "pi")
        if not 0.0 < p < 1.0:
            raise InputValidationError(f"pi must be strictly inside (0, 1), got {p}")
        object.__setattr__(self, "r_squared", r2)
        object.__setattr__(self, "y_t_ob", float(self.y_t_ob))
        object.__setattr__(self, "y_c_ob", float(self.y_c_ob))
        object.__setattr__(self, "var_t", float(self.var_t))
        object.__setattr__(self, "var_c", float(self.var_c))
        object.__setattr__(self, "pi", p)


@dataclass(frozen=True)
class CounterfactualBelief:
    """A single point belief about the two mean counterfactual outcomes."""

    y_t_un: float
    y_c_un: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "y_t_un", _require_finite(self.y_t_un, "y_t_un"))
        object.__setattr__(self, "y_c_un", _require_finite(self.y_c_un, "y_c_un"))


class EstimateSign(Enum):
    """Sign of the observed significant estimate."""

    POSITIVE = "positive"
    NEGATIVE = "negative"


@dataclass(frozen=True)
class StatisticalThreshold:
    """Threshold set as critical value times completed-sample standard error.

    Only the magnitude is stored; the sign is derived from the estimate sign
    (positive estimates reject above +critical_magnitude standard errors,
    negative ones below -critical_magnitude).
    """

    critical_magnitude: float

    def __post_init__(self) -> None:
        c = _require_finite(self.critical_magnitude, "critical_magnitude")
        if c <= 0.0:
            raise InputValidationError(f"critical_magnitude must be > 0, got {c}")
        object.__setattr__(self, "critical_magnitude", c)


@dataclass(frozen=True)
class FixedThreshold:
    """A pragmatically chosen effect-size threshold, in standardized units."""

    beta_sharp: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "beta_sharp", _require_finite(self.beta_sharp, "beta_sharp"))


Threshold = StatisticalThreshold | FixedThreshold


@dataclass(frozen=True)
class PivResult:
    """PIV at one belief point, with the probit, resolved threshold and T-ratio."""

    piv: float
    probit_piv: float
    threshold_value: float
    t_ratio: float


# =============================================================================
# Standard normal distribution
# =============================================================================

_SQRT2 = math.sqrt(2.0)


def std_normal_cdf(x: float) -> float:
    """Standard normal CDF via the complementary error function.

    The erfc route keeps full relative precision in the lower tail, which the
    naive 0.5*(1 + erf(...)) form loses.
    """
    return _cdf(float(x))


def _cdf(x, erfc=math.erfc):
    return 0.5 * erfc(-x / _SQRT2)


# =============================================================================
# Completed-sample statistics
# =============================================================================


def ideal_means(belief: CounterfactualBelief, stats: ObservedStats) -> tuple[float, float]:
    """Mean outcomes of the completed treated and control arms.

    Each arm mixes observed and counterfactual rows: the completed treated arm
    holds the pi*n_ob observed treated plus the (1-pi)*n_ob controls under
    their unrealized treatment, and symmetrically for control.
    """
    return _arm_means(belief.y_t_un, belief.y_c_un, stats)


# The kernel below takes a float belief or numpy arrays of beliefs and uses
# only + - * / on them, so both give bit-identical results.  Squares are
# written as products: float ** 2 calls libm pow, which can differ in the
# last bit from the exact product that numpy computes.


def _arm_means(y_t_un, y_c_un, stats: ObservedStats):
    pi = stats.pi
    y_t_id = (1.0 - pi) * y_t_un + pi * stats.y_t_ob
    y_c_id = pi * y_c_un + (1.0 - pi) * stats.y_c_ob
    return y_t_id, y_c_id


def _gap_and_variance(y_t_un, y_c_un, stats: ObservedStats):
    """Completed-sample arm mean difference y_t_id - y_c_id and outcome variance."""
    y_t_id, y_c_id = _arm_means(y_t_un, y_c_un, stats)
    gap = y_t_id - y_c_id
    pi = stats.pi
    d_t = y_t_un - stats.y_t_ob
    d_c = y_c_un - stats.y_c_ob
    variance = (
        0.5 * stats.var_t
        + 0.5 * pi * (1.0 - pi) * (d_t * d_t + d_c * d_c)
        + 0.5 * stats.var_c
        + 0.25 * (gap * gap)
    )
    return gap, variance


_VARIANCE_OVERFLOW = (
    "completed-sample variance overflows float64; the counterfactual means "
    "lie too far from the observed ones"
)


def _correlation(y_t_un, y_c_un, stats: ObservedStats, sqrt=math.sqrt, every=bool):
    """0.5*gap/sd; arrays take sqrt=np.sqrt and every=np.all."""
    gap, variance = _gap_and_variance(y_t_un, y_c_un, stats)
    if not every(variance < math.inf):
        raise InputValidationError(_VARIANCE_OVERFLOW)
    if not every(variance > 0.0):
        raise DegenerateSpreadError(
            "completed sample has zero outcome spread; correlation undefined"
        )
    return 0.5 * gap / sqrt(variance)


def _completed_piv(
    y_t_un, y_c_un, stats: ObservedStats, sign: EstimateSign, threshold: Threshold,
    sqrt=math.sqrt, erfc=math.erfc, every=bool,
):
    """(piv, probit, threshold value, T) at one belief, or elementwise over arrays.

    Floats take the math defaults; arrays take np.sqrt, an elementwise erfc
    and np.all.  Raises InputValidationError where the completed-sample
    variance overflows and DegenerateSpreadError where it is zero.
    """
    r = _correlation(y_t_un, y_c_un, stats, sqrt, every)
    probit, threshold_value, t_ratio = _probit(r, stats, sign, threshold)
    return _cdf(probit, erfc), probit, threshold_value, t_ratio


def ideal_sd(belief: CounterfactualBelief, stats: ObservedStats) -> float:
    """Outcome standard deviation of the completed sample.

    Within each arm the outcome is a two-component mixture (observed and
    counterfactual cells with the arm's observed variance), and the two
    equally sized arms contribute a between-arm term of a quarter of the
    squared mean difference.  Returns 0.0 only in the fully degenerate case
    (both variances zero and all four means equal), which downstream
    operations surface as DegenerateSpreadError.  Raises
    InputValidationError when the variance overflows.
    """
    variance = _gap_and_variance(belief.y_t_un, belief.y_c_un, stats)[1]
    if not variance < math.inf:
        raise InputValidationError(_VARIANCE_OVERFLOW)
    return math.sqrt(variance)


def ideal_correlation(belief: CounterfactualBelief, stats: ObservedStats) -> float:
    """Point-biserial correlation between treatment and outcome in the completed sample.

    Equals half the standardized arm mean difference, 0.5*(y_t_id - y_c_id)/sd,
    because the completed arms are exactly balanced.  Raises
    DegenerateSpreadError when the spread is zero and InputValidationError
    when the variance overflows.
    """
    return _correlation(belief.y_t_un, belief.y_c_un, stats)


def se_ideal(stats: ObservedStats) -> float:
    """Standard error of the standardized coefficient in the completed sample.

    sqrt((1 - r_squared) / (2 * n_ob)); the completed sample has 2*n_ob rows
    and a balanced binary predictor.
    """
    return math.sqrt((1.0 - stats.r_squared) / (2.0 * stats.n_ob))


# =============================================================================
# Thresholds and the PIV
# =============================================================================


def _signed_critical(magnitude: float, sign: EstimateSign) -> float:
    return magnitude if sign is EstimateSign.POSITIVE else -magnitude


def _check_fixed_sign(beta_sharp: float, sign: EstimateSign) -> None:
    if sign is EstimateSign.POSITIVE and beta_sharp < 0.0:
        raise SignMismatchError(
            f"fixed threshold {beta_sharp} is negative but the estimate sign is positive"
        )
    if sign is EstimateSign.NEGATIVE and beta_sharp > 0.0:
        raise SignMismatchError(
            f"fixed threshold {beta_sharp} is positive but the estimate sign is negative"
        )


def resolve_threshold(threshold: Threshold, sign: EstimateSign, stats: ObservedStats) -> float:
    """Resolve a threshold to a signed effect-size value.

    Fixed thresholds pass through verbatim (after a sign-consistency check);
    statistical thresholds become signed_critical_value * se_ideal(stats).
    """
    if isinstance(threshold, FixedThreshold):
        _check_fixed_sign(threshold.beta_sharp, sign)
        return threshold.beta_sharp
    if isinstance(threshold, StatisticalThreshold):
        return _signed_critical(threshold.critical_magnitude, sign) * se_ideal(stats)
    raise InputValidationError(f"unknown threshold type: {threshold!r}")


def saturation_limits(stats: ObservedStats) -> tuple[float, float]:
    """Limits of |correlation| as one counterfactual mean runs to infinity.

    Returns (t_limit, c_limit): as y_t_un -> +/-inf the correlation tends to
    +/-sqrt((1-pi)/(1+pi)); as y_c_un -> +/-inf it tends to
    -/+sqrt(pi/(2-pi)).  These are not global caps: when both means run to
    infinity along +/-(1-pi, -pi), |correlation| tends to
    sqrt(1 - 2*pi*(1-pi)), which exceeds both limits for every pi in (0, 1).
    """
    pi = stats.pi
    return (
        math.sqrt((1.0 - pi) / (1.0 + pi)),
        math.sqrt(pi / (2.0 - pi)),
    )


def _probit(r, stats: ObservedStats, sign: EstimateSign, threshold: Threshold):
    """(probit, threshold value, T) for a float correlation or an array of them."""
    se = se_ideal(stats)
    t_ratio = r / se
    positive = sign is EstimateSign.POSITIVE
    if isinstance(threshold, StatisticalThreshold):
        c = _signed_critical(threshold.critical_magnitude, sign)
        probit = (t_ratio - c) if positive else (c - t_ratio)
        return probit, c * se, t_ratio
    if isinstance(threshold, FixedThreshold):
        _check_fixed_sign(threshold.beta_sharp, sign)
        b = threshold.beta_sharp
        probit = ((r - b) / se) if positive else ((b - r) / se)
        return probit, b, t_ratio
    raise InputValidationError(f"unknown threshold type: {threshold!r}")


def piv_from_correlation(
    r: float, stats: ObservedStats, sign: EstimateSign, threshold: Threshold
) -> PivResult:
    """PIV for a given completed-sample correlation.

    With T = r/se: statistical thresholds give probit = T - C (positive
    estimate) or C - T (negative), C signed; fixed thresholds give
    probit = (r - beta_sharp)/se or (beta_sharp - r)/se.
    """
    probit, threshold_value, t_ratio = _probit(
        _require_finite(r, "correlation"), stats, sign, threshold
    )
    return PivResult(_cdf(probit), probit, threshold_value, t_ratio)


def piv(
    belief: CounterfactualBelief,
    stats: ObservedStats,
    sign: EstimateSign,
    threshold: Threshold,
) -> PivResult:
    """PIV at one belief point: probability of rejecting the null again in the completed sample."""
    return PivResult(*_completed_piv(belief.y_t_un, belief.y_c_un, stats, sign, threshold))
