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
completed-sample standard error.  The normal approximation reads low at small
n_ob: below Monte Carlo by up to 0.037 at n_ob = 32 and 0.003 at 400 (README).

The package's record types are frozen __slots__ values on one base, _Record,
so that a cold CLI start neither generates nor compiles class code.
"""

from __future__ import annotations

import math
import reprlib
from enum import Enum

__all__ = [
    "PivError",
    "InputValidationError",
    "DegenerateSpreadError",
    "SignMismatchError",
    "ObservedStats",
    "CounterfactualBelief",
    "BeliefRegion",
    "EstimateSign",
    "StatisticalThreshold",
    "FixedThreshold",
    "Threshold",
    "PivResult",
    "std_normal_cdf",
    "ideal_correlation",
    "se_ideal",
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


def _as_float(value, name: str, what: str) -> float:
    """value as a float; a bool, a non-number or an int past float range is not what."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise InputValidationError(f"{name} must be {what}, got {reprlib.repr(value)}")
    try:
        return float(value)
    except OverflowError as exc:
        raise InputValidationError(
            f"{name} must be {what}, got an integer too large for a float") from exc


def _require_finite(value: float, name: str) -> float:
    x = _as_float(value, name, "a finite real number")
    if not math.isfinite(x):
        raise InputValidationError(f"{name} must be finite, got {x}")
    return x


def _require_piv_threshold(value, name: str) -> None:
    if not 0.0 < _as_float(value, name, "in (0, 1)") < 1.0:
        raise InputValidationError(f"{name} must be in (0, 1), got {reprlib.repr(value)}")


def _require_int(value: int, name: str, least: int) -> int:
    """value, an int that is no bool and is at least least."""
    if isinstance(value, bool) or not isinstance(value, int) or value < least:
        raise InputValidationError(
            f"{name} must be an integer >= {least}, got {reprlib.repr(value)}")
    return value


# =============================================================================
# Domain types
# =============================================================================


class _Record:
    """A frozen value: its fields are its __slots__, in order.

    Each subclass sets them once, in __init__, past _Record.__setattr__.  A
    record equals only a record of its own class with equal fields, hashes its
    field tuple and refuses assignment and deletion; pickle and copy rebuild
    it through the constructor, so validation runs again.
    """

    __slots__ = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def _asdict(self) -> dict:
        """The fields by name, shallow: a nested record stays a record."""
        return dict(zip(self.__slots__, self._values()))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in self._asdict().items())
        return f"{type(self).__name__}({fields})"

    def __reduce__(self):
        return type(self), self._values()


def _read_only(array):
    """array, made read-only in place; records that hold arrays store each through this."""
    array.flags.writeable = False
    return array


class ObservedStats(_Record):
    """The seven observed summary statistics, validated on construction.

    r_squared in [0, 1); n_ob integer >= 2 and small enough that se_ideal > 0;
    var_t, var_c >= 0; pi in (0, 1).
    """

    __slots__ = ("r_squared", "n_ob", "y_t_ob", "y_c_ob", "var_t", "var_c", "pi")

    def __init__(self, r_squared: float, n_ob: int, y_t_ob: float, y_c_ob: float,
                 var_t: float, var_c: float, pi: float) -> None:
        r2 = _require_finite(r_squared, "r_squared")
        if not 0.0 <= r2 < 1.0:
            raise InputValidationError(f"r_squared must be in [0, 1), got {r2}")
        _require_int(n_ob, "n_ob", 2)
        # n_ob enters float arithmetic, so it must convert to a float
        n = _require_finite(n_ob, "n_ob")
        object.__setattr__(self, "r_squared", r2)
        object.__setattr__(self, "n_ob", n_ob)
        # the probit divides by se; near the float limit 2*n_ob is inf and se rounds to 0
        if not se_ideal(self) > 0.0:
            raise InputValidationError(f"n_ob is too large for a positive standard error, got {n:g}")
        for name, value in (("y_t_ob", y_t_ob), ("y_c_ob", y_c_ob)):
            object.__setattr__(self, name, _require_finite(value, name))
        for name, value in (("var_t", var_t), ("var_c", var_c)):
            v = _require_finite(value, name)
            if v < 0.0:
                raise InputValidationError(f"{name} must be >= 0, got {v}")
            object.__setattr__(self, name, v)
        p = _require_finite(pi, "pi")
        if not 0.0 < p < 1.0:
            raise InputValidationError(f"pi must be strictly inside (0, 1), got {p}")
        object.__setattr__(self, "pi", p)


class CounterfactualBelief(_Record):
    """A single point belief about the two mean counterfactual outcomes."""

    __slots__ = ("y_t_un", "y_c_un")

    def __init__(self, y_t_un: float, y_c_un: float) -> None:
        object.__setattr__(self, "y_t_un", _require_finite(y_t_un, "y_t_un"))
        object.__setattr__(self, "y_c_un", _require_finite(y_c_un, "y_c_un"))


def _check_bound(value: float, name: str) -> float:
    x = _as_float(value, name, "a real number or +/-inf")
    if math.isnan(x):
        raise InputValidationError(f"{name} must not be NaN")
    return x


class BeliefRegion(_Record):
    """Rectangle of plausible (y_t_un, y_c_un) values; either side may be infinite."""

    __slots__ = ("t_interval", "c_interval")

    def __init__(self, t_interval: tuple[float, float], c_interval: tuple[float, float]) -> None:
        for axis, interval in (("t", t_interval), ("c", c_interval)):  # shapes before any bound
            if not isinstance(interval, (tuple, list)) or len(interval) != 2:
                raise InputValidationError(f"{axis}_interval must be a (lo, hi) pair")
        for axis, (lo, hi) in (("t", t_interval), ("c", c_interval)):
            lo = _check_bound(lo, f"{axis}_interval lower bound")
            hi = _check_bound(hi, f"{axis}_interval upper bound")
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


class EstimateSign(Enum):
    """Sign of the observed significant estimate; each signed() refuses anything else."""

    POSITIVE = "positive"
    NEGATIVE = "negative"


# Before Python 3.12 each read of an enum class attribute takes the slow path
# through EnumType.__getattr__; the point path compares against these names.
_POSITIVE, _NEGATIVE = EstimateSign.POSITIVE, EstimateSign.NEGATIVE


class StatisticalThreshold(_Record):
    """Threshold set as critical value times completed-sample standard error.

    Only the magnitude is stored; the sign is derived from the estimate sign
    (positive estimates reject above +critical_magnitude standard errors,
    negative ones below -critical_magnitude).
    """

    __slots__ = ("critical_magnitude",)

    def __init__(self, critical_magnitude: float) -> None:
        c = _require_finite(critical_magnitude, "critical_magnitude")
        if c <= 0.0:
            raise InputValidationError(f"critical_magnitude must be > 0, got {c}")
        object.__setattr__(self, "critical_magnitude", c)

    def signed(self, sign: EstimateSign) -> float:
        """The signed cut C, in standard errors, on the estimate's side of zero."""
        if sign is _POSITIVE:
            return self.critical_magnitude
        if sign is _NEGATIVE:
            return -self.critical_magnitude
        raise InputValidationError(f"unknown estimate sign: {sign!r}")


class FixedThreshold(_Record):
    """A pragmatically chosen effect-size threshold, in standardized units."""

    __slots__ = ("beta_sharp",)

    def __init__(self, beta_sharp: float) -> None:
        object.__setattr__(self, "beta_sharp", _require_finite(beta_sharp, "beta_sharp"))

    def signed(self, sign: EstimateSign) -> float:
        """The cut beta_sharp; SignMismatchError when it lies across zero from the estimate."""
        b = self.beta_sharp
        if sign is not _POSITIVE and sign is not _NEGATIVE:
            raise InputValidationError(f"unknown estimate sign: {sign!r}")
        if b < 0.0 if sign is _POSITIVE else b > 0.0:
            raise SignMismatchError(f"fixed threshold {b} is {'negative' if b < 0.0 else 'positive'}"
                                    f" but the estimate sign is {sign.value}")
        return b


Threshold = StatisticalThreshold | FixedThreshold


class PivResult(_Record):
    """PIV at one belief point, with the probit, resolved threshold and T-ratio."""

    __slots__ = ("piv", "probit_piv", "threshold_value", "t_ratio")

    def __init__(self, piv: float, probit_piv: float, threshold_value: float,
                 t_ratio: float) -> None:
        # piv() builds one a call: each slot's descriptor sets it, past _Record.__setattr__
        _set_piv(self, piv)
        _set_probit_piv(self, probit_piv)
        _set_threshold_value(self, threshold_value)
        _set_t_ratio(self, t_ratio)


_set_piv, _set_probit_piv, _set_threshold_value, _set_t_ratio = (
    PivResult.__dict__[name].__set__ for name in PivResult.__slots__)


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
    # x / -sqrt2 is -x / sqrt2 bit for bit; erfc may write over that temporary
    p = erfc(x / -_SQRT2)
    p *= 0.5
    return p


# =============================================================================
# Completed-sample statistics
# =============================================================================


# The kernel below takes a float belief or numpy arrays of beliefs and uses only + - * / on them,
# so both give bit-identical results.  Its constants come from _kernel_terms, each computed there
# as the kernel's own order of operations has it.  Squares are written as products: float ** 2
# calls libm pow, which can differ in the last bit from the exact product that numpy computes.
# Sums and products are built as augmented assignments, such as variance *= coef, on a temporary
# the step before created: a float rebinds and an array is updated in place, and IEEE + and *
# commute exactly, so the bits are those of the written-out expression.  No such step is ever
# applied to an argument, so a caller's arrays are never written.


def _require_stats(stats, name: str = "stats") -> ObservedStats:
    """stats, checked to be an ObservedStats: only a frozen record may be keyed by identity."""
    if not isinstance(stats, ObservedStats):
        raise InputValidationError(f"{name} must be an ObservedStats, got {reprlib.repr(stats)}")
    return stats


def _kernel_terms(stats: ObservedStats) -> tuple:
    """(y_t_ob, y_c_ob, 0.5*pi*(1-pi), 0.5*var_t, 0.5*var_c, pi, 1-pi, pi*y_t_ob, (1-pi)*y_c_ob)."""
    _require_stats(stats)
    pi, a = stats.pi, 1.0 - stats.pi
    y_t_ob, y_c_ob = stats.y_t_ob, stats.y_c_ob
    return y_t_ob, y_c_ob, 0.5 * pi * a, 0.5 * stats.var_t, 0.5 * stats.var_c, pi, a, pi * y_t_ob, a * y_c_ob


def _gap_and_variance(y_t_un, y_c_un, terms: tuple):
    """Completed-sample arm mean difference y_t_id - y_c_id and outcome variance.

    Each arm mixes observed and counterfactual rows: the completed treated arm
    holds the pi*n_ob observed treated plus the (1-pi)*n_ob controls under
    their unrealized treatment, and symmetrically for control.  Within each
    arm the outcome is a two-component mixture (observed and counterfactual
    cells with the arm's observed variance), and the two equally sized arms
    add a between-arm term of a quarter of the squared gap.  The variance is
    0.0 only when both variances are zero and all four means are equal, and
    inf when it overflows; _correlation raises on both.
    """
    y_t_ob, y_c_ob, coef, half_var_t, half_var_c, pi, a, t_ob, c_ob = terms
    d_t = y_t_un - y_t_ob
    d_c = y_c_un - y_c_ob
    # 0.5*var_t + 0.5*pi*(1-pi)*(d_t^2 + d_c^2) + 0.5*var_c + 0.25*gap^2, summed left to right
    variance = d_t * d_t + d_c * d_c
    variance *= coef
    variance += half_var_t
    variance += half_var_c
    # y_t_id - y_c_id, each mean written out as the module docstring gives it
    gap = (a * y_t_un + t_ob) - (pi * y_c_un + c_ob)
    square = gap * gap
    square *= 0.25
    variance += square
    return gap, variance


_VARIANCE_OVERFLOW = (
    "completed-sample variance overflows float64; the counterfactual means "
    "lie too far from the observed ones"
)


def _correlation(y_t_un, y_c_un, terms: tuple, sqrt=math.sqrt, extremes=None):
    """0.5*gap/sd at _kernel_terms' terms; arrays take sqrt=np.sqrt and extremes=bounds._min_max.
    A NaN variance, or an array holding one, fails the overflow check."""
    gap, variance = _gap_and_variance(y_t_un, y_c_un, terms)
    if extremes is None:
        low = high = variance
    else:
        low, high = extremes(variance)
    if not high < math.inf:
        raise InputValidationError(_VARIANCE_OVERFLOW)
    if not low > 0.0:
        raise DegenerateSpreadError(
            "completed sample has zero outcome spread; correlation undefined"
        )
    gap *= 0.5
    gap /= sqrt(variance)
    return gap


def ideal_correlation(belief: CounterfactualBelief, stats: ObservedStats) -> float:
    """Point-biserial correlation between treatment and outcome in the completed sample.

    Equals half the standardized arm mean difference, 0.5*(y_t_id - y_c_id)/sd,
    because the completed arms are exactly balanced.  Raises
    DegenerateSpreadError when the spread is zero and InputValidationError
    when the variance overflows.
    """
    return _correlation(belief.y_t_un, belief.y_c_un, _kernel_terms(stats))


def se_ideal(stats: ObservedStats) -> float:
    """Standard error of the standardized coefficient in the completed sample.

    sqrt((1 - r_squared) / (2 * n_ob)); the completed sample has 2*n_ob rows
    and a balanced binary predictor.
    """
    return math.sqrt((1.0 - _require_stats(stats).r_squared) / (2.0 * stats.n_ob))


# =============================================================================
# Thresholds and the PIV
# =============================================================================


def saturation_limits(stats: ObservedStats) -> tuple[float, float]:
    """Limits of |correlation| as one counterfactual mean runs to infinity.

    Returns (t_limit, c_limit): as y_t_un -> +/-inf the correlation tends to
    +/-sqrt((1-pi)/(1+pi)); as y_c_un -> +/-inf it tends to
    -/+sqrt(pi/(2-pi)).  These are not global caps: when both means run to
    infinity along +/-(1-pi, -pi), |correlation| tends to
    sqrt(1 - 2*pi*(1-pi)), which exceeds both limits for every pi in (0, 1).
    """
    pi = _require_stats(stats).pi
    return (
        math.sqrt((1.0 - pi) / (1.0 + pi)),
        math.sqrt(pi / (2.0 - pi)),
    )


def _threshold(stats: ObservedStats, sign: EstimateSign, threshold: Threshold) -> tuple:
    """(se, cut, threshold value, statistical, positive): the threshold, resolved
    once for any number of correlations.

    A statistical cut C is in standard errors, so its threshold value is C*se;
    a fixed cut is the threshold value itself.  Raises SignMismatchError for a
    fixed cut across zero from the estimate, and InputValidationError for a
    threshold of neither type.
    """
    statistical = isinstance(threshold, StatisticalThreshold)
    if not (statistical or isinstance(threshold, FixedThreshold)):
        raise InputValidationError(f"unknown threshold type: {threshold!r}")
    se, cut = se_ideal(stats), threshold.signed(sign)
    return se, cut, cut * se if statistical else cut, statistical, sign is _POSITIVE


def _probit(r, resolved: tuple):
    """The probit of the PIV at a float correlation r or an array of them.

    resolved is _threshold's tuple.  A statistical cut is compared with
    T = r/se, a fixed one with r, each on the estimate's side.  The probit is a
    new value, so r is left as it was.
    """
    se, cut, _, statistical, positive = resolved
    if statistical:
        if positive:
            probit = r / se
            probit -= cut
        else:
            # C - T as -T + C: r/-se is -(r/se), and IEEE subtraction adds the negation
            probit = r / -se
            probit += cut
        return probit
    probit = (r - cut) if positive else (cut - r)
    probit /= se
    return probit


def _piv_result(r: float, resolved: tuple) -> PivResult:
    """The result at correlation r, with T = r/se, which only a PivResult carries."""
    probit = _probit(r, resolved)
    return PivResult(_cdf(probit), probit, resolved[2], r / resolved[0])


def piv_from_correlation(
    r: float, stats: ObservedStats, sign: EstimateSign, threshold: Threshold
) -> PivResult:
    """PIV for a given completed-sample correlation.

    With T = r/se: statistical thresholds give probit = T - C (positive
    estimate) or C - T (negative), C signed; fixed thresholds give
    probit = (r - beta_sharp)/se or (beta_sharp - r)/se.
    """
    return _piv_result(_require_finite(r, "correlation"), _threshold(stats, sign, threshold))


# piv()'s last analysis (stats, sign, threshold, terms, resolved), one tuple read once a call so that
# a thread switch cannot split key from values.  Frozen records and a kept key make identity safe.
_last = (object(),) * 5


def piv(
    belief: CounterfactualBelief,
    stats: ObservedStats,
    sign: EstimateSign,
    threshold: Threshold,
) -> PivResult:
    """PIV at one belief point: probability of rejecting the null again in the completed sample."""
    global _last
    last_stats, last_sign, last_threshold, terms, resolved = _last
    if stats is last_stats and sign is last_sign and threshold is last_threshold:
        return _piv_result(_correlation(belief.y_t_un, belief.y_c_un, terms), resolved)
    # the correlation raises before the threshold does, and only a success is kept
    r = _correlation(belief.y_t_un, belief.y_c_un, terms := _kernel_terms(stats))
    resolved = _threshold(stats, sign, threshold)
    _last = stats, sign, threshold, terms, resolved
    return _piv_result(r, resolved)
