"""Robustness of significant two-group regression inferences to failures of
unconfoundedness: evaluate and bound the probability (PIV) that the null
hypothesis would be rejected again once the sample is completed with
counterfactual outcomes."""

from .core import (
    CounterfactualBelief,
    DegenerateSpreadError,
    EstimateSign,
    FixedThreshold,
    InputValidationError,
    ObservedStats,
    PivError,
    PivResult,
    SignMismatchError,
    StatisticalThreshold,
    Threshold,
    ideal_correlation,
    piv,
    piv_from_correlation,
    saturation_limits,
    se_ideal,
    std_normal_cdf,
)
from .bounds import (
    BeliefRegion,
    BoundResult,
    ContourGrid,
    Verdict,
    bound_piv,
    evaluate_grid,
    robustness_verdict,
)

__version__ = "0.1.0"

__all__ = [
    "ObservedStats",
    "CounterfactualBelief",
    "EstimateSign",
    "StatisticalThreshold",
    "FixedThreshold",
    "Threshold",
    "PivResult",
    "PivError",
    "InputValidationError",
    "DegenerateSpreadError",
    "SignMismatchError",
    "ideal_correlation",
    "se_ideal",
    "saturation_limits",
    "piv_from_correlation",
    "piv",
    "std_normal_cdf",
    "BeliefRegion",
    "ContourGrid",
    "BoundResult",
    "Verdict",
    "evaluate_grid",
    "bound_piv",
    "robustness_verdict",
    "__version__",
]
