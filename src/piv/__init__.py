"""Robustness of significant two-group regression inferences to failures of
unconfoundedness: evaluate and bound the probability (PIV) that the null
hypothesis would be rejected again once the sample is completed with
counterfactual outcomes."""

from . import bounds, core
from .bounds import *  # noqa: F403
from .core import *  # noqa: F403

__version__ = "0.1.0"

# a public name is added to the __all__ of the module that defines it
__all__ = core.__all__ + bounds.__all__ + ["__version__"]
