"""Robustness of significant two-group regression inferences to failures of
unconfoundedness: evaluate and bound the probability (PIV) that the null
hypothesis would be rejected again once the sample is completed with
counterfactual outcomes."""

from . import core
from .core import *  # noqa: F403

__version__ = "0.1.0"


def __getattr__(name: str):
    """piv.bounds, its public names and __all__, imported on first use.  A private
    name or another submodule, which `from piv import config` asks for first, is
    refused before piv.bounds is imported; __import__, unlike `from . import
    bounds`, asks piv for no attribute."""
    from importlib.machinery import PathFinder

    if (name.startswith("_") and name != "__all__"
            or name != "bounds" and PathFinder.find_spec(f"{__name__}.{name}", __path__)):
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # the import binds piv.bounds; -X importtime shows it, as it shows no import_module
    bounds = __import__("piv.bounds").bounds
    # a public name is added to the __all__ of the module that defines it
    lent = {"__all__": core.__all__ + bounds.__all__ + ["__version__"], "bounds": bounds,
            **{public: getattr(bounds, public) for public in bounds.__all__}}
    if name not in lent:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals().update(lent)
    return lent[name]
