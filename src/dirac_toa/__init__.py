"""Relativistic free-motion time-of-arrival toolkit for 1D Dirac particles.

Natural units (hbar = c = 1), momentum along x.  The library covers the
closed-form spinor constructions, the quantized arrival-time operator on
momentum grids and in the energy representation, its eigenfunction families,
arrival-time distributions of wave packets with a flux-at-origin oracle, and
the nonrelativistic / massless limits together with the time-energy duality
and deficiency-index diagnostics.

The package surface is the ``__all__`` of the five modules that every
command needs, star-imported below.  ``limits`` and ``verify``, like
``cli``, are reached by their module names; both are registered in
``sys.modules`` at import but run on their first attribute access, so a
command that calls neither does not load them.
"""
from .algebra import *
from .arrival import *
from .config import *
from .eigenfunctions import *
from .grids import *


def _lazy(name: str):
    """The submodule ``name``, registered in ``sys.modules`` and run on its
    first attribute access (``importlib.util.LazyLoader``); an entry already
    there is returned as it is."""
    import importlib.util
    import sys

    fullname = f"{__name__}.{name}"
    if fullname not in sys.modules:
        spec = importlib.util.find_spec(fullname)
        spec.loader = importlib.util.LazyLoader(spec.loader)
        sys.modules[fullname] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(sys.modules[fullname])
    return sys.modules[fullname]


limits, verify = _lazy("limits"), _lazy("verify")

__version__ = "0.1.0"
