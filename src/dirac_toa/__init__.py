"""Relativistic free-motion time-of-arrival toolkit for 1D Dirac particles.

Natural units (hbar = c = 1), momentum along x.  The library covers the
closed-form spinor constructions, the quantized arrival-time operator on
momentum grids and in the energy representation, its eigenfunction families,
arrival-time distributions of wave packets with a flux-at-origin oracle, and
the nonrelativistic / massless limits together with the time-energy duality
and deficiency-index diagnostics.

The package surface is each module's ``__all__``, star-imported below.
"""
from .algebra import *
from .arrival import *
from .config import *
from .eigenfunctions import *
from .grids import *
from .limits import *

__version__ = "0.1.0"
