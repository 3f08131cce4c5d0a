"""Semiclassical propagation of quantum states in phase space.

The package evolves wave functions through their wave-packet (coherent-state)
transform: position-space states map to phase-space fields, single Gaussian
packets evolve along classical characteristics with complex variational
frames, and superpositions of evolved packets reconstruct both the propagated
phase-space field and the position-space solution.  WKB initial data is
supported through leading-order phase-space lifts, transported Lagrangian
manifolds, and stationary-phase solution values on the manifold.  Closed-form
reference solutions for three linear-flow models (free motion, a constant
force, and a harmonic trap) validate every pipeline end to end.
"""

from . import errors, flow, models, oracles, propagator, transform, wkb
from .errors import *
from .flow import *
from .models import *
from .oracles import *
from .propagator import *
from .transform import *
from .wkb import *

__version__ = "0.1.0"

__all__ = ["__version__", *errors.__all__, *models.__all__, *flow.__all__,
           *transform.__all__, *propagator.__all__, *wkb.__all__, *oracles.__all__]
