"""Exception taxonomy shared by all modules.

Every error raised by this package derives from :class:`PhasePropError`,
so callers can catch one base class at CLI boundaries while tests can
assert on the precise failure mode.  Every warning it emits names the
line that called into the package (:func:`_warn_at_caller`).
"""
from __future__ import annotations

import os
import sys
import warnings

__all__ = [
    "PhasePropError", "ConfigurationError", "ModelError", "GridRangeError",
    "CausticError", "TruncationError", "BranchError", "ProjectionError",
    "DomainError", "IntegrationError", "SpacingWarning", "EhrenfestWarning",
]

_PACKAGE = os.path.dirname(__file__) + os.sep


def _warn_at_caller(message: str, category: type[Warning]) -> None:
    """Warn at the line outside this package that called into it: the
    nearest frame up the stack whose file is not one of the package's."""
    frame, level = sys._getframe(1), 2
    while frame is not None and frame.f_code.co_filename.startswith(_PACKAGE):
        frame, level = frame.f_back, level + 1
    warnings.warn(message, category, stacklevel=level)


class PhasePropError(Exception):
    """Base class for all errors raised by this package."""


class ConfigurationError(PhasePropError):
    """Invalid user-facing configuration: unknown model kind, malformed
    grids, bad polynomial degree, unparsable config files."""


class ModelError(PhasePropError):
    """A Hamiltonian model produced a non-finite value or derivative."""


class GridRangeError(PhasePropError):
    """A time or coordinate was requested outside the sampled range."""


class CausticError(PhasePropError):
    """A focal/caustic point blocks the requested construction.

    Attributes
    ----------
    t_star : float or None
        Earliest focal time detected.
    alpha_star : float or None
        Manifold parameter at which the projection first degenerates.
    """

    def __init__(self, message: str, t_star: float | None = None,
                 alpha_star: float | None = None):
        super().__init__(message)
        self.t_star = t_star
        self.alpha_star = alpha_star


class TruncationError(PhasePropError):
    """Grid truncation holds too much mass at the boundary.

    Attributes
    ----------
    boundary_mass : float
        Measured boundary amplitude relative to the field maximum.
    """

    def __init__(self, message: str, boundary_mass: float):
        super().__init__(message)
        self.boundary_mass = boundary_mass


class BranchError(PhasePropError):
    """A complex square root jumped branches between adjacent samples."""


class ProjectionError(PhasePropError):
    """The nearest-point projection onto a Lagrangian manifold failed."""


class DomainError(PhasePropError):
    """An input lies outside the mathematical domain of the operation
    (e.g. a Gaussian quadratic form without positive-definite real part)."""


class IntegrationError(PhasePropError):
    """The ODE integrator could not reach the requested time.

    Attributes
    ----------
    last_valid_time : float or None
        Largest time for which a valid state was produced.
    """

    def __init__(self, message: str, last_valid_time: float | None = None):
        super().__init__(message)
        self.last_valid_time = last_valid_time


class SpacingWarning(UserWarning):
    """Phase-space grid spacing is too coarse to resolve the
    Heisenberg-scale oscillation of the twist phase."""


class EhrenfestWarning(UserWarning):
    """Linearized-flow growth exceeded the single-packet validity scale."""
