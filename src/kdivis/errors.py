"""Exception types raised across the package."""

from __future__ import annotations


class KdivisError(Exception):
    """Base class for all package-specific errors."""


class NotHermitian(KdivisError):
    """An operator failed its Hermiticity check."""


class QuadratureFailure(KdivisError):
    """Adaptive integration of a rate function did not converge."""


class IntegrationUnstable(KdivisError):
    """Halving the RK4 step changed the propagator beyond tolerance."""


class AllStepsSingular(KdivisError):
    """Every complement step over the horizon failed; nothing to classify."""
