"""Exception types raised across the package."""

from __future__ import annotations


class KdivisError(Exception):
    """Base class for all package-specific errors."""


class AllStepsSingular(KdivisError):
    """Every complement step over the horizon failed; nothing to classify."""
