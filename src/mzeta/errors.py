"""Exception types shared across the package."""

from __future__ import annotations


class MzetaError(Exception):
    """Base class for all package-specific errors."""


class UnresolvedConstantError(MzetaError):
    """A symbolic constant slot was used where a number was required."""


class InsufficientPrecisionError(MzetaError):
    """An input series does not carry enough X-precision for the operation."""


class PrecisionUnreachableError(MzetaError):
    """The requested accuracy cannot be met within configured resource bounds."""


class PolarPointError(MzetaError):
    """The evaluation point lies exactly on a polar hyperplane."""


class PoleProximityError(MzetaError):
    """A reciprocal factor is too close to a pole for stable evaluation."""


class TailNotConvergingError(MzetaError):
    """The truncation level N is too small for the requested tail order."""
