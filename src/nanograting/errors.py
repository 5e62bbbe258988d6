"""Exception taxonomy shared across the package.

The CLI maps these onto exit codes: configuration problems exit 2,
numerical/fit/geometry failures exit 3.
"""

from __future__ import annotations

__all__ = [
    "ConfigurationError",
    "DomainError",
    "FitError",
    "GeometryError",
    "NanogratingError",
    "ResolutionError",
    "WorkBudgetError",
]


class NanogratingError(Exception):
    """Base class for all package-specific errors."""


class DomainError(NanogratingError, ValueError):
    """A physical quantity is outside its valid domain (e.g. v <= 0)."""


class ConfigurationError(NanogratingError):
    """Missing or invalid configuration or input file: unknown preset, bad key,
    absent density, a trace or interferogram file with bad values."""


class ResolutionError(NanogratingError):
    """A detector grid is too coarse to resolve the requested structure."""


class WorkBudgetError(ResolutionError, ConfigurationError):
    """A computation would exceed its fixed work budget. It is refused before
    it starts; the size comes from the configuration, so the CLI exits 2."""


class GeometryError(NanogratingError):
    """Degenerate beamline geometry (e.g. free-fall inversion with a
    non-negative denominator)."""


class FitError(NanogratingError):
    """An inverse problem cannot be solved on the given data
    (flat trace, non-overlapping grids, empty search bracket)."""
