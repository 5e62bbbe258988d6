"""Core physical types, constants, and kinematic relations.

Everything is SI internally (m, kg, s, K, J). Unit conversion happens only at
I/O boundaries (CLI config keys, CSV headers).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ConfigurationError, DomainError

__all__ = [
    "ATOMIC_MASS_KG",
    "CONSTANTS",
    "BeamlineGeometry",
    "Grating",
    "Molecule",
    "PhysicalConstants",
    "SourceModel",
    "bar_mass",
    "de_broglie_wavelength",
    "opening_fraction",
]

ATOMIC_MASS_KG = 1.66053906660e-27

BAR_WIDTH_TOLERANCE = 0.25  # largest relative deviation of a given bar width from d - s


@dataclass(frozen=True)
class PhysicalConstants:
    """SI defining constants plus the reference photon wavelength used to
    express grating momentum transfer in photon-recoil units.

    ``hbar`` is derived from ``h`` on access and is therefore h/2pi exactly.
    """

    h: float = 6.62607015e-34        # J s
    k_B: float = 1.380649e-23        # J / K
    lambda_ref: float = 780.241e-9   # m, rubidium D2 reference line

    @property
    def hbar(self) -> float:
        return self.h / (2.0 * math.pi)


CONSTANTS = PhysicalConstants()


@dataclass(frozen=True)
class Molecule:
    """A molecule treated as a point particle of fixed mass.

    Parameters
    ----------
    name:
        Free-form label.
    mass:
        Mass in kg, strictly positive.
    """

    name: str
    mass: float

    def __post_init__(self) -> None:
        if not (self.mass > 0.0 and math.isfinite(self.mass)):
            raise DomainError(f"molecule mass must be positive, got {self.mass!r}")


@dataclass(frozen=True)
class Grating:
    """Geometry and material data of a periodic transmission grating.

    Parameters
    ----------
    period:
        Grating period d in m.
    slit_width:
        Geometric slit width s in m, 0 < s < d.
    effective_slit_width:
        Effective (interaction-reduced) slit width in m, 0 < s_eff <= s.
        The forward diffraction model always uses this width.
    bar_length, bar_width:
        Physical extent of one grating bar in m. If ``bar_width`` is omitted
        it defaults to d - s. A provided value must agree with d - s within
        ``BAR_WIDTH_TOLERANCE`` (relative), since bars and slits tile the
        period.
    ribbon_width:
        Width of membrane material wound into one bar, for bars that are
        rolled-up ribbons. Defaults to ``bar_width``; only ``bar_mass``
        consumes it.
    layers:
        Number of stacked membrane layers per bar (>= 1).
    areal_density:
        Mass per unit area of a single layer in kg/m^2, or None if unknown.
    label:
        Free-form label.
    """

    period: float
    slit_width: float
    effective_slit_width: float
    bar_length: float
    bar_width: float | None = None
    ribbon_width: float | None = None
    layers: int = 1
    areal_density: float | None = None
    label: str = ""

    def __post_init__(self) -> None:
        d, s, s_eff = self.period, self.slit_width, self.effective_slit_width
        if not (d > 0.0 and math.isfinite(d)):
            raise DomainError(f"period must be positive, got {d!r}")
        if not 0.0 < s < d:
            raise DomainError(f"slit width must satisfy 0 < s < d, got s={s!r}, d={d!r}")
        if not 0.0 < s_eff <= s:
            raise DomainError(
                f"effective slit width must satisfy 0 < s_eff <= s, "
                f"got s_eff={s_eff!r}, s={s!r}"
            )
        if self.bar_length < 0.0:
            raise DomainError(f"bar length must be non-negative, got {self.bar_length!r}")
        if self.layers < 1:
            raise DomainError(f"layers must be >= 1, got {self.layers!r}")
        if self.areal_density is not None and self.areal_density <= 0.0:
            raise DomainError(f"areal density must be positive, got {self.areal_density!r}")
        if self.bar_width is None:
            object.__setattr__(self, "bar_width", d - s)
        else:
            expected = d - s
            if self.bar_width < 0.0:
                raise DomainError(f"bar width must be non-negative, got {self.bar_width!r}")
            rel = abs(self.bar_width - expected) / expected
            if rel > BAR_WIDTH_TOLERANCE:
                raise DomainError(
                    f"bar width {self.bar_width!r} inconsistent with period - slit "
                    f"= {expected!r} (relative deviation {rel:.3f} exceeds "
                    f"{BAR_WIDTH_TOLERANCE})"
                )
        if self.ribbon_width is None:
            object.__setattr__(self, "ribbon_width", self.bar_width)
        elif self.ribbon_width < 0.0:
            raise DomainError(f"ribbon width must be non-negative, got {self.ribbon_width!r}")


@dataclass(frozen=True)
class BeamlineGeometry:
    """Source -> grating -> detector beamline.

    ``L1`` is the source-grating distance, ``L`` the total source-detector
    distance; the grating-detector distance ``L2`` is derived. ``y0`` and
    ``y1`` are the heights of source and grating in a common frame, ``g`` the
    gravitational acceleration.
    """

    L1: float
    L: float
    g: float = 9.81
    y0: float = 0.0
    y1: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 < self.L1 < self.L:
            raise DomainError(
                f"distances must satisfy 0 < L1 < L, got L1={self.L1!r}, L={self.L!r}"
            )
        if self.g <= 0.0:
            raise DomainError(f"g must be positive, got {self.g!r}")

    @property
    def L2(self) -> float:
        return self.L - self.L1

    @classmethod
    def from_segments(
        cls, L1: float, L2: float, g: float = 9.81, y0: float = 0.0, y1: float = 0.0
    ) -> "BeamlineGeometry":
        return cls(L1=L1, L=L1 + L2, g=g, y0=y0, y1=y1)


@dataclass(frozen=True)
class SourceModel:
    """Beam source: the emitting spot size in m, which sets the transverse
    coherence at the grating."""

    source_width: float

    def __post_init__(self) -> None:
        if self.source_width <= 0.0:
            raise DomainError(f"source width must be positive, got {self.source_width!r}")


def de_broglie_wavelength(molecule: Molecule, velocity: float) -> float:
    """Matter wavelength h/(m v) in m for a molecule at forward speed v."""
    if not (velocity > 0.0 and math.isfinite(velocity)):
        raise DomainError(f"velocity must be positive and finite, got {velocity!r}")
    return CONSTANTS.h / (molecule.mass * velocity)


def opening_fraction(grating: Grating) -> float:
    """Open fraction s/d of the grating unit cell."""
    return grating.slit_width / grating.period


def bar_mass(grating: Grating) -> float:
    """Mass of a single grating bar in kg.

    layers * areal_density * bar_length * material width, where the material
    width is ``ribbon_width`` (the unrolled membrane width for scrolled bars,
    identical to ``bar_width`` for flat ones).
    """
    if grating.areal_density is None:
        raise ConfigurationError(
            f"grating {grating.label or '<unlabeled>'!s} has no areal density configured"
        )
    return grating.layers * grating.areal_density * grating.bar_length * grating.ribbon_width
