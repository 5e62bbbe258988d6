"""Core physical types, constants, and kinematic relations.

Everything is SI internally (m, kg, s, K, J). Unit conversion happens only at
I/O boundaries (CLI config keys, CSV headers).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError

__all__ = [
    "ATOMIC_MASS_KG",
    "CONSTANTS",
    "BeamlineGeometry",
    "Grating",
    "Molecule",
    "PhysicalConstants",
    "SourceModel",
    "de_broglie_wavelength",
]

ATOMIC_MASS_KG = 1.66053906660e-27


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
    """The diffraction mask of a periodic transmission grating.

    The bars enter only the coherence limits, which read their size from
    the preset table or the ``limits.beam_*`` keys.

    Parameters
    ----------
    period:
        Grating period d in m.
    slit_width:
        Geometric slit width s in m, 0 < s < d.
    effective_slit_width:
        Effective (interaction-reduced) slit width in m, 0 < s_eff <= s.
        The forward diffraction model always uses this width.
    label:
        Free-form label.
    """

    period: float
    slit_width: float
    effective_slit_width: float
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


@dataclass(frozen=True, kw_only=True)
class BeamlineGeometry:
    """Source -> grating -> detector beamline.

    ``L1`` is the source-grating distance, ``L2`` the grating-detector
    distance; the total source-detector distance ``L`` is derived. ``y0`` and
    ``y1`` are the heights of source and grating in a common frame, ``g`` the
    gravitational acceleration. Every field is keyword-only, so a call cannot
    pass the total length where ``L2`` belongs by position.
    """

    L1: float
    L2: float
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
    def L(self) -> float:
        return self.L1 + self.L2


@dataclass(frozen=True)
class SourceModel:
    """Beam source: the emitting spot size in m, which sets the transverse
    coherence at the grating."""

    source_width: float

    def __post_init__(self) -> None:
        if self.source_width <= 0.0:
            raise DomainError(f"source width must be positive, got {self.source_width!r}")


def de_broglie_wavelength(molecule: Molecule, velocity: float) -> float:
    """Matter wavelength h/(m v) in m for a molecule at forward speed v; a
    momentum m v that is not positive and finite raises DomainError."""
    momentum = molecule.mass * velocity
    if not 0.0 < momentum < math.inf:
        raise DomainError(
            f"momentum m v = {momentum!r} kg m/s at velocity {velocity!r} m/s "
            "must be positive and finite"
        )
    return CONSTANTS.h / momentum
