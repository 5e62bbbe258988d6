"""Core physical types, constants, and kinematic relations.

Everything is SI internally (m, kg, s, K, J). Unit conversion happens only at
I/O boundaries (CLI config keys, CSV headers).

Vertical coordinates are heights in a common frame, positive up. A molecule
of forward speed v passing through the source (height y0, distance 0) and the
grating (height y1, distance L1) lands on the detector (distance L) at

    y2 = y0 + (y1 - y0) * (L / L1) + A / v^2,   A = g (L L1 - L^2) / 2 < 0,

i.e. on the extrapolated source-grating line, lowered by the free-fall term.
``fall_position`` is this relation and ``fit_velocity`` its inverse for v.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

from .errors import DomainError, GeometryError

__all__ = [
    "ATOMIC_MASS_KG",
    "BeamlineGeometry",
    "Grating",
    "Molecule",
    "PLANCK_H",
    "SourceModel",
    "de_broglie_wavelength",
    "fall_position",
    "fit_velocity",
]

ATOMIC_MASS_KG = 1.66053906660e-27
PLANCK_H = 6.62607015e-34  # J s, SI defining constant


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
    g: float
    y0: float
    y1: float

    def __post_init__(self) -> None:
        for field in fields(self):
            value = getattr(self, field.name)
            if not math.isfinite(value):
                raise DomainError(f"{field.name} must be finite, got {value!r}")
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
        if not 0.0 < self.source_width < math.inf:
            raise DomainError(f"need a positive, finite source width, got {self.source_width!r}")


def de_broglie_wavelength(molecule: Molecule, velocity: float) -> float:
    """Matter wavelength h/(m v) in m for a molecule at forward speed v; a
    momentum m v that is not positive and finite raises DomainError."""
    momentum = molecule.mass * velocity
    if not 0.0 < momentum < math.inf:
        raise DomainError(
            f"momentum m v = {momentum!r} kg m/s at velocity {velocity!r} m/s "
            "must be positive and finite"
        )
    return PLANCK_H / momentum


def _ballistic_coefficient(geometry: BeamlineGeometry) -> float:
    try:
        coefficient = geometry.g * (geometry.L * geometry.L1 - geometry.L**2) / 2.0
    except OverflowError:  # from L**2, where L * L would round to inf
        coefficient = math.inf
    if not math.isfinite(coefficient):
        raise DomainError(
            f"free-fall coefficient g (L L1 - L^2) / 2 overflows at L = {geometry.L!r} m"
        )
    return coefficient


def fall_position(velocity: float, geometry: BeamlineGeometry) -> float:
    """Detector height of a molecule that passed through source and grating.

    Strictly increasing in velocity; approaches the extrapolated
    source-grating line as v -> infinity (equal to y0 for a level beamline).
    Every fall term A / v^2 is computed here: a v * v that rounds to inf
    lands on the line, and a term that is not finite is refused.
    """
    if not (velocity > 0.0 and math.isfinite(velocity)):
        raise DomainError(f"velocity must be positive and finite, got {velocity!r}")
    line = geometry.y0 + (geometry.y1 - geometry.y0) * (geometry.L / geometry.L1)
    square = velocity * velocity
    drop = _ballistic_coefficient(geometry) / square if square else -math.inf
    if not math.isfinite(drop):
        raise DomainError(f"fall term A / v^2 overflows at a velocity of {velocity!r} m/s")
    return line + drop


def fit_velocity(y2: float, geometry: BeamlineGeometry) -> float:
    """Forward speed from the measured fall height y2, the inverse of
    ``fall_position`` on the geometry's source and grating heights y0, y1.

        v = sqrt[ g (L L1 - L^2) / 2 / (y2 - y0 - (y1 - y0) L / L1) ]

    The denominator must be strictly negative (the molecule lands *below* the
    extrapolated source-grating line); anything else is a degenerate geometry.
    Invariant under a common offset of y0, y1, y2.
    """
    if not math.isfinite(y2):
        raise DomainError(f"fall height must be finite, got {y2!r}")
    coefficient = _ballistic_coefficient(geometry)
    y0, y1 = geometry.y0, geometry.y1
    denominator = y2 - y0 - (y1 - y0) * (geometry.L / geometry.L1)
    if denominator >= 0.0:
        raise GeometryError(
            "fall-height denominator must be strictly negative "
            f"(got {denominator!r}); the detection point must lie below the "
            "extrapolated source-grating line"
        )
    return math.sqrt(coefficient / denominator)
