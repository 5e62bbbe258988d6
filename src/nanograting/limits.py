"""Coherence-limit calculator: recoil and uncertainty budget of diffraction
at a nanomechanical grating, thermal vibration amplitude of a doubly clamped
beam, the minimum slit width compatible with coherent diffraction, photon
momentum-transfer capacity, and adsorption coverage of a grating used as a
molecule collector.

The interference contrast survives while the grating's own momentum
uncertainty exceeds the transverse momentum spread the diffraction itself
imposes; a bar localized more sharply than that resolves which-way
information and destroys the pattern.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .domain import CONSTANTS
from .errors import DomainError

__all__ = [
    "LimitsReport",
    "adsorption_coverage",
    "coherence_check",
    "diffraction_momentum_spread",
    "grating_momentum_uncertainty",
    "limits_report",
    "min_coherent_slit",
    "momentum_transfer_hk",
    "thermal_scroll_amplitude",
]

# Fraction prefactor of the single-slit FWHM momentum spread, dp = 0.89 h / s.
CENTRAL_LOBE_FRACTION = 0.89

# Minimum coherent slit width prefactor; equals 4 * CENTRAL_LOBE_FRACTION.
MIN_SLIT_PREFACTOR = 3.56

# Young's modulus of a single-wall carbon nanotube, the default stiffness for
# thermal-amplitude estimates of rolled-up carbon structures.
NANOTUBE_YOUNGS_MODULUS = 1.0e12

# Area shaded by one adsorbed phthalocyanine-sized molecule.
DEFAULT_MOLECULE_FOOTPRINT = 1.7e-18


def diffraction_momentum_spread(slit_width: float) -> float:
    """FWHM transverse momentum spread imprinted by a slit of the given
    width: 0.89 h / s (kg m/s)."""
    if slit_width <= 0.0:
        raise DomainError(f"slit width must be positive, got {slit_width!r}")
    return CENTRAL_LOBE_FRACTION * CONSTANTS.h / slit_width


def grating_momentum_uncertainty(position_sigma: float) -> float:
    """Minimum momentum uncertainty of a grating localized to
    ``position_sigma``: hbar / (2 sigma)."""
    if position_sigma <= 0.0:
        raise DomainError(f"position sigma must be positive, got {position_sigma!r}")
    return CONSTANTS.hbar / (2.0 * position_sigma)


def thermal_scroll_amplitude(
    length: float,
    diameter: float,
    temperature: float,
    youngs_modulus: float = NANOTUBE_YOUNGS_MODULUS,
) -> float:
    """RMS thermal displacement of a doubly clamped beam of circular
    cross-section: sqrt(k_B T L^3 / (192 Y I)) with I = pi d^4 / 64."""
    if length <= 0.0 or diameter <= 0.0:
        raise DomainError("beam length and diameter must be positive")
    if youngs_modulus <= 0.0:
        raise DomainError(f"Young's modulus must be positive, got {youngs_modulus!r}")
    if temperature < 0.0:
        raise DomainError(f"temperature must be non-negative, got {temperature!r}")
    if temperature == 0.0:
        return 0.0
    moment = math.pi * diameter**4 / 64.0
    return math.sqrt(
        CONSTANTS.k_B * temperature * length**3 / (192.0 * youngs_modulus * moment)
    )


def min_coherent_slit(position_sigma: float) -> float:
    """Smallest slit width whose diffraction kick still dominates the
    grating's momentum uncertainty at the given positional sigma:
    s_min = 3.56 pi sigma."""
    if position_sigma < 0.0:
        raise DomainError(f"position sigma must be non-negative, got {position_sigma!r}")
    return MIN_SLIT_PREFACTOR * math.pi * position_sigma


def coherence_check(position_sigma: float, slit_width: float) -> tuple[bool, float]:
    """Whether diffraction at the slit stays coherent against which-way
    momentum kicks, and by what margin.

    margin = dp_grating / dp_diff = (s / sigma) / (3.56 pi). The boolean is
    evaluated in the exactly equivalent form s > 3.56 pi sigma.
    """
    if position_sigma <= 0.0:
        raise DomainError(f"position sigma must be positive, got {position_sigma!r}")
    if slit_width <= 0.0:
        raise DomainError(f"slit width must be positive, got {slit_width!r}")
    coherent = slit_width > MIN_SLIT_PREFACTOR * math.pi * position_sigma
    margin = (slit_width / position_sigma) / (MIN_SLIT_PREFACTOR * math.pi)
    return coherent, margin


def momentum_transfer_hk(period: float, max_order: int) -> float:
    """Transverse momentum splitting between the +n_max and -n_max
    diffraction arms, in units of the photon recoil h / lambda_ref of the
    780.241 nm reference line (``CONSTANTS.lambda_ref``): 2 n_max lambda_ref / d."""
    if period <= 0.0:
        raise DomainError(f"period must be positive, got {period!r}")
    if max_order < 0:
        raise DomainError(f"max order must be non-negative, got {max_order!r}")
    return 2.0 * max_order * CONSTANTS.lambda_ref / period


def adsorption_coverage(
    molecule_count: float,
    open_area: float,
    footprint: float = DEFAULT_MOLECULE_FOOTPRINT,
) -> tuple[float, float]:
    """Coverage of a grating used as a molecule collector.

    Returns (areal density per cm^2, fraction of the surface covered) for
    ``molecule_count`` molecules adsorbed over ``open_area`` (m^2), each
    shading ``footprint`` (m^2).
    """
    if molecule_count < 0.0:
        raise DomainError(f"molecule count must be non-negative, got {molecule_count!r}")
    if open_area <= 0.0 or footprint <= 0.0:
        raise DomainError("area and footprint must be positive")
    density_m2 = molecule_count / open_area
    return density_m2 * 1e-4, density_m2 * footprint


@dataclass(frozen=True)
class LimitsReport:
    """Coherence bookkeeping for one slit width at one localization sigma,
    with the momentum transfer of the grating period's maximum order."""

    slit_width: float
    sigma_thermal: float
    dp_diff: float                  # kg m/s
    dp_grating: float               # kg m/s
    s_min: float                    # m
    coherent: bool
    margin: float
    momentum_transfer_hk: float


def limits_report(
    slit_width: float,
    position_sigma: float,
    *,
    period: float,
    max_order: int,
) -> LimitsReport:
    """Assemble the full coherence-limit report for one slit/sigma pair.

    ``position_sigma`` may come from a measurement or from
    ``thermal_scroll_amplitude``; ``period`` and ``max_order`` set the
    momentum-transfer entry. A perfectly localized-in-momentum grating
    (sigma = 0, e.g. at zero temperature) is reported as coherent with
    infinite margin and an infinite momentum uncertainty.
    """
    if position_sigma == 0.0:
        coherent, margin = True, math.inf
        dp_grating = math.inf
    else:
        coherent, margin = coherence_check(position_sigma, slit_width)
        dp_grating = grating_momentum_uncertainty(position_sigma)
    return LimitsReport(
        slit_width=slit_width,
        sigma_thermal=position_sigma,
        dp_diff=diffraction_momentum_spread(slit_width),
        dp_grating=dp_grating,
        s_min=min_coherent_slit(position_sigma),
        coherent=coherent,
        margin=margin,
        momentum_transfer_hk=momentum_transfer_hk(period, max_order),
    )
