"""Coherence-limit calculator: recoil and uncertainty budget of diffraction
at a nanomechanical grating, thermal vibration amplitude of a doubly clamped
beam, the minimum slit width compatible with coherent diffraction, photon
momentum-transfer capacity in recoils of the 780.241 nm line ``LAMBDA_REF``,
and adsorption coverage of a grating used as a molecule collector.

The interference contrast survives while the grating's own momentum
uncertainty exceeds the transverse momentum spread the diffraction itself
imposes; a bar localized more sharply than that resolves which-way
information and destroys the pattern.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .domain import PLANCK_H
from .errors import DomainError

__all__ = ["LimitsReport", "adsorption_coverage", "limits_report", "thermal_scroll_amplitude"]

BOLTZMANN_K = 1.380649e-23  # J / K, SI defining constant
LAMBDA_REF = 780.241e-9  # m, rubidium D2 line: the photon recoils of momentum_transfer_hk
MAX_ORDER = 9  # the diffraction order whose momentum transfer momentum_transfer_hk reports

# Fraction prefactor of the single-slit FWHM momentum spread, dp = 0.89 h / s.
CENTRAL_LOBE_FRACTION = 0.89

# Minimum coherent slit width prefactor.
MIN_SLIT_PREFACTOR = 4.0 * CENTRAL_LOBE_FRACTION


def thermal_scroll_amplitude(
    length: float,
    diameter: float,
    temperature: float,
    youngs_modulus: float,
) -> float:
    """RMS thermal displacement of a doubly clamped beam of circular
    cross-section: sqrt(k_B T L^3 / (192 Y I)) with I = pi d^4 / 64.
    An amplitude that is not finite raises DomainError, which names the
    modulus and diameter when 192 Y I underflows, else the length and diameter."""
    if length <= 0.0 or diameter <= 0.0:
        raise DomainError("beam length and diameter must be positive")
    if not 0.0 < youngs_modulus < math.inf:
        raise DomainError(f"Young's modulus must be positive and finite, got {youngs_modulus!r}")
    if not 0.0 <= temperature < math.inf:
        raise DomainError(f"temperature must be non-negative and finite, got {temperature!r}")
    try:
        moment = math.pi * diameter**4 / 64.0
        amplitude = math.sqrt(
            BOLTZMANN_K * temperature * length**3 / (192.0 * youngs_modulus * moment)
        )
    except OverflowError:
        amplitude = math.inf
    except ZeroDivisionError:  # 192 Y I underflows to 0
        raise DomainError(f"Young's modulus {youngs_modulus!r} Pa and diameter {diameter!r} m "
                          "give a thermal amplitude that is not finite") from None
    if not math.isfinite(amplitude):
        raise DomainError(f"beam length {length!r} m and diameter {diameter!r} m "
                          "give a thermal amplitude that is not finite")
    return amplitude


def adsorption_coverage(
    molecule_count: float,
    open_area: float,
    footprint: float,
) -> tuple[float, float]:
    """Coverage of a grating used as a molecule collector.

    Returns (areal density per cm^2, fraction of the surface covered) for
    ``molecule_count`` molecules adsorbed over ``open_area`` (m^2), each
    shading ``footprint`` (m^2).
    """
    if not 0.0 <= molecule_count < math.inf:
        raise DomainError(f"molecule count must be non-negative and finite, got {molecule_count!r}")
    if not (0.0 < open_area < math.inf and 0.0 < footprint < math.inf):
        raise DomainError("area and footprint must be positive and finite")
    density_m2 = molecule_count / open_area
    return density_m2 * 1e-4, density_m2 * footprint


@dataclass(frozen=True)
class LimitsReport:
    """Coherence bookkeeping for one slit width at one localization sigma,
    with the momentum transfer of order ``MAX_ORDER`` at the grating period."""

    dp_diff: float                  # kg m/s
    dp_grating: float               # kg m/s
    s_min: float                    # m
    coherent: bool
    margin: float
    momentum_transfer_hk: float


def limits_report(slit_width: float, position_sigma: float, *, period: float) -> LimitsReport:
    """The coherence budget of slits of width s on a grating whose bars are
    localized to sigma = ``position_sigma`` (measured, or from
    ``thermal_scroll_amplitude``), with the momentum transfer of diffraction
    order n = ``MAX_ORDER`` at the grating ``period`` d:

    - dp_diff = 0.89 h / s, the FWHM transverse momentum spread that the
      slit imprints (``CENTRAL_LOBE_FRACTION`` of the single-slit lobe);
    - dp_grating = hbar / (2 sigma), the least momentum uncertainty of a
      grating localized to sigma;
    - s_min = 4 x 0.89 pi sigma, the narrowest slit for which dp_grating
      still exceeds dp_diff (4 x 0.89 is ``MIN_SLIT_PREFACTOR``);
    - margin = dp_grating / dp_diff = (s / sigma) / (4 x 0.89 pi), and
      ``coherent`` is s > s_min, the exactly equivalent form (the boundary
      itself is not coherent);
    - momentum_transfer_hk = 2 n lambda_ref / d, the momentum splitting
      between the +n and -n arms in photon recoils h / lambda_ref of the
      780.241 nm reference line (``LAMBDA_REF``).

    Refusals, each a DomainError: s or d not finite and positive; sigma not
    finite and positive, or so small that the margin overflows; d so small
    (subnormal) that the momentum transfer is not finite.
    """
    if not 0.0 < slit_width < math.inf:
        raise DomainError(f"slit width must be positive and finite, got {slit_width!r}")
    if not (math.isfinite(position_sigma) and position_sigma > 0.0):
        raise DomainError(f"position sigma must be positive and finite, got {position_sigma!r}")
    if not 0.0 < period < math.inf:
        raise DomainError(f"period must be positive and finite, got {period!r}")
    s_min = MIN_SLIT_PREFACTOR * math.pi * position_sigma
    margin = (slit_width / position_sigma) / (MIN_SLIT_PREFACTOR * math.pi)
    if not math.isfinite(margin):
        raise DomainError(f"position sigma {position_sigma!r} m is too small: the margin overflows")
    transfer = 2.0 * MAX_ORDER * LAMBDA_REF / period
    if not math.isfinite(transfer):
        raise DomainError(f"order {MAX_ORDER} at period {period!r} m gives a "
                          "momentum transfer that is not finite")
    return LimitsReport(
        dp_diff=CENTRAL_LOBE_FRACTION * PLANCK_H / slit_width,
        dp_grating=PLANCK_H / (2.0 * math.pi) / (2.0 * position_sigma),
        s_min=s_min,
        coherent=slit_width > s_min,
        margin=margin,
        momentum_transfer_hk=transfer,
    )
