import math

import pytest

from nanograting import (
    CONSTANTS,
    DomainError,
    LimitsReport,
    adsorption_coverage,
    limits_report,
    thermal_scroll_amplitude,
)
from nanograting.limits import CENTRAL_LOBE_FRACTION, MIN_SLIT_PREFACTOR

from configured import CONFIG

MODULUS = CONFIG.require("limits.youngs_modulus_GPa")
FOOTPRINT = CONFIG.require("limits.footprint_nm2")


def _report(slit_width=59e-9, sigma=0.1e-9, period=101e-9, max_order=9):
    return limits_report(slit_width, sigma, period=period, max_order=max_order)


def test_prefactor_is_four_times_lobe_fraction():
    # s_min = 3.56 pi sigma arises from requiring dp_grating > dp_diff,
    # i.e. hbar/(2 sigma) = h/(4 pi sigma) > 0.89 h / s
    assert MIN_SLIT_PREFACTOR == 4.0 * CENTRAL_LOBE_FRACTION


def test_diffraction_momentum_spread_value():
    assert _report(slit_width=59e-9).dp_diff == 9.995258361864407e-27


def test_diffraction_momentum_spread_scaling():
    assert _report(slit_width=25e-9).dp_diff == pytest.approx(
        2.0 * _report(slit_width=50e-9).dp_diff, rel=1e-15
    )
    for bad in (0.0, math.inf):
        with pytest.raises(DomainError, match="slit width must be positive"):
            _report(slit_width=bad)


def test_grating_momentum_uncertainty_values():
    assert _report(sigma=0.1e-9).dp_grating == 5.272859088230783e-25
    assert _report(sigma=0.5e-9).dp_grating == 1.0545718176461564e-25
    for bad in (0.0, -1e-10):
        with pytest.raises(DomainError, match="position sigma must be positive"):
            _report(sigma=bad)


def test_thermal_amplitude_published_example():
    sigma = thermal_scroll_amplitude(1.34e-6, 8e-9, 300.0, 1e12)
    assert sigma == 5.080938386997226e-10
    assert abs(sigma - 0.51e-9) < 0.02e-9


def test_thermal_amplitude_zero_temperature():
    # the formula itself gives 0 at T = 0; limits_report refuses that sigma
    assert thermal_scroll_amplitude(1.34e-6, 8e-9, 0.0, MODULUS) == 0.0
    for bad in (-1.0, math.nan, math.inf):
        with pytest.raises(DomainError, match="^temperature must be"):
            thermal_scroll_amplitude(1.34e-6, 8e-9, bad, MODULUS)


def test_thermal_amplitude_refuses_a_modulus_that_is_not_positive_and_finite():
    # an infinite modulus would give 0, and a NaN one a NaN blamed on the beam size
    for bad in (0.0, math.nan, math.inf):
        with pytest.raises(DomainError, match="^Young's modulus must be"):
            thermal_scroll_amplitude(1.34e-6, 8e-9, 300.0, bad)


@pytest.mark.parametrize("length, diameter", [
    (1e291, 55e-9),   # L^3 overflows
    (956e-9, 1e-309),  # d^4 underflows to a zero moment
    (956e-9, 1e291),  # d^4 overflows
])
def test_thermal_amplitude_refuses_a_result_that_is_not_finite(length, diameter):
    with pytest.raises(DomainError, match="thermal amplitude that is not finite"):
        thermal_scroll_amplitude(length, diameter, 300.0, MODULUS)


def test_thermal_amplitude_default_modulus():
    # the configured modulus gives the published example
    assert thermal_scroll_amplitude(1.34e-6, 8e-9, 300.0, MODULUS) == thermal_scroll_amplitude(
        1.34e-6, 8e-9, 300.0, 1e12
    )


def test_thermal_amplitude_scalings():
    # sigma ~ L^(3/2), ~ d^-2, ~ sqrt(T)
    def amplitude(length, diameter, temperature):
        return thermal_scroll_amplitude(length, diameter, temperature, MODULUS)

    base = amplitude(1e-6, 8e-9, 300.0)
    assert amplitude(4e-6, 8e-9, 300.0) == pytest.approx(8.0 * base, rel=1e-12)
    assert amplitude(1e-6, 16e-9, 300.0) == pytest.approx(base / 4.0, rel=1e-12)
    assert amplitude(1e-6, 8e-9, 1200.0) == pytest.approx(2.0 * base, rel=1e-12)


def test_min_coherent_slit_published_example():
    s_min = _report(sigma=0.5e-9).s_min
    assert s_min == 5.592034923389832e-09
    assert abs(s_min - 5.59e-9) < 0.05e-9


def test_min_coherent_slit_from_thermal_sigma():
    sigma = thermal_scroll_amplitude(1.336e-6, 8e-9, 300.0, MODULUS)
    assert sigma == 5.05820490302688e-10
    assert _report(sigma=sigma).s_min == 5.657131693477598e-09


def test_coherence_check_threshold_is_exact():
    sigma = 1e-10
    edge = MIN_SLIT_PREFACTOR * math.pi * sigma
    report = _report(slit_width=edge * (1.0 + 1e-12), sigma=sigma)
    assert report.coherent and report.margin > 1.0
    report = _report(slit_width=edge, sigma=sigma)
    assert not report.coherent  # boundary itself is not strictly coherent
    assert report.margin == pytest.approx(1.0, rel=1e-12)


def test_coherence_check_margin_value():
    report = _report(slit_width=59e-9, sigma=0.1e-9)
    assert report.coherent
    assert report.margin == 52.75360473270688


def test_momentum_transfer_values():
    assert _report(period=100e-9, max_order=9).momentum_transfer_hk == pytest.approx(
        140.44338, abs=1e-5
    )
    assert _report(period=50e-9, max_order=16).momentum_transfer_hk == pytest.approx(
        499.35424, abs=1e-5
    )
    assert _report(period=100e-9, max_order=0).momentum_transfer_hk == 0.0
    for bad in (0.0, math.inf):
        with pytest.raises(DomainError, match="period must be positive"):
            _report(period=bad)
    with pytest.raises(DomainError, match="max order must be non-negative"):
        _report(max_order=-1)
    # a transfer that overflows, and an int past the float range
    for max_order in (10**308, 10**400):
        with pytest.raises(DomainError, match="momentum transfer that is not finite"):
            _report(max_order=max_order)


def test_momentum_transfer_reference_wavelength_default():
    assert (
        _report(period=100e-9, max_order=9).momentum_transfer_hk
        == 2 * 9 * CONSTANTS.lambda_ref / 100e-9
    )


def test_adsorption_coverage_values():
    per_cm2, fraction = adsorption_coverage(30000.0, 49e-12, FOOTPRINT)
    assert per_cm2 == 61224489795.91838
    assert fraction == 0.0010408163265306124


def test_adsorption_coverage_validation():
    with pytest.raises(DomainError):
        adsorption_coverage(-1.0, 49e-12, FOOTPRINT)
    with pytest.raises(DomainError):
        adsorption_coverage(100.0, 0.0, FOOTPRINT)
    with pytest.raises(DomainError):
        adsorption_coverage(100.0, 49e-12, footprint=0.0)


def test_limits_report_combines_everything():
    report = limits_report(59e-9, 0.1e-9, period=101e-9, max_order=9)
    assert isinstance(report, LimitsReport)
    assert report.dp_diff == CENTRAL_LOBE_FRACTION * CONSTANTS.h / 59e-9
    assert report.dp_grating == CONSTANTS.hbar / (2.0 * 0.1e-9)
    assert report.s_min == MIN_SLIT_PREFACTOR * math.pi * 0.1e-9
    assert report.coherent
    assert report.margin == (59e-9 / 0.1e-9) / (MIN_SLIT_PREFACTOR * math.pi)
    # margin = dp_grating / dp_diff
    assert report.margin == pytest.approx(report.dp_grating / report.dp_diff, rel=1e-14)
    assert report.momentum_transfer_hk == 2.0 * 9 * CONSTANTS.lambda_ref / 101e-9


@pytest.mark.parametrize("sigma", [0.0, -0.0, math.inf, math.nan])
def test_limits_report_refuses_a_sigma_that_is_not_finite_and_positive(sigma):
    with pytest.raises(DomainError, match="position sigma must be positive and finite"):
        limits_report(59e-9, sigma, period=101e-9, max_order=0)


def test_limits_report_refuses_a_sigma_whose_margin_overflows():
    # a subnormal sigma: hbar / (2 sigma) is finite, s / sigma is not
    with pytest.raises(DomainError, match="margin overflows"):
        limits_report(15e-9, 1e-323, period=105e-9, max_order=9)


def test_limits_report_incoherent_when_sigma_large():
    report = limits_report(5e-9, 1e-9, period=101e-9, max_order=9)
    assert not report.coherent
    assert report.margin < 1.0
