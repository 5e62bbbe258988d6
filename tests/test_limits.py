import math

import pytest

from nanograting import (
    CONSTANTS,
    DomainError,
    LimitsReport,
    adsorption_coverage,
    coherence_check,
    diffraction_momentum_spread,
    grating_momentum_uncertainty,
    limits_report,
    min_coherent_slit,
    momentum_transfer_hk,
    thermal_scroll_amplitude,
)
from nanograting.limits import (
    CENTRAL_LOBE_FRACTION,
    DEFAULT_MOLECULE_FOOTPRINT,
    MIN_SLIT_PREFACTOR,
    NANOTUBE_YOUNGS_MODULUS,
)


def test_prefactor_is_four_times_lobe_fraction():
    # s_min = 3.56 pi sigma arises from requiring dp_grating > 2 dp_diff,
    # i.e. hbar/(2 sigma) > 2 * 0.89 h / s
    assert MIN_SLIT_PREFACTOR == 4.0 * CENTRAL_LOBE_FRACTION


def test_diffraction_momentum_spread_value():
    assert diffraction_momentum_spread(59e-9) == 9.995258361864407e-27


def test_diffraction_momentum_spread_scaling():
    assert diffraction_momentum_spread(25e-9) == pytest.approx(
        2.0 * diffraction_momentum_spread(50e-9), rel=1e-15
    )
    with pytest.raises(DomainError):
        diffraction_momentum_spread(0.0)


def test_grating_momentum_uncertainty_values():
    assert grating_momentum_uncertainty(0.1e-9) == 5.272859088230783e-25
    assert grating_momentum_uncertainty(0.5e-9) == 1.0545718176461564e-25
    for bad in (0.0, -1e-10):
        with pytest.raises(DomainError):
            grating_momentum_uncertainty(bad)


def test_thermal_amplitude_published_example():
    sigma = thermal_scroll_amplitude(1.34e-6, 8e-9, 300.0, 1e12)
    assert sigma == 5.080938386997226e-10
    assert abs(sigma - 0.51e-9) < 0.02e-9


def test_thermal_amplitude_zero_temperature():
    assert thermal_scroll_amplitude(1.34e-6, 8e-9, 0.0) == 0.0
    with pytest.raises(DomainError):
        thermal_scroll_amplitude(1.34e-6, 8e-9, -1.0)


def test_thermal_amplitude_default_modulus():
    assert NANOTUBE_YOUNGS_MODULUS == 1e12
    assert thermal_scroll_amplitude(1.34e-6, 8e-9, 300.0) == thermal_scroll_amplitude(
        1.34e-6, 8e-9, 300.0, 1e12
    )


def test_thermal_amplitude_scalings():
    # sigma ~ L^(3/2), ~ d^-2, ~ sqrt(T)
    base = thermal_scroll_amplitude(1e-6, 8e-9, 300.0)
    assert thermal_scroll_amplitude(4e-6, 8e-9, 300.0) == pytest.approx(8.0 * base, rel=1e-12)
    assert thermal_scroll_amplitude(1e-6, 16e-9, 300.0) == pytest.approx(base / 4.0, rel=1e-12)
    assert thermal_scroll_amplitude(1e-6, 8e-9, 1200.0) == pytest.approx(2.0 * base, rel=1e-12)


def test_min_coherent_slit_published_example():
    s_min = min_coherent_slit(0.5e-9)
    assert s_min == 5.592034923389832e-09
    assert abs(s_min - 5.59e-9) < 0.05e-9


def test_min_coherent_slit_from_thermal_sigma():
    sigma = thermal_scroll_amplitude(1.336e-6, 8e-9, 300.0)
    assert sigma == 5.05820490302688e-10
    assert min_coherent_slit(sigma) == 5.657131693477598e-09


def test_coherence_check_threshold_is_exact():
    sigma = 1e-10
    edge = MIN_SLIT_PREFACTOR * math.pi * sigma
    ok, margin = coherence_check(sigma, edge * (1.0 + 1e-12))
    assert ok and margin > 1.0
    ok, margin = coherence_check(sigma, edge)
    assert not ok  # boundary itself is not strictly coherent
    assert margin == pytest.approx(1.0, rel=1e-12)


def test_coherence_check_margin_value():
    ok, margin = coherence_check(0.1e-9, 59e-9)
    assert ok
    assert margin == 52.75360473270688


def test_momentum_transfer_values():
    assert momentum_transfer_hk(100e-9, 9) == pytest.approx(140.44338, abs=1e-5)
    assert momentum_transfer_hk(50e-9, 16) == pytest.approx(499.35424, abs=1e-5)
    assert momentum_transfer_hk(100e-9, 0) == 0.0
    with pytest.raises(DomainError):
        momentum_transfer_hk(0.0, 9)
    with pytest.raises(DomainError):
        momentum_transfer_hk(100e-9, -1)


def test_momentum_transfer_reference_wavelength_default():
    assert momentum_transfer_hk(100e-9, 9) == 2 * 9 * CONSTANTS.lambda_ref / 100e-9


def test_adsorption_coverage_values():
    per_cm2, fraction = adsorption_coverage(30000.0, 49e-12)
    assert per_cm2 == 61224489795.91838
    assert fraction == 0.0010408163265306124
    assert DEFAULT_MOLECULE_FOOTPRINT == 1.7e-18


def test_adsorption_coverage_validation():
    with pytest.raises(DomainError):
        adsorption_coverage(-1.0, 49e-12)
    with pytest.raises(DomainError):
        adsorption_coverage(100.0, 0.0)
    with pytest.raises(DomainError):
        adsorption_coverage(100.0, 49e-12, footprint=0.0)


def test_limits_report_combines_everything():
    report = limits_report(59e-9, 0.1e-9, period=101e-9, max_order=9)
    assert isinstance(report, LimitsReport)
    assert report.slit_width == 59e-9
    assert report.sigma_thermal == 0.1e-9
    assert report.dp_diff == diffraction_momentum_spread(59e-9)
    assert report.dp_grating == grating_momentum_uncertainty(0.1e-9)
    assert report.s_min == min_coherent_slit(0.1e-9)
    assert report.coherent
    assert report.margin == coherence_check(0.1e-9, 59e-9)[1]
    assert report.momentum_transfer_hk == momentum_transfer_hk(101e-9, 9)


def test_limits_report_zero_sigma_is_fully_coherent():
    report = limits_report(59e-9, 0.0, period=101e-9, max_order=0)
    assert report.coherent
    assert report.margin == math.inf
    assert report.dp_grating == math.inf
    assert report.s_min == 0.0
    assert report.momentum_transfer_hk == 0.0  # order 0 transfers nothing


def test_limits_report_incoherent_when_sigma_large():
    report = limits_report(5e-9, 1e-9, period=101e-9, max_order=9)
    assert not report.coherent
    assert report.margin < 1.0
