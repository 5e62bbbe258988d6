"""Acceptance suite: ten end-to-end criteria, one PASS/FAIL line each.

Each test exercises a full pipeline at its stated tolerance; the conftest
reporting hook prints "PASS [n/10] ..." or "FAIL [n/10] ..." per criterion
in the terminal log.
"""

import math
import time

import numpy as np

from nanograting import (
    BeamlineGeometry,
    DetectorGrid,
    Trace,
    Grating,
    ImageGrid,
    Molecule,
    SourceModel,
    VelocityDistribution,
    adsorption_coverage,
    band_averaged_trace,
    bar_mass,
    de_broglie_wavelength,
    fall_position,
    fit_effective_slit,
    fit_velocity,
    hot_color,
    kirchhoff_pattern,
    order_population,
    stripe_velocity_profile,
    synthesize_image,
)
from nanograting.config import load_run_config
from nanograting.imaging import _hot_rgb
from nanograting.limits import limits_report, thermal_scroll_amplitude
from nanograting.presets import grating_preset

from far_field_oracle import fraunhofer_multislit

GEOMETRY = BeamlineGeometry(L1=1.554, L2=0.586, g=9.81)
SOURCE = SourceModel(source_width=1.5e-6)
PCH2 = load_run_config().molecule()
PRESET_NAMES = ("sinx", "biphenyl", "bilayer", "slg", "scroll")


def criterion(index: int, description: str):
    """Tag a test so the conftest hook prints its PASS/FAIL summary line."""

    def wrap(fn):
        fn._criterion = (index, 10, description)
        return fn

    return wrap


@criterion(1, "Kirchhoff engine matches the closed-form multi-slit pattern (<1% RMS)")
def test_criterion_01_closed_form_equivalence():
    wavelength = 3.5e-12
    period = 100e-9
    grid = DetectorGrid.symmetric(160e-6, 0.4e-6)
    for s_eff in (20e-9, 35e-9, 50e-9):
        grating = Grating(
            period=period,
            slit_width=50e-9,
            effective_slit_width=s_eff,
        )
        start = time.perf_counter()
        simulated = kirchhoff_pattern(
            grating, 2.0 * math.pi / wavelength, GEOMETRY.L2, 10, grid
        )
        elapsed = time.perf_counter() - start
        reference = fraunhofer_multislit(
            grid.positions, wavelength, period, s_eff, 10, GEOMETRY.L2
        )
        a = simulated.intensities / simulated.intensities.max()
        b = reference / reference.max()
        rms = float(np.sqrt(np.mean((a - b) ** 2)))
        assert rms < 0.01, (s_eff, rms)
        assert elapsed < 10.0, (s_eff, elapsed)


@criterion(2, "Located diffraction orders sit on the grating equation (<= half pixel)")
def test_criterion_02_peak_position_law():
    pitch = 0.5e-6
    grid = DetectorGrid.symmetric(130e-6, pitch)
    band = VelocityDistribution.uniform_band(220.0, 0.0, 1)
    wavelength = de_broglie_wavelength(PCH2, 220.0)
    for name in PRESET_NAMES:
        grating = grating_preset(name)
        trace = band_averaged_trace(grating, PCH2, band, SOURCE, GEOMETRY, grid)
        orders = order_population(
            trace, grating.period, wavelength, GEOMETRY.L2, n_max=5
        )
        for o in orders:
            if not o.found:
                continue
            expected = GEOMETRY.L2 * math.tan(
                math.asin(o.n * wavelength / grating.period)
            )
            assert abs(o.peak_position - expected) <= pitch / 2.0, (name, o.n)


@criterion(3, "Order counts: fine grating rich (>=9), coarse grating sparse (<3 beyond n=2)")
def test_criterion_03_order_count_regression():
    grid = DetectorGrid.symmetric(230e-6, 0.5e-6)
    band = VelocityDistribution.uniform_band(220.0, 10.0, 21)
    wavelength = de_broglie_wavelength(PCH2, 220.0)
    threshold = 0.005  # of the principal peak, on order-normalized heights

    def populated(name):
        grating = grating_preset(name)
        trace = band_averaged_trace(grating, PCH2, band, SOURCE, GEOMETRY, grid)
        orders = order_population(
            trace, grating.period, wavelength, GEOMETRY.L2, n_max=9
        )
        return [o for o in orders if o.found and o.height >= threshold]

    rich = populated("sinx")
    assert len(rich) >= 9, [o.n for o in rich]

    sparse = [o for o in populated("scroll") if o.n > 2]
    assert len(sparse) < 3, [o.n for o in sparse]


@criterion(4, "Effective-width fits recover noisy targets within 1 nm; ratios within 0.1")
def test_criterion_04_slit_fit_closure():
    grid = DetectorGrid.symmetric(140e-6, 1e-6)
    band = VelocityDistribution.uniform_band(220.0, 10.0, 5)
    quoted_ratios = {
        "sinx": 3.3,
        "biphenyl": 1.9,
        "bilayer": 2.2,
        "slg": 1.7,
        "scroll": 1.3,
    }
    for name in PRESET_NAMES:
        grating = grating_preset(name)
        target = grating.effective_slit_width
        clean = band_averaged_trace(grating, PCH2, band, SOURCE, GEOMETRY, grid)
        rng = np.random.default_rng(20260816)
        noisy = Trace(
            clean.positions,
            np.clip(
                clean.intensities
                * (1.0 + 0.01 * rng.standard_normal(len(clean))),
                0.0,
                None,
            ),
        )
        result = fit_effective_slit(
            noisy, grating, PCH2, band, GEOMETRY, SOURCE
        )
        assert abs(result.effective_slit_width - target) <= 1e-9, (
            name, result.effective_slit_width, target,
        )
        assert abs(result.suppression_ratio - quoted_ratios[name]) <= 0.1, (
            name, result.suppression_ratio,
        )


@criterion(5, "Thermal vibration 0.51+-0.02 nm and minimal coherent slit 5.59+-0.05 nm")
def test_criterion_05_vibration_limits():
    sigma = thermal_scroll_amplitude(
        length=1.34e-6, diameter=8e-9, temperature=300.0, youngs_modulus=1e12
    )
    assert abs(sigma - 0.51e-9) <= 0.02e-9, sigma
    assert round(sigma * 1e9, 1) == 0.5

    # the quoted minimal width follows from the half-nanometer amplitude
    s_min = limits_report(50e-9, 0.5e-9, period=105e-9, max_order=9).s_min
    assert abs(s_min - 5.59e-9) <= 0.05e-9, s_min
    assert round(s_min * 1e9, 1) == 5.6


@criterion(6, "Ninth-order momentum transfer 140.4 photon recoils (+-1 of 141)")
def test_criterion_06_momentum_transfer():
    value = limits_report(50e-9, 0.5e-9, period=100e-9, max_order=9).momentum_transfer_hk
    assert value == 2 * 9 * 780.241e-9 / 100e-9
    assert abs(value - 141.0) <= 1.0, value


@criterion(7, "Velocity inversion to 0.01%; stripe profile slows with depth")
def test_criterion_07_velocity_fit_closure():
    for v in (145.0, 220.0, 263.0):
        y2 = fall_position(v, GEOMETRY)
        recovered = fit_velocity(y2, GEOMETRY)
        assert abs(recovered - v) / v <= 1e-4, (v, recovered)

    slg = grating_preset("slg")
    beam = VelocityDistribution.maxwell_beam(180.0)
    grid = ImageGrid(-230e-6, 230e-6, -330e-6, -75e-6, 0.5e-6, 2.5e-6)
    result = synthesize_image(beam, slg, SOURCE, GEOMETRY, grid, PCH2)
    profile = stripe_velocity_profile(
        result.image, GEOMETRY, slg.period, PCH2, n_stripes=20
    )
    assert not profile.underdetermined
    assert len(profile.stripes) >= 10
    velocities = [s.velocity for s in profile.stripes]
    # stripes are ordered bottom-up: deeper means slower
    assert all(a < b for a, b in zip(velocities, velocities[1:])), velocities
    assert profile.rms_relative < 0.02, profile.rms_relative


@criterion(8, "Bar masses and molecule mass within 5% of the quoted values")
def test_criterion_08_mass_regression():
    quoted = {
        "slg": 7.7e-21,
        "bilayer": 6.2e-20,
        "scroll": 6.5e-20,
        "sinx": 7.5e-18,
        "biphenyl": 4.4e-20,
    }
    for name, expected in quoted.items():
        computed = bar_mass(name)
        assert abs(computed - expected) / expected <= 0.05, (name, computed)
    assert abs(PCH2.mass - 8.5e-25) / 8.5e-25 <= 0.05


# Reference hot-colormap rows, transcribed independently of the package table:
# 100 signals 0.00..0.99 -> (r, g, b) in [0, 1].
def _reference_hot_rows():
    rows = []
    for i in range(15):  # red ramp
        rows.append((round(0.01 * i, 2), (round(i / 14.0, 5), 0.0, 0.0)))
    green_a = [
        0.02173, 0.04346, 0.06519, 0.08691, 0.10864, 0.13037, 0.1521,
        0.17383, 0.19556, 0.21728, 0.23901, 0.26074, 0.28247, 0.3042,
        0.32593, 0.34765, 0.36938, 0.39111, 0.41284, 0.43457, 0.4563,
        0.47802, 0.49975, 0.52148, 0.54321, 0.56494, 0.58667, 0.6084,
        0.63012, 0.65185, 0.67358, 0.69531, 0.71704, 0.73877, 0.76049,
        0.78222, 0.80395, 0.82568, 0.84741, 0.86914, 0.89086, 0.91259,
        0.93432, 0.95605, 0.97778,
    ]
    for i, g in enumerate(green_a):  # green ramp, blue still off
        rows.append((round(0.15 + 0.01 * i, 2), (1.0, g, 0.0)))
    green_b = [
        0.97833, 0.97889, 0.97944, 0.98, 0.98056, 0.98111, 0.98167,
        0.98222, 0.98278, 0.98333, 0.98389, 0.98444, 0.985, 0.98556,
        0.98611, 0.98667, 0.98722, 0.98778, 0.98833, 0.98889, 0.98944,
        0.99, 0.99056, 0.99111, 0.99167, 0.99222, 0.99278, 0.99333,
        0.99389, 0.99444, 0.995, 0.99556, 0.99611, 0.99667, 0.99722,
        0.99778, 0.99833, 0.99889, 0.99944, 1.0,
    ]
    blue = [
        0.025, 0.05, 0.075, 0.1, 0.125, 0.15, 0.175, 0.2, 0.225, 0.25,
        0.275, 0.3, 0.325, 0.35, 0.375, 0.4, 0.425, 0.45, 0.475, 0.5,
        0.525, 0.55, 0.575, 0.6, 0.625, 0.65, 0.675, 0.7, 0.725, 0.75,
        0.775, 0.8, 0.825, 0.85, 0.875, 0.9, 0.925, 0.95, 0.975, 1.0,
    ]
    for i, (g, b) in enumerate(zip(green_b, blue)):  # blue in, green saturating
        rows.append((round(0.60 + 0.01 * i, 2), (1.0, g, b)))
    assert len(rows) == 100
    return rows


@criterion(9, "All 100 colormap rows bit-exact at 8-bit quantization; monotone channels")
def test_criterion_09_colormap_exactness():
    for signal, rgb in _reference_hot_rows():
        expected = np.rint(255.0 * np.asarray(rgb)).astype(np.uint8)
        actual = np.rint(255.0 * np.asarray(hot_color(signal))).astype(np.uint8)
        assert np.array_equal(actual, expected), (signal, actual, expected)

    rng = np.random.default_rng(20260816)
    values = np.sort(rng.uniform(0.0, 1.0, 10_000))
    channels = _hot_rgb(values)
    assert np.all(np.diff(channels, axis=0) >= -1e-12)


@criterion(10, "Adsorbed coverage 6.1e10 per cm^2 and ~0.1% of the open area")
def test_criterion_10_adsorption():
    per_cm2, fraction = adsorption_coverage(30_000.0, 49e-12, 1.7e-18)
    assert abs(per_cm2 - 6.1e10) <= 0.05e10, per_cm2
    assert 0.0009 <= fraction <= 0.0012, fraction
