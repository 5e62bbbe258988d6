"""Tests for band-averaged traces, order population, and the slit-width fit."""

import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from nanograting import (
    BeamlineGeometry,
    DetectorGrid,
    DomainError,
    FitError,
    Molecule,
    ResolutionError,
    SourceModel,
    Trace,
    VelocityDistribution,
    band_averaged_trace,
    fit_effective_slit,
    order_population,
    suppression_ratio,
)
from nanograting.config import load_run_config
from nanograting.diffraction import coherence, kirchhoff_pattern, wave_number
from nanograting.domain import de_broglie_wavelength
from nanograting.errors import WorkBudgetError
from nanograting.presets import grating_preset
from nanograting import gravity, vdwfit

GEOMETRY = BeamlineGeometry.from_segments(L1=1.554, L2=0.586, g=9.81)
PCH2 = Molecule(name="pch2", mass=8.5e-25)
SOURCE = SourceModel(source_width=1.5e-6)
SINX = grating_preset("sinx")


def _no_terms(*args, **kwargs):
    raise AssertionError("class terms built")


class TestSuppressionRatio:
    def test_trivial_value(self):
        assert suppression_ratio(100e-9, 50e-9) == 2.0

    def test_validation(self):
        with pytest.raises(DomainError):
            suppression_ratio(100e-9, 0.0)
        with pytest.raises(DomainError):
            suppression_ratio(100e-9, -5e-9)
        with pytest.raises(DomainError):
            suppression_ratio(100e-9, 101e-9)


class TestBandAveragedTrace:
    GRID = DetectorGrid.symmetric(50e-6, 1e-6)

    def test_raw_trace_has_unit_pixel_sum(self):
        band = VelocityDistribution.uniform_band(220.0, 10.0, 3)
        trace = band_averaged_trace(
            SINX, PCH2, band, SOURCE, GEOMETRY, self.GRID, convolve=False
        )
        assert trace.intensities.sum() == pytest.approx(1.0, rel=1e-12)

    def test_convolution_preserves_pixel_sum(self):
        band = VelocityDistribution.uniform_band(220.0, 10.0, 3)
        trace = band_averaged_trace(
            SINX, PCH2, band, SOURCE, GEOMETRY, self.GRID, convolve=True
        )
        assert trace.intensities.sum() == pytest.approx(1.0, rel=1e-12)

    def test_single_class_band_matches_direct_pattern(self):
        band = VelocityDistribution.uniform_band(220.0, 0.0, 1)
        trace = band_averaged_trace(
            SINX, PCH2, band, SOURCE, GEOMETRY, self.GRID, convolve=False
        )
        wavelength = de_broglie_wavelength(PCH2, 220.0)
        k = wave_number(PCH2, 220.0)
        coh = coherence(SOURCE, GEOMETRY, wavelength, SINX.period, 1.5)
        direct = kirchhoff_pattern(SINX, k, GEOMETRY.L2, coh.n_coherent_slits, self.GRID)
        expected = direct.intensities / direct.intensities.sum()
        np.testing.assert_allclose(trace.intensities, expected, rtol=1e-12)

    def test_zero_weight_classes_are_skipped(self):
        one = VelocityDistribution("discrete", [220.0], [1.0])
        padded = VelocityDistribution("discrete", [180.0, 220.0], [0.0, 1.0])
        a = band_averaged_trace(SINX, PCH2, one, SOURCE, GEOMETRY, self.GRID, convolve=False)
        b = band_averaged_trace(SINX, PCH2, padded, SOURCE, GEOMETRY, self.GRID, convolve=False)
        np.testing.assert_allclose(a.intensities, b.intensities, rtol=1e-15)


def _single_velocity_trace(grating, half_span=70e-6, pitch=0.5e-6):
    grid = DetectorGrid.symmetric(half_span, pitch)
    band = VelocityDistribution.uniform_band(220.0, 0.0, 1)
    return band_averaged_trace(grating, PCH2, band, SOURCE, GEOMETRY, grid)


class TestOrderPopulation:
    WAVELENGTH = de_broglie_wavelength(PCH2, 220.0)

    def test_low_orders_found_at_grating_equation_positions(self):
        trace = _single_velocity_trace(SINX)
        orders = order_population(trace, SINX.period, self.WAVELENGTH, GEOMETRY.L2, n_max=3)
        assert [o.n for o in orders] == [0, 1, 2, 3]
        assert orders[0].height == 1.0 and orders[0].found
        for o in orders[1:]:
            assert o.found
            assert abs(o.peak_position - o.nominal_position) < 1e-6
        assert orders[1].peak_position == pytest.approx(1.977528449254354e-05, rel=0.005)
        # narrow effective slit: envelope decays slowly, heights fall monotonically
        heights = [o.height for o in orders]
        assert heights == sorted(heights, reverse=True)

    def test_half_period_effective_slit_suppresses_even_orders(self):
        base = grating_preset("slg")
        grating = replace(base, effective_slit_width=base.period / 2.0)
        trace = _single_velocity_trace(grating)
        orders = order_population(trace, base.period, self.WAVELENGTH, GEOMETRY.L2, n_max=3)
        assert orders[1].found and orders[1].height > 0.05
        assert orders[3].found and orders[3].height > 0.01
        # order 2 sits on an envelope zero
        assert orders[2].height < 0.01

    def test_evanescent_orders_reported_with_nan_positions(self):
        grid = DetectorGrid.symmetric(50e-6, 1e-6)
        x = grid.positions
        trace = Trace(x, np.exp(-0.5 * (x / 2e-6) ** 2))
        orders = order_population(trace, 100e-9, 30e-9, GEOMETRY.L2, n_max=5)
        assert len(orders) == 6
        for o in orders[4:]:
            assert math.isnan(o.nominal_position)
            assert o.height == 0.0 and not o.found
        # propagating orders beyond the grid edge are simply not found
        for o in orders[1:4]:
            assert math.isfinite(o.nominal_position)
            assert not o.found

    def test_no_signal_at_zeroth_order_raises(self):
        grid = DetectorGrid.symmetric(50e-6, 0.5e-6)
        x = grid.positions
        values = np.exp(-0.5 * ((x - 15e-6) / 1e-6) ** 2)
        values[np.abs(x) < 5e-6] = 0.0
        with pytest.raises(FitError):
            order_population(Trace(x, values), SINX.period, self.WAVELENGTH, GEOMETRY.L2, n_max=1)

    def test_negative_n_max_rejected(self):
        trace = _single_velocity_trace(SINX, half_span=30e-6, pitch=1e-6)
        with pytest.raises(DomainError):
            order_population(trace, SINX.period, self.WAVELENGTH, GEOMETRY.L2, n_max=-1)


class TestFitEffectiveSlit:
    GRID = DetectorGrid.symmetric(40e-6, 0.5e-6)
    BAND = VelocityDistribution.uniform_band(220.0, 10.0, 3)

    def test_noise_free_closure(self):
        target = replace(SINX, effective_slit_width=20e-9)
        measured = band_averaged_trace(
            target, PCH2, self.BAND, SOURCE, GEOMETRY, self.GRID
        )
        result = fit_effective_slit(
            measured, SINX, PCH2, self.BAND, GEOMETRY, SOURCE,
            coarse_step=2e-9, tolerance=1e-10,
        )
        assert result.effective_slit_width == pytest.approx(20e-9, abs=2e-10)
        assert result.suppression_ratio == pytest.approx(SINX.slit_width / 20e-9, rel=0.01)
        assert result.residual < 1e-3
        assert result.evaluations > 10
        assert result.bracket[0] <= result.effective_slit_width <= result.bracket[1]

    @pytest.mark.parametrize("target", [17e-9, 35e-9])
    def test_tolerance_below_a_tenth_of_a_picometre_refines(self, target):
        band = VelocityDistribution.uniform_band(220.0, 10.0, 5)
        measured = band_averaged_trace(
            replace(SINX, effective_slit_width=target), PCH2, band, SOURCE, GEOMETRY, self.GRID
        )
        result = fit_effective_slit(
            measured, SINX, PCH2, band, GEOMETRY, SOURCE, tolerance=1e-14,
        )
        # the final bracket is narrower than the tolerance and holds the target
        assert abs(result.effective_slit_width - target) <= 0.5e-14

    def test_flat_trace_rejected(self):
        x = self.GRID.positions
        with pytest.raises(FitError):
            fit_effective_slit(
                Trace(x, np.ones_like(x)), SINX, PCH2, self.BAND, GEOMETRY, SOURCE
            )

    def test_peakless_trace_rejected(self):
        x = self.GRID.positions
        ramp = np.linspace(0.0, 1.0, x.size)
        with pytest.raises(FitError):
            fit_effective_slit(
                Trace(x, ramp), SINX, PCH2, self.BAND, GEOMETRY, SOURCE
            )

    def test_empty_search_interval_rejected(self):
        target = replace(SINX, effective_slit_width=20e-9)
        measured = band_averaged_trace(
            target, PCH2, self.BAND, SOURCE, GEOMETRY, self.GRID
        )
        with pytest.raises(DomainError):
            fit_effective_slit(
                measured, SINX, PCH2, self.BAND, GEOMETRY, SOURCE,
                lower_bound=SINX.slit_width * 2.0,
            )

    @pytest.mark.parametrize("tolerance, coarse_step", [
        (0.0, 1e-9), (-1e-10, 1e-9), (1e-25, 1e-9), (1e-10, 0.0), (1e-10, -1e-9),
    ])
    def test_unreachable_tolerance_or_bad_step_rejected_before_any_terms(
        self, monkeypatch, tolerance, coarse_step
    ):
        measured = band_averaged_trace(SINX, PCH2, self.BAND, SOURCE, GEOMETRY, self.GRID)
        monkeypatch.setattr(vdwfit, "_class_terms", _no_terms)
        # 1e-25 m is below the float spacing of a 50 nm width: the bracket never shrinks to it
        with pytest.raises(DomainError, match="need tolerance >="):
            fit_effective_slit(
                measured, SINX, PCH2, self.BAND, GEOMETRY, SOURCE,
                coarse_step=coarse_step, tolerance=tolerance,
            )

    def test_coarse_scan_over_the_budget_refused_before_any_terms(self, monkeypatch):
        measured = band_averaged_trace(SINX, PCH2, self.BAND, SOURCE, GEOMETRY, self.GRID)
        monkeypatch.setattr(vdwfit, "_class_terms", _no_terms)
        points = math.floor((SINX.slit_width - 1e-9) / 1e-13) + 1
        assert points > vdwfit.MAX_COARSE_POINTS
        with pytest.raises(WorkBudgetError, match=f"takes {points} points"):
            fit_effective_slit(
                measured, SINX, PCH2, self.BAND, GEOMETRY, SOURCE, coarse_step=1e-13,
            )

    def test_each_evaluation_equals_the_band_averaged_trace(self, monkeypatch):
        calls = []
        band_sum = vdwfit._band_sum

        def recording(classes, s, grid, convolve):
            trace = band_sum(classes, s, grid, convolve)
            calls.append((s, grid, trace))
            return trace

        monkeypatch.setattr(vdwfit, "_band_sum", recording)
        measured = band_averaged_trace(
            replace(SINX, effective_slit_width=20e-9), PCH2, self.BAND, SOURCE, GEOMETRY,
            self.GRID,
        )
        calls.clear()
        result = fit_effective_slit(
            measured, SINX, PCH2, self.BAND, GEOMETRY, SOURCE, coarse_step=2e-9,
        )
        assert len(calls) == result.evaluations
        for s, grid, trace in (calls[0], calls[len(calls) // 2], calls[-1]):
            expected = band_averaged_trace(
                replace(SINX, effective_slit_width=s), PCH2, self.BAND, SOURCE, GEOMETRY, grid
            )
            assert np.array_equal(trace.intensities, expected.intensities)

    def test_wide_slit_raises_the_pattern_resolution_error(self):
        # k s^2 / (8 L2) at s = 45 nm and L2 = 5 mm is 0.09 rad > MAX_SLIT_PHASE
        geometry = BeamlineGeometry.from_segments(L1=1.554, L2=0.005, g=9.81)
        band = VelocityDistribution.discrete([220.0])
        grid = DetectorGrid.symmetric(2e-6, 0.05e-6)
        x = grid.positions
        measured = Trace(x, np.exp(-0.5 * (x / 0.5e-6) ** 2))
        wavelength = de_broglie_wavelength(PCH2, 220.0)
        n_slits = coherence(SOURCE, geometry, wavelength, SINX.period, 1.5).n_coherent_slits
        with pytest.raises(ResolutionError) as expected:
            kirchhoff_pattern(
                replace(SINX, effective_slit_width=45e-9), wave_number(PCH2, 220.0),
                geometry.L2, n_slits, grid,
            )
        with pytest.raises(ResolutionError) as raised:
            fit_effective_slit(
                measured, SINX, PCH2, band, geometry, SOURCE, lower_bound=45e-9,
            )
        assert str(raised.value) == str(expected.value)

    def test_terms_held_for_a_maxwell_band_stay_small(self):
        # the fit keeps every class's terms for its whole run: 200 Maxwell
        # classes (60-540 m/s) on the 921-pixel README grid
        grid = load_run_config(preset="sinx").detector_grid()
        band = VelocityDistribution.maxwell_beam(180.0, n_classes=200)
        tracemalloc.start()
        try:
            classes = list(
                gravity._class_terms(
                    zip(band.velocities, band.weights), SINX, PCH2, SOURCE, GEOMETRY, grid,
                    1.5, "hard",
                )
            )
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert len(classes) == 200
        assert held < 100 * 2**20
