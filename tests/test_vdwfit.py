"""Tests for band-averaged traces, order population, and the slit-width fit."""

import json
import math
import tracemalloc
from dataclasses import asdict, replace

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

GEOMETRY = BeamlineGeometry(L1=1.554, L2=0.586, g=9.81)
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
    RAW_GRID = replace(GRID, psf_sigma=0.0)  # identity kernel: the unconvolved sum

    def test_raw_trace_has_unit_pixel_sum(self):
        band = VelocityDistribution.uniform_band(220.0, 10.0, 3)
        trace = band_averaged_trace(
            SINX, PCH2, band, SOURCE, GEOMETRY, self.RAW_GRID
        )
        assert trace.intensities.sum() == pytest.approx(1.0, rel=1e-12)

    def test_convolution_preserves_pixel_sum(self):
        band = VelocityDistribution.uniform_band(220.0, 10.0, 3)
        trace = band_averaged_trace(
            SINX, PCH2, band, SOURCE, GEOMETRY, self.GRID
        )
        assert trace.intensities.sum() == pytest.approx(1.0, rel=1e-12)

    def test_single_class_band_matches_direct_pattern(self):
        band = VelocityDistribution.uniform_band(220.0, 0.0, 1)
        trace = band_averaged_trace(
            SINX, PCH2, band, SOURCE, GEOMETRY, self.RAW_GRID
        )
        wavelength = de_broglie_wavelength(PCH2, 220.0)
        k = wave_number(PCH2, 220.0)
        coh = coherence(SOURCE, GEOMETRY, wavelength, SINX.period, 1.5)
        direct = kirchhoff_pattern(SINX, k, GEOMETRY.L2, coh.n_coherent_slits, self.GRID)
        expected = direct.intensities / direct.intensities.sum()
        np.testing.assert_allclose(trace.intensities, expected, rtol=1e-12)

    def test_zero_weight_classes_are_skipped(self):
        one = VelocityDistribution([220.0], [1.0])
        padded = VelocityDistribution([180.0, 220.0], [0.0, 1.0])
        a = band_averaged_trace(SINX, PCH2, one, SOURCE, GEOMETRY, self.RAW_GRID)
        b = band_averaged_trace(SINX, PCH2, padded, SOURCE, GEOMETRY, self.RAW_GRID)
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

    def test_found_is_a_builtin_bool_that_round_trips_through_json(self):
        # sinx at 400 +- 20 m/s on the README grid: order 1 is found, and the
        # largest sample of order 5's window sits on the window's edge
        config = load_run_config(None, "sinx", [])
        molecule = config.molecule()
        trace = band_averaged_trace(
            SINX, molecule, VelocityDistribution.uniform_band(400.0, 20.0, 21), SOURCE,
            GEOMETRY, DetectorGrid.symmetric(230e-6, 0.5e-6),
        )
        wavelength = de_broglie_wavelength(molecule, 400.0)
        orders = order_population(trace, SINX.period, wavelength, GEOMETRY.L2, n_max=5)
        assert orders[1].found and not orders[5].found
        for o in (orders[1], orders[5]):
            assert type(o.found) is bool
            record = asdict(o)
            assert json.loads(json.dumps(record)) == record

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

    def test_zeroth_order_on_the_first_pixel_is_not_found(self):
        # the window's peak is the trace's edge pixel: no interior maximum
        x = DetectorGrid(0.0, 50e-6, 0.5e-6).positions
        trace = Trace(x, np.exp(-0.5 * (x / 2e-6) ** 2))
        orders = order_population(trace, SINX.period, self.WAVELENGTH, GEOMETRY.L2, n_max=1)
        assert orders[0].peak_position == 0.0 and orders[0].height == 1.0
        assert not orders[0].found

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


def test_stacked_scoring_equals_the_row_at_a_time_score():
    # rows whose peaks sit right of, left of and on the reference's peak, in
    # one stack, score as each row does alone; a 1-D candidate gives 0-d
    x = np.arange(41.0)
    reference = np.exp(-0.5 * ((x - 20.0) / 3.0) ** 2)
    rows = np.array([
        0.5 * np.exp(-0.5 * ((x - centre) / width) ** 2) + 0.01 * np.cos(x)
        for centre, width in [(24.0, 3.0), (13.0, 2.5), (20.0, 4.0), (27.0, 3.5), (20.0, 3.0)]
    ])

    def alone(candidate):
        a = reference / reference.max()
        b = candidate / candidate.max()
        shift = int(np.argmax(a)) - int(np.argmax(b))
        if shift > 0:
            a_part, b_part = a[shift:], b[: b.size - shift]
        elif shift < 0:
            a_part, b_part = a[: a.size + shift], b[-shift:]
        else:
            a_part, b_part = a, b
        return float(np.sqrt(np.mean((a_part - b_part) ** 2)))

    shifts = 20 - np.argmax(rows, axis=1)
    assert (shifts < 0).any() and (shifts > 0).any() and (shifts == 0).any()
    stacked = vdwfit._registered_rms(reference, rows)
    assert stacked.shape == (len(rows),)
    assert stacked.tolist() == [alone(row) for row in rows]
    single = vdwfit._registered_rms(reference, rows[1])
    assert single.shape == ()
    assert float(single) == alone(rows[1])


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
        # the coarse rows come from rotated phasors, within the bound the fit
        # states, scored in one call; every later evaluation goes through
        # _band_sum at one width, bit for bit. Each scored row is one evaluation.
        calls, scored = [], []
        band_sum, registered_rms = vdwfit._band_sum, vdwfit._registered_rms

        def recording_sum(classes, s):
            if np.ndim(s) == 0:
                calls.append(s)
            return band_sum(classes, s)

        def recording_rms(reference, candidates):
            scored.extend(np.array(candidates, ndmin=2))
            return registered_rms(reference, candidates)

        measured = band_averaged_trace(
            replace(SINX, effective_slit_width=20e-9), PCH2, self.BAND, SOURCE, GEOMETRY,
            self.GRID,
        )
        monkeypatch.setattr(vdwfit, "_band_sum", recording_sum)
        monkeypatch.setattr(vdwfit, "_registered_rms", recording_rms)
        result = fit_effective_slit(
            measured, SINX, PCH2, self.BAND, GEOMETRY, SOURCE, coarse_step=2e-9,
        )
        monkeypatch.undo()

        n_coarse = math.floor((SINX.slit_width - 1e-9) / 2e-9) + 1
        assert result.evaluations == n_coarse + len(calls) == len(scored)
        # the grid the fit rebuilds from the measured trace
        grid = DetectorGrid(
            float(measured.positions[0]), float(measured.positions[-1]), measured.pixel_pitch
        )
        for s, candidate in zip(calls, scored[n_coarse:]):
            expected = band_averaged_trace(
                replace(SINX, effective_slit_width=s), PCH2, self.BAND, SOURCE, GEOMETRY, grid
            )
            assert np.array_equal(candidate, expected.intensities)
        for row, s in zip(scored[:n_coarse], np.linspace(1e-9, SINX.slit_width, n_coarse)):
            expected = band_averaged_trace(
                replace(SINX, effective_slit_width=float(s)), PCH2, self.BAND, SOURCE,
                GEOMETRY, grid,
            ).intensities
            assert np.abs(row - expected).max() <= 1e-13 * expected.max(), s

    def test_fit_seff_configuration_is_pinned(self):
        # the fit-seff benchmark configuration (perfbench/workloads.py):
        # sinx, 220 +- 10 m/s in 5 classes, 281 pixels at 1 um, 1% noise; a
        # change that moves this fit moves the package's headline number
        cfg = load_run_config(preset="sinx", overrides=[
            "velocity.kind=uniform-band", "velocity.center_m_s=220",
            "velocity.half_width_m_s=10", "velocity.n_classes=5",
            "detector.x_min_um=-140", "detector.x_max_um=140", "detector.pixel_pitch_um=1",
        ])
        grating, band, grid = cfg.grating(), cfg.velocity_distribution(), cfg.detector_grid()
        assert grid.n_pixels == 281
        clean = band_averaged_trace(
            grating, cfg.molecule(), band, cfg.source(), cfg.geometry(), grid
        )
        noise = 0.01 * np.random.default_rng(41).standard_normal(len(clean))
        measured = Trace(clean.positions, np.clip(clean.intensities * (1.0 + noise), 0.0, None))
        result = fit_effective_slit(
            measured, grating, cfg.molecule(), band, cfg.geometry(), cfg.source()
        )
        assert result.evaluations == 59
        assert result.bracket == (1.4270833333333331e-08, 1.6312499999999998e-08)
        assert result.effective_slit_width == pytest.approx(1.504238059965577e-08, rel=1e-12)
        assert result.residual == pytest.approx(0.003559372293497459, rel=1e-12)

    def test_coarse_scan_holds_at_most_40_bytes_per_pixel_and_point(self):
        # the fit-seff configuration at coarse steps of 0.1 and 0.01 nm: the
        # peak grows with the scan's (points x pixels) rows, 33.6 B per pixel
        # and point
        cfg = load_run_config(preset="sinx", overrides=[
            "velocity.n_classes=5", "detector.x_min_um=-140", "detector.x_max_um=140",
            "detector.pixel_pitch_um=1",
        ])
        grating, band, grid = cfg.grating(), cfg.velocity_distribution(), cfg.detector_grid()
        measured = band_averaged_trace(
            grating, cfg.molecule(), band, cfg.source(), cfg.geometry(), grid
        )
        peaks, points = [], []
        for step in (1e-10, 1e-11):
            tracemalloc.start()
            try:
                fit_effective_slit(
                    measured, grating, cfg.molecule(), band, cfg.geometry(), cfg.source(),
                    coarse_step=step,
                )
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            points.append(math.floor((grating.slit_width - 1e-9) / step) + 1)
        assert points == [490, 4901]
        slope = (peaks[1] - peaks[0]) / ((points[1] - points[0]) * grid.n_pixels)
        assert slope <= 40.0

    def test_coarse_scan_refuses_at_its_first_width_over_the_slit_phase(self):
        # at L2 = 5 mm and 220 m/s the slit-phase gate closes at about 34 nm,
        # inside the default scan over [1 nm, 50 nm]
        geometry = BeamlineGeometry(L1=1.554, L2=0.005, g=9.81)
        band = VelocityDistribution.discrete([220.0])
        grid = DetectorGrid.symmetric(2e-6, 0.05e-6)
        x = grid.positions
        measured = Trace(x, np.exp(-0.5 * (x / 0.5e-6) ** 2))
        wavelength = de_broglie_wavelength(PCH2, 220.0)
        n_slits = coherence(SOURCE, geometry, wavelength, SINX.period, 1.5).n_coherent_slits
        n_coarse = math.floor((SINX.slit_width - 1e-9) / 1e-9) + 1
        coarse = np.linspace(1e-9, SINX.slit_width, n_coarse)
        refusals = []
        for s in coarse:
            try:
                kirchhoff_pattern(
                    replace(SINX, effective_slit_width=float(s)), wave_number(PCH2, 220.0),
                    geometry.L2, n_slits, grid,
                )
            except ResolutionError as error:
                refusals.append(str(error))
        assert 0 < len(refusals) < coarse.size
        assert "quadratic phase" in refusals[0]
        with pytest.raises(ResolutionError) as raised:
            fit_effective_slit(measured, SINX, PCH2, band, geometry, SOURCE)
        assert str(raised.value) == refusals[0]

    def test_wide_slit_raises_the_pattern_resolution_error(self):
        # k s^2 / (8 L2) at s = 45 nm and L2 = 5 mm is 0.09 rad > MAX_SLIT_PHASE
        geometry = BeamlineGeometry(L1=1.554, L2=0.005, g=9.81)
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
                    1.5,
                )
            )
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert len(classes) == 200
        assert held < 100 * 2**20
