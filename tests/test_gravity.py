"""Tests for ballistic fall, velocity ensembles, 2D synthesis, and stripe profiling."""

import math
from dataclasses import replace

import numpy as np
import pytest

from nanograting import (
    BeamlineGeometry,
    DomainError,
    GeometryError,
    ImageGrid,
    Interferogram,
    Molecule,
    SourceModel,
    VelocityDistribution,
    WorkBudgetError,
    band_averaged_trace,
    fall_position,
    fit_velocity,
    stripe_velocity_profile,
    synthesize_image,
)
from nanograting import gravity
from nanograting.diffraction import gaussian_kernel, symmetric_convolve, wave_number
from nanograting.domain import CONSTANTS
from nanograting.presets import grating_preset

GEOMETRY = BeamlineGeometry(L1=1.554, L2=0.586, g=9.81, y0=0.0, y1=0.0)
PCH2 = Molecule(name="pch2", mass=8.5e-25)


class TestFallPosition:
    def test_level_beamline_frozen_value(self):
        # g (L L1 - L^2) / 2 = 9.81 * (2.14*1.554 - 2.14^2) / 2 = -6.1510662,
        # divided by 220^2 for the fall below the source-grating line
        assert fall_position(220.0, GEOMETRY) == -0.00012708814462809916

    def test_slow_class_falls_farther(self):
        assert fall_position(180.0, GEOMETRY) == -0.00018984772222222223
        assert fall_position(180.0, GEOMETRY) < fall_position(220.0, GEOMETRY)

    def test_high_velocity_limit_approaches_line(self):
        geometry = BeamlineGeometry(L1=1.554, L2=0.586, g=9.81, y0=1e-3, y1=2e-3)
        line = 1e-3 + (2e-3 - 1e-3) * (geometry.L / geometry.L1)
        assert fall_position(1e8, geometry) == pytest.approx(line, rel=1e-9)

    def test_invalid_velocity_rejected(self):
        for bad in (0.0, -5.0, math.inf, math.nan):
            with pytest.raises(DomainError):
                fall_position(bad, GEOMETRY)


class TestFitVelocity:
    def test_frozen_inversion(self):
        assert fit_velocity(-127.1e-6, GEOMETRY) == 219.98973940739114

    def test_round_trip_property(self):
        rng = np.random.default_rng(71)
        for _ in range(200):
            v = float(rng.uniform(100.0, 400.0))
            y0 = float(rng.uniform(-1e-3, 1e-3))
            y1 = float(rng.uniform(-1e-3, 1e-3))
            geometry = BeamlineGeometry(L1=1.554, L2=0.586, g=9.81, y0=y0, y1=y1)
            y2 = fall_position(v, geometry)
            assert fit_velocity(y2, geometry) == pytest.approx(v, rel=1e-12)

    def test_inverts_the_fall_on_a_sloped_beamline(self):
        # the fall and its inversion read the same heights, the geometry's
        geometry = BeamlineGeometry(L1=1.554, L2=0.586, g=9.81, y0=1e-3, y1=2e-3)
        for v in (145.0, 220.0, 263.0):
            y2 = fall_position(v, geometry)
            assert fit_velocity(y2, geometry) == pytest.approx(v, rel=1e-12)

    def test_common_offset_invariance(self):
        y2 = fall_position(220.0, GEOMETRY)
        shifted = fit_velocity(y2 + 0.37, replace(GEOMETRY, y0=0.37, y1=0.37))
        assert shifted == pytest.approx(220.0, rel=1e-9)

    def test_detection_on_or_above_line_is_degenerate(self):
        with pytest.raises(GeometryError):
            fit_velocity(0.0, GEOMETRY)
        with pytest.raises(GeometryError):
            fit_velocity(5e-5, GEOMETRY)


class TestVelocityDistribution:
    def test_weights_normalized_to_unit_sum(self):
        dist = VelocityDistribution([200.0, 220.0], [3.0, 1.0])
        assert dist.weights.sum() == pytest.approx(1.0, rel=1e-15)
        assert dist.weights[0] == pytest.approx(0.75)
        assert len(dist) == 2

    def test_arrays_are_frozen(self):
        dist = VelocityDistribution.uniform_band(220.0, 10.0, 5)
        with pytest.raises(ValueError):
            dist.velocities[0] = 1.0
        with pytest.raises(ValueError):
            dist.weights[0] = 1.0

    def test_uniform_band_layout(self):
        dist = VelocityDistribution.uniform_band(220.0, 10.0, 5)
        np.testing.assert_allclose(
            dist.velocities, [210.0, 215.0, 220.0, 225.0, 230.0]
        )
        np.testing.assert_allclose(dist.weights, 0.2)

    def test_uniform_band_degenerate_cases(self):
        assert VelocityDistribution.uniform_band(220.0, 0.0, 7).velocities.tolist() == [220.0]
        assert VelocityDistribution.uniform_band(220.0, 10.0, 1).velocities.tolist() == [220.0]

    def test_uniform_band_validation(self):
        with pytest.raises(DomainError):
            VelocityDistribution.uniform_band(-220.0, 10.0)
        with pytest.raises(DomainError):
            VelocityDistribution.uniform_band(220.0, 220.0)
        with pytest.raises(DomainError):
            VelocityDistribution.uniform_band(220.0, 10.0, 0)

    def test_maxwell_beam_default_bounds_and_shape(self):
        vp = 220.0
        dist = VelocityDistribution.maxwell_beam(vp, n_classes=200)
        assert dist.velocities[0] == pytest.approx(vp / 3.0)
        assert dist.velocities[-1] == pytest.approx(3.0 * vp)
        # weight ratio follows v^3 exp(-v^2/vp^2) independent of normalization
        v = dist.velocities
        w = dist.weights
        expected = v**3 * np.exp(-((v / vp) ** 2))
        np.testing.assert_allclose(w / w[0], expected / expected[0], rtol=1e-12)

    def test_maxwell_beam_mode_near_sqrt_three_halves(self):
        vp = 220.0
        dist = VelocityDistribution.maxwell_beam(vp, n_classes=801)
        mode = float(dist.velocities[np.argmax(dist.weights)])
        assert mode == pytest.approx(vp * math.sqrt(1.5), abs=1.0)

    def test_maxwell_beam_validation(self):
        with pytest.raises(DomainError):
            VelocityDistribution.maxwell_beam(0.0)
        with pytest.raises(DomainError):
            VelocityDistribution.maxwell_beam(220.0, n_classes=0)
        with pytest.raises(DomainError):
            VelocityDistribution.maxwell_beam(220.0, v_min=300.0, v_max=200.0)

    def test_discrete_defaults_to_equal_weights(self):
        dist = VelocityDistribution.discrete([180.0, 220.0, 260.0])
        np.testing.assert_allclose(dist.weights, 1.0 / 3.0)

    def test_discrete_list_obeys_the_class_budget(self):
        budget = gravity.MAX_VELOCITY_CLASSES
        assert len(VelocityDistribution.discrete([220.0] * budget)) == budget
        with pytest.raises(WorkBudgetError, match=f"{budget + 1} velocity classes"):
            VelocityDistribution.discrete([220.0] * (budget + 1))

    def test_validation(self):
        with pytest.raises(DomainError):
            VelocityDistribution([220.0, -3.0], [1.0, 1.0])
        with pytest.raises(DomainError):
            VelocityDistribution([220.0], [0.0])
        with pytest.raises(DomainError):
            VelocityDistribution([220.0, 230.0], [1.0])
        with pytest.raises(DomainError):
            VelocityDistribution([], [])


class TestImageGrid:
    def test_pixel_counts(self):
        grid = ImageGrid(-50e-6, 50e-6, -200e-6, -100e-6, 1e-6, 2.5e-6)
        assert grid.nx == 101
        assert grid.ny == 41
        x = grid.detector_grid().positions
        assert x[0] == pytest.approx(-50e-6)
        assert x[-1] == pytest.approx(50e-6)
        assert grid.y_min + grid.pixel_pitch_y * (grid.ny - 1) == pytest.approx(-100e-6)

    def test_detector_grid_shares_axis(self):
        grid = ImageGrid(-50e-6, 50e-6, -200e-6, -100e-6, 1e-6, 2.5e-6, psf_sigma=4e-6)
        det = grid.detector_grid()
        assert det.n_pixels == grid.nx
        assert det.psf_sigma == 4e-6
        np.testing.assert_allclose(det.positions, grid.x_min + grid.pixel_pitch_x * np.arange(grid.nx))

    def test_validation(self):
        with pytest.raises(DomainError):
            ImageGrid(1e-6, -1e-6, 0.0, 1e-6, 1e-6, 1e-6)
        with pytest.raises(DomainError):
            ImageGrid(-1e-6, 1e-6, 0.0, 1e-6, 0.0, 1e-6)
        with pytest.raises(DomainError):
            ImageGrid(-1e-6, 1e-6, 0.0, 1e-6, 1e-6, 1e-6, psf_sigma=-1.0)


class TestInterferogram:
    def test_total_and_axes(self):
        values = np.arange(6.0).reshape(2, 3)
        image = Interferogram(values, 1e-6, 2e-6, -1e-6, -4e-6)
        assert image.nx == 3 and image.ny == 2
        assert image.total == 15.0
        np.testing.assert_allclose(image.x_positions, [-1e-6, 0.0, 1e-6])
        np.testing.assert_allclose(image.y_positions, [-4e-6, -2e-6])

    def test_values_are_frozen(self):
        image = Interferogram(np.ones((2, 2)), 1e-6, 1e-6, 0.0, 0.0)
        with pytest.raises(ValueError):
            image.values[0, 0] = 5.0

    def test_validation(self):
        with pytest.raises(DomainError):
            Interferogram(np.ones(4), 1e-6, 1e-6, 0.0, 0.0)
        with pytest.raises(DomainError):
            Interferogram(np.full((2, 2), -1.0), 1e-6, 1e-6, 0.0, 0.0)
        with pytest.raises(DomainError):
            Interferogram(np.ones((2, 2)), 0.0, 1e-6, 0.0, 0.0)

    def test_non_finite_values_rejected(self):
        with pytest.raises(DomainError):
            Interferogram([[np.nan, 1.0]], 1e-6, 1e-6, 0.0, 0.0)
        with pytest.raises(DomainError):
            Interferogram([[np.inf, 1.0]], 1e-6, 1e-6, 0.0, 0.0)


SOURCE = SourceModel(source_width=1.5e-6)
SINX = grating_preset("sinx")
IMAGE_GRID = ImageGrid(-30e-6, 30e-6, -160e-6, -80e-6, 1e-6, 2.5e-6)


class TestSynthesizeImage:
    def test_single_class_places_unit_weight_at_fall_height(self):
        dist = VelocityDistribution.discrete([220.0])
        result = synthesize_image(dist, SINX, SOURCE, GEOMETRY, IMAGE_GRID, PCH2)
        assert result.clipped_velocities == ()
        assert result.clipped_weight == 0.0
        # blur is mass-preserving, so the whole unit weight survives
        assert result.image.total == pytest.approx(1.0, rel=1e-9)
        marginal = result.image.values.sum(axis=1)
        y_peak = result.image.y_positions[int(np.argmax(marginal))]
        y_fall = fall_position(220.0, GEOMETRY)
        assert abs(y_peak - y_fall) <= 2 * IMAGE_GRID.psf_sigma + IMAGE_GRID.pixel_pitch_y

    def test_class_outside_grid_is_clipped_and_reported(self):
        dist = VelocityDistribution.discrete([180.0, 220.0])
        result = synthesize_image(dist, SINX, SOURCE, GEOMETRY, IMAGE_GRID, PCH2)
        # 180 m/s falls to -190 um, below the grid floor at -160 um
        assert result.clipped_velocities == (180.0,)
        assert result.clipped_weight == pytest.approx(0.5, rel=1e-12)
        assert result.image.total == pytest.approx(0.5, rel=1e-9)

    def test_zero_weight_class_is_skipped(self):
        dist = VelocityDistribution([180.0, 220.0], [0.0, 1.0])
        result = synthesize_image(dist, SINX, SOURCE, GEOMETRY, IMAGE_GRID, PCH2)
        assert result.clipped_velocities == ()
        assert result.image.total == pytest.approx(1.0, rel=1e-9)

    def test_patterns_are_built_for_on_grid_classes_only(self, monkeypatch):
        built = []
        terms = gravity._slit_terms

        def counting(k, *args, **kwargs):
            built.append(k)
            return terms(k, *args, **kwargs)

        monkeypatch.setattr(gravity, "_slit_terms", counting)
        # 180 m/s falls below the grid floor; 220 and 260 m/s land on it
        dist = VelocityDistribution.discrete([180.0, 220.0, 260.0])
        result = synthesize_image(dist, SINX, SOURCE, GEOMETRY, IMAGE_GRID, PCH2)
        assert built == [wave_number(PCH2, 220.0), wave_number(PCH2, 260.0)]
        assert result.clipped_velocities == (180.0,)
        assert result.clipped_weight == pytest.approx(1.0 / 3.0, rel=1e-12)

    @pytest.mark.parametrize("preset", ["sinx", "slg", "scroll"])
    def test_image_columns_equal_the_band_trace(self, preset):
        # images and band traces build their classes on one per-class path;
        # every class lands fully on the image, and the y blur keeps each
        # column's sum
        grating = grating_preset(preset)
        dist = VelocityDistribution([200.0, 215.0, 230.0, 260.0], [1.0, 2.0, 3.0, 4.0])
        result = synthesize_image(dist, grating, SOURCE, GEOMETRY, IMAGE_GRID, PCH2)
        assert result.clipped_weight == 0.0
        trace = band_averaged_trace(
            grating, PCH2, dist, SOURCE, GEOMETRY, IMAGE_GRID.detector_grid()
        )
        columns = result.image.values.sum(axis=0)
        peak = trace.intensities.max()
        assert np.max(np.abs(columns - trace.intensities)) <= 1e-12 * peak

    def test_velocity_support_enforced(self):
        for v in (40.0, 1100.0):
            with pytest.raises(DomainError):
                synthesize_image(
                    VelocityDistribution.discrete([v]),
                    SINX, SOURCE, GEOMETRY, IMAGE_GRID, PCH2,
                )


def _gaussian(x: np.ndarray, center: float, sigma: float) -> np.ndarray:
    return np.exp(-0.5 * ((x - center) / sigma) ** 2)


def _first_order_offset(velocity: float, period: float) -> float:
    wavelength = CONSTANTS.h / (PCH2.mass * velocity)
    return GEOMETRY.L2 * math.tan(math.asin(wavelength / period))


class TestStripeVelocityProfile:
    def _build_image(self, row_peaks, pitch_y=5e-6, y_min=-160e-6):
        """One synthetic row per entry of {row_index: velocity}: a zeroth
        order, plus a first order unless the velocity is None."""
        nx, ny = 101, 9
        pitch_x = 1e-6
        x = -50e-6 + pitch_x * np.arange(nx)
        values = np.zeros((ny, nx))
        for row, velocity in row_peaks.items():
            values[row] = _gaussian(x, 0.0, 2e-6)
            if velocity is not None:
                values[row] += 0.3 * _gaussian(x, _first_order_offset(velocity, SINX.period), 2e-6)
        return Interferogram(values, pitch_x, pitch_y, -50e-6, y_min)

    def test_single_bright_row_is_underdetermined(self):
        image = self._build_image({4: 220.0})
        profile = stripe_velocity_profile(
            image, GEOMETRY, SINX.period, PCH2, n_stripes=9
        )
        assert profile.underdetermined
        assert math.isnan(profile.intercept)
        assert math.isnan(profile.rms_relative)
        assert len(profile.stripes) == 1
        stripe = profile.stripes[0]
        assert stripe.velocity == pytest.approx(220.0, rel=0.01)
        assert math.isnan(stripe.residual)
        # the eight empty stripes are reported, the bright one is not
        assert set(profile.skipped) == set(range(9)) - {4}

    def test_consistent_rows_recover_fall_curve(self):
        # peaks drawn from the exact fall curve: row height -> velocity
        y_rows = -160e-6 + 5e-6 * np.arange(9)
        row_peaks = {
            row: fit_velocity(float(y_rows[row]), GEOMETRY)
            for row in range(9)
        }
        image = self._build_image(row_peaks)
        profile = stripe_velocity_profile(
            image, GEOMETRY, SINX.period, PCH2, n_stripes=9
        )
        assert not profile.underdetermined
        assert profile.skipped == ()
        assert len(profile.stripes) == 9
        velocities = [s.velocity for s in profile.stripes]
        for row, stripe in enumerate(profile.stripes):
            assert stripe.velocity == pytest.approx(row_peaks[row], rel=0.01)
        # faster molecules fall less: velocity increases with stripe height
        assert velocities == sorted(velocities)
        assert profile.rms_relative < 0.02
        assert abs(profile.intercept) < 5e-6

    def test_stripe_without_first_order_is_skipped(self):
        image = self._build_image({1: 220.0, 4: None, 7: 200.0})
        profile = stripe_velocity_profile(
            image, GEOMETRY, SINX.period, PCH2, n_stripes=9
        )
        assert set(profile.skipped) == set(range(9)) - {1, 7}
        assert [s.y for s in profile.stripes] == [-155e-6, -125e-6]

    def test_stripe_above_fitted_line_has_nan_residual(self):
        # equal velocities 400 um apart: the fitted line runs between them,
        # so the upper stripe (y = 0) lies above it
        image = self._build_image({0: 250.0, 8: 250.0}, pitch_y=50e-6, y_min=-400e-6)
        profile = stripe_velocity_profile(
            image, GEOMETRY, SINX.period, PCH2, n_stripes=9
        )
        low, high = profile.stripes
        assert high.y == 0.0 and math.isnan(high.residual)
        assert math.isfinite(low.residual)
        # only the finite residual enters the rms
        assert profile.rms_relative == pytest.approx(abs(low.residual / low.velocity), rel=1e-15)

    def test_validation(self):
        image = self._build_image({4: 220.0})
        with pytest.raises(DomainError):
            stripe_velocity_profile(image, GEOMETRY, -1.0, PCH2)
        with pytest.raises(DomainError):
            stripe_velocity_profile(image, GEOMETRY, SINX.period, PCH2, n_stripes=0)
        with pytest.raises(DomainError):
            stripe_velocity_profile(image, GEOMETRY, SINX.period, PCH2, n_stripes=50)


def test_blur_matches_per_row_convolution_and_conserves_mass():
    # four classes: placement columns over 23 image rows, rows over 61 pixels
    rng = np.random.default_rng(7)
    placements, rows = rng.random((4, 23)), rng.random((4, 61))
    values = np.einsum("cy,cx->yx", placements, rows)
    blurred = gravity._blurred_image(placements, rows, 3.0, 1.5)
    kx = gaussian_kernel(3.0, 1.0)
    ky = gaussian_kernel(1.5, 1.0)
    reference = np.array([symmetric_convolve(row, kx) for row in values])
    reference = np.array([symmetric_convolve(col, ky) for col in reference.T]).T
    assert np.max(np.abs(blurred - reference)) <= 1e-12 * np.max(np.abs(reference))
    assert blurred.sum() == pytest.approx(values.sum(), rel=1e-12)
