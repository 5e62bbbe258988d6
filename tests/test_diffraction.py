import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nanograting import (
    DetectorGrid,
    DomainError,
    Grating,
    Molecule,
    ResolutionError,
    SourceModel,
    Trace,
    WorkBudgetError,
    coherence,
    de_broglie_wavelength,
    far_field_orders,
    gaussian_kernel,
    grating_preset,
    grating_preset_names,
    kirchhoff_pattern,
    symmetric_convolve,
    wave_number,
)
from nanograting.config import load_run_config
from nanograting.diffraction import MAX_BLUR_TERMS, MAX_BLUR_VALUES
from nanograting.diffraction import MAX_PIXEL_SLITS, MAX_SLIT_PHASE, VELOCITY_SUPPORT, _slit_terms
from nanograting.diffraction import _contract, _envelope_scan, _slit_envelope
from nanograting import diffraction
from nanograting.gravity import synthesize_image
from nanograting.vdwfit import band_averaged_trace, fit_effective_slit

from configured import FIT_OPTIONS, PCH2, PREFACTOR, PSF_SIGMA
from configured import GEOMETRY as GEO
from far_field_oracle import fraunhofer_multislit

M85 = Molecule("test", 8.5e-25)


def _grating(period=105e-9, slit=50e-9, s_eff=15e-9):
    return Grating(period=period, slit_width=slit, effective_slit_width=s_eff, label="t")


def test_wave_number_value_and_identities():
    k = wave_number(M85, 220.0)
    assert k == 1773231532181.383
    lam = de_broglie_wavelength(M85, 220.0)
    assert k * lam == pytest.approx(2.0 * math.pi, rel=1e-15)
    assert wave_number(M85, 440.0) == pytest.approx(2.0 * k, rel=1e-12)


def test_wave_number_accepts_exactly_the_validated_range():
    assert wave_number(M85, 50.0) == 2.0 * math.pi / de_broglie_wavelength(M85, 50.0)
    assert wave_number(M85, 1000.0) == 2.0 * math.pi / de_broglie_wavelength(M85, 1000.0)
    message = r"outside the validated range \(50\.0, 1000\.0\) m/s"
    for velocity in (math.nextafter(50.0, 0.0), math.nextafter(1000.0, math.inf), math.nan):
        with pytest.raises(DomainError, match=message):
            wave_number(M85, velocity)


def test_coherent_slit_count_example():
    # angle C*lam/w = 3 urad exactly; width at grating 3e-6 * 1.554 m;
    # floor against the 101 nm period gives 46 slits
    source = SourceModel(source_width=1.5e-6)
    result = coherence(source, GEO, wavelength=3e-12, period=101e-9, prefactor=PREFACTOR)
    assert result.n_coherent_slits == 46


def test_coherent_slit_count_floors_at_one():
    source = SourceModel(source_width=1.5e-6)
    result = coherence(source, GEO, wavelength=1e-18, period=101e-9, prefactor=PREFACTOR)
    assert result.n_coherent_slits == 1


@pytest.mark.parametrize("wavelength, period, fragment", [
    (0.0, 101e-9, "wavelength"),
    (math.nan, 101e-9, "wavelength"),
    (3e-12, -101e-9, "period"),
    (3e-12, math.inf, "period"),
])
def test_coherence_refuses_a_length_that_is_not_positive_and_finite(wavelength, period, fragment):
    source = SourceModel(source_width=1.5e-6)
    with pytest.raises(DomainError, match=f"{fragment} must be positive and finite"):
        coherence(source, GEO, wavelength=wavelength, period=period, prefactor=PREFACTOR)


def test_far_field_orders_positions():
    lam = de_broglie_wavelength(M85, 220.0)
    positions = far_field_orders(lam, 105e-9, 0.586, 5)
    assert positions[0] == 0.0
    assert positions[1] == 1.977528449254354e-05  # about 19.8 um
    assert positions[1] == pytest.approx(19.8e-6, rel=0.005)
    # small-angle check: x_n ~ n * x_1
    assert positions[3] == pytest.approx(3 * positions[1], rel=1e-5)
    assert len(positions) == 6  # no order is evanescent


def test_far_field_orders_evanescent():
    # n*lambda >= d cannot propagate
    positions = far_field_orders(30e-9, 100e-9, 0.586, 5)
    assert len(positions) == 4  # orders 0..3 propagate, 4 and 5 are evanescent


def test_trace_uniform_grid_tolerance_is_one_part_in_a_million():
    # one step off by 2e-6 relative is not uniform; 5e-7 is
    x = np.arange(10.0)
    x[5:] += 2e-6
    with pytest.raises(DomainError, match="uniform grid"):
        Trace(x, np.ones(10))
    x = np.arange(10.0)
    x[5:] += 5e-7
    assert len(Trace(x, np.ones(10))) == 10


def test_detector_grid_symmetric():
    grid = DetectorGrid(-230e-6, 230e-6, 0.5e-6, PSF_SIGMA)
    assert grid.n_pixels == 921
    assert grid.positions[0] == -230e-6
    assert grid.positions[-1] == pytest.approx(230e-6, rel=1e-12)


def test_trace_validation():
    with pytest.raises(DomainError):
        Trace(np.array([0.0, 1.0, 3.0]), np.ones(3))  # non-uniform
    with pytest.raises(DomainError):
        Trace(np.array([0.0, 1.0]), np.array([1.0, -0.5]))  # negative data
    tiny = Trace(np.array([0.0, 1.0]), np.array([1.0, -1e-15]))  # float fuzz
    assert tiny.intensities[1] == 0.0


@pytest.mark.parametrize("positions, intensities", [
    (np.zeros((2, 2)), np.ones((2, 2))),
    (np.arange(3.0), np.ones(2)),
], ids=["2-d", "unequal-lengths"])
def test_trace_refuses_arrays_that_are_not_1d_of_equal_length(positions, intensities):
    with pytest.raises(DomainError, match="1D arrays of equal length"):
        Trace(positions, intensities)


def test_single_slit_matches_sinc_envelope():
    lam = de_broglie_wavelength(M85, 220.0)
    g = _grating(s_eff=50e-9)
    grid = DetectorGrid(-90e-6, 90e-6, 0.5e-6, PSF_SIGMA)
    trace = kirchhoff_pattern(g, wave_number(M85, 220.0), 0.586, 1, grid)
    reference = fraunhofer_multislit(grid.positions, lam, g.period, 50e-9, 1, 0.586)
    a = trace.intensities / trace.intensities.max()
    b = reference / reference.max()
    rms = float(np.sqrt(np.mean((a - b) ** 2)))
    assert rms < 0.01
    # envelope zeros at x = m * lam * L2 / s_eff
    zero = lam * 0.586 / 50e-9
    for m in (1, 2):
        i = int(np.argmin(np.abs(grid.positions - m * zero)))
        assert a[i] < 1e-3, m


def test_kirchhoff_symmetry_on_symmetric_grid():
    g = _grating()
    grid = DetectorGrid(-40e-6, 40e-6, 0.5e-6, PSF_SIGMA)
    trace = kirchhoff_pattern(g, wave_number(M85, 220.0), 0.586, 11, grid)
    y = trace.intensities
    assert np.array_equal(y, y[::-1])


def test_kirchhoff_matches_fraunhofer_few_slits():
    lam = de_broglie_wavelength(M85, 220.0)
    grid = DetectorGrid(-60e-6, 60e-6, 0.5e-6, PSF_SIGMA)
    g = _grating(period=100e-9, slit=50e-9, s_eff=35e-9)
    trace = kirchhoff_pattern(g, wave_number(M85, 220.0), 0.586, 5, grid)
    reference = fraunhofer_multislit(grid.positions, lam, 100e-9, 35e-9, 5, 0.586)
    a = trace.intensities / trace.intensities.max()
    b = reference / reference.max()
    assert float(np.sqrt(np.mean((a - b) ** 2))) < 0.01


def test_fraunhofer_peak_value_is_n_squared():
    x = np.array([0.0, 1e-6])
    out = fraunhofer_multislit(x, 3.5e-12, 100e-9, 35e-9, 10, 0.586)
    assert out[0] == pytest.approx(100.0, rel=1e-12)


def test_kirchhoff_rejects_unresolvable_grid():
    g = _grating()
    # fringe period lam*L2/d ~ 19.8 um; a 15 um pitch cannot resolve it
    grid = DetectorGrid(-60e-6, 60e-6, 15e-6, PSF_SIGMA)
    with pytest.raises(ResolutionError):
        kirchhoff_pattern(g, wave_number(M85, 220.0), 0.586, 10, grid)


def test_kirchhoff_input_validation():
    g = _grating()
    grid = DetectorGrid(-20e-6, 20e-6, 0.5e-6, PSF_SIGMA)
    k = wave_number(M85, 220.0)
    with pytest.raises(DomainError):
        kirchhoff_pattern(g, k, 0.586, 0, grid)
    with pytest.raises(DomainError):
        kirchhoff_pattern(g, -k, 0.586, 5, grid)
    with pytest.raises(DomainError, match="finite wave number"):
        kirchhoff_pattern(g, math.inf, 0.586, 5, grid)


def test_gaussian_kernel_unit_sum_and_extent():
    kernel = gaussian_kernel(3.5e-6, 0.5e-6)
    assert kernel.sum() == pytest.approx(1.0, rel=1e-12)
    assert kernel.size == 2 * 35 + 1  # +-5 sigma at 7 px/sigma
    assert gaussian_kernel(0.0, 0.5e-6).tolist() == [1.0]


@pytest.mark.parametrize("pitch", [0.0, -0.5e-6, math.inf, math.nan])
def test_gaussian_kernel_refuses_a_pitch_that_is_not_positive_and_finite(pitch):
    with pytest.raises(DomainError, match="pitch must be positive and finite"):
        gaussian_kernel(3.5e-6, pitch)


def test_gaussian_kernel_far_below_a_pixel_is_the_identity_without_warning():
    # (pitch / sigma)^2 overflows: the outer taps are exp(-inf) = 0, and the
    # RuntimeWarning it once raised is an error under this suite's filters
    assert gaussian_kernel(1e-161, 0.5e-6).tolist() == [0.0, 1.0, 0.0]


def test_symmetric_convolve_conserves_total():
    rng = np.random.default_rng(33)
    for _ in range(20):
        n = int(rng.integers(5, 200))
        signal = rng.uniform(0.0, 3.0, n)
        kernel = gaussian_kernel(float(rng.uniform(0.1e-6, 8e-6)), 0.5e-6)
        out = symmetric_convolve(signal, kernel)
        assert out.sum() == pytest.approx(signal.sum(), rel=1e-12)
    # a 2D array is blurred row by row, as the image blur uses it; rows of 3
    # pixels under a 71-tap kernel take the repeated reflection of np.pad
    for shape in [(4, 150), (3, 3)]:
        image = rng.uniform(0.0, 3.0, shape)
        kernel = gaussian_kernel(3.5e-6, 0.5e-6)
        out = symmetric_convolve(image, kernel)
        assert out.shape == image.shape
        for row, blurred in zip(image, out):
            assert np.array_equal(blurred, symmetric_convolve(row, kernel))
            assert blurred.sum() == pytest.approx(row.sum(), rel=1e-12)


def test_symmetric_convolve_equals_the_np_pad_convolution():
    # the reflected gather is np.pad's "symmetric" extension, also where the
    # kernel is wider than the row and reflects more than once
    rng = np.random.default_rng(35)
    cases = [(n, radius) for n in range(1, 8) for radius in range(20)] + [(281, 18), (921, 35)]
    for n, radius in cases:
        kernel = rng.uniform(0.1, 1.0, 2 * radius + 1)
        kernel = (kernel + kernel[::-1]) / (2.0 * kernel.sum())
        for shape in [(n,), (3, n)]:
            values = rng.uniform(0.0, 3.0, shape)
            padded = np.pad(values, [(0, 0)] * (values.ndim - 1) + [(radius, radius)],
                            mode="symmetric")
            expected = np.array([
                np.convolve(row, kernel, mode="valid") for row in padded.reshape(-1, n + 2 * radius)
            ]).reshape(shape)
            assert np.array_equal(symmetric_convolve(values, kernel), expected), (n, radius)


def test_blur_over_budget_is_refused_before_any_padding():
    # broadcast views hold no data: the padding gather would be the first copy
    kernel = gaussian_kernel(3.0, 1.0)  # 31 taps
    rows = np.broadcast_to(0.0, (MAX_BLUR_VALUES // 10, 10))
    with pytest.raises(WorkBudgetError) as excinfo:
        symmetric_convolve(rows, kernel)
    assert f"holds {rows.shape[0] * (10 + 30):.3e} padded values" in str(excinfo.value)
    # one long row within the padded values, over the multiply-adds
    wide = gaussian_kernel(10.0, 1.0)  # 101 taps
    row = np.broadcast_to(0.0, (MAX_BLUR_VALUES - 100,))
    assert row.size * wide.size > MAX_BLUR_TERMS
    with pytest.raises(WorkBudgetError) as excinfo:
        symmetric_convolve(row, wide)
    assert f"holds {MAX_BLUR_VALUES:.3e} padded values" in str(excinfo.value)
    assert f"takes {row.size * 101:.3e} multiply-adds" in str(excinfo.value)
    with pytest.raises(WorkBudgetError) as excinfo:
        gaussian_kernel(MAX_BLUR_VALUES / 10.0, 1.0)
    assert f"more than the budget of {MAX_BLUR_VALUES:.0e}" in str(excinfo.value)


def test_blur_budget_is_a_billion_multiply_adds():
    # 10,000 values x 100,001 taps = 1,000,010,000 multiply-adds on 110,000 padded values
    row = np.broadcast_to(0.0, (10_000,))
    with pytest.raises(WorkBudgetError, match=(
        r"takes 1\.000e\+09 multiply-adds, over the budgets of 2e\+07 values and "
        r"1e\+09 multiply-adds$"
    )):
        symmetric_convolve(row, gaussian_kernel(10_000.0, 1.0))


def _detector_convolve(trace, sigma):
    """The detector blur of ``simulate``: the trace's own pitch sets the kernel."""
    return Trace(trace.positions, symmetric_convolve(
        trace.intensities, gaussian_kernel(sigma, trace.pixel_pitch)
    ))


def test_detector_convolve_delta_becomes_gaussian():
    x = 0.5e-6 * np.arange(201) - 50e-6
    y = np.zeros(201)
    y[100] = 1.0
    out = _detector_convolve(Trace(x, y), 3.5e-6)
    peak = out.intensities.max()
    i68 = np.abs(x - x[100]) <= 3.5e-6
    profile = out.intensities / peak
    expected = np.exp(-0.5 * ((x - x[100]) / 3.5e-6) ** 2)
    assert np.allclose(profile[i68], expected[i68], atol=1e-6)


def test_detector_convolve_identity_at_zero_sigma():
    t = Trace(np.arange(5.0), np.array([0.0, 1.0, 4.0, 1.0, 0.0]))
    out = _detector_convolve(t, 0.0)
    assert np.array_equal(out.intensities, t.intensities)


def test_detector_convolve_preserves_total_and_integral():
    rng = np.random.default_rng(34)
    x = 0.5e-6 * np.arange(400)
    center = x[200]
    for _ in range(10):
        sigma = float(rng.uniform(0.5e-6, 6e-6))
        # arbitrary signals: the pixel sum is conserved exactly
        noisy = Trace(x, rng.uniform(0.0, 2.0, 400))
        out = _detector_convolve(noisy, sigma)
        assert out.intensities.sum() == pytest.approx(
            noisy.intensities.sum(), rel=1e-12
        )
        # edge-vanishing signals: the trapezoid integral is conserved too
        bump = Trace(x, np.exp(-0.5 * ((x - center) / 8e-6) ** 2))
        out = _detector_convolve(bump, sigma)
        area_in, area_out = (
            float(np.sum((y[1:] + y[:-1]) * np.diff(x)) / 2.0)
            for y in (bump.intensities, out.intensities)
        )
        assert abs(area_out - area_in) <= 1e-6 * area_in


def test_kirchhoff_runtime_is_bounded():
    import time

    g = _grating(period=100e-9, slit=50e-9, s_eff=35e-9)
    grid = DetectorGrid(-100e-6, 100e-6, 0.5e-6, PSF_SIGMA)
    start = time.perf_counter()
    kirchhoff_pattern(g, wave_number(M85, 220.0), 0.586, 10, grid)
    assert time.perf_counter() - start < 10.0


def test_trace_rejects_non_finite_data():
    x = np.arange(3.0)
    with pytest.raises(DomainError):
        Trace(x, np.array([1.0, np.nan, np.inf]))
    with pytest.raises(DomainError):
        Trace(x, np.array([1.0, 2.0, np.inf]))
    with pytest.raises(DomainError):
        Trace(np.array([0.0, 1.0, np.nan]), np.ones(3))


SOURCE = SourceModel(source_width=1.5e-6)


def _midpoint_reference(grating, k, L2, n_slits, grid, node_phase=0.02):
    """Reference intensity: the Kirchhoff slit integrals by the midpoint rule,
    with nodes fine enough that the exact path phase advances at most
    ``node_phase`` rad per node over each block of pixels."""
    s = grating.effective_slit_width
    x = grid.positions
    centers = (np.arange(n_slits) - (n_slits - 1) / 2.0) * grating.period
    amplitude = np.empty(x.size, dtype=complex)
    block = 25
    for start in range(0, x.size, block):
        xp = x[start : start + block]
        u_max = np.abs(xp).max() + np.abs(centers).max() + s / 2.0
        n_sub = max(4, math.ceil(s * k * u_max / math.hypot(L2, u_max) / node_phase))
        h = s / n_sub
        nodes = (centers[:, None] - s / 2.0 + (np.arange(n_sub) + 0.5) * h).ravel()
        u = nodes[None, :] - xp[:, None]
        # path excess sqrt(L2^2 + u^2) - L2, free of cancellation
        delta = u * u / (L2 + np.sqrt(L2 * L2 + u * u))
        amplitude[start : start + block] = np.exp(1j * k * delta) @ np.full(nodes.size, h)
    return np.abs(amplitude) ** 2


def _oracle_cases():
    for name in grating_preset_names():
        for velocity in (60.0, 220.0, 540.0):
            yield pytest.param(name, velocity, id=f"{name}-{velocity:g}")


@pytest.mark.parametrize("preset, velocity", list(_oracle_cases()))
def test_kirchhoff_matches_midpoint_quadrature(preset, velocity):
    grating = grating_preset(preset)
    wavelength = de_broglie_wavelength(PCH2, velocity)
    k = wave_number(PCH2, velocity)
    n_slits = coherence(SOURCE, GEO, wavelength, grating.period, PREFACTOR).n_coherent_slits
    grid = DetectorGrid(-100e-6, 100e-6, 0.5e-6, PSF_SIGMA)
    engine = kirchhoff_pattern(grating, k, GEO.L2, n_slits, grid).intensities
    reference = _midpoint_reference(grating, k, GEO.L2, n_slits, grid)
    rms = float(np.sqrt(np.mean((engine - reference) ** 2))) / reference.max()
    assert rms < 1e-5


def test_kirchhoff_refuses_wide_slit_phase():
    # k s^2 / (8 L2) = 1.77e12 * (50 nm)^2 / (8 * 5 mm) = 0.111 rad > 0.05 rad
    g = _grating(s_eff=50e-9)
    k = wave_number(M85, 220.0)
    L2 = 0.005
    grid = DetectorGrid(-2e-6, 2e-6, 0.05e-6, PSF_SIGMA)
    with pytest.raises(ResolutionError) as excinfo:
        kirchhoff_pattern(g, k, L2, 5, grid)
    assert f"{k * 50e-9 ** 2 / (8 * L2):.3e}" in str(excinfo.value)


def test_slit_phase_gate_sits_at_five_hundredths_of_a_radian():
    # stated as literals, not as MAX_SLIT_PHASE, so that moving the gate fails:
    # k s^2 / (8 L2) = 0.049 rad is accepted and 0.051 rad is refused
    k = wave_number(M85, 220.0)
    L2 = 0.005
    grid = DetectorGrid(-2e-6, 2e-6, 0.05e-6, PSF_SIGMA)

    def width(phase):
        return math.sqrt(8.0 * L2 * phase / k)  # 33.2 and 33.9 nm

    accepted = kirchhoff_pattern(_grating(s_eff=width(0.049)), k, L2, 5, grid)
    assert accepted.intensities.max() > 0.0
    with pytest.raises(ResolutionError, match=r"= 5\.100e-02 rad exceeds"):
        kirchhoff_pattern(_grating(s_eff=width(0.051)), k, L2, 5, grid)


def test_no_preset_trips_the_slit_phase_gate():
    # the gate is widest open at the geometric width and the fastest class
    grid = DetectorGrid(-20e-6, 20e-6, 0.5e-6, PSF_SIGMA)
    for name in grating_preset_names():
        preset = grating_preset(name)
        grating = replace(preset, effective_slit_width=preset.slit_width)
        for velocity in (50.0, 1000.0):
            wavelength = de_broglie_wavelength(PCH2, velocity)
            n_slits = coherence(SOURCE, GEO, wavelength, grating.period, PREFACTOR).n_coherent_slits
            trace = kirchhoff_pattern(grating, wave_number(PCH2, velocity), GEO.L2, n_slits, grid)
            assert trace.intensities.max() > 0.0


def test_kirchhoff_is_the_envelope_of_the_slit_terms():
    g = _grating()
    grid = DetectorGrid(-40e-6, 40e-6, 0.5e-6, PSF_SIGMA)
    k = wave_number(M85, 220.0)
    terms = _slit_terms(k, 0.586, 20, g.period, grid, max_width=g.slit_width)
    composed = _slit_envelope(terms, g.effective_slit_width)
    direct = kirchhoff_pattern(g, k, 0.586, 20, grid).intensities
    assert np.array_equal(composed, direct)


def test_kirchhoff_refuses_work_over_budget():
    grid = DetectorGrid(-230e-6, 230e-6, 0.5e-6, PSF_SIGMA)
    n_slits = MAX_PIXEL_SLITS // grid.n_pixels + 1
    with pytest.raises(ResolutionError) as excinfo:
        kirchhoff_pattern(_grating(), wave_number(M85, 220.0), 0.586, n_slits, grid)
    message = str(excinfo.value)
    assert f"{grid.n_pixels * n_slits:.3e}" in message
    assert f"{MAX_PIXEL_SLITS:.0e}" in message


def test_presets_stay_ten_times_under_the_work_budget():
    # the slowest validated class has the most coherent slits
    for name in grating_preset_names():
        config = load_run_config(preset=name)
        grating = config.grating()
        wavelength = de_broglie_wavelength(config.molecule(), VELOCITY_SUPPORT[0])
        n_slits = coherence(
            config.source(), config.geometry(), wavelength, grating.period,
            config.require("source.coherence_prefactor"),
        ).n_coherent_slits
        assert 10 * config.detector_grid().n_pixels * n_slits <= MAX_PIXEL_SLITS


# the per-slit oracle forms its path phase in long double
needs_long_double = pytest.mark.skipif(
    np.finfo(np.longdouble).eps >= 1e-18,
    reason="numpy's long double here is no more precise than 1e-18 (eps "
    f"{np.finfo(np.longdouble).eps:.1e}), too coarse for the per-slit oracle's phase",
)


def _per_slit_reference(k, L2, n_slits, period, grid, widths):
    """Exact per-slit sum of the closed-form kernel, one row per slit width s
    of ``widths``: s * sum_j exp(i k delta_j) sinc(k s delta'_j / 2 pi).
    u = c_j - x', delta and k delta are formed in long double and k delta is
    reduced mod 2 pi there, so the float64 rounding of u never reaches the
    phase. The pixels go in blocks of at most 2^18 pixel x slit terms, so the
    oracle's memory does not grow with the grid."""
    ld = np.longdouble
    centers = (np.arange(n_slits) - (n_slits - 1) / 2.0) * period
    positions = grid.positions
    rows = np.empty((len(widths), positions.size))
    block = max(1, 2**18 // n_slits)
    for start in range(0, positions.size, block):
        u = centers.astype(ld)[None, :] - positions[start : start + block].astype(ld)[:, None]
        r = np.sqrt(ld(L2) * ld(L2) + u * u)
        phase = np.fmod(ld(k) * (u * u / (ld(L2) + r)), 2 * np.arccos(ld(-1)))
        phasor, slope = np.exp(1j * phase.astype(float)), (u / r).astype(float)
        for row, s in zip(rows, widths):
            envelope = np.sinc((k * s / (2.0 * math.pi)) * slope)
            row[start : start + block] = np.abs(s * (phasor * envelope).sum(axis=1)) ** 2
    return rows


def _node_cases():
    readme_grid = DetectorGrid(-230e-6, 230e-6, 0.5e-6, PSF_SIGMA)
    for name in grating_preset_names():
        for velocity in (50.0, 1000.0):
            yield pytest.param(name, velocity, GEO.L2, readme_grid, id=f"{name}-{velocity:g}")
    # short L2: the widest z = h sqrt(2 k MAX_SLIT_PHASE / L2), the most nodes
    short_grid = DetectorGrid(-2e-6, 2e-6, 0.01e-6, PSF_SIGMA)
    for velocity in (50.0, 220.0, 1000.0):
        yield pytest.param("sinx", velocity, 0.005, short_grid, id=f"sinx-{velocity:g}-L2-5mm")
    # where the error peaks over the presets at 50-1000 m/s on the README,
    # L2 = 5 mm and this L2 = 50 mm grid: 5.5e-13 of the in-window peak
    mid_grid = DetectorGrid(-20e-6, 20e-6, 0.05e-6, PSF_SIGMA)
    yield pytest.param("slg", 50.0, 0.05, mid_grid, id="slg-50-L2-50mm")
    # 200,001 pixels over the bright centre, 2.2e6 of the 4e6 pixel x slit
    # terms: chirp phases to 3.5e5 rad where the pattern is bright. Reduced
    # mod 2 pi the error is 6.7e-15; an unreduced float64 chirp reads 1.4e-11
    fine_grid = DetectorGrid(-5e-6, 5e-6, 0.05e-9, PSF_SIGMA)
    yield pytest.param("slg", 1000.0, GEO.L2, fine_grid, id="slg-1000-fine-pitch")


@needs_long_double
@pytest.mark.parametrize("preset, velocity, L2, grid", list(_node_cases()))
def test_node_envelope_matches_the_per_slit_sum(preset, velocity, L2, grid):
    grating = grating_preset(preset)
    k = wave_number(PCH2, velocity)
    wavelength = de_broglie_wavelength(PCH2, velocity)
    geometry = replace(GEO, L2=L2)
    n_slits = coherence(SOURCE, geometry, wavelength, grating.period, PREFACTOR).n_coherent_slits
    # the node bound is tightest at the widest width the slit-phase gate accepts
    s_limit = math.sqrt(8.0 * L2 * MAX_SLIT_PHASE / k) * (1.0 - 1e-9)
    widths = [s for s in (grating.effective_slit_width, grating.slit_width) if s < s_limit]
    terms = _slit_terms(k, L2, n_slits, grating.period, grid, max_width=s_limit)
    if velocity == 50.0:
        assert terms.weights.shape[1] < n_slits
    widths.append(s_limit)
    references = _per_slit_reference(k, L2, n_slits, grating.period, grid, widths)
    for s, reference in zip(widths, references):
        engine = _slit_envelope(terms, s)
        error = np.abs(engine - reference).max() / reference.max()
        assert error <= 1e-12, (s, error)


def _geometric_node_cases():
    readme_grid = DetectorGrid(-230e-6, 230e-6, 0.5e-6, PSF_SIGMA)
    short_grid = DetectorGrid(-2e-6, 2e-6, 0.01e-6, PSF_SIGMA)
    for name in grating_preset_names():
        for velocity in (50.0, 220.0, 1000.0):
            yield pytest.param(name, velocity, GEO.L2, readme_grid, id=f"{name}-{velocity:g}")
            yield pytest.param(name, velocity, 0.005, short_grid, id=f"{name}-{velocity:g}-L2-5mm")


@needs_long_double
@pytest.mark.parametrize("preset, velocity, L2, grid", list(_geometric_node_cases()))
def test_nodes_sized_for_the_geometric_width_match_the_per_slit_sum(preset, velocity, L2, grid):
    # band traces and fits size the nodes for the grating's geometric width
    grating = grating_preset(preset)
    k = wave_number(PCH2, velocity)
    wavelength = de_broglie_wavelength(PCH2, velocity)
    geometry = replace(GEO, L2=L2)
    n_slits = coherence(SOURCE, geometry, wavelength, grating.period, PREFACTOR).n_coherent_slits
    s_limit = math.sqrt(8.0 * L2 * MAX_SLIT_PHASE / k) * (1.0 - 1e-9)
    widths = {min(s, s_limit) for s in (grating.effective_slit_width, grating.slit_width)}
    terms = _slit_terms(k, L2, n_slits, grating.period, grid, max_width=grating.slit_width)
    if L2 == GEO.L2:
        assert terms.weights.shape[1] <= 10
    widths = sorted(widths)
    references = _per_slit_reference(k, L2, n_slits, grating.period, grid, widths)
    for s, reference in zip(widths, references):
        engine = _slit_envelope(terms, s)
        error = np.abs(engine - reference).max() / reference.max()
        assert error <= 1e-12, (s, error)


@needs_long_double
@pytest.mark.parametrize("n_slits", [1, 3])
def test_pixel_on_a_node_takes_the_on_node_term(n_slits):
    # x = 0 is a pixel of this grid and the centre slit's node: the sine
    # rate is exactly 0 there and the envelope is s W0 instead of V sin(s rho)
    grid = DetectorGrid(-(2.0**-16), 2.0**-16, 2.0**-24, PSF_SIGMA)
    centre = grid.n_pixels // 2
    assert grid.positions[centre] == 0.0
    grating = grating_preset("sinx")
    k = wave_number(PCH2, 220.0)
    terms = _slit_terms(
        k, GEO.L2, n_slits, grating.period, grid, max_width=grating.slit_width
    )
    assert terms.weights.shape[1] == n_slits  # the nodes are the centres
    assert terms.rate[n_slits // 2, terms.mirror[centre]] == 0.0
    assert terms.on_node[terms.mirror[centre]] != 0.0
    widths = (grating.effective_slit_width, grating.slit_width)
    references = _per_slit_reference(k, GEO.L2, n_slits, grating.period, grid, widths)
    for s, reference in zip(widths, references):
        engine = _slit_envelope(terms, s)
        assert np.isfinite(engine).all()
        assert np.abs(engine - reference).max() <= 1e-12 * reference.max()


def _assert_terms_match_the_per_slit_sum(k, L2, n_slits, period, grid, widths):
    # bound relative to the global peak (s N)^2: an off-axis window's own
    # maximum can sit many orders of magnitude below it
    terms = _slit_terms(k, L2, n_slits, period, grid, max_width=max(widths))
    references = _per_slit_reference(k, L2, n_slits, period, grid, widths)
    for s, reference in zip(widths, references):
        engine = _slit_envelope(terms, s)
        peak = (s * n_slits) ** 2
        assert np.abs(engine - reference).max() <= 1e-12 * peak, (s, n_slits)
    return terms


def _builder_domain_cases():
    readme_grid = DetectorGrid(-230e-6, 230e-6, 0.5e-6, PSF_SIGMA)
    # 0.1 m off the axis at L2 = 2 m the Fresnel remainder needs a node per slit
    yield pytest.param("sinx", 220.0, 2.0, DetectorGrid(0.1, 0.1001, 0.5e-6, PSF_SIGMA), None,
                       id="off-axis")
    yield pytest.param("sinx", 50.0, GEO.L2, DetectorGrid(-25e-6, 25e-6, 0.5e-6, PSF_SIGMA), None,
                       id="fewer-pixels-than-slits")
    yield pytest.param("sinx", 220.0, GEO.L2, readme_grid, 1, id="one-slit")
    yield pytest.param("slg", 540.0, GEO.L2, DetectorGrid(-30e-6, 47e-6, 0.5e-6, PSF_SIGMA), None,
                       id="odd-pixel-count")


@needs_long_double
@pytest.mark.parametrize("preset, velocity, L2, grid, n_slits", list(_builder_domain_cases()))
def test_chirp_z_terms_match_the_per_slit_sum(preset, velocity, L2, grid, n_slits):
    grating = grating_preset(preset)
    if n_slits is None:
        wavelength = de_broglie_wavelength(PCH2, velocity)
        n_slits = coherence(SOURCE, GEO, wavelength, grating.period, PREFACTOR).n_coherent_slits
    widths = [grating.effective_slit_width, grating.slit_width]
    k = wave_number(PCH2, velocity)
    terms = _assert_terms_match_the_per_slit_sum(k, L2, n_slits, grating.period, grid, widths)
    if grid.x_min >= 0.1:
        assert terms.weights.shape[1] == n_slits


@needs_long_double
@settings(derandomize=True, max_examples=40, deadline=None)
@given(
    preset=st.sampled_from(grating_preset_names()),
    velocity=st.floats(50.0, 1000.0),
    L2=st.floats(1e-3, 2.0),
    n_slits=st.integers(1, 400),
    n_pixels=st.integers(2, 300),
    pitch_share=st.floats(0.05, 1.0),
    angle=st.floats(-0.1, 0.1),
    width_share=st.floats(0.01, 1.0),
)
def test_terms_match_the_per_slit_sum_over_the_gated_domain(
    preset, velocity, L2, n_slits, n_pixels, pitch_share, angle, width_share
):
    # every width up to the node sizing that the slit-phase gate accepts, on
    # any window the pixel check accepts, centred up to 0.1 rad off the axis
    grating = grating_preset(preset)
    k = wave_number(PCH2, velocity)
    s_max = min(grating.slit_width, math.sqrt(8.0 * L2 * MAX_SLIT_PHASE / k) * (1.0 - 1e-9))
    # the pixel check's own arithmetic, so that pitch_share = 1 sits on its limit
    pitch = pitch_share * (2.0 * math.pi / k * L2 / grating.period / 2.0)
    x_min = angle * L2 - 0.5 * n_pixels * pitch
    grid = DetectorGrid(x_min, x_min + (n_pixels - 1) * pitch, pitch, PSF_SIGMA)
    _assert_terms_match_the_per_slit_sum(
        k, L2, n_slits, grating.period, grid, [width_share * s_max, s_max]
    )


@settings(derandomize=True, max_examples=25, deadline=None)
@given(
    preset=st.sampled_from(grating_preset_names()),
    velocity=st.floats(50.0, 1000.0),
    half_span_px=st.integers(1, 60),
    pitch_share=st.floats(0.05, 1.0),
    n_widths=st.integers(2, 10_000),
    lower_share=st.floats(0.02, 0.9),
)
@example(preset="sinx", velocity=220.0, half_span_px=60, pitch_share=0.9, n_widths=10_000,
         lower_share=0.02)
def test_envelope_scan_rows_match_the_envelope_at_each_width(
    preset, velocity, half_span_px, pitch_share, n_widths, lower_share
):
    # the bound _envelope_scan states on windows that hold the zeroth order,
    # for scans up to MAX_COARSE_POINTS widths: 64 rows pass between the
    # exact recomputations, so a long scan is where rounding would pile up
    grating = grating_preset(preset)
    k = wave_number(PCH2, velocity)
    pitch = pitch_share * (2.0 * math.pi / k * GEO.L2 / grating.period / 2.0)
    half_span = half_span_px * pitch
    grid = DetectorGrid(-half_span, half_span, pitch, PSF_SIGMA)
    n_slits = coherence(SOURCE, GEO, 2.0 * math.pi / k, grating.period, PREFACTOR).n_coherent_slits
    terms = _slit_terms(
        k, GEO.L2, n_slits, grating.period, grid, max_width=grating.slit_width
    )
    widths = np.linspace(lower_share * grating.slit_width, grating.slit_width, n_widths)
    rows = _envelope_scan(terms, widths)
    assert rows.shape == (n_widths, grid.n_pixels)
    for row, s in zip(rows, widths):
        expected = _slit_envelope(terms, float(s))
        assert np.abs(row - expected).max() <= 1e-13 * expected.max(), s


def _row_at_a_time_scan(terms, widths):
    # the scan one row at a time: rotate the phasor, recompute it every 64
    # rows, and contract each row's sines on their own
    step = np.exp((1j * (widths[-1] - widths[0]) / (widths.size - 1)) * terms.rate)
    rows = []
    for i, s in enumerate(widths):
        if i % 64:
            z *= step
        else:
            z = np.exp((1j * s) * terms.rate)
        rows.append(_contract(terms, z.imag, float(s)))
    return np.array(rows)


@pytest.mark.parametrize("preset, grid, n_slits", [
    pytest.param("sinx", DetectorGrid(-70e-6, 70e-6, 1e-6, PSF_SIGMA), None, id="sinx"),
    pytest.param("slg", DetectorGrid(-70e-6, 70e-6, 1e-6, PSF_SIGMA), None, id="slg"),
    # x = 0 is a pixel and the centre slit's node, so the s W0 term is live
    pytest.param("sinx", DetectorGrid(-(2.0**-16), 2.0**-16, 2.0**-24, PSF_SIGMA), 3, id="on-node"),
])
@pytest.mark.parametrize("n_widths", [2, 15, 16, 17, 63, 64, 65, 130])
def test_envelope_scan_blocks_equal_the_row_at_a_time_scan(preset, grid, n_slits, n_widths):
    # the 16-row blocks and the 64-row recompute reorganise the scan only:
    # lengths around both boundaries give the same rows, bit for bit
    grating = grating_preset(preset)
    k = wave_number(PCH2, 220.0)
    if n_slits is None:
        n_slits = coherence(
            SOURCE, GEO, 2.0 * math.pi / k, grating.period, PREFACTOR
        ).n_coherent_slits
    terms = _slit_terms(
        k, GEO.L2, n_slits, grating.period, grid, max_width=grating.slit_width
    )
    widths = np.linspace(1e-9, grating.slit_width, n_widths)
    assert np.array_equal(_envelope_scan(terms, widths), _row_at_a_time_scan(terms, widths))


@needs_long_double
@settings(derandomize=True, max_examples=40, deadline=None)
@given(
    preset=st.sampled_from(grating_preset_names()),
    velocity=st.floats(*VELOCITY_SUPPORT),
    half_span_px=st.integers(1, 150),
    even=st.booleans(),
    pitch_share=st.floats(0.05, 1.0),
    width_share=st.floats(0.01, 1.0),
)
def test_folded_terms_match_the_per_slit_sum_on_both_halves(
    preset, velocity, half_span_px, even, pitch_share, width_share
):
    # a grid symmetric about x = 0, odd or even pixel count: the terms hold
    # ceil(P/2) pixels, the pattern is its own mirror bit for bit, and both
    # halves of the envelope and of a scan row match the per-slit sum
    grating = grating_preset(preset)
    k = wave_number(PCH2, velocity)
    n_slits = coherence(SOURCE, GEO, 2.0 * math.pi / k, grating.period, PREFACTOR).n_coherent_slits
    pitch = pitch_share * (2.0 * math.pi / k * GEO.L2 / grating.period / 2.0)
    half_span = (half_span_px + 0.5 * even) * pitch
    grid = DetectorGrid(-half_span, half_span, pitch, PSF_SIGMA)
    assert grid.n_pixels == 2 * half_span_px + 1 + even
    terms = _slit_terms(k, GEO.L2, n_slits, grating.period, grid, max_width=grating.slit_width)
    assert terms.rate.shape[1] == half_span_px + 1
    s = width_share * grating.slit_width
    engine = _slit_envelope(terms, s)
    assert np.array_equal(engine, engine[::-1])
    row = _envelope_scan(terms, np.linspace(s / 3.0, s, 3))[-1]
    (reference,) = _per_slit_reference(k, GEO.L2, n_slits, grating.period, grid, [s])
    peak = (s * n_slits) ** 2
    for half in (slice(None, grid.n_pixels // 2), slice(grid.n_pixels // 2, None)):
        for values in (engine, row):
            assert np.abs(values[half] - reference[half]).max() <= 1e-12 * peak, half


@pytest.mark.parametrize("grid", [
    pytest.param(DetectorGrid(-30e-6, 47e-6, 0.5e-6, PSF_SIGMA), id="odd-pixel-count"),
    pytest.param(DetectorGrid(-39.95e-6, 40.05e-6, 0.5e-6, PSF_SIGMA), id="shifted-a-tenth-pixel"),
    # x_p + x_{P-1-p} = 4e-17 m = 1e-12 max|x|, far past the fold's 8 eps max|x|
    pytest.param(DetectorGrid(-40e-6 + 2e-17, 40e-6 + 2e-17, 0.5e-6, PSF_SIGMA),
                 id="asymmetric-by-1e-12-of-the-span"),
])
def test_asymmetric_grids_are_built_in_full(grid):
    grating = grating_preset("slg")
    k = wave_number(PCH2, 540.0)
    terms = _slit_terms(k, GEO.L2, 20, grating.period, grid, max_width=grating.slit_width)
    assert terms.rate.shape[1] == grid.n_pixels
    assert np.array_equal(terms.mirror, np.arange(grid.n_pixels))


def test_one_wrapper_sees_every_class_on_every_path(monkeypatch):
    # images, band traces and fits build their classes through diffraction's
    # class path, so one wrapper there counts every pattern's terms
    built = []

    def recording(k, *args, **kwargs):
        built.append(k)
        return _slit_terms(k, *args, **kwargs)

    monkeypatch.setattr(diffraction, "_slit_terms", recording)
    config = load_run_config(preset="sinx", overrides=[
        "velocity.kind=discrete", "velocity.list_m_s=200,220,240",
        "detector.x_min_um=-40", "detector.x_max_um=40",
    ])
    molecule, geometry, source = config.molecule(), config.geometry(), config.source()
    grating, band = config.grating(), config.velocity_distribution()
    per_class = [wave_number(molecule, v) for v in (200.0, 220.0, 240.0)]

    result = synthesize_image(band, grating, source, geometry, config.image_grid(), molecule,
                              coherence_prefactor=PREFACTOR)
    assert result.clipped_velocities == ()
    assert built == per_class
    built.clear()
    trace = band_averaged_trace(grating, molecule, band, source, geometry, config.detector_grid(),
                                coherence_prefactor=PREFACTOR)
    assert built == per_class
    built.clear()
    fit_effective_slit(trace, grating, molecule, band, geometry, source, **FIT_OPTIONS)
    assert built == per_class
    built.clear()
    kirchhoff_pattern(grating, per_class[1], geometry.L2, 20, config.detector_grid())
    assert built == per_class[1:2]


def test_the_benchmark_classes_fold(monkeypatch):
    # the fold halves the engine work of perfbench's image-beam and fit-seff
    # workloads; a change to its condition must not drop their grids
    built = []

    def recording(*args, **kwargs):
        built.append((args[4], _slit_terms(*args, **kwargs)))
        return built[-1][1]

    monkeypatch.setattr(diffraction, "_slit_terms", recording)
    # every slg class that lands on the README image grid
    config = load_run_config(preset="slg", overrides=[
        "velocity.kind=maxwell-boltzmann-beam", "velocity.n_classes=40",
        "velocity.v_min_m_s=60", "velocity.v_max_m_s=540",
    ])
    synthesize_image(
        config.velocity_distribution(), config.grating(), config.source(), config.geometry(),
        config.image_grid(), config.molecule(),
        coherence_prefactor=config.require("source.coherence_prefactor"),
    )
    assert len(built) == 12
    # fit-seff's five sinx classes on +-140 microns, for the target trace
    # and on the grid the fit rebuilds from the trace's positions
    config = load_run_config(preset="sinx", overrides=[
        "velocity.kind=uniform-band", "velocity.center_m_s=220", "velocity.half_width_m_s=10",
        "velocity.n_classes=5", "detector.x_min_um=-140", "detector.x_max_um=140",
        "detector.pixel_pitch_um=1",
    ])
    inputs = (config.grating(), config.molecule(), config.velocity_distribution())
    measured = band_averaged_trace(*inputs, config.source(), config.geometry(),
                                   config.detector_grid(), coherence_prefactor=PREFACTOR)
    fit_effective_slit(measured, *inputs, config.geometry(), config.source(), **FIT_OPTIONS)
    assert len(built) == 12 + 5 + 5
    for grid, terms in built:
        assert terms.rate.shape[1] == (grid.n_pixels + 1) // 2, grid
