"""Inverse problem: recover the effective slit width that best reproduces a
measured diffraction trace.

Attractive molecule-wall forces narrow each slit's effective transmission
window; in the binary-mask model the full forward simulation depends on a
single unknown, the effective slit width. The fit minimizes the RMS
difference between the detector-convolved simulated trace and the measured
trace (both max-normalized) with a coarse scan followed by golden-section
refinement — derivative-free, immune to the shallow secondary minima that
appear when an envelope zero sweeps across a diffraction order.

The pattern is even, so every model's zeroth order sits at x = 0, the beam
axis as ``simulate`` writes it. The measured trace is registered once, by its
zeroth order: its largest sample within half a fringe lambda L2 / d of x = 0.
A measured zeroth order more than half a fringe off axis registers on another
order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .diffraction import DetectorGrid, Trace, _band_sum, _class_terms, far_field_orders
from .diffraction import _check_blur_budget, gaussian_kernel, symmetric_convolve
from .domain import BeamlineGeometry, Grating, Molecule, SourceModel, de_broglie_wavelength
from .errors import DomainError, FitError, WorkBudgetError
from .gravity import VelocityDistribution, _parabolic_peak, _window_peak

__all__ = [
    "OrderPopulation",
    "SlitFitResult",
    "band_averaged_trace",
    "fit_effective_slit",
    "order_population",
]

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0

# most points a coarse scan may take: on the fit-seff grid (281 pixels, 5
# classes of 9 nodes) a point costs about 0.044 ms (2-core VM, 0.059 ms
# unfolded) and 9.4 kB, 34 B per pixel for its row of the scan while the rows
# are blurred, so 10,000 points take 0.44 s and 0.094 GB there (0.31 GB on the
# README 921-pixel grid), plus the scan's constant 16 x M x P' x 8 B block
# buffer on the computed pixels (0.16 MB there)
MAX_COARSE_POINTS = 10_000


def band_averaged_trace(
    grating: Grating,
    molecule: Molecule,
    velocity_band: VelocityDistribution,
    source: SourceModel,
    geometry: BeamlineGeometry,
    grid: DetectorGrid,
    *,
    coherence_prefactor: float,
) -> Trace:
    """Incoherent velocity-band average of convolved diffraction patterns.

    Each velocity class is simulated with its own wavelength and coherent
    slit count, normalized to unit pixel sum (each class carries exactly its
    ensemble weight), accumulated, and finally convolved with the detector
    Gaussian of the grid. A grid with ``psf_sigma`` 0 gives the one-tap
    identity kernel and so the raw, unconvolved sum.
    """
    classes = _class_terms(
        zip(velocity_band.velocities, velocity_band.weights),
        grating, molecule, source, geometry, grid, coherence_prefactor,
    )
    band = _band_sum(classes, grating.effective_slit_width)
    kernel = gaussian_kernel(grid.psf_sigma, grid.pixel_pitch)
    return Trace(grid.positions, symmetric_convolve(band, kernel))


@dataclass(frozen=True)
class OrderPopulation:
    """One diffraction order located on a trace.

    ``height`` is the peak trace value relative to the zeroth order's peak.
    ``found`` is True when the largest sample within a quarter fringe of the
    nominal position lies inside that window, not on its edge, and False
    otherwise; evanescent orders are never found and carry NaN positions.
    """

    n: int
    nominal_position: float
    peak_position: float
    height: float
    found: bool


def order_population(
    trace: Trace,
    period: float,
    wavelength: float,
    L2: float,
    n_max: int = 9,
) -> tuple[OrderPopulation, ...]:
    """Locate diffraction orders 0..n_max on a trace and report their peak
    heights relative to order 0.

    Each order is searched within a quarter of the fringe spacing
    lambda*L2/d of its grating-equation position, with sub-pixel parabolic
    refinement. An order whose largest sample there lies on the window's
    edge is reported with found=False; evanescent orders get NaN positions
    and zero height.
    """
    x, y = trace.positions, trace.intensities
    positions = far_field_orders(wavelength, period, L2, n_max)
    half = wavelength * L2 / period / 4.0
    peaks = [_window_peak(x, y, center, half) for center in positions]
    heights = [0.0 if i is None else float(y[i]) for i, _ in peaks]  # no window, no height
    if heights[0] <= 0.0:
        raise FitError("trace has no signal at the zeroth order; cannot normalize")
    records = [
        OrderPopulation(
            n, center, center if i is None else _parabolic_peak(x, y, i), h / heights[0], found
        )
        for n, (center, (i, found), h) in enumerate(zip(positions, peaks, heights))
    ]
    records += [
        OrderPopulation(n, math.nan, math.nan, 0.0, False)
        for n in range(len(positions), n_max + 1)
    ]
    return tuple(records)


@dataclass(frozen=True)
class SlitFitResult:
    """Best-fit effective slit width with search diagnostics."""

    effective_slit_width: float
    residual: float            # RMS on max-normalized traces, registered once at x = 0
    suppression_ratio: float   # geometric / effective
    evaluations: int
    bracket: tuple[float, float]
    model: Trace               # the blurred band trace at that width, measured positions


def _registered_rms(reference: np.ndarray, candidates: np.ndarray, shift: int) -> np.ndarray:
    """RMS difference of each candidate row (last axis) from ``reference``
    after max-normalization, over the overlap where reference[i + shift]
    meets candidate[i]; one value per row, 0-d for a 1-D candidate."""
    a = reference / reference.max()
    b = candidates / candidates.max(axis=-1, keepdims=True)
    a_part = a[max(shift, 0) : a.size + min(shift, 0)]
    b_part = b[..., max(-shift, 0) : b.shape[-1] - max(shift, 0)]
    return np.sqrt(np.mean((a_part - b_part) ** 2, axis=-1))


def fit_effective_slit(
    measured: Trace,
    grating: Grating,
    molecule: Molecule,
    velocity_band: VelocityDistribution,
    geometry: BeamlineGeometry,
    source: SourceModel,
    *,
    psf_sigma: float,
    coherence_prefactor: float,
    coarse_step: float,
    tolerance: float,
    lower_bound: float,
) -> SlitFitResult:
    """Fit the effective slit width that best reproduces ``measured``.

    The forward model is ``band_averaged_trace`` on the measured trace's own
    grid; each class's width-independent terms (``diffraction._class_terms``)
    are built once per call. The residual is the RMS difference after
    max-normalization, with the measured trace registered once: shifted by
    the pixel offset from x = 0 of its largest sample within half a fringe
    lambda L2 / d of x = 0, lambda of the band's fastest class. x = 0 is the
    beam axis, where every model's zeroth order sits; a measured zeroth
    order more than half a fringe off it registers on another order, and a
    window whose largest sample sits on its edge is refused. A coarse scan at
    ``coarse_step`` over [lower_bound, slit width] brackets the global
    minimum: one rotated-phasor pass per class (``diffraction._envelope_scan``)
    and one blur and one scoring call for the summed rows, each row one
    evaluation within 1e-13 of its peak of ``band_averaged_trace`` (at most
    5.4e-16 on the presets at 100-540 m/s). Golden-section search then refines it to
    ``tolerance`` on ``band_averaged_trace``'s own path, bit for bit,
    as is the returned model, which the residual scores. A step that is not
    positive, a tolerance below the float spacing at the slit width, or a
    scan of more than ``MAX_COARSE_POINTS`` points is refused, as is, before any
    scan, a class that ``kirchhoff_pattern`` refuses at the slit width, the widest
    width tried: each of its checks that fails at a width fails at every wider one.
    """
    # golden section cannot shrink a bracket below the float spacing of its widths
    if not (tolerance >= math.ulp(grating.slit_width) and coarse_step > 0.0):
        raise DomainError(
            f"need tolerance >= {math.ulp(grating.slit_width)!r} m and coarse step > 0, "
            f"got {tolerance!r}, {coarse_step!r}"
        )
    x, y = measured.positions, measured.intensities
    if y.max() <= 0.0 or y.max() == y.min():
        raise FitError("measured trace is flat; there is nothing to fit")
    # the fastest class has the narrowest fringe; every model's zeroth order is nearest x = 0
    wavelength = de_broglie_wavelength(molecule, float(velocity_band.velocities.max()))
    i0, found = _window_peak(x, y, 0.0, wavelength * geometry.L2 / grating.period / 2.0)
    if not found:
        raise FitError("measured trace has no interior peak within half a fringe of x = 0")
    shift = i0 - int(np.argmin(np.abs(x)))

    lo = max(lower_bound, tolerance)
    hi = grating.slit_width
    if not lo < hi:
        raise DomainError(
            f"empty search interval [{lo!r}, {hi!r}] for the effective slit width"
        )
    steps = (hi - lo) / coarse_step
    if steps >= MAX_COARSE_POINTS:
        raise WorkBudgetError(
            f"a coarse scan over [{lo!r}, {hi!r}] m at {coarse_step!r} m steps takes "
            f"{np.floor(steps) + 1:.0f} points, more than the budget of {MAX_COARSE_POINTS}"
        )

    grid = DetectorGrid(
        x_min=float(measured.positions[0]),
        x_max=float(measured.positions[-1]),
        pixel_pitch=measured.pixel_pitch,
        psf_sigma=psf_sigma,
    )
    if grid.n_pixels != len(measured):
        raise DomainError("measured trace grid is not reconstructible; cannot fit")

    # coarse scan guards against secondary minima near envelope-zero crossings
    n_coarse = max(2, int(steps) + 1)
    kernel = gaussian_kernel(psf_sigma, grid.pixel_pitch)
    _check_blur_budget((n_coarse, grid.n_pixels), kernel.size)
    # everything but the sinc is independent of s_eff: build and check it once, at hi
    classes = list(_class_terms(
        zip(velocity_band.velocities, velocity_band.weights),
        replace(grating, effective_slit_width=hi), molecule, source, geometry, grid,
        coherence_prefactor,
    ))
    coarse = np.linspace(lo, hi, n_coarse)
    coarse_values = _registered_rms(
        y, symmetric_convolve(_band_sum(classes, coarse), kernel), shift
    )
    evaluations = n_coarse

    def model(s_eff: float) -> np.ndarray:
        nonlocal evaluations
        evaluations += 1
        return symmetric_convolve(_band_sum(classes, s_eff), kernel)

    def objective(s_eff: float) -> float:
        return float(_registered_rms(y, model(s_eff), shift))

    best = int(np.argmin(coarse_values))
    a = float(coarse[max(0, best - 1)])
    b = float(coarse[min(n_coarse - 1, best + 1)])

    bracket = (a, b)
    c = b - _INV_PHI * (b - a)
    d = a + _INV_PHI * (b - a)
    fc, fd = objective(c), objective(d)
    while (b - a) > tolerance:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - _INV_PHI * (b - a)
            fc = objective(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INV_PHI * (b - a)
            fd = objective(d)
    s_fit = (a + b) / 2.0
    fitted = model(s_fit)

    return SlitFitResult(
        effective_slit_width=s_fit,
        residual=float(_registered_rms(y, fitted, shift)),
        suppression_ratio=grating.slit_width / s_fit,
        evaluations=evaluations,
        bracket=bracket,
        model=Trace(measured.positions, fitted),
    )
