"""Inverse problem: recover the effective slit width that best reproduces a
measured diffraction trace.

Attractive molecule-wall forces narrow each slit's effective transmission
window; in the binary-mask model the full forward simulation depends on a
single unknown, the effective slit width. The fit minimizes the RMS
difference between the detector-convolved simulated trace and the measured
trace (both max-normalized and registered on their principal peak) with a
coarse scan followed by golden-section refinement — derivative-free, immune
to the shallow secondary minima that appear when an envelope zero sweeps
across a diffraction order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .diffraction import (
    DetectorGrid,
    Trace,
    _SlitTerms,
    far_field_orders,
    gaussian_kernel,
    symmetric_convolve,
)
from .domain import BeamlineGeometry, Grating, Molecule, SourceModel
from .errors import DomainError, FitError, WorkBudgetError
from .gravity import VelocityDistribution, _class_row, _class_terms, _local_maxima
from .gravity import _parabolic_peak

__all__ = [
    "OrderPopulation",
    "SlitFitResult",
    "band_averaged_trace",
    "fit_effective_slit",
    "order_population",
    "suppression_ratio",
]

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0

# most points a coarse scan may take; the default scan takes 49, a 0.1 nm step
# over the widest preset slit 641
MAX_COARSE_POINTS = 10_000


def suppression_ratio(slit_width: float, effective_slit_width: float) -> float:
    """Geometric-to-effective slit width ratio, >= 1 for attractive walls."""
    if not 0.0 < effective_slit_width <= slit_width:
        raise DomainError(
            f"need 0 < effective width <= slit width, got "
            f"{effective_slit_width!r} vs {slit_width!r}"
        )
    return slit_width / effective_slit_width


def _band_sum(
    classes: Iterable[tuple[float, _SlitTerms]], s: float, grid: DetectorGrid,
    kernel: np.ndarray | None,
) -> Trace:
    """Weighted sum of the classes' unit-sum patterns at slit width ``s``,
    convolved with ``kernel`` (the detector Gaussian) unless it is None."""
    acc = np.zeros(grid.n_pixels)
    for w, terms in classes:
        acc += w * _class_row(terms, s)
    if kernel is not None:
        acc = symmetric_convolve(acc, kernel)
    return Trace(grid.positions, acc)


def band_averaged_trace(
    grating: Grating,
    molecule: Molecule,
    velocity_band: VelocityDistribution,
    source: SourceModel,
    geometry: BeamlineGeometry,
    grid: DetectorGrid,
    *,
    coherence_prefactor: float = 1.5,
    window: str = "hard",
    convolve: bool = True,
) -> Trace:
    """Incoherent velocity-band average of convolved diffraction patterns.

    Each velocity class is simulated with its own wavelength and coherent
    slit count, normalized to unit pixel sum (each class carries exactly its
    ensemble weight), accumulated, and finally convolved with the detector
    Gaussian of the grid (skipped when ``convolve`` is False).
    """
    classes = _class_terms(
        zip(velocity_band.velocities, velocity_band.weights),
        grating, molecule, source, geometry, grid, coherence_prefactor, window,
    )
    kernel = gaussian_kernel(grid.psf_sigma, grid.pixel_pitch) if convolve else None
    return _band_sum(classes, grating.effective_slit_width, grid, kernel)


@dataclass(frozen=True)
class OrderPopulation:
    """One diffraction order located on a trace.

    ``height`` is the peak trace value relative to the zeroth order's peak.
    ``found`` is False when the trace has no interior local maximum within a
    quarter fringe of the nominal position (order suppressed or evanescent);
    evanescent orders carry NaN positions.
    """

    n: int
    nominal_position: float
    peak_position: float
    height: float
    found: bool


def _window_peak(
    trace: Trace, center: float, half_width: float
) -> tuple[float, float, bool]:
    """(peak position, raw peak value, found) for the strongest point within
    center +- half_width; found requires an interior local maximum away from
    the window edges."""
    x = trace.positions
    y = trace.intensities
    mask = (x >= center - half_width) & (x <= center + half_width)
    idx = np.nonzero(mask)[0]
    if idx.size < 3:
        return center, 0.0, False
    j = int(np.argmax(y[idx]))
    i = int(idx[j])
    found = (
        0 < i < y.size - 1
        and 0 < j < idx.size - 1
        and y[i] >= y[i - 1]
        and y[i] >= y[i + 1]
        and y[i] > 0.0
    )
    return _parabolic_peak(x, y, i), float(y[i]), found


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
    refinement. Orders without an interior local maximum there are reported
    with found=False; evanescent orders get NaN positions and zero height.
    """
    if n_max < 0:
        raise DomainError(f"n_max must be non-negative, got {n_max!r}")
    ff = far_field_orders(wavelength, period, L2, n_max)
    fringe = wavelength * L2 / period
    half = fringe / 4.0

    x0, h0, found0 = _window_peak(trace, ff.position(0), half)
    if h0 <= 0.0:
        raise FitError("trace has no signal at the zeroth order; cannot normalize")

    records: list[OrderPopulation] = []
    propagating = {o.n: o for o in ff.orders}
    for n in range(n_max + 1):
        if n not in propagating:
            records.append(OrderPopulation(n, math.nan, math.nan, 0.0, False))
            continue
        nominal = propagating[n].position
        if n == 0:
            records.append(OrderPopulation(0, nominal, x0, 1.0, found0))
            continue
        xpk, h, found = _window_peak(trace, nominal, half)
        records.append(OrderPopulation(n, nominal, xpk, h / h0, found))
    return tuple(records)


@dataclass(frozen=True)
class SlitFitResult:
    """Best-fit effective slit width with search diagnostics."""

    effective_slit_width: float
    residual: float            # RMS on max-normalized, peak-registered traces
    suppression_ratio: float   # geometric / effective
    evaluations: int
    bracket: tuple[float, float]


def _registered_rms(reference: np.ndarray, candidate: np.ndarray) -> float:
    """RMS difference after max-normalization and integer-pixel alignment of
    the principal peaks."""
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


def fit_effective_slit(
    measured: Trace,
    grating: Grating,
    molecule: Molecule,
    velocity_band: VelocityDistribution,
    geometry: BeamlineGeometry,
    source: SourceModel,
    *,
    psf_sigma: float = 3.5e-6,
    coherence_prefactor: float = 1.5,
    coarse_step: float = 1e-9,
    tolerance: float = 1e-10,
    lower_bound: float = 1e-9,
) -> SlitFitResult:
    """Fit the effective slit width that best reproduces ``measured``.

    The forward model is the velocity-band-averaged, detector-convolved
    multi-slit pattern on the measured trace's own grid, the same as
    ``band_averaged_trace`` bit for bit. Each class's slit-width-independent
    terms (pixels x envelope nodes, see ``gravity._class_terms``) are
    built once per call and reused by every evaluation. The
    residual is the RMS difference after max-normalization and
    principal-peak registration.
    A coarse scan at ``coarse_step`` over [lower_bound, slit width] brackets
    the global minimum, then golden-section search refines it to
    ``tolerance`` (0.1 nm by default). A step that is not positive, a tolerance
    below the float spacing at the slit width, or a scan of more than
    ``MAX_COARSE_POINTS`` points is refused.
    """
    # golden section cannot shrink a bracket below the float spacing of its widths
    if not (tolerance >= math.ulp(grating.slit_width) and coarse_step > 0.0):
        raise DomainError(
            f"need tolerance >= {math.ulp(grating.slit_width)!r} m and coarse step > 0, "
            f"got {tolerance!r}, {coarse_step!r}"
        )
    y = measured.intensities
    if y.max() <= 0.0 or y.max() == y.min():
        raise FitError("measured trace is flat; there is nothing to fit")
    # intensities are non-negative, so a local maximum is also positive
    if _local_maxima(y).size == 0:
        raise FitError("measured trace has no interior peak; there is nothing to fit")

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

    # everything but the sinc is independent of s_eff: build it once per fit
    kernel = gaussian_kernel(psf_sigma, grid.pixel_pitch)
    classes = list(_class_terms(
        zip(velocity_band.velocities, velocity_band.weights),
        grating, molecule, source, geometry, grid, coherence_prefactor, "hard",
    ))
    evaluations = 0

    def objective(s_eff: float) -> float:
        nonlocal evaluations
        evaluations += 1
        return _registered_rms(y, _band_sum(classes, s_eff, grid, kernel).intensities)

    # coarse scan guards against secondary minima near envelope-zero crossings
    n_coarse = max(2, int(steps) + 1)
    coarse = np.linspace(lo, hi, n_coarse)
    coarse_values = [objective(float(s)) for s in coarse]
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
    residual = objective(s_fit)

    return SlitFitResult(
        effective_slit_width=s_fit,
        residual=residual,
        suppression_ratio=suppression_ratio(grating.slit_width, s_fit),
        evaluations=evaluations,
        bracket=bracket,
    )
