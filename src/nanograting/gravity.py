"""Gravitational velocity dispersion: free-fall row placement, velocity
inversion from fall height, 2D interferogram synthesis, and the stripe-wise
velocity profile of a synthesized or measured image.

Vertical coordinates are heights in a common frame, positive up. A molecule
of forward speed v passing through the source (height y0, distance 0) and the
grating (height y1, distance L1) lands on the detector (distance L) at

    y2 = y0 + (y1 - y0) * (L / L1) + A / v^2,   A = g (L L1 - L^2) / 2 < 0,

i.e. on the extrapolated source-grating line, lowered by the free-fall term.
Inverting this relation for v is exactly the velocity fit used throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Iterable, Iterator

import numpy as np

from .diffraction import (
    DetectorGrid,
    _envelope_scan,
    _frozen_array,
    _pixel_count,
    _slit_envelope,
    _slit_terms,
    _SlitTerms,
    coherence,
    gaussian_kernel,
    symmetric_convolve,
)
from .domain import CONSTANTS, BeamlineGeometry, Grating, Molecule, SourceModel
from .domain import de_broglie_wavelength
from .errors import DomainError, GeometryError, WorkBudgetError

__all__ = [
    "ImageGrid",
    "Interferogram",
    "StripeProfile",
    "StripeVelocity",
    "SynthesisResult",
    "VelocityDistribution",
    "fall_position",
    "fit_velocity",
    "stripe_velocity_profile",
    "synthesize_image",
]

# velocity range over which image synthesis is validated
VELOCITY_SUPPORT = (50.0, 1000.0)

ORIENTATION = "up-positive"  # the one row order of an interferogram: index rises with height

MIN_STRIPE_SIGNAL = 1e-3  # least stripe peak, relative to the image peak
MIN_PEAK_FRACTION = 0.02  # least first-order peak, relative to its stripe's zeroth order

# most classes a Maxwell beam, uniform band or discrete list may hold: each
# class builds one pattern's terms, about 0.38 ms (2-core VM) and 0.13 MB on the
# README 921-pixel grid, and a fit keeps every class's terms, so 2,000 classes
# take 0.8 s and 0.25 GB there
MAX_VELOCITY_CLASSES = 2_000

# largest image one call may hold, in pixels: synthesize_image's ny x nx image
# plus its class rows and placements, and render_image's output rows x nx; a
# render peaks at about 29 B per output pixel at a stretch of 1 or less and
# 12 B at a stretch of 3 (at most 0.15 GB), a synthesis at 19 B
MAX_IMAGE_PIXELS = 5_000_000


def _ballistic_coefficient(geometry: BeamlineGeometry) -> float:
    try:
        coefficient = geometry.g * (geometry.L * geometry.L1 - geometry.L**2) / 2.0
    except OverflowError:  # from L**2, where L * L would round to inf
        coefficient = math.inf
    if not math.isfinite(coefficient):
        raise DomainError(
            f"free-fall coefficient g (L L1 - L^2) / 2 overflows at L = {geometry.L!r} m"
        )
    return coefficient


def _check_class_count(n_classes: int) -> None:
    if n_classes < 1:
        raise DomainError("need at least one velocity class")
    if n_classes > MAX_VELOCITY_CLASSES:
        raise WorkBudgetError(
            f"{n_classes} velocity classes (one pattern each) exceeds the budget "
            f"of {MAX_VELOCITY_CLASSES}"
        )


@dataclass(frozen=True)
class VelocityDistribution:
    """A forward-speed ensemble discretized into weighted classes.

    ``weights`` are normalized to unit sum. Use the classmethod constructors;
    the generic constructor validates whatever classes it is given.
    """

    velocities: np.ndarray
    weights: np.ndarray

    def __post_init__(self) -> None:
        v = np.asarray(self.velocities, dtype=float)
        w = np.asarray(self.weights, dtype=float)
        if v.ndim != 1 or w.ndim != 1 or v.size != w.size or v.size == 0:
            raise DomainError("velocities and weights must be 1D arrays of equal, non-zero length")
        if np.any(v <= 0.0):
            raise DomainError("all velocity classes must be positive")
        if np.any(w < 0.0):
            raise DomainError("weights must be non-negative")
        total = float(w.sum())
        if total <= 0.0:
            raise DomainError("at least one weight must be positive")
        object.__setattr__(self, "velocities", _frozen_array(v))
        object.__setattr__(self, "weights", _frozen_array(w / total))

    def __len__(self) -> int:
        return int(self.velocities.size)

    @classmethod
    def maxwell_beam(
        cls,
        most_probable_velocity: float,
        n_classes: int = 200,
        v_min: float | None = None,
        v_max: float | None = None,
    ) -> "VelocityDistribution":
        """Effusive-beam weighting w(v) ~ v^3 exp(-v^2 / v_p^2).

        v_p is the thermal scale parameter; the beam-flux mode sits at
        sqrt(3/2) v_p. Classes are uniform over [v_p/3, 3 v_p] unless
        other bounds are given.
        """
        if most_probable_velocity <= 0.0:
            raise DomainError("most probable velocity must be positive")
        _check_class_count(n_classes)
        lo = most_probable_velocity / 3.0 if v_min is None else v_min
        hi = 3.0 * most_probable_velocity if v_max is None else v_max
        if not 0.0 < lo < hi:
            raise DomainError(f"need 0 < v_min < v_max, got [{lo!r}, {hi!r}]")
        v = np.linspace(lo, hi, n_classes) if n_classes > 1 else np.array([(lo + hi) / 2.0])
        w = v**3 * np.exp(-((v / most_probable_velocity) ** 2))
        return cls(v, w)

    @classmethod
    def uniform_band(cls, center: float, half_width: float, n_classes: int = 5) -> "VelocityDistribution":
        """Equal-weight classes spread uniformly over center +- half_width."""
        if center <= 0.0:
            raise DomainError("band center must be positive")
        if half_width < 0.0 or half_width >= center:
            raise DomainError("band half-width must satisfy 0 <= half_width < center")
        _check_class_count(n_classes)
        if half_width == 0.0 or n_classes == 1:
            v = np.array([center])
        else:
            v = np.linspace(center - half_width, center + half_width, n_classes)
        return cls(v, np.ones_like(v))

    @classmethod
    def discrete(cls, velocities) -> "VelocityDistribution":
        """Equal-weight classes at the given velocities."""
        v = np.asarray(velocities, dtype=float)
        _check_class_count(v.size)
        return cls(v, np.ones_like(v))


@dataclass(frozen=True)
class ImageGrid:
    """Uniform 2D pixel grid, y positive up; ``detector_grid()`` is its columns and checks them."""

    x_min: float
    x_max: float
    y_min: float
    y_max: float
    pixel_pitch_x: float
    pixel_pitch_y: float
    psf_sigma: float = 3.5e-6

    def __post_init__(self) -> None:
        self.detector_grid()
        if not (self.y_max > self.y_min and self.pixel_pitch_y > 0.0):
            raise DomainError("image grid needs y_max > y_min and a positive y pitch")

    @property
    def nx(self) -> int:
        return self.detector_grid().n_pixels

    @property
    def ny(self) -> int:
        return _pixel_count(self.y_min, self.y_max, self.pixel_pitch_y)

    def detector_grid(self) -> DetectorGrid:
        return DetectorGrid(self.x_min, self.x_max, self.pixel_pitch_x, self.psf_sigma)


@dataclass(frozen=True)
class Interferogram:
    """A 2D intensity image. Row index increases with height (``ORIENTATION``):
    values[iy, ix] sits at (x_min + ix * pitch_x, y_min + iy * pitch_y)."""

    values: np.ndarray
    pixel_pitch_x: float
    pixel_pitch_y: float
    x_min: float
    y_min: float

    def __post_init__(self) -> None:
        arr = np.asarray(self.values, dtype=float)
        if arr.ndim != 2 or arr.size == 0:
            raise DomainError("interferogram values must be a non-empty 2D array")
        if self.pixel_pitch_x <= 0.0 or self.pixel_pitch_y <= 0.0:
            raise DomainError("pixel pitches must be positive")
        if not np.all(np.isfinite(arr)):
            raise DomainError("interferogram intensities must be finite")
        if np.any(arr < 0.0):
            raise DomainError("interferogram intensities must be non-negative")
        object.__setattr__(self, "values", _frozen_array(arr))

    @property
    def ny(self) -> int:
        return int(self.values.shape[0])

    @property
    def nx(self) -> int:
        return int(self.values.shape[1])

    @property
    def x_positions(self) -> np.ndarray:
        return self.x_min + self.pixel_pitch_x * np.arange(self.nx)

    @property
    def y_positions(self) -> np.ndarray:
        return self.y_min + self.pixel_pitch_y * np.arange(self.ny)

    @property
    def total(self) -> float:
        return float(self.values.sum())


def fall_position(velocity: float, geometry: BeamlineGeometry) -> float:
    """Detector height of a molecule that passed through source and grating.

    Strictly increasing in velocity; approaches the extrapolated
    source-grating line as v -> infinity (equal to y0 for a level beamline).
    """
    if not (velocity > 0.0 and math.isfinite(velocity)):
        raise DomainError(f"velocity must be positive and finite, got {velocity!r}")
    line = geometry.y0 + (geometry.y1 - geometry.y0) * (geometry.L / geometry.L1)
    return line + _ballistic_coefficient(geometry) / velocity**2


def fit_velocity(y2: float, geometry: BeamlineGeometry) -> float:
    """Forward speed from the measured fall height y2, the inverse of
    ``fall_position`` on the geometry's source and grating heights y0, y1.

        v = sqrt[ g (L L1 - L^2) / 2 / (y2 - y0 - (y1 - y0) L / L1) ]

    The denominator must be strictly negative (the molecule lands *below* the
    extrapolated source-grating line); anything else is a degenerate geometry.
    Invariant under a common offset of y0, y1, y2.
    """
    coefficient = _ballistic_coefficient(geometry)
    y0, y1 = geometry.y0, geometry.y1
    denominator = y2 - y0 - (y1 - y0) * (geometry.L / geometry.L1)
    if denominator >= 0.0:
        raise GeometryError(
            "fall-height denominator must be strictly negative "
            f"(got {denominator!r}); the detection point must lie below the "
            "extrapolated source-grating line"
        )
    return math.sqrt(coefficient / denominator)


@dataclass(frozen=True)
class SynthesisResult:
    """Synthesized interferogram plus the clipping report: velocity classes
    whose rows fell outside the grid, and how much weight they carried."""

    image: Interferogram
    clipped_velocities: tuple[float, ...]
    clipped_weight: float


def _blurred_image(
    placements: np.ndarray, rows: np.ndarray, sigma_x_px: float, sigma_y_px: float
) -> np.ndarray:
    """Image sum_c placements[c] (x) rows[c], blurred with a separable
    edge-mirrored Gaussian (conserves total mass). Blurring each class's row
    (x kernel) and placement column (y kernel) before the outer product equals
    blurring the image's rows and columns, at the cost of the classes only."""
    rows = symmetric_convolve(rows, gaussian_kernel(sigma_x_px, 1.0))
    placements = symmetric_convolve(placements, gaussian_kernel(sigma_y_px, 1.0))
    return np.einsum("cy,cx->yx", placements, rows)


def _class_terms(
    classes: Iterable[tuple[float, float]], grating: Grating, molecule: Molecule,
    source: SourceModel, geometry: BeamlineGeometry, grid: DetectorGrid,
    coherence_prefactor: float,
) -> Iterator[tuple[float, _SlitTerms]]:
    """(weight, slit-width-independent terms) per positive-weight (velocity,
    weight) class, one class at a time, with its own wave number and coherent
    slit count and the nodes sized for the geometric width, the widest s_eff."""
    for v, w in classes:
        if w == 0.0:
            continue
        wavelength = de_broglie_wavelength(molecule, float(v))
        coh = coherence(source, geometry, wavelength, grating.period, coherence_prefactor)
        yield float(w), _slit_terms(
            2.0 * math.pi / wavelength, geometry.L2, coh.n_coherent_slits, grating.period,
            grid, max_width=grating.slit_width,
        )


def _class_row(terms: _SlitTerms, s: float | np.ndarray) -> np.ndarray:
    """One class's pattern at slit width ``s``, normalized to unit pixel sum;
    for ascending, uniformly spaced widths ``s``, one such row per width
    (``_envelope_scan``)."""
    rows = _envelope_scan(terms, s) if np.ndim(s) else _slit_envelope(terms, s)
    rows /= rows.sum(axis=-1, keepdims=True)
    return rows


def synthesize_image(
    distribution: VelocityDistribution,
    grating: Grating,
    source: SourceModel,
    geometry: BeamlineGeometry,
    grid: ImageGrid,
    molecule: Molecule,
    *,
    coherence_prefactor: float = 1.5,
) -> SynthesisResult:
    """Incoherent sum of per-velocity-class diffraction rows under gravity.

    Each class contributes its Kirchhoff pattern (normalized to unit pixel
    sum, then scaled by the class weight) at the fall height of its velocity,
    split linearly between the two adjacent pixel rows. Classes whose rows
    fall outside the grid are clipped and reported; the pattern of a class
    with no row on the grid is never computed. The image is blurred with the
    detection Gaussian along both axes; the blur is applied to each class's
    row and two-row placement before they are summed into the image.
    An image whose pixels, class rows and placements exceed
    ``MAX_IMAGE_PIXELS`` is refused before any array is built.
    """
    nx, ny, n_classes = grid.nx, grid.ny, len(distribution)
    # in floats: :.3e cannot format an int past the float range
    size = float(nx) * ny + n_classes * (float(nx) + ny)
    if size > MAX_IMAGE_PIXELS:
        raise WorkBudgetError(
            f"{ny:.3e} x {nx:.3e} image pixels plus {n_classes:.3e} classes x ({ny:.3e} + "
            f"{nx:.3e}) rows and placements = {size:.3e} values exceeds the budget of "
            f"{MAX_IMAGE_PIXELS:.0e}"
        )
    v_lo = float(distribution.velocities.min())
    v_hi = float(distribution.velocities.max())
    if v_lo < VELOCITY_SUPPORT[0] or v_hi > VELOCITY_SUPPORT[1]:
        raise DomainError(
            f"velocity support [{v_lo!r}, {v_hi!r}] m/s outside the validated "
            f"synthesis range {VELOCITY_SUPPORT}"
        )

    placements: list[np.ndarray] = []
    on_grid_classes: list[tuple[float, float]] = []
    clipped_v: list[float] = []
    clipped_w = 0.0

    for v, w in zip(distribution.velocities.tolist(), distribution.weights.tolist()):
        if w == 0.0:
            continue
        f = (fall_position(v, geometry) - grid.y_min) / grid.pixel_pitch_y
        i0 = math.floor(f)
        frac = f - i0
        on_grid = [
            (idx, share)
            for idx, share in ((i0, 1.0 - frac), (i0 + 1, frac))
            if share > 0.0 and 0 <= idx < grid.ny
        ]
        # a class that lands entirely off the grid needs no pattern
        if on_grid:
            on_grid_classes.append((v, w))
            placement = np.zeros(grid.ny)
            for idx, share in on_grid:
                placement[idx] = w * share
            placements.append(placement)
        placed = sum(share for _, share in on_grid)
        if placed < 1.0 - 1e-12:
            clipped_v.append(v)
            clipped_w += w * (1.0 - placed)

    classes = _class_terms(
        on_grid_classes, grating, molecule, source, geometry, grid.detector_grid(),
        coherence_prefactor,
    )
    rows = [_class_row(terms, grating.effective_slit_width) for _, terms in classes]
    values = _blurred_image(
        np.array(placements).reshape(-1, grid.ny),
        np.array(rows).reshape(-1, grid.nx),
        grid.psf_sigma / grid.pixel_pitch_x,
        grid.psf_sigma / grid.pixel_pitch_y,
    )
    image = Interferogram(values, grid.pixel_pitch_x, grid.pixel_pitch_y, grid.x_min, grid.y_min)
    return SynthesisResult(
        image=image,
        clipped_velocities=tuple(clipped_v),
        clipped_weight=clipped_w,
    )


@dataclass(frozen=True)
class StripeVelocity:
    y: float          # stripe center height, m
    velocity: float   # m/s from the first-order fringe offset
    residual: float   # m/s against the global fall-curve fit


@dataclass(frozen=True)
class StripeProfile:
    """Stripe-wise velocity profile with the global fall-curve fit.

    ``intercept`` is the fitted height of the extrapolated source-grating
    line at the detector (the single identifiable combination of y0 and y1);
    ``rms_relative`` is the rms of residual/velocity over the used stripes.
    Stripes without a detectable fringe pair are listed in ``skipped``.
    """

    stripes: tuple[StripeVelocity, ...]
    skipped: tuple[int, ...]
    intercept: float
    rms_relative: float
    underdetermined: bool


def _parabolic_peak(x: np.ndarray, y: np.ndarray, i: int) -> float:
    """Vertex position of the parabola through points i-1, i, i+1 (clamped to
    the center pixel's neighborhood)."""
    if i <= 0 or i >= y.size - 1:
        return float(x[i])
    denom = y[i - 1] - 2.0 * y[i] + y[i + 1]
    if denom >= 0.0:
        return float(x[i])
    shift = 0.5 * (y[i - 1] - y[i + 1]) / denom
    shift = max(-0.5, min(0.5, shift))
    return float(x[i] + shift * (x[1] - x[0]))


def _local_maxima(y: np.ndarray) -> np.ndarray:
    interior = (y[1:-1] > y[:-2]) & (y[1:-1] >= y[2:])
    return np.nonzero(interior)[0] + 1


def stripe_velocity_profile(
    image: Interferogram,
    geometry: BeamlineGeometry,
    period: float,
    molecule: Molecule,
    *,
    n_stripes: int = 20,
    psf_sigma: float = 3.5e-6,
) -> StripeProfile:
    """Velocity vs height from the first-order fringe spacing of horizontal
    stripes, followed by a global fall-curve fit.

    The image is cut into ``n_stripes`` equal row bands. Per stripe, columns
    are summed into a trace; the zeroth-order peak is its maximum, the
    first-order peak the strongest local maximum beyond the zeroth-order
    exclusion zone (2.5 detection sigmas, at least 3 pixels). The offset
    x1 - x0 gives the diffraction angle, hence the wavelength and velocity.
    Stripes with too little signal (``MIN_STRIPE_SIGNAL``) or no detectable
    first-order peak (``MIN_PEAK_FRACTION``) are skipped and reported.
    """
    if period <= 0.0:
        raise DomainError(f"period must be positive, got {period!r}")
    if n_stripes < 1:
        raise DomainError(f"need at least one stripe, got {n_stripes!r}")
    if image.ny < n_stripes:
        raise DomainError(f"image has {image.ny} rows, fewer than {n_stripes} stripes")

    coefficient = _ballistic_coefficient(geometry)
    x = image.x_positions
    y_rows = image.y_positions
    pitch = image.pixel_pitch_x
    exclusion = max(2.5 * psf_sigma, 3.0 * pitch)
    image_peak = float(image.values.max())

    # ny >= n_stripes, so the bounds strictly increase: no stripe is empty
    bounds = np.linspace(0, image.ny, n_stripes + 1).astype(int)
    raw: list[tuple[float, float]] = []
    skipped: list[int] = []

    for idx in range(n_stripes):
        lo, hi = bounds[idx], bounds[idx + 1]
        profile = image.values[lo:hi].sum(axis=0)
        if profile.max() <= MIN_STRIPE_SIGNAL * image_peak:
            skipped.append(idx)
            continue
        i0 = int(np.argmax(profile))
        x0 = _parabolic_peak(x, profile, i0)
        peaks = _local_maxima(profile)
        peaks = peaks[(x[peaks] > x0 + exclusion)]
        peaks = peaks[profile[peaks] >= MIN_PEAK_FRACTION * profile[i0]]
        if peaks.size == 0:
            skipped.append(idx)
            continue
        i1 = int(peaks[np.argmax(profile[peaks])])
        x1 = _parabolic_peak(x, profile, i1)
        angle = math.atan2(x1 - x0, geometry.L2)
        # x1 > x0 + exclusion - pitch / 2 > x0: the angle and wavelength are positive
        wavelength = period * math.sin(angle)
        momentum = molecule.mass * wavelength  # h / v
        if not 0.0 < momentum < math.inf:
            raise DomainError(f"stripe momentum m lambda = {momentum!r} kg m is not positive and finite")
        velocity = CONSTANTS.h / momentum
        y_center = float(y_rows[lo : hi].mean())
        raw.append((y_center, velocity))

    underdetermined = len({round(y_c, 12) for y_c, _ in raw}) < 2
    if underdetermined:
        intercept = math.nan
    else:
        ys, vs = np.array(raw).T
        with np.errstate(divide="ignore", over="ignore"):
            drops = coefficient / vs**2
        if not np.isfinite(drops).all():
            raise DomainError(
                f"fall term A / v^2 overflows at a stripe velocity of {float(vs.min())!r} m/s"
            )
        # exact least squares of y = intercept + A / v^2
        intercept = float(np.mean(ys - drops))

    # residuals against the fitted line, level at the intercept (NaN if underdetermined)
    level = replace(geometry, y0=intercept, y1=intercept)
    stripes: list[StripeVelocity] = []
    relative: list[float] = []
    for y_c, v in raw:
        try:
            residual = v - fit_velocity(y_c, level)
        except GeometryError:  # stripe at or above the fitted line
            residual = math.nan
        stripes.append(StripeVelocity(y=y_c, velocity=v, residual=residual))
        if math.isfinite(residual):
            relative.append(residual / v)
    rms_relative = float(np.sqrt(np.mean(np.square(relative)))) if relative else math.nan

    return StripeProfile(
        stripes=tuple(stripes),
        skipped=tuple(skipped),
        intercept=intercept,
        rms_relative=rms_relative,
        underdetermined=underdetermined,
    )
