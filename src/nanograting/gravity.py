"""Gravitational velocity dispersion: 2D interferogram synthesis, each velocity
class on the rows of its fall height (``domain.fall_position``), and the
stripe-wise velocity profile of a synthesized or measured image.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .diffraction import (
    DetectorGrid,
    _class_row,
    _class_terms,
    _frozen_array,
    _pixel_count,
    gaussian_kernel,
    symmetric_convolve,
)
from .domain import CONSTANTS, BeamlineGeometry, Grating, Molecule, SourceModel
from .domain import _ballistic_coefficient, fall_position, fit_velocity
from .errors import DomainError, GeometryError, WorkBudgetError

__all__ = [
    "ImageGrid",
    "Interferogram",
    "StripeProfile",
    "StripeVelocity",
    "SynthesisResult",
    "VelocityDistribution",
    "stripe_velocity_profile",
    "synthesize_image",
]

# velocity range over which image synthesis is validated
VELOCITY_SUPPORT = (50.0, 1000.0)

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
        if not ((v > 0.0) & (v < math.inf)).all():
            raise DomainError("all velocity classes must be positive and finite")
        if not ((w >= 0.0) & (w < math.inf)).all():
            raise DomainError("weights must be non-negative and finite")
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
        n_classes: int,
        v_min: float | None = None,
        v_max: float | None = None,
    ) -> "VelocityDistribution":
        """Effusive-beam weighting w(v) ~ v^3 exp(-v^2 / v_p^2).

        v_p is the thermal scale parameter; the beam-flux mode sits at
        sqrt(3/2) v_p. Classes are uniform over [v_p/3, 3 v_p] unless
        other bounds are given.
        """
        if not 0.0 < most_probable_velocity < math.inf:
            raise DomainError("most probable velocity must be positive and finite")
        _check_class_count(n_classes)
        lo = most_probable_velocity / 3.0 if v_min is None else v_min
        hi = 3.0 * most_probable_velocity if v_max is None else v_max
        if not 0.0 < lo < hi < math.inf:
            raise DomainError(f"need 0 < v_min < v_max, got [{lo!r}, {hi!r}]")
        v = np.linspace(lo, hi, n_classes) if n_classes > 1 else np.array([(lo + hi) / 2.0])
        w = v**3 * np.exp(-((v / most_probable_velocity) ** 2))
        return cls(v, w)

    @classmethod
    def uniform_band(cls, center: float, half_width: float, n_classes: int) -> "VelocityDistribution":
        """Equal-weight classes spread uniformly over center +- half_width."""
        if not 0.0 < center < math.inf:
            raise DomainError("band center must be positive and finite")
        if not 0.0 <= half_width < center:
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
    psf_sigma: float

    def __post_init__(self) -> None:
        self.detector_grid()
        if not (self.y_max > self.y_min and 0.0 < self.pixel_pitch_y < math.inf):
            raise DomainError("image grid needs y_max > y_min and a positive, finite y pitch")

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
    """A 2D intensity image. Row index increases with height (``io.ORIENTATION``):
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
        if not (0.0 < self.pixel_pitch_x < math.inf and 0.0 < self.pixel_pitch_y < math.inf):
            raise DomainError("pixel pitches must be positive and finite")
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


def synthesize_image(
    distribution: VelocityDistribution,
    grating: Grating,
    source: SourceModel,
    geometry: BeamlineGeometry,
    grid: ImageGrid,
    molecule: Molecule,
    *,
    coherence_prefactor: float,
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


def _window_peak(
    x: np.ndarray, y: np.ndarray, center: float, half_width: float
) -> tuple[int | None, bool]:
    """(index, found) of y's largest sample (the first, on a tie) at x within
    center +- half_width, the one rule for where an order is; the index is
    None for a window of under three samples. found is True when that sample
    is not one of the window's two edge samples, so it has y[i - 1] < y[i] >=
    y[i + 1], and y[i] > 0 on a non-negative trace."""
    idx = np.nonzero((x >= center - half_width) & (x <= center + half_width))[0]
    if idx.size < 3:
        return None, False
    j = int(np.argmax(y[idx]))
    return int(idx[j]), 0 < j < idx.size - 1


def _local_maxima(y: np.ndarray) -> np.ndarray:
    interior = (y[1:-1] > y[:-2]) & (y[1:-1] >= y[2:])
    return np.nonzero(interior)[0] + 1


def stripe_velocity_profile(
    image: Interferogram,
    geometry: BeamlineGeometry,
    period: float,
    molecule: Molecule,
    *,
    n_stripes: int,
    psf_sigma: float,
) -> StripeProfile:
    """Velocity vs height from the first-order fringe spacing of horizontal
    stripes, followed by a global fall-curve fit.

    The image is cut into ``n_stripes`` equal row bands. Per stripe, columns
    are summed into a trace. x = 0 is the beam axis, as ``synth-image``
    writes it: the zeroth-order peak is the largest sample within the
    exclusion zone (2.5 detection sigmas, at least 3 pixels) of x = 0, the
    first-order peak the strongest local maximum more than the zone to its right.
    The offset x1 - x0 gives the diffraction angle, hence the wavelength and
    velocity. Stripes with too little signal (``MIN_STRIPE_SIGNAL``), no
    interior zeroth order in the zone, or no detectable first-order peak
    (``MIN_PEAK_FRACTION``) are skipped and reported.
    """
    if not 0.0 < period < math.inf:
        raise DomainError(f"period must be positive and finite, got {period!r}")
    if not 0.0 <= psf_sigma < math.inf:
        raise DomainError(f"psf sigma must be non-negative and finite, got {psf_sigma!r}")
    if n_stripes < 1:
        raise DomainError(f"need at least one stripe, got {n_stripes!r}")
    if image.ny < n_stripes:
        raise DomainError(f"image has {image.ny} rows, fewer than {n_stripes} stripes")

    _ballistic_coefficient(geometry)  # refuse an overflowing A before any stripe
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
        i0, found = _window_peak(x, profile, 0.0, exclusion)
        if not found or profile.max() <= MIN_STRIPE_SIGNAL * image_peak:
            skipped.append(idx)
            continue
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
    intercept = math.nan
    residuals = [math.nan] * len(raw)
    if not underdetermined:
        # exact least squares of y = intercept + A / v^2, the drops on a line at 0
        level = replace(geometry, y0=0.0, y1=0.0)
        intercept = float(np.mean([y_c - fall_position(v, level) for y_c, v in raw]))
        # residuals against the fitted line, level at the intercept
        level = replace(geometry, y0=intercept, y1=intercept)
        for i, (y_c, v) in enumerate(raw):
            try:
                residuals[i] = v - fit_velocity(y_c, level)
            except GeometryError:  # stripe at or above the fitted line
                pass
    stripes = [StripeVelocity(y=y_c, velocity=v, residual=r) for (y_c, v), r in zip(raw, residuals)]
    relative = [r / v for (_, v), r in zip(raw, residuals) if math.isfinite(r)]
    rms_relative = float(np.sqrt(np.mean(np.square(relative)))) if relative else math.nan

    return StripeProfile(
        stripes=tuple(stripes),
        skipped=tuple(skipped),
        intercept=intercept,
        rms_relative=rms_relative,
        underdetermined=underdetermined,
    )
