"""Detector-image processing and rendering: background subtraction, band
extraction into 1D traces, the heat colormap used for interferogram display,
and binary portable-pixmap (P6) rendering with optional vertical stretch.

The colormap is a 100-row control table (signal 0.00..0.99 in steps of 0.01
to R, G, B in [0, 1]); lookups interpolate linearly between adjacent rows
and clamp outside the covered range. Images are kept in double precision
throughout; quantization to 8-bit channels happens only at render time.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .diffraction import Trace, _frozen_array
from .errors import DomainError
from .gravity import Interferogram

__all__ = [
    "HOT_COLORMAP",
    "HotColormap",
    "extract_band",
    "hot_color",
    "hot_color_inverse",
    "render_image",
    "subtract_background",
]

# Heat colormap control points: black through red and yellow to white.
# Rows are (R, G, B) at signal = row_index / 100; values are data, not code.
_HOT_ROWS = (
    (0.0, 0.0, 0.0),
    (0.07143, 0.0, 0.0),
    (0.14286, 0.0, 0.0),
    (0.21429, 0.0, 0.0),
    (0.28571, 0.0, 0.0),
    (0.35714, 0.0, 0.0),
    (0.42857, 0.0, 0.0),
    (0.5, 0.0, 0.0),
    (0.57143, 0.0, 0.0),
    (0.64286, 0.0, 0.0),
    (0.71429, 0.0, 0.0),
    (0.78571, 0.0, 0.0),
    (0.85714, 0.0, 0.0),
    (0.92857, 0.0, 0.0),
    (1.0, 0.0, 0.0),
    (1.0, 0.02173, 0.0),
    (1.0, 0.04346, 0.0),
    (1.0, 0.06519, 0.0),
    (1.0, 0.08691, 0.0),
    (1.0, 0.10864, 0.0),
    (1.0, 0.13037, 0.0),
    (1.0, 0.1521, 0.0),
    (1.0, 0.17383, 0.0),
    (1.0, 0.19556, 0.0),
    (1.0, 0.21728, 0.0),
    (1.0, 0.23901, 0.0),
    (1.0, 0.26074, 0.0),
    (1.0, 0.28247, 0.0),
    (1.0, 0.3042, 0.0),
    (1.0, 0.32593, 0.0),
    (1.0, 0.34765, 0.0),
    (1.0, 0.36938, 0.0),
    (1.0, 0.39111, 0.0),
    (1.0, 0.41284, 0.0),
    (1.0, 0.43457, 0.0),
    (1.0, 0.4563, 0.0),
    (1.0, 0.47802, 0.0),
    (1.0, 0.49975, 0.0),
    (1.0, 0.52148, 0.0),
    (1.0, 0.54321, 0.0),
    (1.0, 0.56494, 0.0),
    (1.0, 0.58667, 0.0),
    (1.0, 0.6084, 0.0),
    (1.0, 0.63012, 0.0),
    (1.0, 0.65185, 0.0),
    (1.0, 0.67358, 0.0),
    (1.0, 0.69531, 0.0),
    (1.0, 0.71704, 0.0),
    (1.0, 0.73877, 0.0),
    (1.0, 0.76049, 0.0),
    (1.0, 0.78222, 0.0),
    (1.0, 0.80395, 0.0),
    (1.0, 0.82568, 0.0),
    (1.0, 0.84741, 0.0),
    (1.0, 0.86914, 0.0),
    (1.0, 0.89086, 0.0),
    (1.0, 0.91259, 0.0),
    (1.0, 0.93432, 0.0),
    (1.0, 0.95605, 0.0),
    (1.0, 0.97778, 0.0),
    (1.0, 0.97833, 0.025),
    (1.0, 0.97889, 0.05),
    (1.0, 0.97944, 0.075),
    (1.0, 0.98, 0.1),
    (1.0, 0.98056, 0.125),
    (1.0, 0.98111, 0.15),
    (1.0, 0.98167, 0.175),
    (1.0, 0.98222, 0.2),
    (1.0, 0.98278, 0.225),
    (1.0, 0.98333, 0.25),
    (1.0, 0.98389, 0.275),
    (1.0, 0.98444, 0.3),
    (1.0, 0.985, 0.325),
    (1.0, 0.98556, 0.35),
    (1.0, 0.98611, 0.375),
    (1.0, 0.98667, 0.4),
    (1.0, 0.98722, 0.425),
    (1.0, 0.98778, 0.45),
    (1.0, 0.98833, 0.475),
    (1.0, 0.98889, 0.5),
    (1.0, 0.98944, 0.525),
    (1.0, 0.99, 0.55),
    (1.0, 0.99056, 0.575),
    (1.0, 0.99111, 0.6),
    (1.0, 0.99167, 0.625),
    (1.0, 0.99222, 0.65),
    (1.0, 0.99278, 0.675),
    (1.0, 0.99333, 0.7),
    (1.0, 0.99389, 0.725),
    (1.0, 0.99444, 0.75),
    (1.0, 0.995, 0.775),
    (1.0, 0.99556, 0.8),
    (1.0, 0.99611, 0.825),
    (1.0, 0.99667, 0.85),
    (1.0, 0.99722, 0.875),
    (1.0, 0.99778, 0.9),
    (1.0, 0.99833, 0.925),
    (1.0, 0.99889, 0.95),
    (1.0, 0.99944, 0.975),
    (1.0, 1.0, 1.0),
)


@dataclass(frozen=True)
class HotColormap:
    """Signal-to-RGB lookup over the 100-row heat control table.

    ``signals`` are the control abscissae (0.00 .. 0.99); lookups clamp below
    0 and above 0.99 and interpolate linearly between rows. All channels are
    monotone non-decreasing in the signal.
    """

    table: np.ndarray = field(default_factory=lambda: _frozen_array(_HOT_ROWS))
    signals: np.ndarray = field(default_factory=lambda: _frozen_array(np.arange(100) / 100.0))

    def __post_init__(self) -> None:
        t = np.asarray(self.table, dtype=float)
        s = np.asarray(self.signals, dtype=float)
        if t.shape != (s.size, 3):
            raise DomainError("colormap table must be (n, 3) matching its signal grid")
        if np.any(t < 0.0) or np.any(t > 1.0):
            raise DomainError("colormap channels must lie in [0, 1]")
        if np.any(np.diff(t, axis=0) < 0.0):
            raise DomainError("colormap channels must be monotone non-decreasing")
        if np.any(np.diff(s) <= 0.0):
            raise DomainError("colormap signal grid must be strictly increasing")
        object.__setattr__(self, "table", _frozen_array(t))
        object.__setattr__(self, "signals", _frozen_array(s))

    def rgb(self, values: np.ndarray) -> np.ndarray:
        """Vectorized lookup: values of any shape -> RGB array shaped
        values.shape + (3,). Exact at the control points, linear between
        them, clamped outside."""
        v = np.asarray(values, dtype=float)
        out = np.empty(v.shape + (3,))
        for c in range(3):
            out[..., c] = np.interp(v, self.signals, self.table[:, c])
        return out


HOT_COLORMAP = HotColormap()


def hot_color(value: float, colormap: HotColormap = HOT_COLORMAP) -> tuple[float, float, float]:
    """RGB triple for one normalized signal value in [0, 1]."""
    r, g, b = colormap.rgb(np.float64(value))
    return float(r), float(g), float(b)


def hot_color_inverse(
    rgb: tuple[float, float, float], colormap: HotColormap = HOT_COLORMAP
) -> float:
    """Signal of the control row nearest to an RGB triple (Euclidean).

    Inverts renders: a channel-quantized color maps back to its generating
    signal within the table spacing.
    """
    probe = np.asarray(rgb, dtype=float)
    if probe.shape != (3,):
        raise DomainError("expected an (R, G, B) triple")
    distances = np.sum((colormap.table - probe) ** 2, axis=1)
    return float(colormap.signals[int(np.argmin(distances))])


def subtract_background(image: Interferogram, background: Interferogram) -> Interferogram:
    """Pixel-wise difference clamped at zero; grids must match exactly."""
    if image.values.shape != background.values.shape:
        raise DomainError(
            f"image {image.values.shape} and background {background.values.shape} "
            "dimensions differ"
        )
    diff = np.maximum(image.values - background.values, 0.0)
    return Interferogram(
        diff, image.pixel_pitch_x, image.pixel_pitch_y, image.x_min, image.y_min
    )


def extract_band(
    image: Interferogram,
    y_center: float,
    half_width: float,
    normalize: bool = False,
) -> Trace:
    """Column-wise sum over the rows within ``y_center +- half_width``.

    This is the vertical 1D integral of a horizontal velocity band. With
    ``normalize`` the result is scaled to a maximum of 1.
    """
    if half_width < 0.0:
        raise DomainError(f"half width must be non-negative, got {half_width!r}")
    y = image.y_positions
    rows = np.nonzero(np.abs(y - y_center) <= half_width + 1e-12 * image.pixel_pitch_y)[0]
    if rows.size == 0:
        raise DomainError(
            f"band {y_center!r} +- {half_width!r} selects no rows of the image"
        )
    profile = image.values[rows].sum(axis=0)
    trace = Trace(image.x_positions, profile)
    if normalize:
        return trace.normalized_to_max()
    return trace


def render_image(
    image: Interferogram,
    colormap: HotColormap = HOT_COLORMAP,
    vertical_stretch: float = 1.0,
) -> bytes:
    """Render an interferogram to a binary portable pixmap (P6, maxval 255).

    The image is max-normalized (black = 0, white = peak intensity), colored
    through the lookup table, and quantized as round(255 x channel). Rows run
    top to bottom from high y to low y. ``vertical_stretch`` resamples rows
    nearest-neighbor to a height of round(stretch x ny) for display.
    """
    if vertical_stretch <= 0.0:
        raise DomainError(f"vertical stretch must be positive, got {vertical_stretch!r}")
    values = image.values
    peak = values.max()
    signal = values / peak if peak > 0.0 else np.zeros_like(values)

    top_down = signal[::-1]
    ny = top_down.shape[0]
    out_rows = max(1, int(round(vertical_stretch * ny)))
    source = np.minimum((np.arange(out_rows) * ny) // out_rows, ny - 1)
    stretched = top_down[source]

    rgb = colormap.rgb(stretched)
    channels = np.rint(255.0 * rgb).astype(np.uint8)
    header = f"P6\n{image.nx} {out_rows}\n255\n".encode("ascii")
    return header + channels.tobytes()
