"""Interferogram display: the heat colormap and binary portable-pixmap (P6)
rendering with optional vertical stretch.

The colormap is a 100-row control table (signal 0.00..0.99 in steps of 0.01
to R, G, B in [0, 1]); lookups interpolate linearly between adjacent rows
and clamp outside the covered range. Images are kept in double precision
throughout; quantization to 8-bit channels happens only at render time.
"""

from __future__ import annotations

import numpy as np

from .diffraction import _frozen_array
from .errors import DomainError, WorkBudgetError
from .gravity import MAX_IMAGE_PIXELS, Interferogram

__all__ = [
    "hot_color",
    "hot_color_inverse",
    "render_image",
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


_HOT_TABLE = _frozen_array(_HOT_ROWS)
_HOT_SIGNALS = _frozen_array(np.arange(100) / 100.0)  # each row's signal, 0.00 .. 0.99


def _hot_rgb(values: np.ndarray) -> np.ndarray:
    """Heat-map lookup: values of any shape -> RGB array shaped
    values.shape + (3,). Exact at the control points, linear between them,
    clamped below 0 and above 0.99; every channel is monotone
    non-decreasing in the signal."""
    v = np.asarray(values, dtype=float)
    out = np.empty(v.shape + (3,))
    for c in range(3):
        out[..., c] = np.interp(v, _HOT_SIGNALS, _HOT_TABLE[:, c])
    return out


def hot_color(value: float) -> tuple[float, float, float]:
    """RGB triple for one normalized signal value in [0, 1]."""
    r, g, b = _hot_rgb(np.float64(value))
    return float(r), float(g), float(b)


def hot_color_inverse(rgb: tuple[float, float, float]) -> float:
    """Signal of the control row nearest to an RGB triple (Euclidean).

    Inverts renders: a channel-quantized color maps back to its generating
    signal within the table spacing.
    """
    probe = np.asarray(rgb, dtype=float)
    if probe.shape != (3,):
        raise DomainError("expected an (R, G, B) triple")
    distances = np.sum((_HOT_TABLE - probe) ** 2, axis=1)
    return float(_HOT_SIGNALS[int(np.argmin(distances))])


def render_image(image: Interferogram, vertical_stretch: float = 1.0) -> bytes:
    """Render an interferogram to a binary portable pixmap (P6, maxval 255).

    The image is max-normalized (black = 0, white = peak intensity), colored
    through the lookup table, and quantized as round(255 x channel). Rows run
    top to bottom from high y to low y. ``vertical_stretch`` resamples rows
    nearest-neighbor to a height of round(stretch x ny) for display. A
    pixmap of more than ``MAX_IMAGE_PIXELS`` pixels is refused before any
    array is built.
    """
    if vertical_stretch <= 0.0:
        raise DomainError(f"vertical stretch must be positive, got {vertical_stretch!r}")
    ny, nx = image.ny, image.nx
    out_rows = max(1, int(round(vertical_stretch * ny)))
    if out_rows * nx > MAX_IMAGE_PIXELS:
        raise WorkBudgetError(
            f"{out_rows:.3e} x {nx:.3e} pixmap = {out_rows * nx:.3e} pixels exceeds the "
            f"budget of {MAX_IMAGE_PIXELS:.0e}"
        )
    values = image.values
    peak = values.max()
    signal = values / peak if peak > 0.0 else np.zeros_like(values)

    top_down = signal[::-1]
    source = np.minimum((np.arange(out_rows) * ny) // out_rows, ny - 1)
    stretched = top_down[source]

    rgb = _hot_rgb(stretched)
    channels = np.rint(255.0 * rgb).astype(np.uint8)
    header = f"P6\n{nx} {out_rows}\n255\n".encode("ascii")
    return header + channels.tobytes()
