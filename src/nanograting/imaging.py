"""Interferogram display: the heat colormap and binary portable-pixmap (P6)
rendering with optional vertical stretch.

The colormap is a 100-row control table (signal 0.00..0.99 in steps of 0.01
to R, G, B in [0, 1]) tabulated from three linear ramps; lookups interpolate
linearly between adjacent rows and clamp outside the covered range. Images
are kept in double precision throughout; quantization to 8-bit channels
happens only at render time.
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
# Row i is (R, G, B) at signal i / 100, each channel linear between its knots
# (row, value) and rounded to 5 decimals: red rises 0 -> 1 over rows 0-14,
# green 0 -> 44/45 over rows 14-59 and on to 1 at row 99, where blue rises
# 0 -> 1 from row 59. Python's round() rounds correctly; np.round need not.
_HOT_KNOTS = (
    ((0, 14), (0.0, 1.0)),
    ((14, 59, 99), (0.0, 44 / 45, 1.0)),
    ((59, 99), (0.0, 1.0)),
)
_HOT_TABLE = _frozen_array([
    [round(float(x), 5) for x in rgb]
    for rgb in zip(*(np.interp(np.arange(100), rows, values) for rows, values in _HOT_KNOTS))
])
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
    out_rows = max(1.0, np.rint(vertical_stretch * ny))  # a float: int(inf) would raise
    if out_rows * nx > MAX_IMAGE_PIXELS:
        raise WorkBudgetError(
            f"{out_rows:.3e} x {nx:.3e} pixmap = {out_rows * nx:.3e} pixels exceeds the "
            f"budget of {MAX_IMAGE_PIXELS:.0e}"
        )
    out_rows = int(out_rows)
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
