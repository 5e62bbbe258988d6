"""Interferogram display: the heat colormap and binary portable-pixmap (P6)
rendering with optional vertical stretch.

The colormap is a 100-row control table (signal 0.00..0.99 in steps of 0.01
to R, G, B in [0, 1]) tabulated from three linear ramps; lookups interpolate
linearly between adjacent rows and clamp outside the covered range. Images
are kept in double precision throughout; quantization to 8-bit channels
happens only at render time.

A pixmap's bytes are round(255 x _hot_rgb(signal)), byte for byte, but a
render forms no float color: it reads each byte from a table of ``_BINS``
equal signal bins, plus one bin for a signal of exactly 1, that holds per bin
and channel the byte at the bin's start and the least signal in the bin where
that byte goes up by one. The table is derived from ``_hot_rgb`` on the first
render of a process and cached; building it takes about 5 ms (2-core VM).
Each row a pixmap shows is colored once, before the vertical stretch repeats
it.
"""

from __future__ import annotations

import functools

import numpy as np

from .diffraction import _frozen_array
from .errors import DomainError, WorkBudgetError
from .gravity import MAX_IMAGE_PIXELS, Interferogram

__all__ = [
    "hot_color",
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
    """RGB triple for one normalized signal value in [0, 1]; a finite value
    outside it is clamped, and NaN or an infinity raises DomainError."""
    if not np.isfinite(value):
        raise DomainError(f"signal must be finite, got {value!r}")
    r, g, b = _hot_rgb(np.float64(value))
    return float(r), float(g), float(b)


# Signal bins of the render's byte table: the least power of two above the
# steepest ramp's bytes per unit signal (red, 1,821), so that signal x _BINS
# is exact and no bin holds two byte steps of one channel.
_BINS = 1 << int(
    255.0 * np.max(np.diff(_HOT_TABLE, axis=0) / np.diff(_HOT_SIGNALS)[:, None])
).bit_length()


@functools.cache
def _byte_table() -> tuple[np.ndarray, np.ndarray]:
    """Per-channel byte table of the render, shaped (3, _BINS + 1): bin i
    holds signal [i, i + 1) / _BINS, and bin _BINS the signal 1 alone.

    Returns the byte round(255 x _hot_rgb) at each bin's start and the least
    float64 in the bin whose byte is one more, or +inf where the byte does
    not step. Each threshold is found by bisection on float64 bit patterns,
    with ``_hot_rgb`` itself as the test, so the table follows whatever
    ``np.interp`` computes. That is exact because a channel's byte is
    monotone within a bin: inside one control-table segment ``np.interp``
    evaluates slope x (v - x_j) + f_j, which round-to-nearest keeps monotone
    in v, so only at a knot can a value step back by an ulp; the tests probe
    every knot.
    """
    starts = np.arange(_BINS + 1) / _BINS
    ends = np.nextafter(starts[1:], 0.0)  # each bin's last float
    base = np.rint(255.0 * _hot_rgb(starts)).T
    stepped = np.rint(255.0 * _hot_rgb(ends)).T > base[:, :-1]
    channels, bins = np.nonzero(stepped)
    lo, hi = starts[bins].view(np.int64), ends[bins].view(np.int64)
    points = np.arange(bins.size)
    while np.any(hi - lo > 1):  # the byte is base at lo and base + 1 at hi
        mid = lo + (hi - lo) // 2
        byte = np.rint(255.0 * _hot_rgb(mid.view(np.float64)))[points, channels]
        up = byte > base[channels, bins]
        lo, hi = np.where(up, lo, mid), np.where(up, mid, hi)
    thresholds = np.full(base.shape, np.inf)
    thresholds[channels, bins] = hi.view(np.float64)
    base = base.astype(np.uint8)
    base.flags.writeable = thresholds.flags.writeable = False  # cached: one copy per process
    return base, thresholds


def render_image(image: Interferogram, vertical_stretch: float) -> bytes:
    """Render an interferogram to a binary portable pixmap (P6, maxval 255).

    The image is max-normalized (black = 0, white = peak intensity), colored
    through the lookup table, and quantized as round(255 x channel): the
    bytes equal round(255 x _hot_rgb(signal)) exactly. They are read from
    ``_byte_table``, built on the first render of a process (about 5 ms):
    a channel's byte is its bin's base byte, plus one where the signal
    reaches the bin's threshold. Rows run top to bottom from high y to low
    y. ``vertical_stretch`` resamples rows nearest-neighbor to a height of
    round(stretch x ny) for display; each row shown is colored once,
    before the stretch repeats it. A pixmap of more than
    ``MAX_IMAGE_PIXELS`` pixels is refused before any array is built.
    """
    if not 0.0 < vertical_stretch < np.inf:
        raise DomainError(f"vertical stretch must be positive and finite, got {vertical_stretch!r}")
    ny, nx = image.ny, image.nx
    out_rows = max(1.0, np.rint(vertical_stretch * ny))  # a float: int(inf) would raise
    if out_rows * nx > MAX_IMAGE_PIXELS:
        raise WorkBudgetError(
            f"{out_rows:.3e} x {nx:.3e} pixmap = {out_rows * nx:.3e} pixels exceeds the "
            f"budget of {MAX_IMAGE_PIXELS:.0e}"
        )
    out_rows = int(out_rows)
    source = np.minimum((np.arange(out_rows) * ny) // out_rows, ny - 1)
    shown, repeat = np.unique(source, return_inverse=True)

    # the rows the pixmap shows, top (high y) down, max-normalized
    signal = image.values[ny - 1 - shown]
    peak = image.values.max()
    if peak > 0.0:  # else every value is 0 already: black
        signal /= peak

    base, thresholds = _byte_table()
    idx = (signal * _BINS).astype(np.intp)
    colored = np.empty(signal.shape + (3,), dtype=np.uint8)
    for c in range(3):
        np.add(base[c][idx], signal >= thresholds[c][idx], out=colored[..., c])
    header = f"P6\n{nx} {out_rows}\n255\n".encode("ascii")
    return b"".join((header, colored[repeat]))
