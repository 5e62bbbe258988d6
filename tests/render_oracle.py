"""Reference pixmap of an interferogram: every row of the stretched image
colored in floats through the heat map and rounded, the independent
reference the tests hold ``render_image``'s byte table to."""

import numpy as np

from nanograting.imaging import _hot_rgb


def render_oracle(image, vertical_stretch: float) -> bytes:
    """P6 pixmap of round(255 x _hot_rgb(signal)) over the stretched rows,
    top (high y) down."""
    values = image.values
    ny, nx = values.shape
    peak = values.max()
    signal = values / peak if peak > 0.0 else np.zeros_like(values)
    out_rows = int(max(1.0, np.rint(vertical_stretch * ny)))
    source = np.minimum((np.arange(out_rows) * ny) // out_rows, ny - 1)
    pixels = np.rint(255 * _hot_rgb(signal[::-1][source])).astype(np.uint8)
    return f"P6\n{nx} {out_rows}\n255\n".encode("ascii") + pixels.tobytes()
