import numpy as np
import pytest

from nanograting import (
    DomainError,
    Interferogram,
    hot_color,
    hot_color_inverse,
    render_image,
)
from nanograting.imaging import _HOT_SIGNALS, _HOT_TABLE, _hot_rgb


def test_colormap_has_100_rows_knot_exact():
    assert _HOT_TABLE.shape == (100, 3)
    for i, signal in enumerate(_HOT_SIGNALS):
        assert hot_color(float(signal)) == tuple(_HOT_TABLE[i]), i


def test_colormap_anchor_rows():
    # spot anchors of the lookup table
    assert hot_color(0.00) == (0.0, 0.0, 0.0)
    assert hot_color(0.01) == (0.07143, 0.0, 0.0)
    assert hot_color(0.07) == (0.5, 0.0, 0.0)
    assert hot_color(0.14) == (1.0, 0.0, 0.0)
    assert hot_color(0.50) == (1.0, 0.78222, 0.0)
    assert hot_color(0.60) == (1.0, 0.97833, 0.025)
    assert hot_color(0.99) == (1.0, 1.0, 1.0)


def test_color_center_of_red_to_yellow_transition_near_60_percent():
    r, g, b = hot_color(0.60)
    assert r == 1.0 and g > 0.97 and b < 0.05


def test_colormap_monotone_channels():
    rng = np.random.default_rng(404)
    values = np.sort(rng.uniform(0.0, 1.0, 10_000))
    rgb = _hot_rgb(values)
    for channel in range(3):
        diffs = np.diff(rgb[:, channel])
        assert np.all(diffs >= -1e-15), channel


def test_colormap_clamps_out_of_range():
    assert hot_color(-0.5) == hot_color(0.0)
    assert hot_color(1.5) == hot_color(0.99)


def test_hot_color_inverse_round_trip():
    rng = np.random.default_rng(405)
    for _ in range(200):
        signal = float(rng.uniform(0.0, 0.99))
        recovered = hot_color_inverse(hot_color(signal))
        assert abs(recovered - signal) <= 0.01


def _image(values):
    values = np.asarray(values, dtype=float)
    return Interferogram(values, 1e-6, 2e-6, 0.0, 0.0)


def test_render_header_and_size():
    img = _image(np.linspace(0.0, 1.0, 12).reshape(3, 4))
    data = render_image(img)
    assert data.startswith(b"P6\n4 3\n255\n")
    assert len(data) == len(b"P6\n4 3\n255\n") + 3 * 4 * 3


def test_render_rows_run_top_down():
    values = np.zeros((2, 1))
    values[1, 0] = 1.0  # bright pixel at HIGH y
    data = render_image(_image(values))
    body = data[len(b"P6\n1 2\n255\n"):]
    top, bottom = body[0:3], body[3:6]
    assert top == bytes(int(round(255 * c)) for c in hot_color(1.0))
    assert bottom == bytes(int(round(255 * c)) for c in hot_color(0.0))


def test_render_vertical_stretch_row_count():
    img = _image(np.ones((2, 3)))
    data = render_image(img, vertical_stretch=1.3)
    assert b"\n3 3\n" in data[:16]  # round(1.3 * 2) = 3 rows
    with pytest.raises(DomainError):
        render_image(img, vertical_stretch=0.0)


def test_render_quantization_is_round_255():
    img = _image(np.array([[1.0]]))
    data = render_image(img)
    assert data[-3:] == bytes(int(np.rint(255 * c)) for c in hot_color(1.0))
