import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from render_oracle import render_oracle

from nanograting import (
    DomainError,
    Interferogram,
    hot_color,
    render_image,
)
from nanograting.config import load_run_config
from nanograting.imaging import _BINS, _HOT_SIGNALS, _HOT_TABLE, _byte_table, _hot_rgb

from configured import CONFIG

STRETCH = CONFIG.require("render.vertical_stretch")


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


def _image(values):
    values = np.asarray(values, dtype=float)
    return Interferogram(values, 1e-6, 2e-6, 0.0, 0.0)


def test_render_header_and_size():
    img = _image(np.linspace(0.0, 1.0, 12).reshape(3, 4))
    data = render_image(img, STRETCH)
    assert data.startswith(b"P6\n4 3\n255\n")
    assert len(data) == len(b"P6\n4 3\n255\n") + 3 * 4 * 3


def test_render_rows_run_top_down():
    values = np.zeros((2, 1))
    values[1, 0] = 1.0  # bright pixel at HIGH y
    data = render_image(_image(values), STRETCH)
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
    data = render_image(img, STRETCH)
    assert data[-3:] == bytes(int(np.rint(255 * c)) for c in hot_color(1.0))


def _bytes(signal):
    return np.rint(255.0 * _hot_rgb(signal)).T  # (3, n): the bytes a render writes


def test_byte_table_bins_hold_at_most_one_step_and_bases_never_fall():
    base, thresholds = _byte_table()
    starts = np.arange(_BINS + 1) / _BINS
    ends = np.nextafter(starts[1:], 0.0)
    assert base.shape == thresholds.shape == (3, _BINS + 1)
    assert np.array_equal(base, _bytes(starts))
    assert np.all(np.diff(base.astype(int), axis=1) >= 0)
    # a channel's byte is monotone inside a bin, so a bin whose last float
    # is at most one above its first holds at most one step
    steps = _bytes(ends) - base[:, :-1]
    assert np.all((steps == 0) | (steps == 1))
    inside = thresholds[:, :-1]
    assert np.array_equal(np.isfinite(inside), steps == 1)
    assert np.all(np.isinf(thresholds[:, -1]))
    channel, bin_ = np.nonzero(np.isfinite(inside))
    at = inside[channel, bin_]
    assert np.all((starts[bin_] < at) & (at <= ends[bin_]))
    assert np.array_equal(_bytes(at)[channel, np.arange(at.size)], base[channel, bin_] + 1)
    below = np.nextafter(at, 0.0)
    assert np.array_equal(_bytes(below)[channel, np.arange(at.size)], base[channel, bin_])


def _probe_row(signals):
    """One-row image whose signal is ``signals`` exactly: its peak is 1."""
    return _image(np.append(signals, 1.0)[None, :])


def test_render_matches_oracle_near_every_bin_edge_threshold_and_knot():
    _, thresholds = _byte_table()
    points = np.concatenate([
        np.arange(_BINS + 1) / _BINS, thresholds[np.isfinite(thresholds)], _HOT_SIGNALS,
    ])
    near = (points.view(np.int64)[:, None] + np.arange(-40, 41)).view(np.float64).ravel()
    near = near[(near >= 0.0) & (near <= 1.0)]
    image = _probe_row(np.concatenate([near, [0.0, np.nextafter(1.0, 0.0)]]))
    assert render_image(image, STRETCH) == render_oracle(image, STRETCH)


def test_render_matches_oracle_on_uniform_draws():
    image = _probe_row(np.random.default_rng(406).uniform(0.0, 1.0, 1_000_000))
    assert render_image(image, STRETCH) == render_oracle(image, STRETCH)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(
    values=st.integers(1, 5).flatmap(lambda nx: st.lists(
        st.lists(st.floats(0.0, 1e300, allow_subnormal=True), min_size=nx, max_size=nx),
        min_size=1, max_size=5,
    )),
    stretch=st.floats(0.1, 4.0),
)
@example(values=[[0.0, 0.0, 0.0], [0.0, 0.0, 0.0]], stretch=1.0)
@example(values=[[0.0, 0.0, 0.0], [0.0, 3.7, 0.0], [0.0, 0.0, 0.0]], stretch=2.5)
@example(values=[[5e-324, 0.0], [1e-310, 2.5e-320]], stretch=0.1)
def test_render_matches_oracle_on_small_images(values, stretch):
    image = _image(values)
    assert render_image(image, vertical_stretch=stretch) == render_oracle(image, stretch)


def test_render_peak_memory_on_the_readme_grid_at_stretch_3():
    grid = load_run_config(preset="slg").image_grid()
    ny, nx = grid.ny, grid.nx
    image = _image(np.outer(np.hanning(ny) + 0.1, np.hanning(nx) + 0.1))
    render_image(_image([[1.0]]), STRETCH)  # builds the byte table outside the measurement
    tracemalloc.start()
    try:
        data = render_image(image, vertical_stretch=3.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert data == render_oracle(image, 3.0)
    # gravity.MAX_IMAGE_PIXELS: about 12 B per output pixel at stretch 3
    assert peak <= 13 * (3 * ny) * nx
