import json

import numpy as np
import pytest

from nanograting import ConfigurationError, Interferogram, Trace
from nanograting.io import (
    format_report,
    format_value,
    read_interferogram,
    read_trace_csv,
    write_interferogram,
    write_pixmap,
    write_report,
    write_trace_csv,
)


def _trace():
    x = -10e-6 + 0.5e-6 * np.arange(41)
    y = np.exp(-((x / 4e-6) ** 2))
    return Trace(x, y)


def test_trace_round_trip_is_exact(tmp_path):
    trace = _trace()
    path = tmp_path / "t.csv"
    write_trace_csv(path, trace, {"velocity_m_s": 220.0, "n_slits": 52})
    back, header = read_trace_csv(path)
    assert np.array_equal(back.positions, trace.positions)
    assert np.array_equal(back.intensities, trace.intensities)
    assert back.normalization == trace.normalization
    assert header == {"velocity_m_s": "220.0", "n_slits": "52"}


def test_trace_write_is_deterministic(tmp_path):
    trace = _trace()
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    write_trace_csv(a, trace, {"z": 1.0, "a": 2.0})
    write_trace_csv(b, trace, {"a": 2.0, "z": 1.0})  # header order irrelevant
    assert a.read_bytes() == b.read_bytes()


def test_trace_header_keys_sorted(tmp_path):
    path = tmp_path / "t.csv"
    write_trace_csv(path, _trace(), {"zeta": 1, "alpha": 2})
    lines = path.read_text().splitlines()
    assert lines[2] == "# alpha = 2"
    assert lines[3] == "# zeta = 1"


def test_trace_rows_are_plain_reprs(tmp_path):
    path = tmp_path / "t.csv"
    write_trace_csv(path, _trace())
    first_row = path.read_text().splitlines()[3]
    assert "np." not in first_row
    assert first_row == "-1e-05,0.001930454136227704"


def test_read_trace_rejects_malformed(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("position_m,intensity\n1e-6,not-a-number\n")
    with pytest.raises(ConfigurationError):
        read_trace_csv(path)
    path.write_text("# only a header\n")
    with pytest.raises(ConfigurationError):
        read_trace_csv(path)
    with pytest.raises(ConfigurationError):
        read_trace_csv(tmp_path / "absent.csv")


def test_interferogram_round_trip(tmp_path):
    rng = np.random.default_rng(77)
    values = rng.uniform(0.0, 3.0, (5, 7))
    img = Interferogram(values, 0.5e-6, 2.5e-6, -3e-6, -200e-6)
    path = tmp_path / "img.f64"
    write_interferogram(path, img)
    back = read_interferogram(path)
    assert np.array_equal(back.values, values)
    assert back.pixel_pitch_x == img.pixel_pitch_x
    assert back.pixel_pitch_y == img.pixel_pitch_y
    assert back.x_min == img.x_min
    assert back.y_min == img.y_min


def test_interferogram_sidecar_contents(tmp_path):
    img = Interferogram(np.ones((2, 3)), 1e-6, 2e-6, 0.0, -1e-4)
    path = tmp_path / "img.f64"
    write_interferogram(path, img)
    meta = json.loads((tmp_path / "img.f64.json").read_text())
    assert meta["nx"] == 3 and meta["ny"] == 2
    assert meta["orientation"] == "up-positive"
    assert list(meta) == sorted(meta)  # deterministic key order
    assert path.stat().st_size == 2 * 3 * 8


def test_interferogram_read_validation(tmp_path):
    img = Interferogram(np.ones((2, 3)), 1e-6, 2e-6, 0.0, 0.0)
    path = tmp_path / "img.f64"
    write_interferogram(path, img)
    with pytest.raises(ConfigurationError):
        read_interferogram(tmp_path / "absent.f64")
    (tmp_path / "img.f64.json").write_text("{not json")
    with pytest.raises(ConfigurationError):
        read_interferogram(path)
    (tmp_path / "img.f64.json").write_text(json.dumps({"format": "other"}))
    with pytest.raises(ConfigurationError):
        read_interferogram(path)
    # payload size mismatch
    write_interferogram(path, img)
    path.write_bytes(path.read_bytes()[:-8])
    with pytest.raises(ConfigurationError):
        read_interferogram(path)


@pytest.mark.parametrize(
    "key, value",
    [
        ("ny", None),
        ("nx", "3"),
        ("ny", 2.0),
        ("nx", 0),
        ("pixel_pitch_x_m", None),
        ("pixel_pitch_y_m", "2e-6"),
        ("x_min_m", True),
        ("y_min_m", float("nan")),
        ("orientation", None),
        ("orientation", "down"),
        ("dtype", ">f8"),
    ],
)
def test_interferogram_sidecar_schema(tmp_path, key, value):
    path = tmp_path / "img.f64"
    write_interferogram(path, Interferogram(np.ones((2, 3)), 1e-6, 2e-6, 0.0, 0.0))
    sidecar = tmp_path / "img.f64.json"
    meta = json.loads(sidecar.read_text())
    if value is None:
        del meta[key]
    else:
        meta[key] = value
    sidecar.write_text(json.dumps(meta))
    with pytest.raises(ConfigurationError, match=key):
        read_interferogram(path)


def test_interferogram_sidecar_must_be_an_object(tmp_path):
    path = tmp_path / "img.f64"
    write_interferogram(path, Interferogram(np.ones((2, 3)), 1e-6, 2e-6, 0.0, 0.0))
    (tmp_path / "img.f64.json").write_text("[1, 2]")
    with pytest.raises(ConfigurationError):
        read_interferogram(path)


def test_write_pixmap_requires_p6(tmp_path):
    with pytest.raises(ConfigurationError):
        write_pixmap(tmp_path / "x.ppm", b"P5\n1 1\n255\n\x00")
    write_pixmap(tmp_path / "x.ppm", b"P6\n1 1\n255\n\x00\x00\x00")
    assert (tmp_path / "x.ppm").read_bytes().startswith(b"P6")


def test_format_value():
    assert format_value(True) == "true"
    assert format_value(False) == "false"
    assert format_value(np.bool_(True)) == "true"
    assert format_value(0.5) == "0.5"
    assert format_value(np.float64(0.5)) == "0.5"
    assert format_value(np.int64(3)) == "3"
    assert format_value("text") == "text"


def test_format_report_alignment():
    text = format_report({"a": 1, "longer": 2.5})
    assert text == "a      = 1\nlonger = 2.5\n"


def test_write_report(tmp_path):
    path = tmp_path / "r.txt"
    write_report(path, {"x": 1.0})
    assert path.read_text() == "x = 1.0\n"
