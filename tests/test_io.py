import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    assert header == {"velocity_m_s": "220.0", "n_slits": "52"}


def test_trace_with_a_normalization_line_still_reads(tmp_path):
    # files written before the tag was dropped carry it as one more header line
    path = tmp_path / "old.csv"
    path.write_text(
        "# nanograting trace v1\n# normalization = raw\n# n_slits = 52\n"
        "position_m,intensity\n0.0,1.0\n1e-06,2.0\n"
    )
    trace, header = read_trace_csv(path)
    assert np.array_equal(trace.intensities, [1.0, 2.0])
    assert header == {"normalization": "raw", "n_slits": "52"}


def test_blank_lines_in_a_trace_csv_are_skipped(tmp_path):
    trace = _trace()
    path = tmp_path / "t.csv"
    write_trace_csv(path, trace, {"n_slits": 52})
    lines = path.read_text().splitlines()
    path.write_text("\n\n".join(lines[:3] + ["   "] + lines[3:]) + "\n\n")
    back, header = read_trace_csv(path)
    assert np.array_equal(back.positions, trace.positions)
    assert np.array_equal(back.intensities, trace.intensities)
    assert header == {"n_slits": "52"}


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
    assert lines[1] == "# alpha = 2"
    assert lines[2] == "# zeta = 1"


def test_trace_rows_are_plain_reprs(tmp_path):
    path = tmp_path / "t.csv"
    write_trace_csv(path, _trace())
    first_row = path.read_text().splitlines()[2]
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


def test_a_directory_in_place_of_a_file_is_a_configuration_error(tmp_path):
    (tmp_path / "trace.csv").mkdir()
    with pytest.raises(ConfigurationError, match="trace.csv"):
        read_trace_csv(tmp_path / "trace.csv")
    path = tmp_path / "img.f64"
    write_interferogram(path, Interferogram(np.ones((2, 3)), 1e-6, 2e-6, 0.0, 0.0))
    path.unlink()
    path.mkdir()
    with pytest.raises(ConfigurationError, match="img.f64"):
        read_interferogram(path)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(
    file=st.sampled_from(["trace", "sidecar"]),
    position=st.integers(0, 4095),
    value=st.integers(0, 255),
)
def test_one_overwritten_byte_reads_or_raises_configuration_error(file, position, value):
    with tempfile.TemporaryDirectory() as tmp:
        trace_path = Path(tmp) / "t.csv"
        image_path = Path(tmp) / "i.f64"
        write_trace_csv(trace_path, _trace(), {"velocity_m_s": 220.0, "n_slits": 52})
        write_interferogram(image_path, Interferogram(np.ones((2, 3)), 1e-6, 2e-6, 0.0, -1e-4))
        target = trace_path if file == "trace" else Path(tmp) / "i.f64.json"
        data = bytearray(target.read_bytes())
        data[position % len(data)] = value
        target.write_bytes(bytes(data))
        try:
            read_trace_csv(trace_path) if file == "trace" else read_interferogram(image_path)
        except ConfigurationError:
            pass


# finite non-negative data, subnormals included, up to 1e300
DATA = st.floats(min_value=0.0, max_value=1e300, allow_subnormal=True)
ORIGINS = st.floats(min_value=-1e300, max_value=1e300, allow_subnormal=True)
PITCHES = st.floats(min_value=1e-300, max_value=1e290)


def _same_bits(a, b):
    return np.asarray(a, dtype=np.float64).tobytes() == np.asarray(b, dtype=np.float64).tobytes()


@settings(derandomize=True, max_examples=60, deadline=None)
@given(
    pitch=PITCHES,
    first=st.integers(-1000, 1000),
    intensities=st.lists(DATA, min_size=2, max_size=40),
)
def test_trace_csv_round_trip_is_bit_exact(pitch, first, intensities):
    # integer multiples of one pitch form a grid that Trace accepts
    positions = pitch * (first + np.arange(len(intensities), dtype=float))
    trace = Trace(positions, np.array(intensities))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "t.csv"
        write_trace_csv(path, trace, {"velocity_m_s": 220.0})
        back, _ = read_trace_csv(path)
    assert _same_bits(back.positions, trace.positions)
    assert _same_bits(back.intensities, trace.intensities)


@settings(derandomize=True, max_examples=40, deadline=None)
@given(
    values=st.integers(1, 4).flatmap(
        lambda nx: st.lists(st.lists(DATA, min_size=nx, max_size=nx), min_size=1, max_size=4)
    ),
    pitches=st.tuples(PITCHES, PITCHES),
    origins=st.tuples(ORIGINS, ORIGINS),
)
def test_interferogram_round_trip_is_bit_exact(values, pitches, origins):
    image = Interferogram(np.array(values), *pitches, *origins)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "i.f64"
        write_interferogram(path, image)
        back = read_interferogram(path)
    assert _same_bits(back.values, image.values)
    assert _same_bits(
        [back.pixel_pitch_x, back.pixel_pitch_y, back.x_min, back.y_min],
        [image.pixel_pitch_x, image.pixel_pitch_y, image.x_min, image.y_min],
    )


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
