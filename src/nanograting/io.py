"""Deterministic file formats: trace CSV with commented parameter headers,
flat-binary interferograms with JSON sidecars, binary pixmaps, and aligned
key=value reports.

All writers are byte-deterministic for identical inputs: floats are written
with ``repr`` (shortest round-trip form), mappings are sorted by key, and no
timestamps or environment data are recorded.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path
from typing import TYPE_CHECKING, Any, Mapping

from .errors import ConfigurationError, DomainError

if TYPE_CHECKING:
    from .diffraction import Trace
    from .gravity import Interferogram

__all__ = [
    "format_report",
    "format_value",
    "read_interferogram",
    "read_trace_csv",
    "write_interferogram",
    "write_pixmap",
    "write_report",
    "write_trace_csv",
]

_TRACE_MAGIC = "nanograting trace v1"
_IMAGE_MAGIC = "nanograting interferogram v1"
_IMAGE_DTYPE = "<f8"
ORIENTATION = "up-positive"  # the one row order of an interferogram: index rises with height


def _is_count(value: Any) -> bool:
    return type(value) is int and value >= 1


def _is_number(value: Any) -> bool:
    return type(value) in (int, float) and math.isfinite(value)


# every key a sidecar must hold besides "format": (what it must be, test)
_SIDECAR_KEYS = {
    "nx": ("a positive integer", _is_count),
    "ny": ("a positive integer", _is_count),
    "pixel_pitch_x_m": ("a finite number", _is_number),
    "pixel_pitch_y_m": ("a finite number", _is_number),
    "x_min_m": ("a finite number", _is_number),
    "y_min_m": ("a finite number", _is_number),
    "orientation": (repr(ORIENTATION), lambda value: value == ORIENTATION),
    "dtype": (repr(_IMAGE_DTYPE), lambda value: value == _IMAGE_DTYPE),
}


def _read_file(path: Path, encoding: str | None = None) -> Any:
    """Bytes of ``path``, or its text when an ``encoding`` is given; a file
    that cannot be opened or decoded (a directory, a non-text byte) is a
    ConfigurationError naming it."""
    try:
        return path.read_bytes() if encoding is None else path.read_text(encoding=encoding)
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigurationError(f"cannot read {path}: {exc}") from exc


def format_value(value: Any) -> str:
    # a numpy scalar exists only once numpy is imported, so a report of
    # Python values is formatted without importing it
    np = sys.modules.get("numpy")
    if isinstance(value, bool) or np is not None and isinstance(value, np.bool_):
        return "true" if value else "false"
    # np.float64 subclasses float, so coerce before repr to keep plain digits
    if isinstance(value, float) or np is not None and isinstance(value, np.floating):
        return repr(float(value))
    if isinstance(value, int) or np is not None and isinstance(value, np.integer):
        return str(int(value))
    return str(value)


def write_trace_csv(path: str | Path, trace: Trace, header: Mapping[str, Any] | None = None) -> None:
    """Two-column CSV (position_m, intensity) with a '#' comment header
    recording the magic line and all supplied parameters in sorted order."""
    lines = [f"# {_TRACE_MAGIC}"]
    for key in sorted(header or {}):
        lines.append(f"# {key} = {format_value((header or {})[key])}")
    lines.append("position_m,intensity")
    for x, y in zip(trace.positions, trace.intensities):
        lines.append(f"{float(x)!r},{float(y)!r}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="ascii")


def read_trace_csv(path: str | Path) -> tuple[Trace, dict[str, str]]:
    """Read a trace CSV written by :func:`write_trace_csv` (or any CSV of
    position_m,intensity rows with optional '#'-comment key = value header
    lines). Returns the trace and the raw header mapping."""
    from .diffraction import Trace
    header: dict[str, str] = {}
    xs: list[float] = []
    ys: list[float] = []
    source = Path(path)
    for line in _read_file(source, "ascii").splitlines():
        line = line.strip()
        if not line:
            continue
        if line.startswith("#"):
            body = line[1:].strip()
            if "=" in body:
                key, _, value = body.partition("=")
                header[key.strip()] = value.strip()
            continue
        if line.startswith("position_m"):
            continue
        x_text, _, y_text = line.partition(",")
        try:
            xs.append(float(x_text))
            ys.append(float(y_text))
        except ValueError as exc:
            raise ConfigurationError(f"malformed trace row {line!r} in {path}") from exc
    if not xs:
        raise ConfigurationError(f"no trace rows found in {path}")
    try:
        return Trace(xs, ys), header
    except DomainError as exc:
        raise ConfigurationError(f"trace file {source}: {exc}") from exc


def write_interferogram(path: str | Path, image: Interferogram) -> None:
    """Write the raw float64 grid (C order, row 0 = lowest y) to ``path``
    and a JSON sidecar ``path + '.json'`` holding dimensions, pitches,
    origin, and orientation."""
    target = Path(path)
    target.write_bytes(image.values.astype(_IMAGE_DTYPE, copy=False).tobytes())
    sidecar = {
        "format": _IMAGE_MAGIC,
        "nx": image.nx,
        "ny": image.ny,
        "pixel_pitch_x_m": image.pixel_pitch_x,
        "pixel_pitch_y_m": image.pixel_pitch_y,
        "x_min_m": image.x_min,
        "y_min_m": image.y_min,
        "orientation": ORIENTATION,
        "dtype": _IMAGE_DTYPE,
    }
    text = json.dumps(sidecar, sort_keys=True, indent=2)
    target.with_name(target.name + ".json").write_text(text + "\n", encoding="ascii")


def _check_sidecar(meta: Any, sidecar_path: Path) -> None:
    if not isinstance(meta, dict):
        raise ConfigurationError(f"sidecar {sidecar_path} must hold a JSON object")
    if meta.get("format") != _IMAGE_MAGIC:
        raise ConfigurationError(
            f"{sidecar_path} does not describe a nanograting interferogram"
        )
    for key, (expected, valid) in _SIDECAR_KEYS.items():
        if key not in meta:
            raise ConfigurationError(f"sidecar {sidecar_path} lacks the key {key!r}")
        if not valid(meta[key]):
            raise ConfigurationError(
                f"sidecar {sidecar_path}: {key!r} must be {expected}, got {meta[key]!r}"
            )


def read_interferogram(path: str | Path) -> Interferogram:
    """Read an interferogram written by :func:`write_interferogram`."""
    import numpy as np
    from .gravity import Interferogram
    target = Path(path)
    sidecar_path = target.with_name(target.name + ".json")
    try:
        meta = json.loads(_read_file(sidecar_path, "ascii"))
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"malformed sidecar {sidecar_path}: {exc}") from exc
    _check_sidecar(meta, sidecar_path)
    ny, nx = meta["ny"], meta["nx"]
    raw = np.frombuffer(_read_file(target), dtype=_IMAGE_DTYPE)
    if raw.size != nx * ny:
        raise ConfigurationError(
            f"interferogram payload holds {raw.size} values, expected {nx * ny}"
        )
    try:
        return Interferogram(
            raw.reshape(ny, nx),
            float(meta["pixel_pitch_x_m"]),
            float(meta["pixel_pitch_y_m"]),
            float(meta["x_min_m"]),
            float(meta["y_min_m"]),
        )
    except DomainError as exc:
        raise ConfigurationError(f"interferogram file {target}: {exc}") from exc


def write_pixmap(path: str | Path, data: bytes) -> None:
    """Write rendered binary pixmap bytes."""
    if not data.startswith(b"P6"):
        raise ConfigurationError("pixmap payload must start with a P6 header")
    Path(path).write_bytes(data)


def format_report(mapping: Mapping[str, Any]) -> str:
    """Aligned key = value lines, keys in insertion order."""
    keys = list(mapping)
    width = max((len(k) for k in keys), default=0)
    lines = [f"{k.ljust(width)} = {format_value(mapping[k])}" for k in keys]
    return "\n".join(lines) + "\n"


def write_report(path: str | Path, mapping: Mapping[str, Any]) -> None:
    Path(path).write_text(format_report(mapping), encoding="ascii")
