"""In-memory span tracer that wraps public package functions from outside.

Each wrapper is installed at the module attribute where its caller looks the
function up (``nanograting.gravity.kirchhoff_pattern`` is what
``synthesize_image`` calls), so the package itself is not edited. A span
records layer name, start, end, parent span and optional work counts taken
from the call's arguments or result. Spans stay in memory; the caller
writes them out when the run ends.

A target that no longer exists (a later refactor renamed or removed it) is
listed in ``absent`` instead of raising, so the benchmark keeps running and
reports that layer as absent.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import time
from typing import Any, Callable

# layer name -> module attributes to wrap. Module-qualified names; a caller
# that imported the function into its own namespace is wrapped there.
TARGETS: dict[str, tuple[str, ...]] = {
    "config.load": ("nanograting.config.load_run_config", "nanograting.cli.load_run_config"),
    "diffraction.pattern": (
        "nanograting.gravity.kirchhoff_pattern",
        "nanograting.vdwfit.kirchhoff_pattern",
        "nanograting.cli.kirchhoff_pattern",
    ),
    "diffraction.convolve": (
        "nanograting.vdwfit.detector_convolve",
        "nanograting.cli.detector_convolve",
    ),
    "vdwfit.band_trace": (
        "nanograting.vdwfit.band_averaged_trace",
        "nanograting.cli.band_averaged_trace",
    ),
    "vdwfit.fit": ("nanograting.vdwfit.fit_effective_slit", "nanograting.cli.fit_effective_slit"),
    "gravity.synth": ("nanograting.gravity.synthesize_image", "nanograting.cli.synthesize_image"),
    "gravity.blur": ("nanograting.gravity.symmetric_convolve",),
    "gravity.profile": (
        "nanograting.gravity.stripe_velocity_profile",
        "nanograting.cli.stripe_velocity_profile",
    ),
    "imaging.render": ("nanograting.imaging.render_image", "nanograting.cli.render_image"),
    "io.write_image": ("nanograting.io.write_interferogram", "nanograting.cli.write_interferogram"),
    "io.read_image": ("nanograting.io.read_interferogram", "nanograting.cli.read_interferogram"),
    "io.pixmap": ("nanograting.io.write_pixmap", "nanograting.cli.write_pixmap"),
    "io.trace_csv": (
        "nanograting.io.write_trace_csv",
        "nanograting.io.read_trace_csv",
        "nanograting.cli.write_trace_csv",
        "nanograting.cli.read_trace_csv",
    ),
}


def _pattern_counts(bound: inspect.BoundArguments, result: Any) -> dict[str, int]:
    grid = bound.arguments.get("grid")
    n_slits = bound.arguments.get("n_slits")
    if grid is None or n_slits is None:
        return {}
    return {"pixel_slits": int(grid.n_pixels) * int(n_slits)}


def _path_bytes(bound: inspect.BoundArguments, result: Any) -> dict[str, int]:
    path = bound.arguments.get("path")
    if path is None:
        return {}
    # an interferogram's JSON sidecar travels with it
    return {"bytes": sum(os.path.getsize(p) for p in (path, f"{path}.json") if os.path.isfile(p))}


def _result_bytes(bound: inspect.BoundArguments, result: Any) -> dict[str, int]:
    return {"bytes": len(result)} if isinstance(result, (bytes, bytearray)) else {}


# layer name -> counts taken after a call from its bound arguments and result
COUNTERS: dict[str, Callable[[inspect.BoundArguments, Any], dict[str, int]]] = {
    "diffraction.pattern": _pattern_counts,
    "imaging.render": _result_bytes,
    "io.write_image": _path_bytes,
    "io.read_image": _path_bytes,
    "io.pixmap": _path_bytes,
    "io.trace_csv": _path_bytes,
}


class Tracer:
    """Span recorder. ``install`` wraps every target; ``uninstall`` restores
    the originals. Spans are tuples (name, start, end, parent, counts)."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int, dict[str, int]]] = []
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._installed: list[tuple[Any, str, Any]] = []

    def install(self, targets: dict[str, tuple[str, ...]] = TARGETS) -> None:
        for name, qualnames in targets.items():
            for qualname in qualnames:
                module_name, _, attr = qualname.rpartition(".")
                try:
                    module = importlib.import_module(module_name)
                except ImportError:
                    self.absent.append(qualname)
                    continue
                original = getattr(module, attr, None)
                if not callable(original):
                    self.absent.append(qualname)
                    continue
                setattr(module, attr, self._wrap(name, original))
                self._installed.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._installed):
            setattr(module, attr, original)
        self._installed.clear()

    def _wrap(self, name: str, original: Callable) -> Callable:
        counter = COUNTERS.get(name)
        signature = inspect.signature(original) if counter is not None else None
        spans, stack = self.spans, self._stack

        @functools.wraps(original)
        def traced(*args: Any, **kwargs: Any) -> Any:
            index = len(spans)
            parent = stack[-1] if stack else -1
            spans.append((name, 0.0, 0.0, parent, {}))
            stack.append(index)
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent, {})
            if counter is not None:
                try:
                    counts = counter(signature.bind(*args, **kwargs), result)
                except TypeError:
                    counts = {}
                spans[index] = (name, start, end, parent, counts)
            return result

        return traced

    def clear(self) -> None:
        self.spans.clear()


def self_times(spans: list[tuple]) -> list[float]:
    """Span duration minus the time its direct children cover (spans of one
    thread nest, so children never overlap)."""
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own
