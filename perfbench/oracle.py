"""Benchmark-owned accuracy oracle: refined midpoint Kirchhoff quadrature.

Plain numpy, independent of the package. For each of ``n_slits`` slits of
width ``s`` centred at (j - (N-1)/2) d, the amplitude at detector position x'
is the integral over the slit of exp(i k (R - L2)), R = sqrt(L2^2 + u^2),
u = x - x', with the path excess written as u^2 / (L2 + R) to avoid
cancellation. The midpoint step is fixed so that the phase advances at most
PHASE_STEP_RAD per node at the largest |u| on the grid; the rule is this
module's own and does not follow the package's step setting. Intensity is
|amplitude|^2 in the same units as ``kirchhoff_pattern``.

A probe is one output of the package as a workload makes it: a single raw
pattern, a band trace, or the column sums of a synthesized image. ``expected``
rebuilds it from the probe's velocity classes: each class's refined pattern,
optionally normalized to unit pixel sum, weighted, summed, and blurred with
the detector Gaussian (unit sum, truncated at +-5 sigma, edge-mirrored
boundaries), all in plain numpy.

Refined patterns are cached on disk per class, keyed by every input and the
oracle version, because the quadrature costs seconds per class and does not
depend on the code under test.
"""

from __future__ import annotations

import hashlib
import json
import math
import os

import numpy as np

PHASE_STEP_RAD = 0.02
VERSION = 1
_BLOCK = 1 << 20  # complex samples per pixel chunk (16 MiB)


def refined_pattern(
    slit_width: float, period: float, k: float, L2: float, n_slits: int, positions: np.ndarray
) -> np.ndarray:
    """Hard-window multi-slit Kirchhoff intensity on ``positions``."""
    x = np.asarray(positions, dtype=float)
    centers = (np.arange(n_slits) - (n_slits - 1) / 2.0) * period
    u_max = float(np.abs(x).max()) + float(np.abs(centers).max()) + slit_width / 2.0
    phase_rate = k * u_max / math.hypot(L2, u_max)  # max |d(k R)/du|
    n_sub = max(16, math.ceil(slit_width * phase_rate / PHASE_STEP_RAD))
    h = slit_width / n_sub
    offsets = -slit_width / 2.0 + (np.arange(n_sub) + 0.5) * h
    nodes = (centers[:, None] + offsets[None, :]).ravel()
    amplitude = np.empty(x.size, dtype=complex)
    rows = max(1, _BLOCK // nodes.size)
    for start in range(0, x.size, rows):
        u = nodes[None, :] - x[start : start + rows, None]
        excess = u * u / (L2 + np.sqrt(L2 * L2 + u * u))
        amplitude[start : start + rows] = np.exp(1j * k * excess).sum(axis=1)
    return np.abs(h * amplitude) ** 2


def peak_relative_rms(candidate: np.ndarray, reference: np.ndarray, peak: float) -> float:
    return float(np.sqrt(np.mean((candidate - reference) ** 2)) / peak)


def cached_pattern(
    cache_dir: str, slit_width: float, period: float, k: float, L2: float, n_slits: int,
    positions: list[float],
) -> np.ndarray:
    """``refined_pattern``, read from or stored to ``cache_dir``."""
    args = (float(slit_width), float(period), float(k), float(L2), int(n_slits),
            [float(v) for v in positions])
    key = hashlib.sha256(json.dumps([VERSION, PHASE_STEP_RAD, *args]).encode()).hexdigest()
    path = os.path.join(cache_dir, f"{key[:32]}.npy")
    if os.path.isfile(path):
        return np.load(path)
    values = refined_pattern(*args[:5], np.array(args[5]))
    os.makedirs(cache_dir, exist_ok=True)
    tmp = f"{path}.{os.getpid()}.tmp.npy"
    np.save(tmp, values)
    os.replace(tmp, path)
    return values


def detector_blur(values: np.ndarray, sigma_px: float) -> np.ndarray:
    """Unit-sum Gaussian of ``sigma_px`` pixels, truncated at +-5 sigma, with
    edge-mirrored boundaries (the convention the package documents)."""
    radius = math.ceil(5.0 * sigma_px)
    if sigma_px == 0.0 or radius == 0:
        return values
    kernel = np.exp(-0.5 * (np.arange(-radius, radius + 1) / sigma_px) ** 2)
    padded = np.pad(values, radius, mode="symmetric")
    return np.convolve(padded, kernel / kernel.sum(), mode="valid")


def expected(cache_dir: str, probe: dict) -> tuple[np.ndarray, float]:
    """The oracle's version of a probe (see the module docstring): keys
    slit_width, period, L2, positions, classes [[k, n_slits, weight], ...],
    normalize and psf_sigma_px. Also returns the largest peak of one class's
    term, the scale errors are measured in: on a sum of many classes, an
    error in one class would be diluted against the peak of the sum."""
    total = np.zeros(len(probe["positions"]))
    peak = 0.0
    for k, n_slits, weight in probe["classes"]:
        pattern = cached_pattern(cache_dir, probe["slit_width"], probe["period"], k,
                                 probe["L2"], n_slits, probe["positions"])
        if probe["normalize"]:
            pattern = pattern / pattern.sum()
        term = detector_blur(weight * pattern, probe["psf_sigma_px"])
        total += term
        peak = max(peak, float(term.max()))
    return total, peak
