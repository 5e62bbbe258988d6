"""Forward diffraction: scalar Kirchhoff integral over coherently illuminated
slits, spatial-coherence estimate, the per-velocity-class path that images,
band traces and fits share (``_class_terms``, ``_class_row``, ``_band_sum``),
and the Gaussian point-spread kernel with the one edge-mirrored blur that
applies it.

The detector coordinate is the transverse position x' in the detection plane a
distance L2 downstream of the grating; the grating coordinate x runs over the
open slits. Intensities are arbitrary units unless a trace is explicitly
normalized.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from .domain import BeamlineGeometry, Grating, Molecule, SourceModel
from .domain import de_broglie_wavelength
from .errors import DomainError, ResolutionError, WorkBudgetError

__all__ = [
    "CoherenceResult",
    "DetectorGrid",
    "Trace",
    "coherence",
    "far_field_orders",
    "gaussian_kernel",
    "kirchhoff_pattern",
    "symmetric_convolve",
    "wave_number",
]

# forward velocities, in m/s and bounds included, over which the engine is
# validated: the one range rule, stated by wave_number
VELOCITY_SUPPORT = (50.0, 1000.0)

# largest quadratic phase k*s^2/(8*L2), in rad, dropped across one slit by
# the per-slit linearization of kirchhoff_pattern
MAX_SLIT_PHASE = 0.05

# largest pixel x slit product of one pattern's full grid; it peaks at 2-3 B
# per term with few nodes (4-5 B unfolded), 140 B (0.56 GB) where M = n_slits
MAX_PIXEL_SLITS = 4_000_000

# most multiply-adds (rows x pixels x taps) one blur may take, and most values
# it may hold (its rows x (pixels + 2 radius) padded values, or its kernel's
# taps): 0.6-1.8 ns per multiply-add and 23-24 B per value (2-core VM), so at
# most 1.8 s and 0.48 GB; a 10,000-point coarse scan on 921 pixels with 71
# taps takes 6.5e8 multiply-adds and 9.9e6 values
MAX_BLUR_TERMS = 1_000_000_000
MAX_BLUR_VALUES = 20_000_000

# interpolation error of the slit envelope across the slit centres, relative
# to the peak amplitude, that sets the node count of _slit_terms
NODE_TOLERANCE = 1e-15


def _frozen_array(values) -> np.ndarray:
    """Read-only float copy of ``values``."""
    arr = np.array(values, dtype=float, copy=True)
    arr.flags.writeable = False
    return arr


def _pixel_count(lo: float, hi: float, pitch: float) -> int:
    """Pixels of a detector or image axis from ``lo`` at ``pitch`` up to ``hi``."""
    count = (hi - lo) / pitch + 1e-9
    if not math.isfinite(count):
        raise WorkBudgetError(
            f"a span of {hi - lo!r} m at a pitch of {pitch!r} m has too many pixels"
        )
    return int(math.floor(count)) + 1


@dataclass(frozen=True)
class DetectorGrid:
    """Uniform 1D detector pixel grid.

    ``psf_sigma`` is the Gaussian point-spread sigma of the detection system
    in m.
    """

    x_min: float
    x_max: float
    pixel_pitch: float
    psf_sigma: float

    def __post_init__(self) -> None:
        if not self.x_max > self.x_min:
            raise DomainError(f"need x_max > x_min, got [{self.x_min!r}, {self.x_max!r}]")
        if not 0.0 < self.pixel_pitch < math.inf:
            raise DomainError(f"pixel pitch must be positive and finite, got {self.pixel_pitch!r}")
        if not 0.0 <= self.psf_sigma < math.inf:
            raise DomainError(f"psf sigma must be non-negative and finite, got {self.psf_sigma!r}")

    @property
    def n_pixels(self) -> int:
        return _pixel_count(self.x_min, self.x_max, self.pixel_pitch)

    @property
    def positions(self) -> np.ndarray:
        return self.x_min + self.pixel_pitch * np.arange(self.n_pixels)


@dataclass(frozen=True)
class Trace:
    """A 1D intensity trace on a uniform position grid."""

    positions: np.ndarray
    intensities: np.ndarray

    def __post_init__(self) -> None:
        pos = np.asarray(self.positions, dtype=float)
        inten = np.asarray(self.intensities, dtype=float)
        if pos.ndim != 1 or inten.ndim != 1 or pos.size != inten.size:
            raise DomainError("positions and intensities must be 1D arrays of equal length")
        if pos.size < 2:
            raise DomainError("a trace needs at least two samples")
        if not (np.isfinite(pos).all() and np.isfinite(inten).all()):
            raise DomainError("positions and intensities must be finite")
        steps = np.diff(pos)
        if (steps <= 0.0).any():
            raise DomainError("positions must be strictly increasing")
        # the predicate of np.allclose(steps, steps[0], rtol=1e-6, atol=0)
        # for finite steps, in one pass
        if not (np.abs(steps - steps[0]) <= 1e-6 * abs(steps[0])).all():
            raise DomainError("positions must form a uniform grid")
        # clamp float fuzz, reject genuinely negative data
        floor = -1e-12 * max(float(inten.max(initial=0.0)), 1.0)
        if (inten < floor).any():
            raise DomainError("intensities must be non-negative")
        # np.maximum returns a fresh array: freeze it without another copy
        inten = np.maximum(inten, 0.0)
        inten.flags.writeable = False
        object.__setattr__(self, "positions", _frozen_array(pos))
        object.__setattr__(self, "intensities", inten)

    def __len__(self) -> int:
        return int(self.positions.size)

    @property
    def pixel_pitch(self) -> float:
        # the mean step: one step carries x_0's rounding, which a rebuilt grid accumulates
        return float(self.positions[-1] - self.positions[0]) / (self.positions.size - 1)


@dataclass(frozen=True)
class CoherenceResult:
    """Transverse coherence at the grating plane: the slits it spans."""

    n_coherent_slits: int  # >= 1


def wave_number(molecule: Molecule, velocity: float) -> float:
    """Matter-wave number 2*pi/lambda in rad/m at a forward velocity within
    ``VELOCITY_SUPPORT``, bounds included; any other velocity raises a
    DomainError that names it. Every engine path takes its k here
    (single-velocity patterns, and through ``_class_terms`` band traces, fits
    and images), so each refuses at the class it would build. An image class
    that falls off the window builds no pattern: it is clipped, not refused."""
    if not VELOCITY_SUPPORT[0] <= velocity <= VELOCITY_SUPPORT[1]:
        raise DomainError(
            f"velocity {velocity!r} m/s outside the validated range {VELOCITY_SUPPORT} m/s"
        )
    return 2.0 * math.pi / de_broglie_wavelength(molecule, velocity)


def coherence(
    source: SourceModel,
    geometry: BeamlineGeometry,
    wavelength: float,
    period: float,
    prefactor: float,
) -> CoherenceResult:
    """Transverse coherence estimate at the grating.

    coherence angle = prefactor * lambda / source_width, width = angle * L1,
    slit count = floor(width / period) clamped to at least 1.
    """
    if not 0.0 < wavelength < math.inf:
        raise DomainError(f"wavelength must be positive and finite, got {wavelength!r}")
    if not 0.0 < period < math.inf:
        raise DomainError(f"period must be positive and finite, got {period!r}")
    if not 0.0 < prefactor < math.inf:
        raise DomainError(f"coherence prefactor must be positive and finite, got {prefactor!r}")
    angle = prefactor * wavelength / source.source_width
    width = angle * geometry.L1
    n = max(1, int(math.floor(width / period)))
    return CoherenceResult(n_coherent_slits=n)


def far_field_orders(
    wavelength: float, period: float, L2: float, n_max: int
) -> tuple[float, ...]:
    """Grating-equation order positions x_n = L2 * tan(asin(n lambda / d)):
    entry n is order n, for the orders 0 .. n_max that propagate.

    Orders with n*lambda >= d do not propagate, so the tuple stops before the
    first of them; orders len(positions) .. n_max are evanescent.
    """
    if not (0.0 < wavelength < math.inf and 0.0 < period < math.inf and 0.0 < L2 < math.inf):
        raise DomainError("wavelength, period, and L2 must all be positive and finite")
    if n_max < 0:
        raise DomainError(f"n_max must be non-negative, got {n_max!r}")
    sines = (n * wavelength / period for n in range(n_max + 1))
    return tuple(L2 * math.tan(math.asin(sine)) for sine in sines if sine < 1.0)


@dataclass(frozen=True)
class _SlitTerms:
    """The s-independent part of ``kirchhoff_pattern`` for one wave number: per
    node (rows) and computed pixel (columns) the sine rate rho_m and weight V_m
    (``weights``, contiguous real and imaginary planes), per computed pixel the
    on-node weight W0, and ``mirror[p]``, the computed pixel serving pixel p
    (the fold of ``_slit_terms``)."""

    weights: np.ndarray
    rate: np.ndarray
    on_node: np.ndarray
    mirror: np.ndarray


def _node_count(
    k: float, L2: float, half_span: float, n_slits: int, max_width: float, reach: float
) -> int:
    """Fewest Chebyshev nodes, at most ``n_slits``, that interpolate the slit
    envelope (widths up to ``max_width``) and the Fresnel remainder (|c - x'|
    up to ``reach``) across the slit centres to ``NODE_TOLERANCE``."""
    # Python floats: a far off-axis window overflows z to inf, without a warning
    z = half_span * k * (max_width + reach * reach * reach / (L2 * L2)) / (2.0 * L2)
    m, power = 1, z / 2.0  # power = (z/2)^m / m!
    while m < n_slits and 2.0 * power / (m + 1) > NODE_TOLERANCE:
        m += 1
        power *= z / (2.0 * m)
    return m


def _node_basis(centers: np.ndarray, n_nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Envelope nodes and the Lagrange basis ell[m, j] of node m at slit
    centre j. With as many nodes as slits the nodes are the centres and ell
    is the identity; otherwise they are Chebyshev points of the first kind
    across the centres, and ell is the barycentric form, exact at a centre
    that coincides with a node."""
    if n_nodes >= centers.size:
        return centers, np.eye(centers.size)
    theta = (2.0 * np.arange(n_nodes) + 1.0) * math.pi / (2.0 * n_nodes)
    nodes = centers[-1] * np.cos(theta)
    diff = centers[None, :] - nodes[:, None]
    hit = diff == 0.0
    diff[hit] = 1.0
    ratio = ((-1.0) ** np.arange(n_nodes) * np.sin(theta))[:, None] / diff
    basis = ratio / ratio.sum(axis=0)
    on_node = hit.any(axis=0)
    basis[:, on_node] = hit[:, on_node]
    return nodes, basis


def _chirp(beta: float, n: np.ndarray) -> np.ndarray:
    """exp(i beta n^2 / 2) at the integers n (largest last), reduced mod 2 pi exactly."""
    n2 = np.square(n, dtype=float)
    turns = beta / (4.0 * math.pi)
    q = 53 - math.frexp(turns * float(n2[-1]))[1]
    high = math.ldexp(math.floor(math.ldexp(turns, q)), -q)
    t = high * n2
    return np.exp(2j * math.pi * (t - np.floor(t) + (turns - high) * n2))


def _slit_terms(
    k: float,
    L2: float,
    n_slits: int,
    period: float,
    grid: DetectorGrid,
    *,
    max_width: float,
) -> _SlitTerms:
    """Build the slit-width-independent terms of ``kirchhoff_pattern``: the
    one full account of how the engine sums over slits.

    Fresnel split. With u = c_j - x' and r = sqrt(L2^2 + u^2), exactly
    k delta(u) = k u^2 / (2 L2) + k R(u) with R(u) = -u^4 / (2 L2 (L2 + r)^2),
    and |k R'(u)| <= k |u|^3 / (2 L2^3): R is smooth across the slits.

    Nodes. The envelope sinc(k s delta'(u) / 2 pi) and exp(i k R(u)) are
    sampled at M Chebyshev nodes c^_m across the centres c_j (Lagrange basis
    ell[m, j]) instead of at every centre:

        s sum_j exp(i k delta_j) sinc(k s delta'_j / 2 pi)
          = s sum_m W_m sinc(k s delta^'_m / 2 pi),
        W_m = exp(i k R(c^_m - x')) sum_j ell[m, j] exp(i k u_j^2 / 2 L2)

    M is the least m <= n_slits with 2 (z/2)^m / (m! (m+1)) <=
    ``NODE_TOLERANCE``, z = h k w / (2 L2) + h k u_max^3 / (2 L2^3): the
    Chebyshev bound, relative to the peak amplitude, for the bandwidths of
    the envelope (delta' taken as linear in c) and of the remainder, with h
    the half-span of the centres, u_max = max|x'| + h and w = ``max_width``
    (callers pass the geometric width, which ``Grating`` holds s_eff to and
    a fit's widths end at). The README presets at 50-1000 m/s take 9-10 nodes
    for 10-274 slits; far off axis M reaches n_slits (nodes at the centres).

    Chirp-z sum. For x_p = x_0 + p pitch and c_j = c_0 + j d, Bluestein's
    jp = (j^2 + p^2 - (p - j)^2) / 2 with beta = k d pitch / L2 gives
    k u_jp^2 / (2 L2) = k c_j (c_j / 2 - x_0) / L2 - beta j^2 / 2
    + beta (p - j)^2 / 2 + (terms in p alone). Those last are a unit phasor
    per pixel, common to every node, and |amplitude|^2 drops them. The slit
    factors fold into q[m, j] = ell[m, j] exp(i k c_j (c_j / 2 - x_0) / L2
    - i beta j^2 / 2), and F_m(p) = sum_j q[m, j] exp(i beta (p - j)^2 / 2)
    for all M rows is one FFT convolution over a power of two >= P + N - 1
    points: the chirp-z transform (Rabiner, Schafer and Rader, 1969) on
    numpy's single-threaded FFT. ``_chirp`` reduces the chirp phases mod
    2 pi exactly: they grow as n^2, to 8e4 rad on the README grid and 3.5e5
    rad on a 0.05 nm pitch. R and delta' are evaluated at the M x P (node,
    pixel) points only, so the work scales with pixels x nodes.

    Mirror fold. Slit terms are even in u and c_{N-1-j} = -c_j, so the
    intensity is even in x'. If max_p |x_p + x_{P-1-p}| <= 8 eps max|x|
    (eps = 2^-52), only the P' = ceil(P/2) pixels p >= P // 2 are built and
    ``_contract`` maps them back through ``mirror``, |2 p - (P - 1)| // 2.
    An x_min = -x_max grid of whole pixels read from decimal text passes:
    rounding x_0 + p pitch twice puts a pair within 3 eps max|x|, and reading
    x_max and the pitch parts the exact ends by up to 4 eps (30,000 random
    grids: 3.9). A shift of 8 eps is the order of the chirp-z grid's own
    1.5 eps: three folding grids read 1.7e-13 in the error below at 50-1000
    m/s (2.1e-13 unfolded). Any other grid keeps P' = P.

    Sines. With rho_m = k delta^'_m / 2 the envelope sum equals
    sum_m V_m sin(s rho_m) + s W0 exactly, where V_m = W_m / rho_m (0 where
    rho_m = 0) and W0 sums W_m over the nodes with rho_m = 0. The terms hold
    V (``weights``, planes of M x P'), rho (``rate``) and W0 (``on_node``): 24 B
    per computed pixel and node, 0.11 MB for 921 folded pixels and 10 nodes.
    Node-major rows keep each node's pixels contiguous, so the contraction
    over nodes runs on unit-stride rows.

    Error, against the per-slit sum with its phase in long double, over the
    presets at 50-1000 m/s at the effective, geometric and slit-phase-limit
    widths: at most 1.7e-13 of the in-window peak on the README grid, 1.8e-13
    on +-2 um at L2 = 5 mm (1.3e-12 for a float64 pixels x slits phase),
    5.5e-13 on +-20 um at L2 = 50 mm and 6.7e-15 on +-5 um at 0.05 nm pitch
    (slg, 1000 m/s), where an unreduced float64 chirp reads 1.4e-11; and
    1.9e-14 of the global peak (s N)^2 over 400 random cases the gates accept,
    off axis included. The tests bound it at 1e-12.

    Refuses with a ResolutionError, before allocating, a pattern of more than
    ``MAX_PIXEL_SLITS`` pixel x slit terms, counted on the full grid.
    """
    if not (0.0 < k < math.inf and L2 > 0.0):
        raise DomainError(f"need a positive, finite wave number and L2 > 0, got k={k!r}, L2={L2!r}")
    if n_slits < 1:
        raise DomainError(f"need at least one slit, got {n_slits!r}")
    n_pixels = grid.n_pixels
    work = float(n_pixels) * n_slits  # :.3e cannot format an int past the float range
    if work > MAX_PIXEL_SLITS:
        raise WorkBudgetError(
            f"{n_pixels:.3e} pixels x {n_slits:.3e} coherent slits = {work:.3e} "
            f"pixel x slit terms exceeds the budget of {MAX_PIXEL_SLITS:.0e}"
        )

    positions = grid.positions
    widest = float(np.abs(positions).max())
    mirror = np.arange(n_pixels)  # the mirror fold, stated in the docstring
    if np.abs(positions + positions[::-1]).max() <= 8.0 * math.ulp(1.0) * widest:
        positions, mirror = positions[n_pixels // 2 :], np.abs(2 * mirror - (n_pixels - 1)) // 2
        n_pixels = positions.size
    centers = (np.arange(n_slits) - (n_slits - 1) / 2.0) * period
    half_span = float(centers[-1])
    reach = widest + half_span
    nodes, basis = _node_basis(centers, _node_count(k, L2, half_span, n_slits, max_width, reach))
    chirp = _chirp(k * period * grid.pixel_pitch / L2, np.arange(max(n_pixels, n_slits)))
    slits = np.exp((1j * k / L2) * centers * (centers / 2.0 - positions[0]))
    slits *= chirp[:n_slits].conj()
    size = 1 << (n_pixels + n_slits - 2).bit_length()
    gap = np.zeros(size - n_pixels - n_slits + 1)
    kernel = np.concatenate([chirp[:n_pixels], gap, chirp[n_slits - 1 : 0 : -1]])
    sums = np.fft.fft(basis * slits, size)
    sums *= np.fft.fft(kernel)
    sums = np.fft.ifft(sums)[:, :n_pixels]
    # the Fresnel remainder k R(u) and the sine rate at the nodes, u = c^_m - x'
    u = nodes[:, None] - positions[None, :]
    r = np.sqrt(L2 * L2 + u * u)
    rate = (0.5 * k) * u / r
    remainder = (-0.5 * k / L2) * (u * u / (L2 + r)) ** 2
    weights = np.empty(u.shape, dtype=complex)
    np.cos(remainder, out=weights.real)
    np.sin(remainder, out=weights.imag)
    weights *= sums
    on = rate == 0.0
    on_node = np.where(on, weights, 0.0).sum(axis=0)
    np.divide(weights, rate, out=weights, where=~on)
    weights[on] = 0.0
    planes = np.stack((weights.real, weights.imag))
    return _SlitTerms(planes, rate, on_node, mirror)


def _grating_terms(
    grating: Grating, k: float, L2: float, n_slits: int, grid: DetectorGrid
) -> _SlitTerms:
    """``_slit_terms`` of the grating's slits, the nodes sized for its
    geometric width (the widest s_eff), checked after the build (a work-budget
    refusal wins) at its effective width, the widest its caller evaluates.
    Each check fails at every wider width too: the finest fringe is
    lambda L2 / d (several slits) or lambda L2 / s (one slit), and
    k s^2 / (8 L2) grows with s."""
    terms = _slit_terms(k, L2, n_slits, grating.period, grid, max_width=grating.slit_width)
    s, pitch = grating.effective_slit_width, grid.pixel_pitch
    wavelength = 2.0 * math.pi / k

    # the finest transverse feature the pattern can contain
    feature = wavelength * L2 / grating.period if n_slits > 1 else wavelength * L2 / s
    if pitch > feature / 2.0:
        raise ResolutionError(
            f"pixel pitch {pitch:.3e} m cannot resolve the "
            f"{feature:.3e} m fringe period; need pitch <= {feature / 2.0:.3e} m"
        )
    slit_phase = k * s * s / (8.0 * L2)
    if slit_phase > MAX_SLIT_PHASE:
        raise ResolutionError(
            f"quadratic phase across one slit k*s^2/(8*L2) = {slit_phase:.3e} rad "
            f"exceeds {MAX_SLIT_PHASE} rad; the per-slit far-field form does not hold"
        )
    return terms


def _contract(terms: _SlitTerms, sines: np.ndarray, s: float | np.ndarray) -> np.ndarray:
    """|sum_m V_m sines_m + s W0|^2 per pixel, sines[..., m, p] = sin(s rho_m),
    for a scalar s or a (..., 1) column of widths, one per row of sines."""
    # einsum (never BLAS) keeps one summation order whatever the thread count
    re = np.einsum("mp,...mp->...p", terms.weights[0], sines)
    im = np.einsum("mp,...mp->...p", terms.weights[1], sines)
    re += s * terms.on_node.real
    im += s * terms.on_node.imag
    return (re * re + im * im).take(terms.mirror, axis=-1)


def _slit_envelope(terms: _SlitTerms, s: float) -> np.ndarray:
    """Intensity |sum_m V_m sin(s rho_m) + s W0|^2 of slits of width s."""
    x = terms.rate * s
    np.sin(x, out=x)
    return _contract(terms, x, s)


def _envelope_scan(terms: _SlitTerms, widths: np.ndarray) -> np.ndarray:
    """``_slit_envelope`` at each of the ascending, uniformly spaced
    ``widths``, one row per width. The caller checked the widest width, which
    clears every narrower one (``_grating_terms``). Row i reads its sines as
    Im(z step^i), z = exp(i s_0 rho) and step = exp(i Delta rho): one complex
    multiply per pixel and node, no sine (Press et al., Numerical Recipes,
    3rd ed., 5.4). The rounding grows linearly with i, so z is recomputed by
    np.exp every 64 rows. The sines of 16 rows at a time go to one
    ``_contract`` call (a 16 x M x P' buffer, 0.16 MB at 281 pixels and 9
    nodes), which sums each row in the order a lone row would: the rows
    equal a row-at-a-time scan's, bit for bit.
    Bound: on a window that holds the zeroth order, each row of a scan of up
    to 10,000 widths is within 1e-13 of its peak of ``_slit_envelope`` at
    its width (450 random scans on the presets at 50-1000 m/s read at most
    1.7e-14; without the recompute, row 9,998 reads 6.5e-13). Off axis, 80
    random scans of the gated domain read at most 7.9e-18 of the global peak
    (s N)^2."""
    step = np.exp((1j * (widths[-1] - widths[0]) / (widths.size - 1)) * terms.rate)
    rows = np.empty((widths.size, terms.mirror.size))
    block = np.empty((min(16, widths.size),) + terms.rate.shape)
    for i, s in enumerate(widths):
        if i % 64:
            z *= step
        else:
            z = np.exp((1j * s) * terms.rate)
        j = i % 16
        block[j] = z.imag
        if j == 15 or i == widths.size - 1:
            rows[i - j : i + 1] = _contract(terms, block[: j + 1], widths[i - j : i + 1, None])
    return rows


def _class_terms(
    classes: Iterable[tuple[float, float]], grating: Grating, molecule: Molecule,
    source: SourceModel, geometry: BeamlineGeometry, grid: DetectorGrid,
    coherence_prefactor: float,
) -> Iterator[tuple[float, _SlitTerms]]:
    """(weight, slit-width-independent terms) per positive-weight (velocity,
    weight) class, one class at a time, with its own wave number and coherent
    slit count, built and checked by ``_grating_terms``; ``wave_number``
    refuses a class outside ``VELOCITY_SUPPORT``."""
    for v, w in classes:
        if w == 0.0:
            continue
        k = wave_number(molecule, float(v))
        wavelength = de_broglie_wavelength(molecule, float(v))
        coh = coherence(source, geometry, wavelength, grating.period, coherence_prefactor)
        yield float(w), _grating_terms(grating, k, geometry.L2, coh.n_coherent_slits, grid)


def _class_row(terms: _SlitTerms, s: float | np.ndarray) -> np.ndarray:
    """One class's pattern at slit width ``s``, normalized to unit pixel sum;
    for ascending, uniformly spaced widths ``s``, one such row per width
    (``_envelope_scan``)."""
    rows = _envelope_scan(terms, s) if np.ndim(s) else _slit_envelope(terms, s)
    rows /= rows.sum(axis=-1, keepdims=True)
    return rows


def _band_sum(
    classes: Iterable[tuple[float, _SlitTerms]], s: float | np.ndarray
) -> np.ndarray:
    """Weighted sum of the classes' unit-sum patterns at slit width ``s``
    (one row per width for the coarse scan's widths, ``_class_row``),
    one class at a time: the first class's terms, which check the work
    budget, are built before any array of the grid's size. Each class's rows
    are scaled and added in place, so the sum holds no temporaries."""
    total = None
    for w, terms in classes:
        rows = _class_row(terms, s)
        rows *= w
        if total is None:
            total = rows
        else:
            total += rows
    return total


def kirchhoff_pattern(
    grating: Grating,
    k: float,
    L2: float,
    n_slits: int,
    grid: DetectorGrid,
) -> Trace:
    """Scalar Kirchhoff diffraction pattern of ``n_slits`` coherently and
    equally illuminated slits of the grating's *effective* width s.

    The path from slit center c_j to pixel x' is kept exact: with
    u = c_j - x', the excess over L2 is delta_j = u^2 / (L2 + sqrt(L2^2 + u^2))
    (the cancellation-free form of sqrt(L2^2 + u^2) - L2; the constant phase
    k*L2 is dropped). Across one slit the phase is linearized about its center
    with slope delta'_j = u / sqrt(L2^2 + u^2), so each slit integrates in
    closed form and the amplitude is

        s * sum_j exp(i k delta_j) sinc(k s delta'_j / 2 pi)

    with np.sinc(x) = sin(pi x) / (pi x): Fraunhofer within a slit, Fresnel
    between slits. Intensity is the squared modulus.

    Only the sinc depends on s. ``_slit_terms`` builds everything else once
    per (k, L2, n_slits, period, grid), with the envelope sampled at
    a few nodes and the slit sum taken as a chirp-z transform; its docstring
    is the full account, with the error bound. ``_slit_envelope`` then
    evaluates the pattern for one s. Band traces and ``fit_effective_slit``
    reuse one class's terms for every trial s.

    Refusals, each a ResolutionError: more than ``MAX_PIXEL_SLITS`` pixel x
    slit terms (checked before any array is built); then, in
    ``_grating_terms``, a pixel pitch that cannot resolve the finest fringe,
    and a dropped quadratic phase k s^2 / (8 L2) at the slit edges above
    ``MAX_SLIT_PHASE`` radians. Every sum runs in one fixed order
    (element-wise reductions, einsum and numpy's single-threaded FFT, no
    threaded BLAS product), so results repeat bit for bit.
    """
    terms = _grating_terms(grating, k, L2, n_slits, grid)
    return Trace(grid.positions, _slit_envelope(terms, grating.effective_slit_width))


def gaussian_kernel(sigma: float, pitch: float) -> np.ndarray:
    """Unit-sum Gaussian kernel sampled on the pixel pitch, truncated at
    +-5 sigma. Returns a length-1 identity kernel when sigma is too small to
    span a pixel. More than ``MAX_BLUR_VALUES`` taps is refused before any is built."""
    if not 0.0 <= sigma < math.inf:
        raise DomainError(f"sigma must be non-negative and finite, got {sigma!r}")
    if not 0.0 < pitch < math.inf:
        raise DomainError(f"pitch must be positive and finite, got {pitch!r}")
    if 10.0 * sigma / pitch + 1.0 > MAX_BLUR_VALUES:
        raise WorkBudgetError(
            f"a blur of sigma {sigma!r} at pitch {pitch!r} takes {10.0 * sigma / pitch + 1.0:.3e} "
            f"taps, more than the budget of {MAX_BLUR_VALUES:.0e}"
        )
    radius = int(math.ceil(5.0 * sigma / pitch))
    if sigma == 0.0 or radius == 0:
        return np.ones(1)
    u = (np.arange(2 * radius + 1) - radius) * pitch
    with np.errstate(over="ignore"):  # pitch / sigma past 1e154: the outer taps are exp(-inf) = 0
        kernel = np.exp(-0.5 * (u / sigma) ** 2)
    return kernel / kernel.sum()


def _check_blur_budget(shape: tuple[int, ...], taps: int) -> None:
    """Refuse a blur of an array of ``shape`` by ``taps`` taps that holds more
    than ``MAX_BLUR_VALUES`` padded values or takes more than
    ``MAX_BLUR_TERMS`` multiply-adds."""
    size = math.prod(shape)
    padded_size = math.prod(shape[:-1]) * (shape[-1] + 2 * (taps // 2))
    if padded_size > MAX_BLUR_VALUES or size * taps > MAX_BLUR_TERMS:
        raise WorkBudgetError(
            f"blurring {size} values with {taps} taps holds {padded_size:.3e} "
            f"padded values and takes {size * taps:.3e} multiply-adds, over the "
            f"budgets of {MAX_BLUR_VALUES:.0e} values and {MAX_BLUR_TERMS:.0e} multiply-adds"
        )


def symmetric_convolve(values: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """Convolve a 1D signal, or each row of a 2D array, with a unit-sum
    symmetric kernel under edge-mirrored boundary handling, which conserves
    each row's total exactly (every kernel tap falling off an edge is folded
    back inside, repeatedly where the kernel is wider than the row, as np.pad's
    "symmetric" mode does, in one gather). The one blur: traces, image rows, placements.
    ``_check_blur_budget`` refuses an oversized blur before any padding."""
    _check_blur_budget(values.shape, kernel.size)
    radius = kernel.size // 2
    reflect = np.arange(-radius, values.shape[-1] + radius) % (2 * values.shape[-1])
    padded = values.take(np.minimum(reflect, 2 * values.shape[-1] - 1 - reflect), axis=-1)
    rows = padded.reshape(-1, padded.shape[-1])
    return np.array([np.convolve(row, kernel, mode="valid") for row in rows]).reshape(values.shape)

