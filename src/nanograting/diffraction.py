"""Forward diffraction: scalar Kirchhoff integral over coherently illuminated
slits, closed-form far-field reference, spatial-coherence estimate, and
detector point-spread convolution.

The detector coordinate is the transverse position x' in the detection plane a
distance L2 downstream of the grating; the grating coordinate x runs over the
open slits. Intensities are arbitrary units unless a trace is explicitly
normalized.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .domain import BeamlineGeometry, Grating, Molecule, SourceModel
from .domain import de_broglie_wavelength
from .errors import DomainError, ResolutionError, WorkBudgetError

__all__ = [
    "CoherenceResult",
    "DetectorGrid",
    "DiffractionOrder",
    "FarFieldOrders",
    "Trace",
    "coherence",
    "detector_convolve",
    "far_field_orders",
    "fraunhofer_multislit",
    "gaussian_kernel",
    "kirchhoff_pattern",
    "symmetric_convolve",
    "wave_number",
]

NORMALIZATIONS = ("raw", "max-1", "unit-area")

# largest quadratic phase k*s^2/(8*L2), in rad, dropped across one slit by
# the per-slit linearization of kirchhoff_pattern
MAX_SLIT_PHASE = 0.05

# largest pixel x slit product one pattern may build; its arrays peak at about
# 3 B per term with few nodes, up to 140 B (0.56 GB) where M reaches n_slits
MAX_PIXEL_SLITS = 4_000_000

# interpolation error of the slit envelope across the slit centres, relative
# to the peak amplitude, that sets the node count of _slit_terms
NODE_TOLERANCE = 1e-15


def _frozen_array(values) -> np.ndarray:
    """Read-only float copy of ``values``."""
    arr = np.array(values, dtype=float, copy=True)
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class DetectorGrid:
    """Uniform 1D detector pixel grid.

    ``psf_sigma`` is the Gaussian point-spread sigma of the detection system
    in m (default 3.5 microns).
    """

    x_min: float
    x_max: float
    pixel_pitch: float
    psf_sigma: float = 3.5e-6

    def __post_init__(self) -> None:
        if not self.x_max > self.x_min:
            raise DomainError(f"need x_max > x_min, got [{self.x_min!r}, {self.x_max!r}]")
        if self.pixel_pitch <= 0.0:
            raise DomainError(f"pixel pitch must be positive, got {self.pixel_pitch!r}")
        if self.psf_sigma < 0.0:
            raise DomainError(f"psf sigma must be non-negative, got {self.psf_sigma!r}")

    @classmethod
    def symmetric(cls, half_span: float, pixel_pitch: float, psf_sigma: float = 3.5e-6) -> "DetectorGrid":
        return cls(-half_span, half_span, pixel_pitch, psf_sigma)

    @property
    def n_pixels(self) -> int:
        span = self.x_max - self.x_min
        return int(math.floor(span / self.pixel_pitch + 1e-9)) + 1

    @property
    def positions(self) -> np.ndarray:
        return self.x_min + self.pixel_pitch * np.arange(self.n_pixels)


@dataclass(frozen=True)
class Trace:
    """A 1D intensity trace on a uniform position grid.

    ``normalization`` records how the intensities are scaled:
    "raw" (engine units), "max-1" (peak scaled to 1), or "unit-area"
    (trapezoid integral scaled to 1).
    """

    positions: np.ndarray
    intensities: np.ndarray
    normalization: str = "raw"

    def __post_init__(self) -> None:
        pos = np.asarray(self.positions, dtype=float)
        inten = np.asarray(self.intensities, dtype=float)
        if pos.ndim != 1 or inten.ndim != 1 or pos.size != inten.size:
            raise DomainError("positions and intensities must be 1D arrays of equal length")
        if pos.size < 2:
            raise DomainError("a trace needs at least two samples")
        if not (np.isfinite(pos).all() and np.isfinite(inten).all()):
            raise DomainError("positions and intensities must be finite")
        if self.normalization not in NORMALIZATIONS:
            raise DomainError(
                f"unknown normalization {self.normalization!r}; expected one of {NORMALIZATIONS}"
            )
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
        return float(self.positions[1] - self.positions[0])

    def integral(self) -> float:
        """Trapezoid integral of intensity over position."""
        trapezoid = getattr(np, "trapezoid", None) or np.trapz
        return float(trapezoid(self.intensities, self.positions))

    def normalized_to_max(self) -> "Trace":
        peak = float(self.intensities.max())
        if peak <= 0.0:
            raise DomainError("cannot max-normalize an all-zero trace")
        return Trace(self.positions, self.intensities / peak, "max-1")

    def normalized_to_area(self) -> "Trace":
        area = self.integral()
        if area <= 0.0:
            raise DomainError("cannot area-normalize a zero-integral trace")
        return Trace(self.positions, self.intensities / area, "unit-area")


@dataclass(frozen=True)
class CoherenceResult:
    """Transverse coherence at the grating plane."""

    coherence_angle: float             # rad
    coherence_width_at_grating: float  # m
    n_coherent_slits: int              # >= 1


@dataclass(frozen=True)
class DiffractionOrder:
    n: int
    angle: float      # rad
    position: float   # m, in the detection plane


@dataclass(frozen=True)
class FarFieldOrders:
    """Propagating orders plus the indices that went evanescent (n*lambda >= d)."""

    orders: tuple[DiffractionOrder, ...]
    evanescent: tuple[int, ...] = field(default_factory=tuple)

    def position(self, n: int) -> float:
        for order in self.orders:
            if order.n == n:
                return order.position
        raise DomainError(f"order {n} is not propagating")


def wave_number(molecule: Molecule, velocity: float) -> float:
    """Matter-wave number 2*pi/lambda in rad/m."""
    return 2.0 * math.pi / de_broglie_wavelength(molecule, velocity)


def coherence(
    source: SourceModel,
    geometry: BeamlineGeometry,
    wavelength: float,
    period: float,
    prefactor: float = 1.5,
) -> CoherenceResult:
    """Transverse coherence estimate at the grating.

    coherence angle = prefactor * lambda / source_width, width = angle * L1,
    slit count = floor(width / period) clamped to at least 1.
    """
    if wavelength <= 0.0:
        raise DomainError(f"wavelength must be positive, got {wavelength!r}")
    if period <= 0.0:
        raise DomainError(f"period must be positive, got {period!r}")
    if prefactor <= 0.0:
        raise DomainError(f"coherence prefactor must be positive, got {prefactor!r}")
    angle = prefactor * wavelength / source.source_width
    width = angle * geometry.L1
    n = max(1, int(math.floor(width / period)))
    return CoherenceResult(
        coherence_angle=angle, coherence_width_at_grating=width, n_coherent_slits=n
    )


def far_field_orders(wavelength: float, period: float, L2: float, n_max: int) -> FarFieldOrders:
    """Grating-equation order positions x_n = L2 * tan(asin(n lambda / d)).

    Orders with n*lambda >= d do not propagate; they are omitted from
    ``orders`` and reported in ``evanescent``.
    """
    if wavelength <= 0.0 or period <= 0.0 or L2 <= 0.0:
        raise DomainError("wavelength, period, and L2 must all be positive")
    if n_max < 0:
        raise DomainError(f"n_max must be non-negative, got {n_max!r}")
    orders: list[DiffractionOrder] = []
    evanescent: list[int] = []
    for n in range(n_max + 1):
        sine = n * wavelength / period
        if sine >= 1.0:
            evanescent.append(n)
            continue
        angle = math.asin(sine)
        orders.append(DiffractionOrder(n=n, angle=angle, position=L2 * math.tan(angle)))
    return FarFieldOrders(orders=tuple(orders), evanescent=tuple(evanescent))


def _slit_centers(n_slits: int, period: float) -> np.ndarray:
    # symmetric about x = 0: n - (N-1)/2 for n = 0..N-1
    return (np.arange(n_slits) - (n_slits - 1) / 2.0) * period


@dataclass(frozen=True)
class _SlitTerms:
    """The s-independent part of ``kirchhoff_pattern`` for one wave number:
    per pixel (rows) and envelope node (columns) the sine weight V_m and the
    sine rate rho_m, per pixel the on-node weight W0, plus
    k/L2/n_slits/period/pitch and the widest width the nodes serve, for the
    checks."""

    k: float
    L2: float
    n_slits: int
    period: float
    pixel_pitch: float
    max_width: float
    weights: np.ndarray
    rate: np.ndarray
    on_node: np.ndarray


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
    window: str,
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

        s sum_j a_j exp(i k delta_j) sinc(k s delta'_j / 2 pi)
          = s sum_m W_m sinc(k s delta^'_m / 2 pi),
        W_m = exp(i k R(c^_m - x')) sum_j ell[m, j] a_j exp(i k u_j^2 / 2 L2)

    M is the least m <= n_slits with 2 (z/2)^m / (m! (m+1)) <=
    ``NODE_TOLERANCE``, z = h k w / (2 L2) + h k u_max^3 / (2 L2^3): the
    Chebyshev bound, relative to the peak amplitude, for the bandwidths of
    the envelope (delta' taken as linear in c) and of the remainder, with h
    the half-span of the centres, u_max = max|x'| + h and w = ``max_width``
    (callers pass the geometric width, which bounds s_eff; ``_slit_envelope``
    refuses a wider s). The README presets at 50-1000 m/s take 9-10 nodes
    for 10-274 slits; far off axis M reaches n_slits (nodes at the centres).

    Chirp-z sum. For x_p = x_0 + p pitch and c_j = c_0 + j d, Bluestein's
    jp = (j^2 + p^2 - (p - j)^2) / 2 with beta = k d pitch / L2 gives
    k u_jp^2 / (2 L2) = k c_j (c_j / 2 - x_0) / L2 - beta j^2 / 2
    + beta (p - j)^2 / 2 + (terms in p alone). Those last are a unit phasor
    per pixel, common to every node, and |amplitude|^2 drops them. The slit
    factors fold into q[m, j] = ell[m, j] a_j exp(i k c_j (c_j / 2 - x_0) / L2
    - i beta j^2 / 2), and F_m(p) = sum_j q[m, j] exp(i beta (p - j)^2 / 2)
    for all M rows is one FFT convolution over a power of two >= P + N - 1
    points: the chirp-z transform (Rabiner, Schafer and Rader, 1969) on
    numpy's single-threaded FFT. ``_chirp`` reduces the chirp phases (up to
    about 5e4 rad) mod 2 pi exactly. R and delta' are evaluated at the P x M
    (pixel, node) points only, so the work scales with pixels x nodes.

    Sines. With rho_m = k delta^'_m / 2 the envelope sum equals
    sum_m V_m sin(s rho_m) + s W0 exactly, where V_m = W_m / rho_m (0 where
    rho_m = 0) and W0 sums W_m over the nodes with rho_m = 0. The terms hold
    V (``weights``), rho (``rate``) and W0 (``on_node``): 24 B per pixel and
    node, 0.22 MB for 921 pixels and 10 nodes.

    Error, against the per-slit sum with its phase in long double: at most
    3.7e-13 of the in-window peak on the README presets at 50 and 1000 m/s
    and at L2 = 5 mm (1.3e-12 for a float64 pixels x slits phase), and 4e-14
    of the global peak (s sum_j a_j)^2 over 400 random cases the gates
    accept, off axis included; the tests bound it at 1e-12. Without the
    exact reduction the chirp reads 2.6e-12 at L2 = 5 mm.

    Refuses with a ResolutionError, before allocating, a pattern of more than
    ``MAX_PIXEL_SLITS`` pixel x slit terms.
    """
    if k <= 0.0 or L2 <= 0.0:
        raise DomainError("wave number and L2 must be positive")
    if n_slits < 1:
        raise DomainError(f"need at least one slit, got {n_slits!r}")
    if window not in ("hard", "gaussian"):
        raise DomainError(f"unknown window {window!r}; expected 'hard' or 'gaussian'")
    n_pixels = grid.n_pixels
    work = n_pixels * n_slits
    if work > MAX_PIXEL_SLITS:
        raise WorkBudgetError(
            f"{n_pixels} pixels x {n_slits} coherent slits = {work:.3e} "
            f"pixel x slit terms exceeds the budget of {MAX_PIXEL_SLITS:.0e}"
        )

    positions = grid.positions
    centers = _slit_centers(n_slits, period)

    if window == "gaussian":
        sigma_w = max(n_slits * period / 4.0, period)
        slit_amps = np.exp(-0.5 * (centers / sigma_w) ** 2)
    else:
        slit_amps = np.ones_like(centers)

    half_span = float(centers[-1])
    reach = float(max(-positions[0], positions[-1])) + half_span
    nodes, basis = _node_basis(centers, _node_count(k, L2, half_span, n_slits, max_width, reach))
    chirp = _chirp(k * period * grid.pixel_pitch / L2, np.arange(max(n_pixels, n_slits)))
    slits = slit_amps * np.exp((1j * k / L2) * centers * (centers / 2.0 - positions[0]))
    slits *= chirp[:n_slits].conj()
    size = 1 << (n_pixels + n_slits - 2).bit_length()
    gap = np.zeros(size - n_pixels - n_slits + 1)
    kernel = np.concatenate([chirp[:n_pixels], gap, chirp[n_slits - 1 : 0 : -1]])
    sums = np.fft.fft(basis * slits, size)
    sums *= np.fft.fft(kernel)
    sums = np.fft.ifft(sums)[:, :n_pixels]
    # the Fresnel remainder k R(u) and the sine rate at the nodes, u = c^_m - x'
    u = nodes[None, :] - positions[:, None]
    r = np.sqrt(L2 * L2 + u * u)
    rate = (0.5 * k) * u / r
    remainder = (-0.5 * k / L2) * (u * u / (L2 + r)) ** 2
    weights = np.empty(u.shape, dtype=complex)
    np.cos(remainder, out=weights.real)
    np.sin(remainder, out=weights.imag)
    weights *= sums.T
    on = rate == 0.0
    on_node = np.where(on, weights, 0.0).sum(axis=1)
    np.divide(weights, rate, out=weights, where=~on)
    weights[on] = 0.0
    return _SlitTerms(k, L2, n_slits, period, grid.pixel_pitch, max_width, weights, rate, on_node)


def _slit_envelope(terms: _SlitTerms, s: float) -> np.ndarray:
    """Intensity |sum_m V_m sin(s rho_m) + s W0|^2 of slits of width s, with
    the resolution checks that depend on s; a width above the terms'
    ``max_width`` raises a DomainError."""
    k, L2, d = terms.k, terms.L2, terms.period
    wavelength = 2.0 * math.pi / k

    # the finest transverse feature the pattern can contain
    feature = wavelength * L2 / d if terms.n_slits > 1 else wavelength * L2 / s
    if terms.pixel_pitch > feature / 2.0:
        raise ResolutionError(
            f"pixel pitch {terms.pixel_pitch:.3e} m cannot resolve the "
            f"{feature:.3e} m fringe period; need pitch <= {feature / 2.0:.3e} m"
        )
    slit_phase = k * s * s / (8.0 * L2)
    if slit_phase > MAX_SLIT_PHASE:
        raise ResolutionError(
            f"quadratic phase across one slit k*s^2/(8*L2) = {slit_phase:.3e} rad "
            f"exceeds {MAX_SLIT_PHASE} rad; the per-slit far-field form does not hold"
        )
    if s > terms.max_width:
        raise DomainError(
            f"slit width {s!r} m exceeds the width {terms.max_width!r} m the "
            "envelope nodes were sized for"
        )

    x = terms.rate * s
    np.sin(x, out=x)
    # einsum (never BLAS) keeps one summation order whatever the thread count
    re = np.einsum("pm,pm->p", terms.weights.real, x)
    im = np.einsum("pm,pm->p", terms.weights.imag, x)
    re += s * terms.on_node.real
    im += s * terms.on_node.imag
    return re * re + im * im


def kirchhoff_pattern(
    grating: Grating,
    k: float,
    L2: float,
    n_slits: int,
    grid: DetectorGrid,
    *,
    window: str = "hard",
) -> Trace:
    """Scalar Kirchhoff diffraction pattern of ``n_slits`` coherently
    illuminated slits of the grating's *effective* width s.

    The path from slit center c_j to pixel x' is kept exact: with
    u = c_j - x', the excess over L2 is delta_j = u^2 / (L2 + sqrt(L2^2 + u^2))
    (the cancellation-free form of sqrt(L2^2 + u^2) - L2; the constant phase
    k*L2 is dropped). Across one slit the phase is linearized about its center
    with slope delta'_j = u / sqrt(L2^2 + u^2), so each slit integrates in
    closed form and the amplitude is

        s * sum_j a_j exp(i k delta_j) sinc(k s delta'_j / 2 pi)

    with np.sinc(x) = sin(pi x) / (pi x): Fraunhofer within a slit, Fresnel
    between slits. Intensity is the squared modulus.

    Only the sinc depends on s. ``_slit_terms`` builds everything else once
    per (k, L2, n_slits, period, grid, window), with the envelope sampled at
    a few nodes and the slit sum taken as a chirp-z transform; its docstring
    is the full account, with the error bound. ``_slit_envelope`` then
    evaluates the pattern for one s. Band traces and ``fit_effective_slit``
    reuse one class's terms for every trial s.

    Refusals, each a ResolutionError: more than ``MAX_PIXEL_SLITS`` pixel x
    slit terms (checked before any array is built); a pixel pitch that cannot
    resolve the finest fringe; a dropped quadratic phase k s^2 / (8 L2) at
    the slit edges above ``MAX_SLIT_PHASE`` radians. Every sum runs in one
    fixed order (element-wise reductions, einsum and numpy's single-threaded
    FFT, no threaded BLAS product), so results repeat bit for bit.

    window:
        "hard" illuminates all slits equally (a_j = 1); "gaussian" applies an
        amplitude taper a_j = exp(-c_j^2 / (2 sigma_w^2)) over slit centers,
        with sigma_w one quarter of the illuminated span (at least one period).
    """
    terms = _slit_terms(k, L2, n_slits, grating.period, grid, window, max_width=grating.slit_width)
    return Trace(grid.positions, _slit_envelope(terms, grating.effective_slit_width), "raw")


def fraunhofer_multislit(
    positions: np.ndarray,
    wavelength: float,
    period: float,
    slit_width: float,
    n_slits: int,
    L2: float,
) -> np.ndarray:
    """Closed-form far-field intensity of an N-slit grating.

    sinc^2 single-slit envelope times the N-slit interference factor
    [sin(N a)/sin(a)]^2 with a = pi d x' / (lambda L2). Peak value N^2 at
    x' = 0. Serves as the independent far-field reference for the integral
    engine.
    """
    x = np.asarray(positions, dtype=float)
    t = x / (wavelength * L2)
    envelope = np.sinc(slit_width * t) ** 2
    alpha = math.pi * period * t
    # reduce to |beta| <= pi/2 where the sinc ratio is well conditioned;
    # the squared ratio is pi-periodic in alpha
    beta = alpha - math.pi * np.round(alpha / math.pi)
    ratio = n_slits * np.sinc(n_slits * beta / math.pi) / np.sinc(beta / math.pi)
    return envelope * ratio**2


def gaussian_kernel(sigma: float, pitch: float) -> np.ndarray:
    """Unit-sum Gaussian kernel sampled on the pixel pitch, truncated at
    +-5 sigma. Returns a length-1 identity kernel when sigma is too small to
    span a pixel."""
    if sigma < 0.0:
        raise DomainError(f"sigma must be non-negative, got {sigma!r}")
    if pitch <= 0.0:
        raise DomainError(f"pitch must be positive, got {pitch!r}")
    radius = int(math.ceil(5.0 * sigma / pitch))
    if sigma == 0.0 or radius == 0:
        return np.ones(1)
    u = (np.arange(2 * radius + 1) - radius) * pitch
    kernel = np.exp(-0.5 * (u / sigma) ** 2)
    return kernel / kernel.sum()


def symmetric_convolve(values: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """Convolve a 1D signal, or each row of a 2D array, with a unit-sum
    symmetric kernel under edge-mirrored boundary handling, which conserves
    each row's total exactly (every kernel tap falling off an edge is folded
    back inside; ``np.pad`` reflects again where the kernel is wider than the
    row). The one blur of the package: traces, image rows and placements."""
    radius = kernel.size // 2
    padded = np.pad(values, [(0, 0)] * (values.ndim - 1) + [(radius, radius)], mode="symmetric")
    rows = padded.reshape(-1, padded.shape[-1])
    return np.array([np.convolve(row, kernel, mode="valid") for row in rows]).reshape(values.shape)


def detector_convolve(trace: Trace, sigma: float) -> Trace:
    """Convolve a trace with the detector's Gaussian point-spread function.

    The kernel is normalized to unit sum and applied with edge-mirrored
    boundaries, so the total intensity is preserved. ``sigma = 0`` returns
    the trace unchanged; negative sigma raises.
    """
    if sigma < 0.0:
        raise DomainError(f"psf sigma must be non-negative, got {sigma!r}")
    blurred = symmetric_convolve(trace.intensities, gaussian_kernel(sigma, trace.pixel_pitch))
    return Trace(trace.positions, blurred, trace.normalization)
