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
    "wave_number",
]

NORMALIZATIONS = ("raw", "max-1", "unit-area")

# largest quadratic phase k*s^2/(8*L2), in rad, dropped across one slit by
# the per-slit linearization of kirchhoff_pattern
MAX_SLIT_PHASE = 0.05

# largest pixel x slit product one pattern may build; its arrays peak at about
# 26 bytes per term, 0.1 GB at the limit
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
    k: float, L2: float, half_span: float, n_slits: int, max_width: float | None = None
) -> int:
    """Fewest Chebyshev nodes that interpolate the slit envelope across the
    slit centres to ``NODE_TOLERANCE`` for every width up to ``max_width``
    (None: every width the ``MAX_SLIT_PHASE`` gate accepts), capped at
    ``n_slits``."""
    z = half_span * math.sqrt(2.0 * k * MAX_SLIT_PHASE / L2)
    if max_width is not None:
        z = min(z, half_span * k * max_width / (2.0 * L2))
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


def _slit_terms(
    k: float,
    L2: float,
    n_slits: int,
    period: float,
    grid: DetectorGrid,
    window: str,
    gaussian_window_sigma: float | None = None,
    max_width: float | None = None,
) -> _SlitTerms:
    """Build the slit-width-independent terms of ``kirchhoff_pattern``.

    The single-slit envelope sinc(k s delta'(c - x') / 2 pi) varies slowly
    across the slit centres c_j, so it is sampled at M Chebyshev nodes
    c^_m spanning them instead of at every centre:

        s * sum_j a_j exp(i k delta_j) sinc(k s delta'_j / 2 pi)
          = s * sum_m W_m sinc(k s delta^'_m / 2 pi),
        W_m = sum_j ell[m, j] a_j exp(i k delta_j)

    where ell[m, j] is the Lagrange basis of node m at centre j and
    delta^'_m = (c^_m - x') / sqrt(L2^2 + (c^_m - x')^2). The sinc is then
    written as a sine, exactly:

        s * sum_m W_m sinc(k s delta^'_m / 2 pi)
          = sum_m V_m sin(s rho_m) + s W0,
        rho_m = k delta^'_m / 2,  V_m = W_m / rho_m (0 where rho_m = 0),
        W0 = sum of W_m over the nodes with rho_m = 0

    so the terms hold V (``weights``), rho (``rate``) and W0 (``on_node``,
    zero unless a pixel sits exactly on a node).

    M is the smallest m with 2 (z/2)^m / (m! (m+1)) <= ``NODE_TOLERANCE``,
    z = h k w / (2 L2) with h the half-span of the centres and w the widest
    slit width the terms serve: the Chebyshev interpolation bound on the
    envelope, relative to the peak amplitude (delta' taken as linear in c,
    which holds to O((c - x')^2 / L2^2)). w is ``max_width`` capped at the
    widest width the ``MAX_SLIT_PHASE`` gate accepts, sqrt(8 L2
    ``MAX_SLIT_PHASE`` / k), which is also the width used when
    ``max_width`` is None; ``_slit_envelope`` refuses a width above
    ``max_width``. When M reaches n_slits the nodes are the centres and ell
    is the identity. With w the geometric slit width, as band traces and
    fits use, the README presets at 50-1000 m/s need 9-10 nodes (10-20 at
    the gate width) against 10-274 slits; a class then holds pixels x M
    complex V and float rho, 24 B per pixel and node (0.22 MB for 921
    pixels and 10 nodes).

    Refuses with a ResolutionError, before allocating, a pattern of more than
    ``MAX_PIXEL_SLITS`` pixel x slit terms.
    """
    if k <= 0.0 or L2 <= 0.0:
        raise DomainError("wave number and L2 must be positive")
    if n_slits < 1:
        raise DomainError(f"need at least one slit, got {n_slits!r}")
    if window not in ("hard", "gaussian"):
        raise DomainError(f"unknown window {window!r}; expected 'hard' or 'gaussian'")
    work = grid.n_pixels * n_slits
    if work > MAX_PIXEL_SLITS:
        raise WorkBudgetError(
            f"{grid.n_pixels} pixels x {n_slits} coherent slits = {work:.3e} "
            f"pixel x slit terms exceeds the budget of {MAX_PIXEL_SLITS:.0e}"
        )

    positions = grid.positions
    centers = _slit_centers(n_slits, period)

    if window == "gaussian":
        sigma_w = gaussian_window_sigma
        if sigma_w is None:
            sigma_w = max(n_slits * period / 4.0, period)
        if sigma_w <= 0.0:
            raise DomainError(f"gaussian window sigma must be positive, got {sigma_w!r}")
        slit_amps = np.exp(-0.5 * (centers / sigma_w) ** 2)
    else:
        slit_amps = np.ones_like(centers)

    # phase k delta = k u^2 / (L2 + sqrt(L2^2 + u^2)) with u = c_j - x', built
    # in place: each pixels x slits temporary is a pass over fresh memory
    u2 = centers[None, :] - positions[:, None]
    u2 *= u2
    phase = L2 * L2 + u2
    np.sqrt(phase, out=phase)
    phase += L2
    np.divide(u2, phase, out=phase)
    phase *= k
    nodes, basis = _node_basis(centers, _node_count(k, L2, centers[-1], n_slits, max_width))
    # einsum (never BLAS) sums each W_m over the slits in one fixed order
    # whatever the thread count, so results repeat bit for bit
    taper = basis * slit_amps
    weights = np.einsum("mj,pj->pm", taper, np.cos(phase)) + 1j * np.einsum(
        "mj,pj->pm", taper, np.sin(phase)
    )
    v = nodes[None, :] - positions[:, None]
    rate = v / np.sqrt(L2 * L2 + v * v)
    rate *= 0.5 * k
    on = rate == 0.0
    on_node = np.where(on, weights, 0.0).sum(axis=1)
    np.divide(weights, rate, out=weights, where=~on)
    weights[on] = 0.0
    width = math.inf if max_width is None else max_width
    return _SlitTerms(k, L2, n_slits, period, grid.pixel_pitch, width, weights, rate, on_node)


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
    gaussian_window_sigma: float | None = None,
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

    Only the sinc depends on s, and across the slit array it varies slowly.
    The pattern is therefore the composition of two steps: ``_slit_terms``
    samples the sinc at M Chebyshev nodes across the slit centres instead of
    at every centre, contracts the phasors a_j exp(i k delta_j) onto those
    nodes once, from (k, L2, n_slits, period, grid, window), and divides each
    node weight by its sine rate k delta^'_m / 2; ``_slit_envelope`` takes
    the M sines sin(s k delta^'_m / 2) for one s and sums, which equals the
    sinc form exactly. Here M is set so that the interpolated envelope stays
    within 1e-15 of the per-slit sum, relative to the peak amplitude, for
    every s the slit-phase gate accepts: 10-20 nodes for the README presets
    at 50-1000 m/s, against 10-274 slits. Band traces and
    ``fit_effective_slit`` size the nodes for the grating's geometric width
    instead (9-10 nodes), build the terms once per velocity class and reuse
    them for every trial s.

    Refusals, each a ResolutionError: more than ``MAX_PIXEL_SLITS`` pixel x
    slit terms (checked before any array is built); a pixel pitch that cannot
    resolve the finest fringe; a dropped quadratic phase k s^2 / (8 L2) at
    the slit edges above ``MAX_SLIT_PHASE`` radians. Every sum runs in one
    fixed order (element-wise reductions and einsum, no threaded BLAS
    product), so results repeat bit for bit from run to run.

    window:
        "hard" illuminates all slits equally (a_j = 1); "gaussian" applies an
        amplitude taper a_j = exp(-c_j^2 / (2 sigma_w^2)) over slit centers,
        with sigma_w = ``gaussian_window_sigma`` (default: one quarter of the
        illuminated span).
    """
    terms = _slit_terms(k, L2, n_slits, grating.period, grid, window, gaussian_window_sigma)
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
    """Convolve a 1D signal with a unit-sum symmetric kernel under
    edge-mirrored boundary handling, which conserves the total signal exactly
    (every kernel tap falling off an edge is folded back inside)."""
    if kernel.size == 1:
        return values * kernel[0]
    radius = kernel.size // 2
    padded = np.pad(values, radius, mode="symmetric")
    return np.convolve(padded, kernel, mode="valid")


def detector_convolve(trace: Trace, sigma: float) -> Trace:
    """Convolve a trace with the detector's Gaussian point-spread function.

    The kernel is normalized to unit sum and applied with edge-mirrored
    boundaries, so the total intensity is preserved. ``sigma = 0`` returns
    the trace unchanged; negative sigma raises.
    """
    if sigma < 0.0:
        raise DomainError(f"psf sigma must be non-negative, got {sigma!r}")
    kernel = gaussian_kernel(sigma, trace.pixel_pitch)
    if kernel.size == 1:
        return Trace(trace.positions, trace.intensities, trace.normalization)
    blurred = symmetric_convolve(trace.intensities, kernel)
    return Trace(trace.positions, blurred, trace.normalization)
