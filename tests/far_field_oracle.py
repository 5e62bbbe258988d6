"""Closed-form far-field intensity of an N-slit grating: the independent
reference the tests hold the Kirchhoff engine to in the far field."""

import math

import numpy as np


def fraunhofer_multislit(
    positions: np.ndarray,
    wavelength: float,
    period: float,
    slit_width: float,
    n_slits: int,
    L2: float,
) -> np.ndarray:
    """sinc^2 single-slit envelope times the N-slit interference factor
    [sin(N a)/sin(a)]^2 with a = pi d x' / (lambda L2). Peak value N^2 at
    x' = 0.
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
