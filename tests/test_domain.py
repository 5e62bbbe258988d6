import math
from dataclasses import replace

import numpy as np
import pytest

from nanograting import (
    ATOMIC_MASS_KG,
    BeamlineGeometry,
    DetectorGrid,
    DomainError,
    Grating,
    ImageGrid,
    Interferogram,
    Molecule,
    PLANCK_H,
    SourceModel,
    VelocityDistribution,
    adsorption_coverage,
    coherence,
    de_broglie_wavelength,
    far_field_orders,
    fit_velocity,
    gaussian_kernel,
    hot_color,
    limits_report,
    render_image,
    stripe_velocity_profile,
    thermal_scroll_amplitude,
)
from nanograting.limits import BOLTZMANN_K, LAMBDA_REF

from configured import CONFIG, GEOMETRY


def test_constants_values():
    assert PLANCK_H == 6.62607015e-34
    assert BOLTZMANN_K == 1.380649e-23
    assert LAMBDA_REF == 780.241e-9
    assert ATOMIC_MASS_KG == 1.66053906660e-27


def test_wavelength_at_220():
    molecule = Molecule("test", 8.5e-25)
    assert de_broglie_wavelength(molecule, 220.0) == 3.5433530213903744e-12


def test_wavelength_at_260():
    molecule = Molecule("test", 8.5e-25)
    assert de_broglie_wavelength(molecule, 260.0) == 2.998221787330317e-12


def test_wavelength_reciprocal_in_velocity():
    molecule = Molecule("test", 8.5e-25)
    rng = np.random.default_rng(11)
    for _ in range(50):
        v = float(rng.uniform(1.0, 2000.0))
        lam = de_broglie_wavelength(molecule, v)
        assert math.isclose(de_broglie_wavelength(molecule, 2.0 * v), lam / 2.0,
                            rel_tol=1e-15)


def test_wavelength_rejects_nonpositive_velocity():
    molecule = Molecule("test", 8.5e-25)
    # 1e-300 is finite, but m v underflows to 0
    for bad in (0.0, -1.0, math.inf, math.nan, 1e-300):
        with pytest.raises(DomainError):
            de_broglie_wavelength(molecule, bad)
    with pytest.raises(DomainError, match="momentum"):
        de_broglie_wavelength(Molecule("heavy", 1e300), 1e10)


def test_molecule_validation():
    with pytest.raises(DomainError):
        Molecule("bad", 0.0)
    with pytest.raises(DomainError):
        Molecule("bad", -1e-25)


def _grating(**overrides):
    base = dict(period=105e-9, slit_width=50e-9, effective_slit_width=15e-9, label="t")
    base.update(overrides)
    return Grating(**base)


def test_grating_validation():
    with pytest.raises(DomainError):
        _grating(slit_width=110e-9)  # slit wider than period
    with pytest.raises(DomainError):
        _grating(effective_slit_width=60e-9)  # effective exceeds geometric
    with pytest.raises(DomainError):
        _grating(period=0.0)


def test_geometry_segments_and_total_length():
    geo = replace(GEOMETRY, L1=1.554, L2=0.586)
    assert geo.L1 == 1.554
    assert geo.L == pytest.approx(2.14, rel=1e-15)
    assert geo.L2 == 0.586


def test_geometry_validation():
    with pytest.raises(DomainError):
        replace(GEOMETRY, L1=2.2, L2=-0.06)  # grating beyond detector
    with pytest.raises(DomainError):
        replace(GEOMETRY, L1=0.0, L2=2.14)
    with pytest.raises(DomainError):
        replace(GEOMETRY, L1=1.0, L2=1.0, g=-9.81)
    level = {"g": GEOMETRY.g, "y0": GEOMETRY.y0, "y1": GEOMETRY.y1}
    with pytest.raises(TypeError, match="positional"):
        BeamlineGeometry(1.554, 2.14, **level)  # a total length passed by position
    with pytest.raises(TypeError, match="'L'"):
        BeamlineGeometry(L1=1.554, L=2.14, **level)


@pytest.mark.parametrize("field", ["L1", "L2", "g", "y0", "y1"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_geometry_refuses_a_non_finite_field_by_name(field, value):
    # a non-finite field would carry NaN through the fall law into every velocity
    values = {"L1": 1.0, "L2": 1.0, "g": 9.81, "y0": 0.0, "y1": 0.0, field: value}
    with pytest.raises(DomainError, match=rf"^{field} must be finite"):
        BeamlineGeometry(**values)


def test_source_model_validation():
    with pytest.raises(DomainError):
        SourceModel(source_width=0.0)


FOOTPRINT = CONFIG.require("limits.footprint_nm2")
MODULUS = CONFIG.require("limits.youngs_modulus_GPa")
_IMAGE = Interferogram(np.ones((4, 5)), 1e-6, 1e-6, -2e-6, 0.0)
_NON_FINITE_CALLS = {
    "source width": lambda x: SourceModel(x),
    "coherence prefactor": lambda x: coherence(SourceModel(1.5e-6), GEOMETRY, 3.5e-12, 1e-7, x),
    "detector psf": lambda x: DetectorGrid(-1e-6, 1e-6, 1e-7, x),
    "image psf": lambda x: ImageGrid(-1e-6, 1e-6, -1e-6, 1e-6, 1e-7, 1e-7, x),
    "kernel sigma": lambda x: gaussian_kernel(x, 1e-7),
    "profile psf": lambda x: stripe_velocity_profile(
        _IMAGE, GEOMETRY, 1e-7, Molecule("test", 8.5e-25), n_stripes=2, psf_sigma=x
    ),
    "render stretch": lambda x: render_image(_IMAGE, vertical_stretch=x),
    "band centre": lambda x: VelocityDistribution.uniform_band(x, 10.0, 5),
    "discrete velocity": lambda x: VelocityDistribution.discrete([200.0, x]),
    "class weight": lambda x: VelocityDistribution([200.0, 210.0], [1.0, x]),
    "order wavelength": lambda x: far_field_orders(x, 1e-7, 0.586, 3),
    "fall height": lambda x: fit_velocity(x, GEOMETRY),
    "molecule count": lambda x: adsorption_coverage(x, 1e-8, FOOTPRINT),
    "young's modulus": lambda x: thermal_scroll_amplitude(1.34e-6, 8e-9, 300.0, x),
    "beam temperature": lambda x: thermal_scroll_amplitude(1.34e-6, 8e-9, x, MODULUS),
    "limits slit width": lambda x: limits_report(x, 1e-10, period=1e-7),
    "limits period": lambda x: limits_report(5e-8, 1e-10, period=x),
    "colour signal": lambda x: hot_color(x),
}


@pytest.mark.parametrize("value", [math.nan, math.inf])
@pytest.mark.parametrize("name", sorted(_NON_FINITE_CALLS))
def test_a_non_finite_library_input_is_refused(name, value):
    # each positivity test fails for NaN, so NaN never reaches a floor(),
    # a pixmap height or a returned value
    with pytest.raises(DomainError):
        _NON_FINITE_CALLS[name](value)
