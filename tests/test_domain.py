import math

import numpy as np
import pytest

from nanograting import (
    ATOMIC_MASS_KG,
    CONSTANTS,
    BeamlineGeometry,
    DomainError,
    Grating,
    Molecule,
    SourceModel,
    de_broglie_wavelength,
    opening_fraction,
)
from nanograting.domain import bar_mass


def test_constants_values():
    assert CONSTANTS.h == 6.62607015e-34
    assert CONSTANTS.k_B == 1.380649e-23
    assert CONSTANTS.lambda_ref == 780.241e-9
    assert CONSTANTS.hbar == CONSTANTS.h / (2.0 * math.pi)
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
    for bad in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(DomainError):
            de_broglie_wavelength(molecule, bad)


def test_molecule_validation():
    with pytest.raises(DomainError):
        Molecule("bad", 0.0)
    with pytest.raises(DomainError):
        Molecule("bad", -1e-25)


def _grating(**overrides):
    base = dict(period=105e-9, slit_width=50e-9, effective_slit_width=15e-9,
                bar_length=956e-9, label="t")
    base.update(overrides)
    return Grating(**base)


def test_grating_defaults_bar_width_to_closed_fraction():
    g = _grating()
    assert g.bar_width == pytest.approx(105e-9 - 50e-9)
    assert g.ribbon_width == g.bar_width


def test_grating_validation():
    with pytest.raises(DomainError):
        _grating(slit_width=110e-9)  # slit wider than period
    with pytest.raises(DomainError):
        _grating(effective_slit_width=60e-9)  # effective exceeds geometric
    with pytest.raises(DomainError):
        _grating(period=0.0)
    with pytest.raises(DomainError):
        _grating(layers=0)


def test_opening_fraction_half_when_slit_is_half_period():
    g = _grating(period=100e-9, slit_width=50e-9, effective_slit_width=25e-9)
    assert opening_fraction(g) == 0.5


def test_bar_mass_zero_for_zero_material_width():
    g = _grating(areal_density=7.6e-7, ribbon_width=0.0)
    assert bar_mass(g) == 0.0


def test_bar_mass_scales_with_layers():
    g1 = _grating(areal_density=7.6e-7, layers=1)
    g2 = _grating(areal_density=7.6e-7, layers=2)
    assert bar_mass(g2) == pytest.approx(2.0 * bar_mass(g1), rel=1e-15)


def test_bar_mass_requires_density():
    from nanograting.errors import ConfigurationError

    with pytest.raises(ConfigurationError):
        bar_mass(_grating())


def test_geometry_segments_and_total_length():
    geo = BeamlineGeometry.from_segments(L1=1.554, L2=0.586)
    assert geo.L1 == 1.554
    assert geo.L == pytest.approx(2.14, rel=1e-15)
    assert geo.L2 == pytest.approx(0.586, rel=1e-12)
    assert geo.g == 9.81


def test_geometry_validation():
    with pytest.raises(DomainError):
        BeamlineGeometry(L1=2.2, L=2.14)  # grating beyond detector
    with pytest.raises(DomainError):
        BeamlineGeometry(L1=0.0, L=2.14)
    with pytest.raises(DomainError):
        BeamlineGeometry(L1=1.0, L=2.0, g=-9.81)


def test_source_model_validation():
    with pytest.raises(DomainError):
        SourceModel(source_width=0.0)
