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
)


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
    geo = BeamlineGeometry(L1=1.554, L2=0.586)
    assert geo.L1 == 1.554
    assert geo.L == pytest.approx(2.14, rel=1e-15)
    assert geo.L2 == 0.586
    assert geo.g == 9.81


def test_geometry_validation():
    with pytest.raises(DomainError):
        BeamlineGeometry(L1=2.2, L2=-0.06)  # grating beyond detector
    with pytest.raises(DomainError):
        BeamlineGeometry(L1=0.0, L2=2.14)
    with pytest.raises(DomainError):
        BeamlineGeometry(L1=1.0, L2=1.0, g=-9.81)
    with pytest.raises(TypeError):
        BeamlineGeometry(1.554, 2.14)  # a total length passed by position
    with pytest.raises(TypeError):
        BeamlineGeometry(L1=1.554, L=2.14)


def test_source_model_validation():
    with pytest.raises(DomainError):
        SourceModel(source_width=0.0)
