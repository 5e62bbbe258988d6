import pytest

from nanograting import (
    GRATING_PRESETS,
    ConfigurationError,
    bar_mass,
    grating_preset,
    grating_preset_names,
)

EXPECTED_GEOMETRY = {
    # name: (period, slit, effective slit) in nm
    "sinx": (105.0, 50.0, 15.0),
    "slg": (101.0, 59.0, 35.0),
    "scroll": (88.0, 65.0, 49.0),
    "bilayer": (113.0, 62.0, 28.0),
    "biphenyl": (107.0, 54.0, 28.0),
}

# published single-bar masses, kg (two significant digits)
EXPECTED_MASSES = {
    "slg": 7.7e-21,
    "bilayer": 6.2e-20,
    "scroll": 6.5e-20,
    "sinx": 7.5e-18,
    "biphenyl": 4.4e-20,
}


def test_all_five_gratings_present():
    assert set(grating_preset_names()) == set(EXPECTED_GEOMETRY)


def test_preset_geometry_values():
    for name, (d_nm, s_nm, seff_nm) in EXPECTED_GEOMETRY.items():
        g = grating_preset(name)
        assert g.period == pytest.approx(d_nm * 1e-9, rel=1e-12), name
        assert g.slit_width == pytest.approx(s_nm * 1e-9, rel=1e-12), name
        assert g.effective_slit_width == pytest.approx(seff_nm * 1e-9, rel=1e-12), name


def test_preset_masses_within_five_percent():
    for name, expected in EXPECTED_MASSES.items():
        mass = bar_mass(name)
        assert abs(mass - expected) / expected < 0.05, (name, mass, expected)


def test_scroll_carries_diameter():
    assert GRATING_PRESETS["scroll"]["scroll_diameter"] == 8e-9


def test_slg_carries_vibration_bound():
    assert GRATING_PRESETS["slg"]["vibration_sigma"] == 1e-10


def test_bilayer_has_two_layers():
    assert GRATING_PRESETS["bilayer"]["layers"] == 2


def test_unknown_preset_raises():
    with pytest.raises(ConfigurationError):
        grating_preset("made-up")
    with pytest.raises(ConfigurationError):
        bar_mass("made-up")


def test_presets_are_frozen_instances():
    g1 = grating_preset("sinx")
    g2 = grating_preset("sinx")
    assert g1 == g2
    with pytest.raises(Exception):
        g1.period = 1.0
