"""Built-in presets: five ultra-thin gratings and the test molecule.

Preset values are data, not code. Each grating entry carries a ``notes`` dict
with material info, recorded-but-unused raw values, and inconsistency flags
where the underlying characterization data disagree with themselves.
"""

from __future__ import annotations

from typing import Any

from .domain import ATOMIC_MASS_KG, Grating, Molecule
from .errors import ConfigurationError

__all__ = [
    "GRATING_PRESETS",
    "MOLECULE_PRESETS",
    "grating_preset",
    "grating_preset_names",
    "molecule_preset",
    "molecule_preset_names",
    "preset_notes",
]

# Graphene areal density per layer; standard single-sheet value.
GRAPHENE_AREAL_DENSITY = 7.6e-7  # kg/m^2

# Silicon-nitride membrane: 45 nm nominal thickness at bulk density
# 3170 kg/m^3; chosen so the computed bar mass matches the reference
# ribbon-mass table.
SINX_AREAL_DENSITY = 45e-9 * 3170.0  # kg/m^2

# ~1 nm carbonaceous membrane; back-solved from the reference ribbon mass
# (4.4e-20 kg over 977 nm x 54 nm).
BIPHENYL_AREAL_DENSITY = 8.3e-7  # kg/m^2

GRATING_PRESETS: dict[str, dict[str, Any]] = {
    "sinx": {
        "label": "sinx",
        "period": 105e-9,
        "slit_width": 50e-9,
        "effective_slit_width": 15e-9,
        "bar_length": 956e-9,
        "bar_width": 55e-9,
        "layers": 1,
        "areal_density": SINX_AREAL_DENSITY,
        "notes": {
            "material": "45 nm silicon nitride membrane",
            "membrane_size_m": (3.3e-6, 97e-6),
            "tabulated_slit_width_m": 55e-9,
            "quoted_opening_fraction": 0.48,
            "flags": [
                "characterization data are self-inconsistent: a 55 nm slit at "
                "105 nm period gives opening fraction 0.52, not the quoted "
                "0.48; the adopted 50 nm slit (bars 55 nm) matches both the "
                "quoted fraction and the ribbon-mass table"
            ],
        },
    },
    "slg": {
        "label": "slg",
        "period": 101e-9,
        "slit_width": 59e-9,
        "effective_slit_width": 35e-9,
        "bar_length": 247e-9,
        "bar_width": 41e-9,
        "layers": 1,
        "areal_density": GRAPHENE_AREAL_DENSITY,
        "notes": {
            "material": "single-layer graphene",
            "quoted_opening_fraction": 0.58,
            # measured upper bound for in-plane vibration of a clamped ribbon
            "vibration_sigma_m": 1e-10,
            "flags": [],
        },
    },
    "scroll": {
        "label": "scroll",
        "period": 88e-9,
        "slit_width": 65e-9,
        "effective_slit_width": 49e-9,
        "bar_length": 1336e-9,
        "bar_width": 23e-9,
        # each bar is a 64 nm wide graphene ribbon rolled into a ~8 nm scroll
        "ribbon_width": 64e-9,
        "layers": 1,
        "areal_density": GRAPHENE_AREAL_DENSITY,
        "notes": {
            "material": "carbon nanoscrolls (rolled single-layer graphene ribbons)",
            "scroll_diameter_m": 8e-9,
            "unrolled_period_m": 87e-9,
            "unrolled_slit_width_m": 23e-9,
            "unrolled_opening_fraction": 0.26,
            "quoted_opening_fraction": 0.74,
            "flags": [],
        },
    },
    "bilayer": {
        "label": "bilayer",
        "period": 113e-9,
        "slit_width": 62e-9,
        "effective_slit_width": 28e-9,
        "bar_length": 827e-9,
        "bar_width": 49e-9,
        "layers": 2,
        "areal_density": GRAPHENE_AREAL_DENSITY,
        "notes": {
            "material": "bilayer graphene",
            "tabulated_period_m": 112e-9,
            "tabulated_slit_width_m": 63e-9,
            "quoted_opening_fraction": 0.56,
            "flags": [
                "period/slit adopted from the diffraction-analysis values "
                "(113 nm / 62 nm); the characterization table lists "
                "112 nm / 63 nm, kept here as raw data"
            ],
        },
    },
    "biphenyl": {
        "label": "biphenyl",
        "period": 107e-9,
        "slit_width": 54e-9,
        "effective_slit_width": 28e-9,
        "bar_length": 977e-9,
        "bar_width": 54e-9,
        "layers": 1,
        "areal_density": BIPHENYL_AREAL_DENSITY,
        "notes": {
            "material": "~1 nm carbonaceous biphenyl membrane",
            "tabulated_slit_width_m": 52e-9,
            "quoted_opening_fraction": 0.49,
            "flags": [
                "bar length recorded with a garbled digit in the raw data; "
                "977 nm adopted (consistent with the ribbon-mass table)",
                "areal density back-solved from the ribbon-mass table "
                "(8.3e-7 kg/m^2), not an independent material value",
            ],
        },
    },
}

MOLECULE_PRESETS: dict[str, dict[str, Any]] = {
    "pch2": {
        "name": "PcH2",
        "mass": 514.0 * ATOMIC_MASS_KG,
    },
}


def grating_preset_names() -> tuple[str, ...]:
    return tuple(sorted(GRATING_PRESETS))


def molecule_preset_names() -> tuple[str, ...]:
    return tuple(sorted(MOLECULE_PRESETS))


def grating_preset(name: str) -> Grating:
    """Build the named grating preset. Unknown names raise ConfigurationError."""
    try:
        entry = GRATING_PRESETS[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown grating preset {name!r}; available: {', '.join(grating_preset_names())}"
        ) from None
    fields = {k: v for k, v in entry.items() if k != "notes"}
    return Grating(**fields)


def molecule_preset(name: str) -> Molecule:
    """Build the named molecule preset. Unknown names raise ConfigurationError."""
    try:
        entry = MOLECULE_PRESETS[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown molecule preset {name!r}; available: {', '.join(molecule_preset_names())}"
        ) from None
    return Molecule(**entry)


def preset_notes(name: str) -> dict[str, Any]:
    """Raw characterization notes and inconsistency flags for a grating preset."""
    try:
        return dict(GRATING_PRESETS[name]["notes"])
    except KeyError:
        raise ConfigurationError(f"unknown grating preset {name!r}") from None
