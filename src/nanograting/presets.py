"""Built-in presets: the five ultra-thin gratings.

Preset values are data, not code. Each grating entry, keyed by its label,
carries the other ``Grating`` fields and what ``bar_mass`` and the position
estimate of ``limits`` read, in SI units: the bar geometry (``bar_length``,
``bar_width``, and for rolled bars the unrolled ``ribbon_width`` and the
``scroll_diameter``), the material (``layers``, ``areal_density`` per
layer) and, where one was measured, the bar's ``vibration_sigma``."""

from __future__ import annotations

from dataclasses import fields
from typing import Any

from .domain import Grating
from .errors import ConfigurationError

__all__ = [
    "GRATING_PRESETS",
    "bar_mass",
    "grating_preset",
    "grating_preset_names",
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
        "period": 105e-9,
        # the tabulated 55 nm slit gives opening fraction 0.52 at this period,
        # not the quoted 0.48; 50 nm (bars 55 nm) matches both the quoted
        # fraction and the ribbon-mass table
        "slit_width": 50e-9,
        "effective_slit_width": 15e-9,
        "bar_length": 956e-9,
        "bar_width": 55e-9,
        "layers": 1,
        "areal_density": SINX_AREAL_DENSITY,
    },
    "slg": {
        "period": 101e-9,
        "slit_width": 59e-9,
        "effective_slit_width": 35e-9,
        "bar_length": 247e-9,
        "bar_width": 41e-9,
        "layers": 1,
        "areal_density": GRAPHENE_AREAL_DENSITY,
        # measured upper bound for in-plane vibration of a clamped ribbon
        "vibration_sigma": 1e-10,
    },
    "scroll": {
        "period": 88e-9,
        "slit_width": 65e-9,
        "effective_slit_width": 49e-9,
        "bar_length": 1336e-9,
        "bar_width": 23e-9,
        # each bar is a 64 nm wide graphene ribbon rolled into a ~8 nm scroll
        "ribbon_width": 64e-9,
        "scroll_diameter": 8e-9,
        "layers": 1,
        "areal_density": GRAPHENE_AREAL_DENSITY,
    },
    "bilayer": {
        # period and slit from the diffraction analysis; the characterization
        # table lists 112 nm / 63 nm
        "period": 113e-9,
        "slit_width": 62e-9,
        "effective_slit_width": 28e-9,
        "bar_length": 827e-9,
        "bar_width": 49e-9,
        "layers": 2,
        "areal_density": GRAPHENE_AREAL_DENSITY,
    },
    "biphenyl": {
        "period": 107e-9,
        "slit_width": 54e-9,
        "effective_slit_width": 28e-9,
        # the raw length has a garbled digit; 977 nm matches the ribbon-mass table
        "bar_length": 977e-9,
        "bar_width": 54e-9,
        "layers": 1,
        "areal_density": BIPHENYL_AREAL_DENSITY,
    },
}


def grating_preset_names() -> tuple[str, ...]:
    return tuple(sorted(GRATING_PRESETS))


def _grating_entry(name: str) -> dict[str, Any]:
    try:
        return GRATING_PRESETS[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown grating preset {name!r}; available: {', '.join(grating_preset_names())}"
        ) from None


def grating_preset(name: str) -> Grating:
    """Build the named grating preset. Unknown names raise ConfigurationError."""
    entry = _grating_entry(name)
    return Grating(label=name, **{f.name: entry[f.name] for f in fields(Grating) if f.name in entry})


def bar_mass(name: str) -> float:
    """Mass of a single bar of the named grating preset in kg.

    layers * areal_density * bar_length * material width, where the material
    width is the ribbon width (the unrolled membrane width for scrolled bars)
    or else the bar width.
    """
    entry = _grating_entry(name)
    width = entry.get("ribbon_width", entry["bar_width"])
    return entry["layers"] * entry["areal_density"] * entry["bar_length"] * width

