"""Flat key=value run configuration.

Format: one ``section.key = value`` per line, ``#`` comments, blank lines
ignored. Keys carry their unit in the suffix (``grating.period_nm = 105``)
and are converted to SI on parse; the key set is closed — unknown keys are
configuration errors, not silent no-ops. Later sources win: defaults, then
the config file, then --preset, then --set overrides.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from pathlib import Path
from typing import TYPE_CHECKING, Any, Iterable, Mapping

from .domain import ATOMIC_MASS_KG, BeamlineGeometry, Grating, Molecule, SourceModel
from .errors import ConfigurationError
from .io import _read_file
from .presets import grating_preset

if TYPE_CHECKING:
    from .diffraction import DetectorGrid
    from .gravity import ImageGrid, VelocityDistribution

__all__ = [
    "DEFAULTS",
    "KNOWN_KEYS",
    "RunConfig",
    "load_run_config",
    "parse_config_text",
]

# key -> (type tag, SI scale, default text or None). The scale applies to
# float-valued keys only; defaults are converted like any other source.
KNOWN_KEYS: dict[str, tuple[str, float, str | None]] = {
    "molecule.name": ("str", 1.0, "PcH2"),
    "molecule.mass_u": ("float", ATOMIC_MASS_KG, "514"),
    "grating.preset": ("str", 1.0, None),
    "grating.period_nm": ("float", 1e-9, None),
    "grating.slit_width_nm": ("float", 1e-9, None),
    "grating.effective_slit_width_nm": ("float", 1e-9, None),
    "geometry.L1_m": ("float", 1.0, "1.554"),
    "geometry.L2_m": ("float", 1.0, "0.586"),
    "geometry.g_m_s2": ("float", 1.0, "9.81"),
    "geometry.y0_m": ("float", 1.0, "0"),
    "geometry.y1_m": ("float", 1.0, "0"),
    "source.width_um": ("float", 1e-6, "1.5"),
    "source.coherence_prefactor": ("float", 1.0, "1.5"),
    "velocity.kind": ("str", 1.0, "uniform-band"),
    "velocity.center_m_s": ("float", 1.0, "220"),
    "velocity.half_width_m_s": ("float", 1.0, "10"),
    "velocity.n_classes": ("int", 1.0, None),
    "velocity.most_probable_m_s": ("float", 1.0, "180"),
    "velocity.v_min_m_s": ("float", 1.0, None),
    "velocity.v_max_m_s": ("float", 1.0, None),
    "velocity.list_m_s": ("float_list", 1.0, None),
    "detector.x_min_um": ("float", 1e-6, "-230"),
    "detector.x_max_um": ("float", 1e-6, "230"),
    "detector.pixel_pitch_um": ("float", 1e-6, "0.5"),
    "detector.psf_sigma_um": ("float", 1e-6, "3.5"),
    "image.y_min_um": ("float", 1e-6, "-330"),
    "image.y_max_um": ("float", 1e-6, "-75"),
    "image.pixel_pitch_y_um": ("float", 1e-6, "2.5"),
    "simulate.velocity_m_s": ("float", 1.0, "220"),
    "simulate.band": ("bool", 1.0, "true"),
    "fit.lower_bound_nm": ("float", 1e-9, "1"),
    "fit.coarse_step_nm": ("float", 1e-9, "1"),
    "fit.tolerance_nm": ("float", 1e-9, "0.1"),
    "fit.measured_csv": ("str", 1.0, None),
    "fit.target_s_eff_nm": ("float", 1e-9, None),
    "fit.noise_fraction": ("float", 1.0, "0"),
    "fit.y2_um": ("float", 1e-6, None),
    "limits.sigma_nm": ("float", 1e-9, None),
    "limits.temperature_K": ("float", 1.0, "300"),
    "limits.beam_length_nm": ("float", 1e-9, None),
    "limits.beam_diameter_nm": ("float", 1e-9, None),
    "limits.youngs_modulus_GPa": ("float", 1e9, "1000"),
    "limits.max_order": ("int", 1.0, "9"),
    "limits.molecule_count": ("float", 1.0, None),
    "limits.open_area_um2": ("float", 1e-12, None),
    "limits.footprint_nm2": ("float", 1e-18, "1.7"),
    "render.vertical_stretch": ("float", 1.0, "1.0"),
    "render.image_path": ("str", 1.0, None),
    "profile.n_stripes": ("int", 1.0, "20"),
    "profile.image_path": ("str", 1.0, None),
}

DEFAULTS: dict[str, str] = {k: text for k, (_, _, text) in KNOWN_KEYS.items() if text is not None}

# velocity-class counts when velocity.n_classes is not set: band analysis
# needs enough classes for smooth order plateaus; beam synthesis resolves the
# full ensemble
BAND_DEFAULT_CLASSES = 21
BEAM_DEFAULT_CLASSES = 200

_TRUE_WORDS = {"true", "yes", "on", "1"}
_FALSE_WORDS = {"false", "no", "off", "0"}


def _convert(key: str, raw: str) -> Any:
    """Typed SI value of the known key ``key`` from its raw text."""
    kind, scale, _ = KNOWN_KEYS[key]
    text = raw.strip()
    if kind == "str":
        if not text:
            raise ConfigurationError(f"empty value for {key!r}")
        return text
    if kind == "bool":
        lowered = text.lower()
        if lowered in _TRUE_WORDS:
            return True
        if lowered in _FALSE_WORDS:
            return False
        raise ConfigurationError(f"{key!r} expects true/false, got {raw!r}")
    if kind == "int":
        try:
            return int(text)
        except ValueError as exc:
            raise ConfigurationError(f"{key!r} expects an integer, got {raw!r}") from exc
    if kind == "float_list":
        parts = [part for part in text.split(",") if part.strip()]
        if not parts:
            raise ConfigurationError(f"{key!r} expects at least one number")
        return [_number(key, part.strip(), scale) for part in parts]
    return _number(key, text, scale)


def _number(key: str, text: str, scale: float) -> float:
    """One number of ``key`` times its SI scale; the product must be finite,
    so a value that overflows in SI units is refused like NaN or inf."""
    try:
        value = float(text) * scale
    except ValueError as exc:
        raise ConfigurationError(f"{key!r} expects a number, got {text!r}") from exc
    if not math.isfinite(value):
        raise ConfigurationError(f"{key!r} must be finite in SI units, got {text!r}")
    return value


def parse_config_text(text: str, origin: str = "<config>") -> dict[str, str]:
    """Parse flat key=value text into a raw string mapping, rejecting
    unknown keys, malformed lines, and duplicates."""
    raw: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigurationError(
                f"{origin}:{lineno}: expected 'key = value', got {stripped!r}"
            )
        key, _, value = stripped.partition("=")
        key = key.strip()
        if key not in KNOWN_KEYS:
            raise ConfigurationError(f"{origin}:{lineno}: unknown configuration key {key!r}")
        if key in raw:
            raise ConfigurationError(f"{origin}:{lineno}: duplicate key {key!r}")
        raw[key] = value.strip()
    return raw


@dataclass(frozen=True)
class RunConfig:
    """Typed, SI-converted configuration with domain-object builders."""

    values: Mapping[str, Any]

    def get(self, key: str, default: Any = None) -> Any:
        if key not in KNOWN_KEYS:
            raise ConfigurationError(f"unknown configuration key {key!r}")
        return self.values.get(key, default)

    def require(self, key: str) -> Any:
        value = self.get(key)
        if value is None:
            raise ConfigurationError(f"missing required configuration key {key!r}")
        return value

    def molecule(self) -> Molecule:
        return Molecule(self.require("molecule.name"), self.require("molecule.mass_u"))

    def grating(self) -> Grating:
        overrides = {
            "period": self.get("grating.period_nm"),
            "slit_width": self.get("grating.slit_width_nm"),
            "effective_slit_width": self.get("grating.effective_slit_width_nm"),
        }
        present = {k: v for k, v in overrides.items() if v is not None}
        preset_name = self.get("grating.preset")
        if preset_name is not None:
            base = grating_preset(preset_name)
            return replace(base, **present) if present else base
        if len(present) < len(overrides):
            raise ConfigurationError(
                "grating is undefined: set grating.preset or at least "
                "grating.period_nm, grating.slit_width_nm, and "
                "grating.effective_slit_width_nm"
            )
        return Grating(label="custom", **present)

    def geometry(self) -> BeamlineGeometry:
        return BeamlineGeometry(
            L1=self.require("geometry.L1_m"),
            L2=self.require("geometry.L2_m"),
            g=self.require("geometry.g_m_s2"),
            y0=self.require("geometry.y0_m"),
            y1=self.require("geometry.y1_m"),
        )

    def source(self) -> SourceModel:
        return SourceModel(source_width=self.require("source.width_um"))

    def detector_grid(self) -> DetectorGrid:
        from .diffraction import DetectorGrid
        return DetectorGrid(
            x_min=self.require("detector.x_min_um"),
            x_max=self.require("detector.x_max_um"),
            pixel_pitch=self.require("detector.pixel_pitch_um"),
            psf_sigma=self.require("detector.psf_sigma_um"),
        )

    def image_grid(self) -> ImageGrid:
        from .gravity import ImageGrid
        return ImageGrid(
            x_min=self.require("detector.x_min_um"),
            x_max=self.require("detector.x_max_um"),
            y_min=self.require("image.y_min_um"),
            y_max=self.require("image.y_max_um"),
            pixel_pitch_x=self.require("detector.pixel_pitch_um"),
            pixel_pitch_y=self.require("image.pixel_pitch_y_um"),
            psf_sigma=self.require("detector.psf_sigma_um"),
        )

    def velocity_distribution(self) -> VelocityDistribution:
        from .gravity import VelocityDistribution
        kind = self.require("velocity.kind")
        n_classes = self.get("velocity.n_classes")
        if kind == "uniform-band":
            return VelocityDistribution.uniform_band(
                center=self.require("velocity.center_m_s"),
                half_width=self.require("velocity.half_width_m_s"),
                n_classes=BAND_DEFAULT_CLASSES if n_classes is None else n_classes,
            )
        if kind == "maxwell-boltzmann-beam":
            return VelocityDistribution.maxwell_beam(
                most_probable_velocity=self.require("velocity.most_probable_m_s"),
                n_classes=BEAM_DEFAULT_CLASSES if n_classes is None else n_classes,
                v_min=self.get("velocity.v_min_m_s"),
                v_max=self.get("velocity.v_max_m_s"),
            )
        if kind == "discrete":
            velocities = self.get("velocity.list_m_s")
            if velocities is None:
                raise ConfigurationError(
                    "velocity.kind = discrete requires velocity.list_m_s"
                )
            return VelocityDistribution.discrete(velocities)
        raise ConfigurationError(f"unknown velocity.kind {kind!r}")


def load_run_config(
    config_path: str | Path | None = None,
    preset: str | None = None,
    overrides: Iterable[str] = (),
) -> RunConfig:
    """Merge defaults, an optional config file, an optional grating preset
    shorthand, and --set KEY=VALUE overrides into a typed RunConfig."""
    raw = dict(DEFAULTS)
    if config_path is not None:
        path = Path(config_path)
        raw.update(parse_config_text(_read_file(path, "utf-8"), str(path)))
    if preset is not None:
        raw["grating.preset"] = preset
    for item in overrides:
        if "=" not in item:
            raise ConfigurationError(f"--set expects KEY=VALUE, got {item!r}")
        key, _, value = item.partition("=")
        key = key.strip()
        if key not in KNOWN_KEYS:
            raise ConfigurationError(f"unknown configuration key {key!r}")
        raw[key] = value.strip()
    return RunConfig(values={key: _convert(key, text) for key, text in raw.items()})
