"""Command-line interface.

Subcommands
-----------
simulate      far-field trace for one grating: raw and detector-convolved CSV
synth-image   2D interferogram of a velocity ensemble falling under gravity
fit-seff      effective slit width fitted to a measured (or self-generated) trace
fit-velocity  velocity from fall height, or a stripe-wise profile of an image
limits        coherence / uncertainty-principle budget for a grating
render        interferogram file to a false-color binary pixmap

All commands share ``--config``, ``--preset``, ``--set KEY=VALUE``,
``--out``, and ``--seed``. Exit codes: 0 success, 2 configuration or
input-file error, 3 any other domain/fit/geometry error. Outputs carry no
timestamps and are byte-identical across reruns of the same configuration.
Each command imports the engine modules and numpy itself, so ``limits`` and
the fall-height ``fit-velocity`` run without them.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import replace
from pathlib import Path
from typing import TYPE_CHECKING, Any, Sequence

from .config import RunConfig, load_run_config
from .domain import BeamlineGeometry, Grating, Molecule, de_broglie_wavelength, fit_velocity
from .errors import ConfigurationError, NanogratingError
from .io import (
    format_report,
    format_value,
    read_interferogram,
    read_trace_csv,
    write_interferogram,
    write_pixmap,
    write_report,
    write_trace_csv,
)
from .limits import adsorption_coverage, limits_report, thermal_scroll_amplitude
from .presets import GRATING_PRESETS

if TYPE_CHECKING:
    from .diffraction import Trace

__all__ = ["main"]


def _sibling(path: Path, tag: str, suffix: str | None = None) -> Path:
    """trace.csv -> trace.<tag>.csv (or with an explicit new suffix)."""
    return path.with_name(f"{path.stem}.{tag}{suffix if suffix is not None else path.suffix}")


def _echo(report: dict[str, Any]) -> None:
    sys.stdout.write(format_report(report))


def _simulation_header(
    grating: Grating, molecule: Molecule, geometry: BeamlineGeometry, velocity: float
) -> dict[str, Any]:
    return {
        "grating": grating.label,
        "molecule": molecule.name,
        "period_m": grating.period,
        "slit_width_m": grating.slit_width,
        "effective_slit_width_m": grating.effective_slit_width,
        "L1_m": geometry.L1,
        "L2_m": geometry.L2,
        "velocity_m_s": velocity,
        "wavelength_m": de_broglie_wavelength(molecule, velocity),
    }


def cmd_simulate(config: RunConfig, args: argparse.Namespace) -> int:
    from .diffraction import Trace, coherence, far_field_orders, gaussian_kernel
    from .diffraction import kirchhoff_pattern, symmetric_convolve, wave_number
    grating = config.grating()
    molecule = config.molecule()
    geometry = config.geometry()
    source = config.source()
    grid = config.detector_grid()
    prefactor = config.require("source.coherence_prefactor")

    if config.require("simulate.band"):
        import numpy as np
        from .vdwfit import band_averaged_trace
        band = config.velocity_distribution()
        center = float(np.average(band.velocities, weights=band.weights))
        raw = band_averaged_trace(
            grating, molecule, band, source, geometry, replace(grid, psf_sigma=0.0),
            coherence_prefactor=prefactor,
        )
        header = _simulation_header(grating, molecule, geometry, center)
        header["velocity_classes"] = len(band)
        header["velocity_kind"] = config.require("velocity.kind")
    else:
        velocity = config.require("simulate.velocity_m_s")
        header = _simulation_header(grating, molecule, geometry, velocity)
        coh = coherence(source, geometry, header["wavelength_m"], grating.period, prefactor)
        raw = kirchhoff_pattern(
            grating, wave_number(molecule, velocity), geometry.L2, coh.n_coherent_slits, grid
        )
        header["n_slits"] = coh.n_coherent_slits

    kernel = gaussian_kernel(grid.psf_sigma, raw.pixel_pitch)
    convolved = Trace(raw.positions, symmetric_convolve(raw.intensities, kernel))
    header["psf_sigma_m"] = grid.psf_sigma
    wavelength = header["wavelength_m"]
    positions = far_field_orders(wavelength, grating.period, geometry.L2, 1)
    if len(positions) > 1:
        header["first_order_position_m"] = positions[1]

    echo = dict(header)
    if args.out is not None:
        out = Path(args.out)
        write_trace_csv(out, convolved, header)
        raw_path = _sibling(out, "raw")
        write_trace_csv(raw_path, raw, header)
        echo["convolved_csv"] = str(out)
        echo["raw_csv"] = str(raw_path)
    _echo(echo)
    return 0


def cmd_synth_image(config: RunConfig, args: argparse.Namespace) -> int:
    from .gravity import synthesize_image
    from .imaging import render_image
    grating = config.grating()
    molecule = config.molecule()
    geometry = config.geometry()
    source = config.source()
    grid = config.image_grid()
    distribution = config.velocity_distribution()

    result = synthesize_image(
        distribution, grating, source, geometry, grid, molecule,
        coherence_prefactor=config.require("source.coherence_prefactor"),
    )
    out = Path(args.out) if args.out is not None else Path("interferogram.f64")
    write_interferogram(out, result.image)
    pixmap_path = out.with_name(out.name + ".ppm")
    write_pixmap(
        pixmap_path,
        render_image(result.image, vertical_stretch=config.require("render.vertical_stretch")),
    )
    _echo(
        {
            "grating": grating.label,
            "molecule": molecule.name,
            "velocity_kind": config.require("velocity.kind"),
            "velocity_classes": len(distribution),
            "clipped_classes": len(result.clipped_velocities),
            "clipped_weight": result.clipped_weight,
            "nx": result.image.nx,
            "ny": result.image.ny,
            "total_signal": result.image.total,
            "interferogram": str(out),
            "sidecar": str(out) + ".json",
            "pixmap": str(pixmap_path),
        }
    )
    return 0


def _measured_trace(config: RunConfig, seed: int) -> tuple[Trace, dict[str, Any]]:
    """The trace to fit: an on-disk CSV, or a self-generated target at a known
    effective slit width (optionally with multiplicative noise)."""
    import numpy as np
    from .diffraction import Trace
    from .vdwfit import band_averaged_trace
    csv_path = config.get("fit.measured_csv")
    target = config.get("fit.target_s_eff_nm")
    if csv_path is not None and target is not None:
        raise ConfigurationError(
            "set either fit.measured_csv or fit.target_s_eff_nm, not both"
        )
    if csv_path is not None:
        trace, _ = read_trace_csv(csv_path)
        return trace, {"measured_csv": csv_path}
    if target is None:
        raise ConfigurationError(
            "fit-seff needs fit.measured_csv or fit.target_s_eff_nm"
        )
    noise = config.require("fit.noise_fraction")
    if noise < 0.0:
        raise ConfigurationError(f"fit.noise_fraction must be non-negative, got {noise!r}")
    trace = band_averaged_trace(
        replace(config.grating(), effective_slit_width=target), config.molecule(),
        config.velocity_distribution(), config.source(), config.geometry(),
        config.detector_grid(), coherence_prefactor=config.require("source.coherence_prefactor"),
    )
    provenance: dict[str, Any] = {"target_effective_slit_width_m": target}
    if noise > 0.0:
        rng = np.random.default_rng(seed)
        values = trace.intensities * (1.0 + noise * rng.standard_normal(len(trace)))
        trace = Trace(trace.positions, np.clip(values, 0.0, None))
        provenance["noise_fraction"] = noise
        provenance["seed"] = seed
    return trace, provenance


def cmd_fit_seff(config: RunConfig, args: argparse.Namespace) -> int:
    from .vdwfit import fit_effective_slit
    grating = config.grating()
    measured, provenance = _measured_trace(config, args.seed)
    result = fit_effective_slit(
        measured,
        grating,
        config.molecule(),
        config.velocity_distribution(),
        config.geometry(),
        config.source(),
        psf_sigma=config.require("detector.psf_sigma_um"),
        coherence_prefactor=config.require("source.coherence_prefactor"),
        coarse_step=config.require("fit.coarse_step_nm"),
        tolerance=config.require("fit.tolerance_nm"),
        lower_bound=config.require("fit.lower_bound_nm"),
    )
    report: dict[str, Any] = {
        "grating": grating.label,
        "slit_width_m": grating.slit_width,
        **provenance,
        "effective_slit_width_m": result.effective_slit_width,
        "suppression_ratio": result.suppression_ratio,
        "residual_rms": result.residual,
        "evaluations": result.evaluations,
        "bracket_lo_m": result.bracket[0],
        "bracket_hi_m": result.bracket[1],
    }
    if args.out is not None:
        out = Path(args.out)
        best_path = _sibling(out, "bestfit", ".csv")
        write_trace_csv(best_path, result.model, report)
        write_report(out, report)
        report = dict(report, report_path=str(out), bestfit_csv=str(best_path))
    _echo(report)
    return 0


def cmd_fit_velocity(config: RunConfig, args: argparse.Namespace) -> int:
    geometry = config.geometry()
    image_path = config.get("profile.image_path")
    if image_path is not None:
        from .gravity import stripe_velocity_profile
        image = read_interferogram(image_path)
        profile = stripe_velocity_profile(
            image,
            geometry,
            config.grating().period,
            config.molecule(),
            n_stripes=config.require("profile.n_stripes"),
            psf_sigma=config.require("detector.psf_sigma_um"),
        )
        lines = [
            format_report(
                {
                    "image": str(image_path),
                    "stripes_used": len(profile.stripes),
                    "stripes_skipped": len(profile.skipped),
                    "intercept_m": profile.intercept,
                    "rms_relative": profile.rms_relative,
                    "underdetermined": profile.underdetermined,
                }
            ),
            "y_m,velocity_m_s,residual_m_s",
        ]
        lines += [
            f"{float(s.y)!r},{float(s.velocity)!r},{float(s.residual)!r}"
            for s in profile.stripes
        ]
        text = "\n".join(lines) + "\n"
        sys.stdout.write(text)
        if args.out is not None:
            Path(args.out).write_text(text, encoding="ascii")
        return 0

    y2 = config.get("fit.y2_um")
    if y2 is None:
        raise ConfigurationError(
            "fit-velocity needs profile.image_path (stripe profile) or fit.y2_um "
            "(single fall-height inversion)"
        )
    velocity = fit_velocity(y2, geometry)
    report = {
        "y2_m": y2,
        "velocity_m_s": velocity,
        "wavelength_m": de_broglie_wavelength(config.molecule(), velocity),
    }
    if args.out is not None:
        write_report(Path(args.out), report)
    _echo(report)
    return 0


def _position_sigma(config: RunConfig, grating: Grating) -> tuple[float, str]:
    """Transverse position uncertainty of a grating bar: explicit config
    value, else the preset's measured vibration bound, else the thermal
    bending amplitude of a bar sized by the limits.beam_* keys or the preset
    table. The table's bar width (or scroll diameter) holds only for the
    table's period and slit width, so ``grating`` (config.grating(), which
    checked the preset name) must keep both."""
    sigma = config.get("limits.sigma_nm")
    if sigma is not None:
        return sigma, "configured"
    name = config.get("grating.preset")
    entry = GRATING_PRESETS[name] if name is not None else {}
    if "vibration_sigma" in entry:
        return entry["vibration_sigma"], "preset-vibration-note"
    length = config.get("limits.beam_length_nm", entry.get("bar_length"))
    diameter = config.get("limits.beam_diameter_nm")
    if diameter is None and entry:
        # an override given in nm may differ from the table's metres in the last bit
        if not (math.isclose(grating.period, entry["period"], rel_tol=1e-12)
                and math.isclose(grating.slit_width, entry["slit_width"], rel_tol=1e-12)):
            raise ConfigurationError(
                f"the {name} bar width holds only for the preset's period and slit "
                "width; set limits.beam_diameter_nm (or limits.sigma_nm)"
            )
        diameter = entry.get("scroll_diameter", entry["bar_width"])
    if length is None or diameter is None:
        raise ConfigurationError(
            "the thermal position estimate of a custom grating needs "
            "limits.beam_length_nm and limits.beam_diameter_nm (or limits.sigma_nm)"
        )
    return thermal_scroll_amplitude(
        length, diameter, config.require("limits.temperature_K"),
        config.require("limits.youngs_modulus_GPa"),
    ), "thermal"


def cmd_limits(config: RunConfig, args: argparse.Namespace) -> int:
    grating = config.grating()
    sigma, sigma_source = _position_sigma(config, grating)
    report_obj = limits_report(
        grating.effective_slit_width,
        sigma,
        period=grating.period,
        max_order=config.require("limits.max_order"),
    )
    report: dict[str, Any] = {
        "grating": grating.label,
        "slit_width_m": grating.effective_slit_width,
        "position_sigma_m": sigma,
        "position_sigma_source": sigma_source,
        "diffraction_momentum_spread_kg_m_s": report_obj.dp_diff,
        "grating_momentum_uncertainty_kg_m_s": report_obj.dp_grating,
        "min_coherent_slit_m": report_obj.s_min,
        "coherent": report_obj.coherent,
        "margin": report_obj.margin,
        "momentum_transfer_hk": report_obj.momentum_transfer_hk,
    }
    count = config.get("limits.molecule_count")
    area = config.get("limits.open_area_um2")
    if count is not None and area is not None:
        per_cm2, fraction = adsorption_coverage(
            count, area, config.require("limits.footprint_nm2")
        )
        report["adsorbed_per_cm2"] = per_cm2
        report["coverage_fraction"] = fraction
    if args.out is not None:
        out = Path(args.out)
        if out.suffix == ".csv":
            keys = list(report)
            out.write_text(
                ",".join(keys) + "\n"
                + ",".join(format_value(report[k]) for k in keys) + "\n",
                encoding="ascii",
            )
        else:
            write_report(out, report)
    _echo(report)
    return 0


def cmd_render(config: RunConfig, args: argparse.Namespace) -> int:
    from .imaging import render_image
    image_path = config.get("render.image_path")
    if image_path is None:
        raise ConfigurationError("render needs render.image_path")
    image = read_interferogram(image_path)
    data = render_image(image, vertical_stretch=config.require("render.vertical_stretch"))
    out = Path(args.out) if args.out is not None else Path(str(image_path) + ".ppm")
    write_pixmap(out, data)
    _echo({"image": str(image_path), "nx": image.nx, "ny": image.ny, "pixmap": str(out)})
    return 0


_COMMANDS = {
    "simulate": (cmd_simulate, "far-field trace: raw + detector-convolved CSV"),
    "synth-image": (cmd_synth_image, "2D interferogram under gravity + pixmap"),
    "fit-seff": (cmd_fit_seff, "fit the effective slit width to a trace"),
    "fit-velocity": (cmd_fit_velocity, "velocity from fall height or stripe profile"),
    "limits": (cmd_limits, "uncertainty-principle and coherence budget"),
    "render": (cmd_render, "interferogram file to false-color pixmap"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nanograting",
        description="Far-field molecule diffraction at ultra-thin nanogratings.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    for name, (func, description) in _COMMANDS.items():
        sub = subparsers.add_parser(name, help=description)
        sub.add_argument("--config", metavar="PATH", help="flat key=value config file")
        sub.add_argument("--preset", metavar="NAME", help="grating preset shorthand")
        sub.add_argument(
            "--set",
            metavar="KEY=VALUE",
            action="append",
            default=[],
            help="override one configuration key (repeatable)",
        )
        sub.add_argument("--out", metavar="PATH", help="output file")
        sub.add_argument("--seed", type=int, default=0, help="seed for stochastic options")
        sub.set_defaults(func=func)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.seed < 0:
        # numpy's generators take only non-negative seeds
        parser.error(f"--seed must be non-negative, got {args.seed}")
    try:
        config = load_run_config(args.config, args.preset, args.set)
        return args.func(config, args)
    except (ConfigurationError, OSError) as exc:
        # an OSError is a path that cannot be opened, such as an --out in a
        # missing directory; its message names the file
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NanogratingError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
