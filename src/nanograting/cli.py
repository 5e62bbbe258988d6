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
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path
from typing import Any, Sequence

import numpy as np

from .config import RunConfig, load_run_config
from .diffraction import (
    Trace,
    coherence,
    detector_convolve,
    far_field_orders,
    kirchhoff_pattern,
    wave_number,
)
from .domain import Grating, de_broglie_wavelength
from .errors import ConfigurationError, NanogratingError
from .gravity import fit_velocity, stripe_velocity_profile, synthesize_image
from .imaging import render_image
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
from .presets import grating_preset_names, preset_notes
from .vdwfit import band_averaged_trace, fit_effective_slit

__all__ = ["main"]


def _sibling(path: Path, tag: str, suffix: str | None = None) -> Path:
    """trace.csv -> trace.<tag>.csv (or with an explicit new suffix)."""
    return path.with_name(f"{path.stem}.{tag}{suffix if suffix is not None else path.suffix}")


def _echo(report: dict[str, Any]) -> None:
    sys.stdout.write(format_report(report))


def _simulation_header(config: RunConfig, velocity: float) -> dict[str, Any]:
    grating = config.grating()
    molecule = config.molecule()
    geometry = config.geometry()
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


def _band_trace(config: RunConfig, grating: Grating, **options: Any) -> Trace:
    """band_averaged_trace of ``grating`` over the configured beamline,
    molecule, velocity distribution and detector."""
    return band_averaged_trace(
        grating,
        config.molecule(),
        config.velocity_distribution(),
        config.source(),
        config.geometry(),
        config.detector_grid(),
        coherence_prefactor=config.require("source.coherence_prefactor"),
        **options,
    )


def cmd_simulate(config: RunConfig, args: argparse.Namespace) -> int:
    grating = config.grating()
    molecule = config.molecule()
    geometry = config.geometry()
    source = config.source()
    grid = config.detector_grid()
    window = config.require("simulate.window")
    prefactor = config.require("source.coherence_prefactor")

    if config.require("simulate.band"):
        band = config.velocity_distribution()
        center = float(np.average(band.velocities, weights=band.weights))
        raw = _band_trace(config, grating, window=window, convolve=False)
        header = _simulation_header(config, center)
        header["velocity_classes"] = len(band)
        header["velocity_kind"] = band.kind
    else:
        velocity = config.require("simulate.velocity_m_s")
        wavelength = de_broglie_wavelength(molecule, velocity)
        coh = coherence(source, geometry, wavelength, grating.period, prefactor)
        n_slits = config.require("simulate.n_slits") or coh.n_coherent_slits
        raw = kirchhoff_pattern(
            grating, wave_number(molecule, velocity), geometry.L2, n_slits, grid,
            window=window,
        )
        header = _simulation_header(config, velocity)
        header["n_slits"] = n_slits

    convolved = detector_convolve(raw, grid.psf_sigma)
    header["psf_sigma_m"] = grid.psf_sigma
    wavelength = header["wavelength_m"]
    orders = far_field_orders(wavelength, grating.period, geometry.L2,
                              config.require("simulate.n_max"))
    first = next((o for o in orders.orders if o.n == 1), None)
    if first is not None:
        header["first_order_position_m"] = first.position

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
    grating = config.grating()
    molecule = config.molecule()
    geometry = config.geometry()
    source = config.source()
    grid = config.image_grid()
    distribution = config.velocity_distribution()

    result = synthesize_image(
        distribution, grating, source, geometry, grid, molecule,
        coherence_prefactor=config.require("source.coherence_prefactor"),
        window=config.require("simulate.window"),
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
            "velocity_kind": distribution.kind,
            "velocity_classes": result.n_classes,
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
    trace = _band_trace(config, replace(config.grating(), effective_slit_width=target))
    provenance: dict[str, Any] = {"target_effective_slit_width_m": target}
    if noise > 0.0:
        rng = np.random.default_rng(seed)
        values = trace.intensities * (1.0 + noise * rng.standard_normal(len(trace)))
        trace = Trace(trace.positions, np.clip(values, 0.0, None))
        provenance["noise_fraction"] = noise
        provenance["seed"] = seed
    return trace, provenance


def cmd_fit_seff(config: RunConfig, args: argparse.Namespace) -> int:
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
        best = _band_trace(
            config, replace(grating, effective_slit_width=result.effective_slit_width)
        )
        best_path = _sibling(out, "bestfit", ".csv")
        write_trace_csv(best_path, best, report)
        write_report(out, report)
        report = dict(report, report_path=str(out), bestfit_csv=str(best_path))
    _echo(report)
    return 0


def cmd_fit_velocity(config: RunConfig, args: argparse.Namespace) -> int:
    geometry = config.geometry()
    image_path = config.get("profile.image_path")
    if image_path is not None:
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
    velocity = fit_velocity(
        y2, config.require("geometry.y0_m"), config.require("geometry.y1_m"), geometry
    )
    report = {
        "y2_m": y2,
        "velocity_m_s": velocity,
        "wavelength_m": de_broglie_wavelength(config.molecule(), velocity),
    }
    if args.out is not None:
        write_report(Path(args.out), report)
    _echo(report)
    return 0


def _position_sigma(config: RunConfig) -> tuple[float, str]:
    """Transverse position uncertainty of a grating bar: explicit config
    value, else the preset's measured vibration note, else the thermal
    bending amplitude of the bar."""
    sigma = config.get("limits.sigma_nm")
    if sigma is not None:
        return sigma, "configured"
    preset_name = config.get("grating.preset")
    if preset_name is not None and preset_name in grating_preset_names():
        notes = preset_notes(preset_name)
        if "vibration_sigma_m" in notes:
            return float(notes["vibration_sigma_m"]), "preset-vibration-note"
        diameter = notes.get("scroll_diameter_m")
    else:
        diameter = None
    grating = config.grating()
    length = config.get("limits.beam_length_nm", grating.bar_length)
    if diameter is None:
        diameter = config.get("limits.beam_diameter_nm", grating.bar_width)
    else:
        diameter = config.get("limits.beam_diameter_nm", diameter)
    sigma = thermal_scroll_amplitude(
        length,
        diameter,
        config.require("limits.temperature_K"),
        config.require("limits.youngs_modulus_GPa"),
    )
    return sigma, "thermal"


def cmd_limits(config: RunConfig, args: argparse.Namespace) -> int:
    grating = config.grating()
    sigma, sigma_source = _position_sigma(config)
    report_obj = limits_report(
        grating.effective_slit_width,
        sigma,
        period=grating.period,
        max_order=config.require("limits.max_order"),
        lambda_ref=config.require("limits.lambda_ref_nm"),
    )
    report: dict[str, Any] = {
        "grating": grating.label,
        "slit_width_m": report_obj.slit_width,
        "position_sigma_m": report_obj.sigma_thermal,
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
    args = build_parser().parse_args(argv)
    try:
        config = load_run_config(args.config, args.preset, args.set)
        return args.func(config, args)
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NanogratingError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
