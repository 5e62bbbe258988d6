"""Workload child process of the benchmark (started by ``run.py``).

Runs one workload in a loop for a fixed number of seconds, times each
iteration, checks every iteration's outputs, and writes a JSON summary.
With ``--trace 1`` untraced and traced iterations alternate, so tracing
overhead is measured in the same process. ``--setup-only`` stops after
importing the package and building the workload's configuration: ``run.py``
times that as set-up.

Inputs reach the package only through ``config.load_run_config`` and the
``RunConfig`` builders, and public functions are called without engine
tuning arguments (phase step, block size, constants), so refactors of the
package do not need edits here.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter, defaultdict

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import spans  # noqa: E402

from nanograting import config, diffraction, domain, gravity, imaging, vdwfit  # noqa: E402
from nanograting import io as ngio  # noqa: E402

SEFF_TOLERANCE_M = 1e-9
MIN_STRIPES = 10


class CheckFailed(Exception):
    pass


def _digest(*parts: bytes) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(len(part).to_bytes(8, "little"))
        h.update(part)
    return h.hexdigest()


def _file(path: str) -> bytes:
    with open(path, "rb") as handle:
        return handle.read()


def _floats(*values: float) -> bytes:
    return ",".join(repr(float(v)) for v in values).encode()


def placed_share(velocity: float, geometry, grid) -> float:
    """Share of a class that lands on image rows, from fall_position and the
    two-row linear split that synthesize_image documents."""
    f = (gravity.fall_position(velocity, geometry) - grid.y_min) / grid.pixel_pitch_y
    i0 = math.floor(f)
    frac = f - i0
    return sum(
        share for idx, share in ((i0, 1.0 - frac), (i0 + 1, frac))
        if share > 0.0 and 0 <= idx < grid.ny
    )


def off_window(distribution, geometry, grid) -> tuple[float, int]:
    """(weight off the image rows, classes with a row inside)."""
    clipped = 0.0
    useful = 0
    for v, w in zip(distribution.velocities, distribution.weights):
        placed = placed_share(float(v), geometry, grid)
        if w > 0.0 and placed > 0.0:
            useful += 1
        if placed < 1.0 - 1e-12:
            clipped += float(w) * (1.0 - placed)
    return clipped, useful


def class_terms(cfg, velocities, weights) -> list[list]:
    """[k, n_slits, weight] per velocity class, from the public wave_number
    and coherence(), for the oracle to rebuild the class patterns."""
    molecule, source, geometry = cfg.molecule(), cfg.source(), cfg.geometry()
    period = cfg.grating().period
    prefactor = cfg.require("source.coherence_prefactor")
    terms = []
    for v, w in zip(velocities, weights):
        wavelength = domain.de_broglie_wavelength(molecule, float(v))
        n_slits = diffraction.coherence(source, geometry, wavelength, period, prefactor)
        terms.append([diffraction.wave_number(molecule, float(v)), n_slits.n_coherent_slits,
                      float(w)])
    return terms


def engine_probe(name: str, cfg, positions, values, classes: list[list], *,
                 normalize: bool, psf_sigma_px: float) -> dict:
    """One output of the package with everything ``oracle.expected`` needs
    to rebuild it: the velocity classes it sums, whether each class pattern
    is normalized to unit pixel sum, and the detector blur applied after."""
    grating, geometry = cfg.grating(), cfg.geometry()
    return {
        "name": name, "slit_width": grating.effective_slit_width, "period": grating.period,
        "L2": geometry.L2, "positions": np.asarray(positions, dtype=float).tolist(),
        "engine": np.asarray(values, dtype=float).tolist(), "classes": classes,
        "normalize": normalize, "psf_sigma_px": psf_sigma_px,
    }


class ImageBeam:
    """synth-image -> fit-velocity profile chain, in process (slg, Maxwell
    beam, 40 classes over 60-540 m/s, the README 921 x 103 image grid)."""

    steps = ("config", "synthesize", "write_image", "render", "write_pixmap", "read_image", "profile")

    def __init__(self, seed: int, workdir: str) -> None:
        rng = np.random.default_rng(seed)
        # the seed moves the beam's v_p (class weights); class velocities and
        # hence the probe patterns stay fixed
        self.v_p = 180.0 + float(rng.uniform(-5.0, 5.0))
        self.overrides = [
            "velocity.kind=maxwell-boltzmann-beam",
            f"velocity.most_probable_m_s={self.v_p!r}",
            "velocity.n_classes=40",
            "velocity.v_min_m_s=60",
            "velocity.v_max_m_s=540",
            "profile.n_stripes=20",
        ]
        self.path = os.path.join(workdir, "img.f64")
        self.configure()

    def configure(self, extra: tuple[str, ...] = ()):
        cfg = config.load_run_config(preset="slg", overrides=self.overrides + list(extra))
        return cfg, {
            "distribution": cfg.velocity_distribution(), "grating": cfg.grating(),
            "source": cfg.source(), "geometry": cfg.geometry(), "grid": cfg.image_grid(),
            "molecule": cfg.molecule(),
        }

    def prepare(self) -> None:
        cfg, inp = self.configure()
        self.clipped, self.useful = off_window(inp["distribution"], inp["geometry"], inp["grid"])
        # untimed warm-up through the same entry (one in-window class), so the
        # first timed iteration does not carry the process's first-call costs
        synthesize(*self.configure(("velocity.kind=discrete", "velocity.list_m_s=220")))

    def run(self, step: str, st: dict) -> None:
        if step == "config":
            st["cfg"], st["in"] = self.configure()
            return
        cfg, inp = st["cfg"], st["in"]
        if step == "synthesize":
            st["synth"] = synthesize(cfg, inp)
        elif step == "write_image":
            ngio.write_interferogram(self.path, st["synth"].image)
        elif step == "render":
            st["ppm"] = imaging.render_image(
                st["synth"].image, vertical_stretch=cfg.require("render.vertical_stretch")
            )
        elif step == "write_pixmap":
            ngio.write_pixmap(self.path + ".ppm", st["ppm"])
        elif step == "read_image":
            st["read"] = ngio.read_interferogram(self.path)
        elif step == "profile":
            st["profile"] = gravity.stripe_velocity_profile(
                st["read"], inp["geometry"], inp["grating"].period, inp["molecule"],
                n_stripes=cfg.require("profile.n_stripes"),
                psf_sigma=cfg.require("detector.psf_sigma_um"),
            )

    def check(self, step: str, st: dict) -> str:
        """Output digest of the step; raises CheckFailed on a bad output."""
        if step == "synthesize":
            result = st["synth"]
            values = result.image.values
            if not np.all(np.isfinite(values)) or values.min() < 0.0:
                raise CheckFailed("image has non-finite or negative pixels")
            if abs(result.clipped_weight - self.clipped) > 1e-9:
                raise CheckFailed(
                    f"clipped_weight {result.clipped_weight!r} != recomputed {self.clipped!r}"
                )
            return _digest(values.tobytes(), _floats(result.clipped_weight))
        if step == "write_image":
            return _digest(_file(self.path), _file(self.path + ".json"))
        if step in ("render", "write_pixmap"):
            return _digest(_file(self.path + ".ppm") if step == "write_pixmap" else st["ppm"])
        if step == "read_image":
            if not np.array_equal(st["read"].values, st["synth"].image.values):
                raise CheckFailed("image read back differs from the image written")
            return _digest(st["read"].values.tobytes())
        if step == "profile":
            profile = st["profile"]
            check_profile([(s.y, s.velocity) for s in profile.stripes])
            st["values"] = {"vprofile_rms_rel": profile.rms_relative}
            return _digest(_floats(profile.intercept, profile.rms_relative,
                                   *[x for s in profile.stripes for x in (s.y, s.velocity)]))
        return ""

    def extras(self, st: dict) -> dict:
        return {"useful_classes": self.useful}

    def probes(self, st: dict) -> list[dict]:
        """Column sums of the iteration's image. The y blur keeps each
        column's sum, so they are the x-blurred sum of the class rows, each
        weighted by its class weight times the share placed on the grid."""
        cfg, inp = self.configure()
        distribution, geometry, grid = inp["distribution"], inp["geometry"], inp["grid"]
        placed = [placed_share(float(v), geometry, grid) for v in distribution.velocities]
        inside = [(v, w * p) for v, w, p in zip(distribution.velocities, distribution.weights, placed)
                  if p > 0.0]
        classes = class_terms(cfg, *zip(*inside))
        return [engine_probe("image columns", cfg, grid.detector_grid().positions,
                             st["synth"].image.values.sum(axis=0), classes,
                             normalize=True, psf_sigma_px=grid.psf_sigma / grid.pixel_pitch_x)]


def synthesize(cfg, inp: dict):
    return gravity.synthesize_image(
        inp["distribution"], inp["grating"], inp["source"], inp["geometry"], inp["grid"],
        inp["molecule"], coherence_prefactor=cfg.require("source.coherence_prefactor"),
    )


def check_profile(rows: list[tuple[float, float]]) -> None:
    if len(rows) < MIN_STRIPES:
        raise CheckFailed(f"profile has {len(rows)} stripes, fewer than {MIN_STRIPES}")
    velocities = [v for _, v in sorted(rows)]
    # adjacent stripes that see the same class agree only to rounding
    if (any(b < a * (1.0 - 1e-9) for a, b in zip(velocities, velocities[1:]))
            or velocities[-1] <= velocities[0]):
        raise CheckFailed(f"profile velocities do not rise with height: {velocities}")


class FitSeff:
    """fit_effective_slit on sinx: uniform band 220 +- 10 m/s in 5 classes,
    281-pixel grid, target with 1% multiplicative noise from the seed."""

    steps = ("config", "fit")

    def __init__(self, seed: int, workdir: str) -> None:
        self.seed = seed
        self.overrides = [
            "velocity.kind=uniform-band",
            "velocity.center_m_s=220",
            "velocity.half_width_m_s=10",
            "velocity.n_classes=5",
            "detector.x_min_um=-140",
            "detector.x_max_um=140",
            "detector.pixel_pitch_um=1",
            "fit.noise_fraction=0.01",
        ]
        self.configure()

    def configure(self, extra: tuple[str, ...] = ()):
        cfg = config.load_run_config(preset="sinx", overrides=self.overrides + list(extra))
        return cfg, {
            "grating": cfg.grating(), "molecule": cfg.molecule(),
            "band": cfg.velocity_distribution(), "geometry": cfg.geometry(),
            "source": cfg.source(), "grid": cfg.detector_grid(),
        }

    def prepare(self) -> None:
        cfg, inp = self.configure()
        # the target's forward-model call also warms the process up, untimed
        clean = band_trace(cfg, inp)
        rng = np.random.default_rng(self.seed)
        noise = cfg.require("fit.noise_fraction") * rng.standard_normal(len(clean))
        self.measured = diffraction.Trace(
            clean.positions, np.clip(clean.intensities * (1.0 + noise), 0.0, None)
        )
        self.target = inp["grating"].effective_slit_width

    def run(self, step: str, st: dict) -> None:
        if step == "config":
            st["cfg"], st["in"] = self.configure()
            return
        cfg, inp = st["cfg"], st["in"]
        st["fit"] = vdwfit.fit_effective_slit(
            self.measured, inp["grating"], inp["molecule"], inp["band"], inp["geometry"],
            inp["source"],
            psf_sigma=cfg.require("detector.psf_sigma_um"),
            coherence_prefactor=cfg.require("source.coherence_prefactor"),
            coarse_step=cfg.require("fit.coarse_step_nm"),
            tolerance=cfg.require("fit.tolerance_nm"),
            lower_bound=cfg.require("fit.lower_bound_nm"),
        )

    def check(self, step: str, st: dict) -> str:
        if step != "fit":
            return ""
        fit = st["fit"]
        error = abs(fit.effective_slit_width - self.target)
        st["values"] = {"seff_err_nm": error * 1e9}
        if error > SEFF_TOLERANCE_M:
            raise CheckFailed(f"fitted s_eff misses the target by {error * 1e9:.3f} nm")
        return _digest(_floats(fit.effective_slit_width, fit.residual, fit.evaluations,
                               *fit.bracket))

    def extras(self, st: dict) -> dict:
        fit = st.get("fit")
        return {"evaluations": fit.evaluations if fit is not None else 0}

    def probes(self, st: dict) -> list[dict]:
        """The fit's forward model, band_averaged_trace, on a one-class band
        at each of the band's velocities."""
        out = []
        for v in self.configure()[1]["band"].velocities:
            cfg, inp = self.configure(("velocity.kind=discrete", f"velocity.list_m_s={float(v)!r}"))
            band, grid = inp["band"], inp["grid"]
            trace = band_trace(cfg, inp)
            out.append(engine_probe(f"band trace at {float(v):.1f} m/s", cfg, trace.positions,
                                    trace.intensities, class_terms(cfg, band.velocities, band.weights),
                                    normalize=True,
                                    psf_sigma_px=grid.psf_sigma / grid.pixel_pitch))
        return out


def band_trace(cfg, inp: dict):
    return vdwfit.band_averaged_trace(
        inp["grating"], inp["molecule"], inp["band"], inp["source"], inp["geometry"],
        inp["grid"], coherence_prefactor=cfg.require("source.coherence_prefactor"),
    )


def _report(text: str) -> dict[str, str]:
    out = {}
    for line in text.splitlines():
        key, sep, value = line.partition(" = ")
        if sep:
            out[key.strip()] = value.strip()
    return out


class CliChain:
    """The README session as fresh ``python -m nanograting`` processes."""

    def __init__(self, seed: int, workdir: str) -> None:
        rng = np.random.default_rng(seed)
        # six classes, all landing inside the image window
        velocities = np.linspace(150.0, 275.0, 6) + rng.uniform(-4.0, 4.0, 6)
        self.v_fall = float(rng.uniform(150.0, 280.0))
        self.workdir = workdir
        self.target = 15e-9  # sinx preset effective slit width
        sim_grid = ["--set", "detector.x_min_um=-140", "--set", "detector.x_max_um=140",
                    "--set", "detector.pixel_pitch_um=1"]
        self.argv = {
            "simulate": ["simulate", "--preset", "sinx", "--set", "simulate.band=false",
                         *sim_grid, "--out", "sim.csv"],
            "synth-image": ["synth-image", "--preset", "slg",
                            "--set", "velocity.kind=discrete",
                            "--set", "velocity.list_m_s=" + ",".join(repr(float(v)) for v in velocities),
                            "--out", "img.f64"],
            "fit-velocity": ["fit-velocity", "--set", f"fit.y2_um={self.fall_um()!r}"],
            # the README form omits --preset and exits 2 ("grating is undefined")
            "fit-velocity-profile": ["fit-velocity", "--preset", "slg",
                                     "--set", "profile.image_path=img.f64", "--out", "profile.csv"],
            "render": ["render", "--set", "render.image_path=img.f64",
                       "--set", "render.vertical_stretch=2.0", "--out", "img.ppm"],
            "limits": ["limits", "--preset", "slg", "--set", "limits.beam_length_nm=1340",
                       "--set", "limits.beam_diameter_nm=8", "--set", "limits.molecule_count=30000",
                       "--set", "limits.open_area_um2=49", "--out", "limits.csv"],
            "fit-seff": ["fit-seff", "--preset", "sinx", "--set", "fit.measured_csv=sim.csv",
                         "--set", "velocity.kind=discrete", "--set", "velocity.list_m_s=220",
                         "--out", "fit.txt"],
        }
        self.steps = tuple(self.argv)
        self.outputs = {
            "simulate": ("sim.csv", "sim.raw.csv"), "synth-image": ("img.f64", "img.f64.json", "img.f64.ppm"),
            "fit-velocity": (), "fit-velocity-profile": ("profile.csv",), "render": ("img.ppm",),
            "limits": ("limits.csv",), "fit-seff": ("fit.txt", "fit.bestfit.csv"),
        }
        self.traced = False
        self.configure()

    def fall_um(self) -> float:
        cfg = config.load_run_config()
        return gravity.fall_position(self.v_fall, cfg.geometry()) * 1e6

    def configure(self):
        configs = {}
        for step, argv in self.argv.items():
            preset = argv[argv.index("--preset") + 1] if "--preset" in argv else None
            sets = [argv[i + 1] for i, a in enumerate(argv) if a == "--set"]
            configs[step] = config.load_run_config(preset=preset, overrides=sets)
        return configs

    def prepare(self) -> None:
        cfg = self.configure()["synth-image"]
        self.clipped, self.useful = off_window(
            cfg.velocity_distribution(), cfg.geometry(), cfg.image_grid()
        )

    def run(self, step: str, st: dict) -> None:
        if self.traced:
            record = os.path.abspath(os.path.join(self.workdir, f"shim-{len(st.get('cli', []))}.json"))
            command = [sys.executable, os.path.join(HERE, "clishim.py"), record]
            if os.path.isfile(record):
                os.remove(record)
        else:
            record = None
            command = [sys.executable, "-m", "nanograting"]
        start = time.perf_counter()
        # the package is found through PYTHONPATH, which run.py sets absolute
        proc = subprocess.run(command + self.argv[step], cwd=self.workdir,
                              capture_output=True, timeout=120)
        wall = time.perf_counter() - start
        st[step] = proc.stdout
        entry = {"step": step, "wall": wall}
        if record is not None and os.path.isfile(record):
            with open(record, encoding="utf-8") as handle:
                entry.update(json.load(handle))
        st.setdefault("cli", []).append(entry)
        if proc.returncode != 0:
            raise RuntimeError(f"exit {proc.returncode}: {proc.stderr.decode(errors='replace').strip()}")

    def check(self, step: str, st: dict) -> str:
        report = _report(st[step].decode("ascii"))
        files = [os.path.join(self.workdir, name) for name in self.outputs[step]]
        missing = [f for f in files if not os.path.isfile(f)]
        if missing:
            raise CheckFailed(f"missing outputs {missing}")
        values = st.setdefault("values", {})
        if step == "synth-image":
            image = np.fromfile(files[0], dtype="<f8")
            if not np.all(np.isfinite(image)) or image.min() < 0.0:
                raise CheckFailed("image has non-finite or negative pixels")
            if abs(float(report["clipped_weight"]) - self.clipped) > 1e-9:
                raise CheckFailed(f"clipped_weight {report['clipped_weight']} != {self.clipped!r}")
        elif step == "fit-velocity":
            fitted = float(report["velocity_m_s"])
            if abs(fitted - self.v_fall) > 1e-9 * self.v_fall:
                raise CheckFailed(f"fitted velocity {fitted!r} != {self.v_fall!r}")
        elif step == "fit-velocity-profile":
            with open(files[0], encoding="ascii") as handle:
                lines = handle.read().splitlines()
            start = lines.index("y_m,velocity_m_s,residual_m_s") + 1
            rows = [tuple(map(float, line.split(",")[:2])) for line in lines[start:]]
            check_profile(rows)
            values["vprofile_rms_rel"] = float(report["rms_relative"])
        elif step == "render":
            if not _file(files[0]).startswith(b"P6"):
                raise CheckFailed("pixmap lacks its P6 header")
        elif step == "limits":
            if len(_file(files[0]).decode("ascii").splitlines()) != 2:
                raise CheckFailed("limits CSV is not one header and one row")
        elif step == "fit-seff":
            error = abs(float(report["effective_slit_width_m"]) - self.target)
            values["seff_err_nm"] = error * 1e9
            values["evaluations"] = int(report["evaluations"])
            if error > SEFF_TOLERANCE_M:
                raise CheckFailed(f"fitted s_eff misses the target by {error * 1e9:.3f} nm")
        return _digest(st[step], *[_file(f) for f in files])

    def extras(self, st: dict) -> dict:
        return {"useful_classes": self.useful,
                "evaluations": st.get("values", {}).get("evaluations", 0)}

    def probes(self, st: dict) -> list[dict]:
        """The simulate step's raw trace is the engine output for sinx at
        220 m/s on the 281-pixel grid, unnormalized and unblurred."""
        cfg = self.configure()["simulate"]
        trace, _ = ngio.read_trace_csv(os.path.join(self.workdir, "sim.raw.csv"))
        velocity = cfg.require("simulate.velocity_m_s")
        return [engine_probe("simulate raw trace", cfg, trace.positions, trace.intensities,
                             class_terms(cfg, [velocity], [1.0]), normalize=False, psf_sigma_px=0.0)]


WORKLOADS = {"image-beam": ImageBeam, "fit-seff": FitSeff, "cli-chain": CliChain}


def run_iteration(workload, tracer, reference: dict) -> tuple[dict, dict]:
    """Run every step once (timed), then check every output (untimed).
    A step that raises or fails its check, and every step after a raise,
    counts as failed. Returns the iteration's summary and its step state."""
    st: dict = {}
    errors: dict[str, str] = {}
    done: list[str] = []
    if tracer is not None:
        tracer.clear()
    start = time.perf_counter()
    for step in workload.steps:
        try:
            workload.run(step, st)
        except Exception:  # a failed operation is counted, not raised
            errors[step] = traceback.format_exc(limit=3).strip().splitlines()[-1]
            break
        done.append(step)
    wall = time.perf_counter() - start
    span_lists = []
    if tracer is not None:
        span_lists.append(list(tracer.spans))
        tracer.clear()
    for step in workload.steps:
        if step not in done:
            errors.setdefault(step, "not run: an earlier step failed")
            continue
        try:
            digest = workload.check(step, st)
        except Exception as exc:  # a failed check is counted, not raised
            errors[step] = f"check: {type(exc).__name__}: {exc}"
            continue
        if reference.setdefault(step, digest) != digest:
            errors[step] = "check: output bytes differ from the first iteration"
    return {
        "wall": wall, "attempted": len(workload.steps), "errors": errors,
        "values": st.get("values", {}), "extras": workload.extras(st),
        "cli": st.get("cli", []), "spans": span_lists,
    }, st


def _tail(values: list[float]) -> float:
    """Highest order statistic with at least ten samples above it (the
    maximum when there are fewer than eleven samples)."""
    ordered = sorted(values)
    return ordered[len(ordered) - 11] if len(ordered) > 10 else ordered[-1]


def _under(span_list: list, index: int, name: str) -> bool:
    parent = span_list[index][3]
    while parent >= 0:
        if span_list[parent][0] == name:
            return True
        parent = span_list[parent][3]
    return False


def layer_metrics(it: dict) -> dict[str, float]:
    """Per-layer numbers of one traced iteration."""
    in_process = len(it["spans"])
    span_lists = list(it["spans"]) + [c.get("spans", []) for c in it["cli"]]
    calls, total, own, counts = Counter(), defaultdict(float), defaultdict(float), defaultdict(Counter)
    durations: dict[str, list[float]] = defaultdict(list)
    top = 0.0
    patterns_in_synth = 0
    for list_index, span_list in enumerate(span_lists):
        span_list = [tuple(s) for s in span_list]
        for i, ((name, start, end, parent, cnt), self_s) in enumerate(
            zip(span_list, spans.self_times(span_list))
        ):
            calls[name] += 1
            total[name] += end - start
            own[name] += self_s
            counts[name].update(cnt)
            durations[name].append(end - start)
            if parent < 0 and list_index < in_process:
                top += end - start
            if name == "diffraction.pattern" and _under(span_list, i, "gravity.synth"):
                patterns_in_synth += 1
    extras = it["extras"]
    pattern_ms = [d * 1e3 for d in durations["diffraction.pattern"]]
    pixel_slits = counts["diffraction.pattern"]["pixel_slits"]
    evaluations = extras.get("evaluations", 0)
    m = {
        "diffraction.pattern.calls": calls["diffraction.pattern"],
        "diffraction.pattern.s": total["diffraction.pattern"],
        "diffraction.pattern.ms_p50": statistics.median(pattern_ms) if pattern_ms else 0.0,
        "diffraction.pattern.ms_tail": _tail(pattern_ms) if pattern_ms else 0.0,
        "diffraction.pattern.pixel_slits": pixel_slits,
        "diffraction.pattern.ns_per_pixel_slit":
            total["diffraction.pattern"] / pixel_slits * 1e9 if pixel_slits else 0.0,
        "diffraction.convolve.s": total["diffraction.convolve"],
        "vdwfit.band_trace.calls": calls["vdwfit.band_trace"],
        "vdwfit.band_trace.self_s": own["vdwfit.band_trace"],
        "vdwfit.fit.evaluations": evaluations,
        "vdwfit.fit.s_per_eval": total["vdwfit.fit"] / evaluations if evaluations else 0.0,
        "vdwfit.fit.self_s": own["vdwfit.fit"],
        "gravity.synth.self_s": own["gravity.synth"],
        "gravity.synth.useful_frac":
            extras.get("useful_classes", 0) / patterns_in_synth if patterns_in_synth else 0.0,
        "gravity.blur.s": total["gravity.blur"],
        "gravity.blur.calls": calls["gravity.blur"],
        "gravity.profile.s": total["gravity.profile"],
        "imaging.render.s": total["imaging.render"],
        "imaging.render.bytes": counts["imaging.render"]["bytes"],
        "io.write_image.s": total["io.write_image"],
        "io.read_image.s": total["io.read_image"],
        "io.pixmap.s": total["io.pixmap"],
        "io.trace_csv.s": total["io.trace_csv"],
        "io.bytes": sum(counts[n]["bytes"] for n in counts if n.startswith("io.")),
        "config.load_s": total["config.load"],
    }
    cli = it["cli"]
    m["cli.import_s"] = statistics.median(c["import_s"] for c in cli) if cli else 0.0
    for c in cli:
        for key, value in (("s", c["main_s"]), ("spawn_s", c["wall"] - c["main_s"])):
            name = f"cli.{c['argv0']}.{key}"
            m[name] = m.get(name, 0.0) + value
    # each CLI process is one top-level unit of the chain
    top += sum(c["wall"] for c in cli)
    m["trace.top_cover_frac"] = top / it["wall"]
    return m


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--result", required=True, help="JSON summary path")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload](args.seed, args.workdir)
    if args.setup_only:
        return 0
    workload.prepare()
    reference: dict[str, str] = {}
    iterations = []
    first_state = None
    tracer = spans.Tracer() if args.trace else None
    start = time.perf_counter()
    while True:
        # with tracing, untraced and traced iterations alternate, so that both
        # see the same stretch of the machine's load
        traced = tracer is not None and len(iterations) % 2 == 1
        workload.traced = traced
        if traced:
            tracer.install()
        try:
            it, st = run_iteration(workload, tracer if traced else None, reference)
        finally:
            if traced:
                tracer.uninstall()
        it["phase"] = "traced" if traced else "plain"
        iterations.append(it)
        if first_state is None and not it["errors"]:
            first_state = st
        # start another iteration only if it is predicted to end in time, but
        # a traced run always gets a traced and an untraced iteration after
        # the first, which runs slower (see NOTES.md, Stability)
        if (time.perf_counter() - start + it["wall"] > args.seconds
                and (tracer is None or len(iterations) >= 3)):
            break
    absent = []
    all_spans = []
    if tracer is not None:
        absent = sorted(set(tracer.absent))
        for it in iterations:
            for entry in it["cli"]:
                entry["argv0"] = workload.argv[entry["step"]][0]
                absent += [a for a in entry.get("absent", []) if a not in absent]
            if it["phase"] == "traced":
                it["layers"] = layer_metrics(it)
                all_spans.append(it["spans"] + [c.get("spans", []) for c in it["cli"]])
            it.pop("spans")
            for entry in it["cli"]:
                entry.pop("spans", None)
        with open(os.path.join(args.workdir, "spans.json"), "w", encoding="utf-8") as handle:
            json.dump(all_spans, handle)
    self_usage = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_usage = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    summary = {
        "workload": args.workload,
        "seed": args.seed,
        "numpy": np.__version__,
        "peak_rss_mb": max(self_usage, child_usage) / 1024.0,
        "iterations": iterations,
        "absent": absent,
        # probes come from a correct iteration; all iterations' outputs are
        # byte-identical when every check passes
        "probes": workload.probes(first_state) if first_state is not None else [],
    }
    with open(args.result, "w", encoding="utf-8") as handle:
        json.dump(summary, handle)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
