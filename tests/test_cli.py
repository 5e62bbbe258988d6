"""End-to-end tests of the command-line interface: exit codes, report echoes,
file outputs, and byte determinism."""

import io
import json
import os
import re
import subprocess
import sys
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nanograting
from nanograting import band_averaged_trace, vdwfit
from nanograting.cli import main
from nanograting.config import KNOWN_KEYS, load_run_config
from nanograting.gravity import Interferogram
from nanograting.io import (
    read_interferogram,
    read_trace_csv,
    write_interferogram,
    write_trace_csv,
)
from nanograting.diffraction import MAX_BLUR_TERMS, MAX_PIXEL_SLITS, DetectorGrid, Trace
from nanograting.gravity import MAX_IMAGE_PIXELS, MAX_VELOCITY_CLASSES

from configured import PSF_SIGMA


def run_cli(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_report(text):
    report = {}
    for line in text.splitlines():
        if " = " in line:
            key, _, value = line.partition(" = ")
            report[key.strip()] = value.strip()
    return report


SMALL_DETECTOR = (
    "--set", "detector.x_min_um=-40",
    "--set", "detector.x_max_um=40",
)


class TestSimulate:
    def test_single_velocity_echo_and_outputs(self, capsys, tmp_path):
        out = tmp_path / "trace.csv"
        code, stdout, _ = run_cli(
            capsys, "simulate",
            "--set", "grating.preset=sinx",
            "--set", "simulate.band=false",
            *SMALL_DETECTOR,
            "--out", str(out),
        )
        assert code == 0
        report = parse_report(stdout)
        assert report["grating"] == "sinx"
        assert report["wavelength_m"] == "3.5287519581467962e-12"
        assert report["n_slits"] == "52"
        assert report["first_order_position_m"] == "1.969379665373123e-05"
        assert report["L2_m"] == "0.586"
        raw_path = tmp_path / "trace.raw.csv"
        assert out.exists() and raw_path.exists()
        convolved, header = read_trace_csv(out)
        raw, _ = read_trace_csv(raw_path)
        assert header["grating"] == "sinx"
        assert convolved.intensities.sum() == pytest.approx(
            raw.intensities.sum(), rel=1e-9
        )

    def test_single_velocity_raw_csv_is_the_kirchhoff_pattern(self, capsys, tmp_path):
        # the one-class path gives the public engine's pattern bit for bit
        out = tmp_path / "trace.csv"
        overrides = ("--set", "simulate.band=false", "--set", "simulate.velocity_m_s=140",
                     *SMALL_DETECTOR)
        code, stdout, _ = run_cli(capsys, "simulate", "--preset", "bilayer", *overrides,
                                  "--out", str(out))
        assert code == 0
        raw, _ = read_trace_csv(tmp_path / "trace.raw.csv")
        config = load_run_config(preset="bilayer", overrides=overrides[1::2])
        grating, molecule, geometry = config.grating(), config.molecule(), config.geometry()
        wavelength = nanograting.de_broglie_wavelength(molecule, 140.0)
        n_slits = nanograting.coherence(
            config.source(), geometry, wavelength, grating.period,
            config.require("source.coherence_prefactor"),
        ).n_coherent_slits
        expected = nanograting.kirchhoff_pattern(
            grating, nanograting.wave_number(molecule, 140.0), geometry.L2, n_slits,
            config.detector_grid(),
        )
        assert parse_report(stdout)["n_slits"] == str(n_slits)
        assert np.array_equal(raw.positions, expected.positions)
        assert np.array_equal(raw.intensities, expected.intensities)

    def test_band_mode_reports_classes(self, capsys):
        code, stdout, _ = run_cli(
            capsys, "simulate",
            "--set", "grating.preset=sinx",
            *SMALL_DETECTOR,
        )
        assert code == 0
        report = parse_report(stdout)
        assert report["velocity_classes"] == "21"
        assert report["velocity_kind"] == "uniform-band"

    def test_band_raw_csv_is_the_band_trace_on_a_zero_psf_grid(self, capsys, tmp_path):
        out = tmp_path / "trace.csv"
        code, _, _ = run_cli(capsys, "simulate", "--preset", "sinx", *SMALL_DETECTOR,
                             "--out", str(out))
        assert code == 0
        raw, _ = read_trace_csv(tmp_path / "trace.raw.csv")
        config = load_run_config(preset="sinx", overrides=SMALL_DETECTOR[1::2])
        expected = band_averaged_trace(
            config.grating(), config.molecule(), config.velocity_distribution(),
            config.source(), config.geometry(),
            replace(config.detector_grid(), psf_sigma=0.0),
            coherence_prefactor=config.require("source.coherence_prefactor"),
        )
        assert np.array_equal(raw.positions, expected.positions)
        assert np.array_equal(raw.intensities, expected.intensities)

    def test_byte_determinism(self, capsys, tmp_path):
        paths = []
        for name in ("a", "b"):
            out = tmp_path / name / "trace.csv"
            out.parent.mkdir()
            code, _, _ = run_cli(
                capsys, "simulate",
                "--set", "grating.preset=slg",
                *SMALL_DETECTOR,
                "--set", "velocity.n_classes=3",
                "--out", str(out),
            )
            assert code == 0
            paths.append(out)
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_undersampled_detector_is_a_runtime_error(self, capsys):
        code, _, stderr = run_cli(
            capsys, "simulate",
            "--set", "grating.preset=sinx",
            "--set", "detector.pixel_pitch_um=15",
        )
        assert code == 3
        assert "error:" in stderr

    def test_runaway_slit_count_exits_2_before_allocating(self, capsys):
        # a 1 nm source makes ~78,000 coherent slits per class, several GB of
        # pixel x slit arrays; the budget refuses it first
        tracemalloc.start()
        try:
            code, _, stderr = run_cli(
                capsys, "simulate",
                "--set", "grating.preset=sinx",
                "--set", "source.width_um=0.001",
            )
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 2
        estimate = re.search(r"= (\S+) pixel x slit terms", stderr)
        assert estimate is not None, stderr
        assert float(estimate.group(1)) > MAX_PIXEL_SLITS
        assert peak < 32 * 2**20


class TestWorkBudgets:
    @pytest.mark.parametrize("args, estimate_pattern, budget", [
        # 4e11 image rows of 921 pixels: about 3 PB as float64
        (("synth-image", "--preset", "slg", "--set", "image.y_min_um=-1e12"),
         r"= (\S+) values", MAX_IMAGE_PIXELS),
        # 1e12 velocity classes: 8 TB for their velocities alone
        (("synth-image", "--preset", "slg", "--set", "velocity.n_classes=1000000000000"),
         r"error: (\d+) velocity classes", MAX_VELOCITY_CLASSES),
        # a 4-row image stretched to 4e12 pixmap rows
        (("render", "--set", "render.vertical_stretch=1e12"),
         r"= (\S+) pixels", MAX_IMAGE_PIXELS),
        # a 4,900 x 921 coarse scan blurred by 1401 taps: refused before any scan row
        (("fit-seff", "--preset", "sinx", "--set", "fit.target_s_eff_nm=15",
          "--set", "fit.coarse_step_nm=0.01", "--set", "detector.psf_sigma_um=70"),
         r"blurring 4512900 values with 1401 taps holds 1\.137e\+07 padded values and "
         r"takes (\S+) multiply-adds", MAX_BLUR_TERMS),
    ], ids=["image-rows", "velocity-classes", "render-stretch", "fit-seff-blur"])
    def test_runaway_size_exits_2_before_allocating(
        self, capsys, tmp_path, args, estimate_pattern, budget
    ):
        image_path = tmp_path / "img.f64"
        write_interferogram(image_path, Interferogram(np.ones((4, 3)), 1e-6, 2e-6, 0.0, 0.0))
        tracemalloc.start()
        try:
            code, _, stderr = run_cli(
                capsys, *args,
                "--set", f"render.image_path={image_path}",
                "--out", str(tmp_path / "out"),
            )
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 2
        estimate = re.search(estimate_pattern, stderr)
        assert estimate is not None, stderr
        assert float(estimate.group(1)) > budget
        assert peak < 32 * 2**20


class TestSynthImageAndRender:
    SYNTH_ARGS = (
        "--set", "grating.preset=sinx",
        "--set", "velocity.kind=discrete",
        "--set", "velocity.list_m_s=180,220",
        "--set", "image.y_min_um=-180",
        "--set", "image.y_max_um=-60",
        *SMALL_DETECTOR,
    )

    def _synthesize(self, capsys, tmp_path):
        out = tmp_path / "img.f64"
        code, stdout, _ = run_cli(
            capsys, "synth-image", *self.SYNTH_ARGS, "--out", str(out)
        )
        return code, stdout, out

    def test_discrete_synthesis_with_clipping(self, capsys, tmp_path):
        code, stdout, out = self._synthesize(capsys, tmp_path)
        assert code == 0
        report = parse_report(stdout)
        # the 180 m/s class falls past the bottom edge of the image
        assert report["clipped_classes"] == "1"
        assert report["clipped_weight"] == "0.5"
        assert float(report["total_signal"]) == pytest.approx(0.5, rel=1e-9)
        sidecar = tmp_path / "img.f64.json"
        pixmap = tmp_path / "img.f64.ppm"
        assert out.exists() and sidecar.exists() and pixmap.exists()
        image = read_interferogram(out)
        assert image.total == pytest.approx(0.5, rel=1e-9)
        assert pixmap.read_bytes().startswith(b"P6\n")

    def test_render_from_file(self, capsys, tmp_path):
        _, _, image_path = self._synthesize(capsys, tmp_path)
        out = tmp_path / "render.ppm"
        code, stdout, _ = run_cli(
            capsys, "render",
            "--set", f"render.image_path={image_path}",
            "--set", "render.vertical_stretch=2.0",
            "--out", str(out),
        )
        assert code == 0
        data = out.read_bytes()
        assert data.startswith(b"P6\n")
        image = read_interferogram(image_path)
        width, height = data.split(b"\n")[1].split()
        assert int(width) == image.nx
        assert int(height) == round(2.0 * image.ny)

    def test_render_requires_image_path(self, capsys):
        code, _, stderr = run_cli(capsys, "render")
        assert code == 2
        assert "error:" in stderr

    def test_render_missing_file_is_config_error(self, capsys, tmp_path):
        code, _, _ = run_cli(
            capsys, "render",
            "--set", f"render.image_path={tmp_path / 'absent.f64'}",
        )
        assert code == 2

    @pytest.mark.parametrize("command, key", [
        ("render", "render.image_path"),
        ("fit-velocity", "profile.image_path"),
    ])
    def test_sidecar_missing_key_exits_2(self, capsys, tmp_path, command, key):
        image_path = tmp_path / "img.f64"
        write_interferogram(image_path, Interferogram(np.ones((4, 3)), 1e-6, 2e-6, 0.0, 0.0))
        sidecar = tmp_path / "img.f64.json"
        meta = json.loads(sidecar.read_text())
        del meta["ny"]
        sidecar.write_text(json.dumps(meta))
        code, _, stderr = run_cli(
            capsys, command, "--preset", "sinx", "--set", f"{key}={image_path}"
        )
        assert code == 2
        assert "'ny'" in stderr

    def test_byte_determinism(self, capsys, tmp_path):
        blobs = []
        for name in ("a", "b"):
            out = tmp_path / name / "img.f64"
            out.parent.mkdir()
            code, _, _ = run_cli(
                capsys, "synth-image", *self.SYNTH_ARGS, "--out", str(out)
            )
            assert code == 0
            blobs.append(
                out.read_bytes()
                + (out.parent / "img.f64.json").read_bytes()
                + (out.parent / "img.f64.ppm").read_bytes()
            )
        assert blobs[0] == blobs[1]


FIT_ARGS = (
    "--set", "grating.preset=sinx",
    "--set", "fit.target_s_eff_nm=20",
    "--set", "fit.noise_fraction=0.01",
    "--set", "velocity.n_classes=3",
    "--set", "fit.coarse_step_nm=2",
    *SMALL_DETECTOR,
)


class TestFitSeff:
    def test_noisy_self_target_recovery(self, capsys, tmp_path):
        out = tmp_path / "fit.txt"
        code, stdout, _ = run_cli(
            capsys, "fit-seff", *FIT_ARGS, "--seed", "7", "--out", str(out)
        )
        assert code == 0
        report = parse_report(stdout)
        assert report["grating"] == "sinx"
        assert report["target_effective_slit_width_m"] == "2e-08"
        assert report["noise_fraction"] == "0.01"
        assert report["seed"] == "7"
        assert report["effective_slit_width_m"] == "2.0355544254750526e-08"
        assert report["evaluations"] == "36"
        assert float(report["suppression_ratio"]) == pytest.approx(
            50e-9 / 2.0355544254750526e-08, rel=1e-9
        )
        assert float(report["bracket_lo_m"]) <= 2.0355544254750526e-08
        assert float(report["bracket_hi_m"]) >= 2.0355544254750526e-08
        assert out.exists()
        bestfit = tmp_path / "fit.bestfit.csv"
        assert bestfit.exists()
        trace, header = read_trace_csv(bestfit)
        assert header["effective_slit_width_m"] == "2.0355544254750526e-08"
        assert len(trace) == 161

    def test_csv_fit_writes_the_fitted_model_on_the_measured_positions(self, capsys, tmp_path):
        # the measured trace has 161 pixels, the configured detector 921
        measured_csv = tmp_path / "sim.csv"
        code, _, _ = run_cli(
            capsys, "simulate", "--preset", "sinx", "--set", "simulate.band=false",
            *SMALL_DETECTOR, "--out", str(measured_csv),
        )
        assert code == 0
        code, stdout, _ = run_cli(
            capsys, "fit-seff", "--preset", "sinx", "--set", f"fit.measured_csv={measured_csv}",
            "--set", "velocity.kind=discrete", "--set", "velocity.list_m_s=220",
            "--out", str(tmp_path / "fit.txt"),
        )
        assert code == 0
        bestfit_csv = tmp_path / "fit.bestfit.csv"

        def position_column(path):
            lines = path.read_text().splitlines()
            return [line.split(",")[0] for line in lines[lines.index("position_m,intensity") + 1 :]]

        assert len(position_column(measured_csv)) == 161
        assert position_column(bestfit_csv) == position_column(measured_csv)
        measured, _ = read_trace_csv(measured_csv)
        best, _ = read_trace_csv(bestfit_csv)
        # the measured zeroth order sits on the pixel at x = 0, the model's: no shift
        assert measured.positions[np.argmax(measured.intensities)] == 0.0
        residual = float(vdwfit._registered_rms(measured.intensities, best.intensities, 0))
        assert residual == float(parse_report(stdout)["residual_rms"])

    def test_both_sources_rejected(self, capsys, tmp_path):
        csv = tmp_path / "m.csv"
        csv.write_text("position_m,intensity\n")
        code, _, _ = run_cli(
            capsys, "fit-seff",
            "--set", "grating.preset=sinx",
            "--set", f"fit.measured_csv={csv}",
            "--set", "fit.target_s_eff_nm=20",
        )
        assert code == 2

    def test_no_source_rejected(self, capsys):
        code, _, _ = run_cli(
            capsys, "fit-seff", "--set", "grating.preset=sinx"
        )
        assert code == 2

    def test_missing_csv_is_config_error(self, capsys, tmp_path):
        code, _, _ = run_cli(
            capsys, "fit-seff",
            "--set", "grating.preset=sinx",
            "--set", f"fit.measured_csv={tmp_path / 'absent.csv'}",
        )
        assert code == 2

    def test_flat_trace_is_runtime_error(self, capsys, tmp_path):
        grid = DetectorGrid(-40e-6, 40e-6, 0.5e-6, PSF_SIGMA)
        flat = Trace(grid.positions, np.ones(grid.n_pixels))
        csv = tmp_path / "flat.csv"
        write_trace_csv(csv, flat, {})
        code, _, stderr = run_cli(
            capsys, "fit-seff",
            "--set", "grating.preset=sinx",
            "--set", f"fit.measured_csv={csv}",
        )
        assert code == 3
        assert "error:" in stderr


    @pytest.mark.parametrize("setting, expected", [
        ("fit.tolerance_nm=0", 3),
        ("fit.tolerance_nm=-0.1", 3),
        ("fit.tolerance_nm=1e-16", 3),
        ("fit.coarse_step_nm=0", 3),
        ("fit.coarse_step_nm=-1", 3),
        ("fit.coarse_step_nm=0.0001", 2),
        ("fit.noise_fraction=-0.5", 2),
    ])
    def test_bad_fit_settings_exit_with_a_message(self, capsys, setting, expected):
        code, _, stderr = run_cli(capsys, "fit-seff", *FIT_ARGS, "--set", setting)
        assert code == expected
        assert stderr.startswith("error:")

    def test_discrete_list_over_the_class_budget_exits_2_before_any_terms(
        self, capsys, monkeypatch
    ):
        def no_terms(*args, **kwargs):
            raise AssertionError("class terms built")

        monkeypatch.setattr(vdwfit, "_class_terms", no_terms)
        velocities = ",".join(["220"] * (MAX_VELOCITY_CLASSES + 1))
        code, _, stderr = run_cli(
            capsys, "fit-seff", *FIT_ARGS,
            "--set", "velocity.kind=discrete", "--set", f"velocity.list_m_s={velocities}",
        )
        assert code == 2
        assert f"error: {MAX_VELOCITY_CLASSES + 1} velocity classes" in stderr


def _flawed_input(tmp_path, flaw):
    """An interferogram or trace file with one bad value, for a CLI that reads it."""
    if flaw in ("nan-trace", "negative-trace"):
        path = tmp_path / "m.csv"
        bad = "nan" if flaw == "nan-trace" else "-1.0"
        path.write_text(f"position_m,intensity\n0.0,1.0\n1e-06,{bad}\n2e-06,1.0\n")
        return path
    path = tmp_path / "img.f64"
    write_interferogram(path, Interferogram(np.ones((4, 3)), 1e-6, 2e-6, 0.0, 0.0))
    if flaw == "orientation":
        sidecar = tmp_path / "img.f64.json"
        sidecar.write_text(json.dumps(dict(json.loads(sidecar.read_text()), orientation="down")))
    else:
        values = np.ones(12)
        values[5] = np.nan if flaw == "nan-image" else -1.0
        path.write_bytes(values.astype("<f8").tobytes())
    return path


@pytest.mark.parametrize("command, key, flaw", [
    ("render", "render.image_path", "nan-image"),
    ("render", "render.image_path", "negative-image"),
    ("render", "render.image_path", "orientation"),
    ("fit-velocity", "profile.image_path", "nan-image"),
    ("fit-velocity", "profile.image_path", "negative-image"),
    ("fit-velocity", "profile.image_path", "orientation"),
    ("fit-seff", "fit.measured_csv", "nan-trace"),
    ("fit-seff", "fit.measured_csv", "negative-trace"),
])
def test_bad_values_in_input_files_exit_2(capsys, tmp_path, command, key, flaw):
    path = _flawed_input(tmp_path, flaw)
    code, _, stderr = run_cli(capsys, command, "--preset", "sinx", "--set", f"{key}={path}")
    assert code == 2
    assert stderr.startswith("error:") and str(path) in stderr


@pytest.mark.parametrize(
    "args, outputs",
    [
        # a 50-70 m/s band: up to 229 slits per class on the 921-pixel grid
        (
            ("simulate", "--preset", "sinx", "--set", "velocity.center_m_s=60",
             "--out", "trace.csv"),
            ("trace.csv", "trace.raw.csv"),
        ),
        (("fit-seff", *FIT_ARGS, "--seed", "7", "--out", "fit.txt"), ("fit.txt", "fit.bestfit.csv")),
        # 21 classes on the 921-pixel grid, each pattern's slit sum an FFT
        (
            ("synth-image", "--preset", "sinx", "--out", "image.npy"),
            ("image.npy", "image.npy.json", "image.npy.ppm"),
        ),
    ],
    ids=["simulate", "fit-seff", "synth-image"],
)
def test_fresh_processes_write_identical_bytes(tmp_path, args, outputs):
    # the slit terms contract slits onto envelope nodes; a threaded BLAS
    # product would change its summation order with the thread count, and
    # the slit sum runs on numpy's single-threaded FFT
    src = os.path.dirname(os.path.dirname(os.path.abspath(nanograting.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    single = dict(env, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    blobs = []
    for name, run_env in (("a", single), ("b", env)):
        workdir = tmp_path / name
        workdir.mkdir()
        proc = subprocess.run(
            [sys.executable, "-m", "nanograting", *args],
            cwd=workdir, env=run_env, capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        blobs.append([(workdir / out).read_bytes() for out in outputs])
    assert blobs[0] == blobs[1]


ENGINE_MODULES = ("numpy", "nanograting.diffraction", "nanograting.gravity",
                  "nanograting.imaging", "nanograting.vdwfit")


def test_limits_and_the_fall_height_fit_load_neither_numpy_nor_the_engine():
    # each command imports what it runs: these two need only math, so a
    # fresh process runs them without paying numpy's start-up
    script = f"""
import json, sys
engine = {ENGINE_MODULES!r}
import nanograting.cli
bare = [name for name in engine if name in sys.modules]
codes = [nanograting.cli.main(["limits", "--preset", "slg"]),
         nanograting.cli.main(["fit-velocity", "--set", "fit.y2_um=-127.1"])]
print(json.dumps([bare, codes, [name for name in engine if name in sys.modules]]))
"""
    src = os.path.dirname(os.path.dirname(os.path.abspath(nanograting.__file__)))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == 0, proc.stderr
    assert "velocity_m_s" in proc.stdout and "min_coherent_slit_m" in proc.stdout
    assert json.loads(proc.stdout.splitlines()[-1]) == [[], [0, 0], []]


class TestFitVelocity:
    def test_fall_height_inversion(self, capsys):
        code, stdout, _ = run_cli(
            capsys, "fit-velocity",
            "--set", "grating.preset=sinx",
            "--set", "fit.y2_um=-127.1",
        )
        assert code == 0
        report = parse_report(stdout)
        assert report["velocity_m_s"] == "219.98973940739114"
        assert report["y2_m"] == "-0.0001271"
        assert "wavelength_m" in report

    def test_fall_height_report_file_equals_the_echo(self, capsys, tmp_path):
        out = tmp_path / "f.txt"
        code, stdout, _ = run_cli(
            capsys, "fit-velocity", "--set", "fit.y2_um=-127.1", "--out", str(out)
        )
        assert code == 0
        assert out.read_text() == stdout

    def test_detection_above_line_is_runtime_error(self, capsys):
        code, _, _ = run_cli(
            capsys, "fit-velocity",
            "--set", "grating.preset=sinx",
            "--set", "fit.y2_um=10",
        )
        assert code == 3

    def test_profile_mode_on_synthesized_image(self, capsys, tmp_path):
        image_path = tmp_path / "img.f64"
        code, _, _ = run_cli(
            capsys, "synth-image",
            "--set", "grating.preset=sinx",
            "--set", "velocity.kind=uniform-band",
            "--set", "velocity.center_m_s=220",
            "--set", "velocity.half_width_m_s=30",
            "--set", "velocity.n_classes=5",
            "--set", "image.y_min_um=-180",
            "--set", "image.y_max_um=-60",
            *SMALL_DETECTOR,
            "--out", str(image_path),
        )
        assert code == 0
        out = tmp_path / "profile.csv"
        code, stdout, _ = run_cli(
            capsys, "fit-velocity",
            "--set", "grating.preset=sinx",
            "--set", f"profile.image_path={image_path}",
            "--out", str(out),
        )
        assert code == 0
        report = parse_report(stdout)
        assert int(report["stripes_used"]) >= 1
        assert "y_m,velocity_m_s,residual_m_s" in stdout
        assert out.read_text() == stdout

    def test_no_source_rejected(self, capsys):
        code, _, _ = run_cli(
            capsys, "fit-velocity", "--set", "grating.preset=sinx"
        )
        assert code == 2


class TestLimits:
    def test_scroll_thermal_sigma(self, capsys):
        code, stdout, _ = run_cli(
            capsys, "limits", "--set", "grating.preset=scroll"
        )
        assert code == 0
        report = parse_report(stdout)
        assert report["position_sigma_source"] == "thermal"
        assert report["position_sigma_m"] == "5.05820490302688e-10"
        assert report["min_coherent_slit_m"] == "5.657131693477598e-09"
        assert report["margin"] == "8.661633254268175"
        assert report["momentum_transfer_hk"] == "159.59475000000003"
        assert report["coherent"] == "true"

    def test_slg_vibration_note_and_adsorption(self, capsys):
        code, stdout, _ = run_cli(
            capsys, "limits",
            "--set", "grating.preset=slg",
            "--set", "limits.molecule_count=30000",
            "--set", "limits.open_area_um2=49",
        )
        assert code == 0
        report = parse_report(stdout)
        assert report["position_sigma_source"] == "preset-vibration-note"
        assert report["position_sigma_m"] == "1e-10"
        assert report["margin"] == "31.29451128211425"
        assert report["momentum_transfer_hk"] == "139.05285148514852"
        assert report["adsorbed_per_cm2"] == "61224489795.91838"
        assert float(report["coverage_fraction"]) == pytest.approx(
            0.0010408163265306124, rel=1e-12
        )

    @pytest.mark.parametrize("preset, sigma", [
        ("sinx", "6.477809385546572e-12"),
        ("bilayer", "6.566482773353498e-12"),
        ("biphenyl", "6.942582206965178e-12"),
    ])
    def test_thermal_sigma_reads_the_preset_bar(self, capsys, preset, sigma):
        code, stdout, _ = run_cli(capsys, "limits", "--preset", preset)
        assert code == 0
        report = parse_report(stdout)
        assert report["position_sigma_source"] == "thermal"
        assert report["position_sigma_m"] == sigma

    def test_custom_grating_thermal_sigma_needs_the_beam_keys(self, capsys):
        custom = (
            "--set", "grating.period_nm=100",
            "--set", "grating.slit_width_nm=50",
            "--set", "grating.effective_slit_width_nm=30",
        )
        code, _, stderr = run_cli(capsys, "limits", *custom)
        assert code == 2
        assert "limits.beam_length_nm" in stderr
        code, stdout, _ = run_cli(
            capsys, "limits", *custom,
            "--set", "limits.beam_length_nm=1000", "--set", "limits.beam_diameter_nm=50",
        )
        assert code == 0
        assert parse_report(stdout)["position_sigma_source"] == "thermal"

    @pytest.mark.parametrize("key, value", [
        # a zero position sigma, configured or thermal, once reported margin = inf
        ("limits.sigma_nm", "0"),
        ("limits.sigma_nm", "-0"),
        ("limits.temperature_K", "0"),
        ("limits.temperature_K", "-0"),
        ("limits.temperature_K", "1e-300"),
        ("limits.beam_length_nm", "1e-300"),
        # a sigma so small that s / sigma overflows
        ("limits.sigma_nm", "1e-314"),
        # the thermal amplitude once raised OverflowError or ZeroDivisionError
        ("limits.beam_length_nm", "1e300"),
        ("limits.beam_diameter_nm", "1e-300"),
        ("limits.beam_diameter_nm", "1e300"),
    ])
    def test_a_sigma_that_is_not_finite_and_positive_exits_with_a_message(
        self, capsys, key, value
    ):
        code, stdout, stderr = run_cli(
            capsys, "limits", "--preset", "sinx", "--set", f"{key}={value}"
        )
        assert code in (2, 3)
        assert "error:" in stderr
        assert "Traceback" not in stderr
        assert "inf" not in stdout

    def test_overridden_preset_geometry_needs_the_beam_diameter(self, capsys):
        # the overridden bars are 35 nm wide, not the table's 55 nm
        override = ("--preset", "sinx", "--set", "grating.slit_width_nm=70")
        code, stdout, stderr = run_cli(capsys, "limits", *override)
        assert code == 2
        assert "limits.beam_diameter_nm" in stderr
        assert stdout == ""
        code, stdout, _ = run_cli(
            capsys, "limits", *override, "--set", "limits.beam_diameter_nm=35"
        )
        assert code == 0
        report = parse_report(stdout)
        assert report["position_sigma_source"] == "thermal"
        assert report["position_sigma_m"] != "6.477809385546572e-12"

    def test_preset_geometry_given_again_keeps_the_table_bar(self, capsys):
        # 50 nm read from a key is 5.0000000000000004e-08 m, one bit off the table
        code, stdout, _ = run_cli(
            capsys, "limits", "--preset", "sinx",
            "--set", "grating.period_nm=105", "--set", "grating.slit_width_nm=50",
        )
        assert code == 0
        assert parse_report(stdout)["position_sigma_m"] == "6.477809385546572e-12"

    def test_configured_sigma_overrides(self, capsys):
        code, stdout, _ = run_cli(
            capsys, "limits",
            "--set", "grating.preset=slg",
            "--set", "limits.sigma_nm=0.2",
        )
        assert code == 0
        report = parse_report(stdout)
        assert report["position_sigma_source"] == "configured"
        assert report["margin"] == "15.647255641057123"

    def test_csv_output(self, capsys, tmp_path):
        out = tmp_path / "limits.csv"
        code, _, _ = run_cli(
            capsys, "limits", "--set", "grating.preset=scroll", "--out", str(out)
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 2
        header = lines[0].split(",")
        assert header[0] == "grating"
        row = dict(zip(header, lines[1].split(",")))
        assert row["coherent"] == "true"
        assert row["position_sigma_m"] == "5.05820490302688e-10"

    def test_text_output_equals_the_echo(self, capsys, tmp_path):
        out = tmp_path / "report.txt"
        code, stdout, _ = run_cli(
            capsys, "limits", "--preset", "scroll", "--out", str(out)
        )
        assert code == 0
        assert parse_report(stdout)["position_sigma_source"] == "thermal"
        assert out.read_text() == stdout


class TestErrorHandling:
    def test_unknown_key_exits_2(self, capsys):
        code, _, stderr = run_cli(
            capsys, "simulate", "--set", "grating.banana=1"
        )
        assert code == 2
        assert "error:" in stderr

    @pytest.mark.parametrize("key", [
        "molecule.mass_kg",
        "source.most_probable_velocity_m_s",
        "grating.ribbon_width_nm",
        "grating.layers",
        "grating.areal_density_kg_m2",
        "simulate.n_slits",
        "simulate.n_max",
        "limits.lambda_ref_nm",
        "grating.bar_length_nm",
        "grating.bar_width_nm",
        "simulate.window",
        "molecule.preset",
    ])
    def test_removed_key_exits_2(self, capsys, key):
        # aliases of another key, or keys that reached no output
        code, _, stderr = run_cli(capsys, "simulate", "--preset", "sinx", "--set", f"{key}=1")
        assert code == 2
        assert stderr == f"error: unknown configuration key {key!r}\n"

    def test_molecule_preset_is_refused_by_a_command_that_reads_no_molecule(self, capsys):
        # limits builds no molecule, so it once printed a full report for this key
        code, stdout, stderr = run_cli(
            capsys, "limits", "--preset", "sinx", "--set", "molecule.preset=0"
        )
        assert (code, stdout) == (2, "")
        assert stderr == "error: unknown configuration key 'molecule.preset'\n"

    @pytest.mark.parametrize("args, fragment", [
        # m v underflows to 0: h / (m v) once raised ZeroDivisionError
        (("simulate", "--set", "simulate.band=false", "--set", "simulate.velocity_m_s=1e-300"),
         "momentum"),
        # k = 2 pi / lambda overflows to inf: the chirp once raised OverflowError
        (("simulate", "--set", "simulate.band=false", "--set", "simulate.velocity_m_s=1e300"),
         "wave number"),
        (("simulate", "--set", "molecule.mass_u=1e300"), "wave number"),
        (("simulate", "--set", "simulate.band=false", "--set", "molecule.mass_u=1e300"),
         "wave number"),
        (("synth-image", "--set", "molecule.mass_u=1e300"), "wave number"),
        (("fit-seff", "--set", "fit.target_s_eff_nm=12", "--set", "molecule.mass_u=1e300"),
         "wave number"),
        (("simulate", "--set", "velocity.center_m_s=1e300"), "wave number"),
        (("fit-seff", "--set", "fit.target_s_eff_nm=12", "--set", "velocity.center_m_s=1e300"),
         "wave number"),
        # grid-sized arrays once came before the pixel x slit budget check
        (("simulate", "--set", "detector.x_max_um=1e300"), "2.000e+300 pixels x"),
        (("simulate", "--set", "detector.pixel_pitch_um=1e-300"), "pixel x slit terms exceeds"),
        (("fit-seff", "--set", "fit.target_s_eff_nm=12", "--set", "detector.x_max_um=1e300"),
         "pixel x slit terms exceeds"),
        (("fit-seff", "--set", "fit.target_s_eff_nm=12",
          "--set", "detector.pixel_pitch_um=1e-300"), "pixel x slit terms exceeds"),
        # 2 n lambda_ref / d overflows to inf, or n is past the float range
        (("limits", "--set", "limits.max_order=1" + "0" * 308), "momentum transfer"),
        (("limits", "--set", "limits.max_order=1" + "0" * 400), "momentum transfer"),
        # span / pitch overflows: the pixel count once raised OverflowError
        (("simulate", "--set", "detector.x_max_um=1e300", "--set", "detector.pixel_pitch_um=1e-300"),
         "a span of 1e+294 m at a pitch of 1e-306 m"),
        (("synth-image", "--set", "detector.x_max_um=1e300",
          "--set", "detector.pixel_pitch_um=1e-300"), "a span of 1e+294 m at a pitch of 1e-306 m"),
        (("synth-image", "--set", "image.y_max_um=1e300", "--set", "image.pixel_pitch_y_um=1e-300"),
         "a span of 1e+294 m at a pitch of 1e-306 m"),
        # a 301-digit pixel count was once printed in full
        (("synth-image", "--set", "detector.x_max_um=1e300"), "x 2.000e+300 image pixels"),
        # products past the float range: :.3e once raised OverflowError on the int
        (("simulate", "--set", "detector.x_max_um=1e300", "--set", "source.width_um=1e-300"),
         "= inf pixel x slit terms"),
        (("synth-image", "--set", "detector.x_max_um=1e300", "--set", "image.y_max_um=1e300"),
         "= inf values"),
        # L**2 once raised OverflowError
        (("fit-velocity", "--set", "fit.y2_um=-127", "--set", "geometry.L2_m=1e300"),
         "free-fall coefficient"),
        (("synth-image", "--set", "geometry.L2_m=1e300"), "free-fall coefficient"),
        # numpy once raised ValueError for a kernel of 2e301 taps
        (("simulate", "--set", "detector.psf_sigma_um=1e300"), "taps, more than the budget"),
        (("fit-seff", "--set", "fit.target_s_eff_nm=12", "--set", "detector.psf_sigma_um=1e300"),
         "taps, more than the budget"),
        (("synth-image", "--set", "detector.psf_sigma_um=1e300"), "taps, more than the budget"),
    ], ids=[
        "velocity-1e-300", "velocity-1e300", "mass-band", "mass-single", "mass-synth-image",
        "mass-fit-seff", "center-band", "center-fit-seff", "x-max-band", "pitch-band",
        "x-max-fit-seff", "pitch-fit-seff", "max-order-1e308", "max-order-1e400",
        "pixel-count-simulate", "pixel-count-synth-image", "row-count-synth-image",
        "x-max-synth-image", "slit-product-overflow", "image-product-overflow", "L2-fall-height",
        "L2-synth-image", "psf-simulate", "psf-fit-seff", "psf-synth-image",
    ])
    def test_out_of_range_values_exit_with_a_message(self, capsys, tmp_path, args, fragment):
        command, *overrides = args
        code, stdout, stderr = run_cli(
            capsys, command, "--preset", "sinx", *overrides, "--out", str(tmp_path / "out")
        )
        assert code in (2, 3)
        assert stderr.startswith("error:") and fragment in stderr
        assert "Traceback" not in stderr
        assert "inf" not in stdout

    @pytest.mark.parametrize("args", [
        # once asked for 7.30 GiB (target-mode fit-seff) and 3.13 GiB (synth-image)
        ("fit-seff", "--set", "fit.target_s_eff_nm=12"),
        ("synth-image",),
    ], ids=["fit-seff", "synth-image"])
    def test_a_1_m_psf_exits_2_on_the_tap_budget(self, capsys, tmp_path, args):
        command, *overrides = args
        code, _, stderr = run_cli(
            capsys, command, "--preset", "sinx", *overrides,
            "--set", "detector.psf_sigma_um=1e6", "--out", str(tmp_path / "out"),
        )
        assert code == 2
        assert stderr.startswith("error:") and "taps, more than the budget" in stderr
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("command, overrides, fragment", [
        # the first-order wavelength once underflowed: ZeroDivisionError
        ("fit-velocity", ("geometry.L2_m=1e300",), "free-fall coefficient"),
        # v^2 underflowed and the profile printed intercept_m = inf
        ("fit-velocity", ("molecule.mass_u=1e300",), "fall term A / v^2 overflows"),
        ("fit-velocity", ("grating.period_nm=1e300",), "fall term A / v^2 overflows"),
        ("render", ("render.vertical_stretch=1e300",), "4.900e+301 x 1.610e+02 pixmap"),
        # stretch x rows overflowed to inf: int() once raised OverflowError
        ("render", ("render.vertical_stretch=1e308",), "inf x 1.610e+02 pixmap = inf pixels"),
        # m lambda underflowed to 0: h / (m lambda) once raised ZeroDivisionError
        ("fit-velocity", ("grating.period_nm=1e-300", "grating.slit_width_nm=1e-301",
                          "grating.effective_slit_width_nm=1e-302"),
         "stripe momentum m lambda = 0.0 kg m"),
    ], ids=["L2-profile", "mass-profile", "period-profile", "stretch-render",
            "stretch-overflow-render", "momentum-underflow-profile"])
    def test_out_of_range_values_on_an_image_exit_with_a_message(
        self, capsys, tmp_path, command, overrides, fragment
    ):
        image_path = tmp_path / "img.f64"
        code, _, _ = run_cli(
            capsys, "synth-image", "--preset", "sinx", "--set", "velocity.n_classes=5",
            "--set", "velocity.half_width_m_s=30", "--set", "image.y_min_um=-180",
            "--set", "image.y_max_um=-60", *SMALL_DETECTOR, "--out", str(image_path),
        )
        assert code == 0
        code, stdout, stderr = run_cli(
            capsys, command, "--preset", "sinx", "--set", f"profile.image_path={image_path}",
            "--set", f"render.image_path={image_path}",
            *(arg for override in overrides for arg in ("--set", override)),
            "--out", str(tmp_path / "out"),
        )
        assert code in (2, 3)
        assert stderr.startswith("error:") and fragment in stderr
        assert "Traceback" not in stderr
        assert "inf" not in stdout

    @pytest.mark.parametrize("case", [
        "non-ascii-trace", "non-ascii-sidecar", "non-utf8-config", "directory-config",
        "directory-trace", "directory-image", "out-in-missing-directory",
        "csv-out-in-missing-directory", "missing-config", "missing-trace", "missing-image",
        "missing-sidecar",
    ])
    def test_unreadable_input_or_unwritable_output_exits_2(self, tmp_path, case):
        trace_csv = tmp_path / "trace.csv"
        write_trace_csv(trace_csv, Trace(np.arange(4.0) * 1e-6, np.ones(4)), {"grating": "sinx"})
        image = tmp_path / "image.f64"
        write_interferogram(image, Interferogram(np.ones((2, 3)), 1e-6, 1e-6, 0.0, 0.0))
        config = tmp_path / "run.cfg"
        config.write_bytes(b"# \xff\ngrating.preset = sinx\n")
        folder = tmp_path / "folder"
        folder.mkdir()
        missing = tmp_path / "missing"
        path, args = {
            "non-ascii-trace": (trace_csv, ("fit-seff", "--preset", "sinx",
                                            "--set", f"fit.measured_csv={trace_csv}")),
            "non-ascii-sidecar": (tmp_path / "image.f64.json",
                                  ("render", "--set", f"render.image_path={image}")),
            "non-utf8-config": (config, ("limits", "--config", str(config))),
            "directory-config": (folder, ("limits", "--config", str(folder))),
            "directory-trace": (folder, ("fit-seff", "--preset", "sinx",
                                         "--set", f"fit.measured_csv={folder}")),
            "directory-image": (image, ("render", "--set", f"render.image_path={image}")),
            "out-in-missing-directory": (missing / "trace.csv", (
                "simulate", "--preset", "sinx", *SMALL_DETECTOR,
                "--set", "simulate.band=false", "--out", str(missing / "trace.csv"))),
            "csv-out-in-missing-directory": (missing / "limits.csv", (
                "limits", "--preset", "slg", "--out", str(missing / "limits.csv"))),
            "missing-config": (missing / "run.cfg", ("limits", "--config", str(missing / "run.cfg"))),
            "missing-trace": (missing / "trace.csv", (
                "fit-seff", "--preset", "sinx", "--set", f"fit.measured_csv={missing / 'trace.csv'}")),
            "missing-image": (image, ("render", "--set", f"render.image_path={image}")),
            "missing-sidecar": (tmp_path / "image.f64.json",
                                ("render", "--set", f"render.image_path={image}")),
        }[case]
        if case.startswith("non-ascii"):
            data = path.read_bytes()
            path.write_bytes(data[:3] + b"\xe9" + data[4:])
        if case == "directory-image":
            image.unlink()
            image.mkdir()
        if case in ("missing-image", "missing-sidecar"):
            path.unlink()
        src = os.path.dirname(os.path.dirname(os.path.abspath(nanograting.__file__)))
        proc = subprocess.run(
            [sys.executable, "-m", "nanograting", *args],
            capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src),
        )
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.startswith("error:") and str(path) in proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("args", [
        ("simulate", "--preset", "slg", "--set", "grating.period_nm=120",
         "--set", "simulate.band=false", *SMALL_DETECTOR),
        ("fit-seff", "--preset", "sinx", "--set", "grating.slit_width_nm=70",
         "--set", "fit.target_s_eff_nm=15", *SMALL_DETECTOR),
    ])
    def test_preset_geometry_overrides_run(self, capsys, args):
        # the bars tile no part of the diffraction mask, so a period or slit
        # override needs no matching bar width
        code, _, stderr = run_cli(capsys, *args)
        assert code == 0, stderr

    @pytest.mark.parametrize("setting", [
        "limits.youngs_modulus_GPa=1e300",
        "velocity.list_m_s=nan",
        "velocity.list_m_s=inf,220",
    ])
    def test_values_not_finite_in_si_units_exit_2(self, capsys, setting):
        key = setting.partition("=")[0]
        code, _, stderr = run_cli(
            capsys, "limits", "--preset", "scroll", "--set", setting
        )
        assert code == 2
        assert stderr.startswith("error:") and key in stderr

    def test_negative_seed_exits_2(self):
        src = os.path.dirname(os.path.dirname(os.path.abspath(nanograting.__file__)))
        proc = subprocess.run(
            [sys.executable, "-m", "nanograting", "fit-seff", "--preset", "sinx",
             "--set", "fit.target_s_eff_nm=15", "--set", "fit.noise_fraction=0.01",
             "--seed", "-1"],
            capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src),
        )
        assert proc.returncode == 2
        assert "--seed" in proc.stderr and "Traceback" not in proc.stderr

    def test_missing_grating_exits_2(self, capsys):
        code, _, _ = run_cli(capsys, "simulate")
        assert code == 2

    def test_bad_preset_exits_2(self, capsys):
        code, _, _ = run_cli(
            capsys, "simulate", "--set", "grating.preset=unobtainium"
        )
        assert code == 2

    def test_unknown_subcommand_exits_2(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["frobnicate"])
        assert excinfo.value.code == 2
        capsys.readouterr()

    def test_module_entrypoint(self):
        src = os.path.dirname(os.path.dirname(os.path.abspath(nanograting.__file__)))
        proc = subprocess.run(
            [sys.executable, "-m", "nanograting", "limits",
             "--set", "grating.preset=slg"],
            capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src),
        )
        assert proc.returncode == 0
        assert "min_coherent_slit_m" in proc.stdout


# every value that config accepts must run or be refused with a message
BOUNDARY_VALUES = ("0", "-0", "-1", "1e-300", "1e300", "0.5", "3", "1e6", "nan", "", "abc")
# the profile's documented NaNs: an underdetermined fit, no finite residual
NAN_REPORT_KEYS = ("intercept_m", "rms_relative")


def _keys(*prefixes):
    # molecule.name is free text, echoed as given
    return tuple(k for k in KNOWN_KEYS if k.startswith(prefixes) and k != "molecule.name")


@pytest.fixture(scope="module")
def stored_image(tmp_path_factory):
    path = tmp_path_factory.mktemp("stored") / "img.f64"
    code = main([
        "synth-image", "--preset", "sinx", "--set", "velocity.n_classes=5",
        "--set", "velocity.half_width_m_s=30", "--set", "image.y_min_um=-180",
        "--set", "image.y_max_um=-60", *SMALL_DETECTOR, "--out", str(path),
    ])
    assert code == 0
    return path


@settings(derandomize=True, max_examples=200, deadline=None)
@given(data=st.data())
def test_any_one_value_runs_or_exits_with_a_message(stored_image, data):
    bases = [
        (("limits", "--preset", "sinx"), _keys("grating.", "molecule.", "limits.")),
        (("fit-velocity", "--preset", "sinx", "--set", "fit.y2_um=-127"),
         _keys("geometry.", "molecule.", "fit.y2_um")),
        (("simulate", "--preset", "sinx", "--set", "simulate.band=false", *SMALL_DETECTOR),
         _keys("grating.", "molecule.", "geometry.", "source.", "detector.", "simulate.")),
        (("render", "--set", f"render.image_path={stored_image}"), _keys("render.")),
        (("fit-velocity", "--preset", "sinx", "--set", f"profile.image_path={stored_image}"),
         _keys("grating.", "molecule.", "geometry.", "detector.psf_sigma_um", "profile.")),
    ]
    args, keys = data.draw(st.sampled_from(bases))
    key = data.draw(st.sampled_from(keys))
    value = data.draw(
        st.sampled_from(BOUNDARY_VALUES) | st.floats(-300, 300).map(lambda e: repr(10.0**e))
    )
    stdout, stderr = io.StringIO(), io.StringIO()
    with redirect_stdout(stdout), redirect_stderr(stderr):
        code = main([*args, "--set", f"{key}={value}", "--out", str(stored_image.parent / "out")])
    stdout, stderr = stdout.getvalue(), stderr.getvalue()
    assert "Traceback" not in stderr
    if code != 0:
        assert code in (2, 3) and stderr.startswith("error:"), (code, stderr)
        return
    assert "inf" not in stdout
    for line in stdout.splitlines():
        if line.startswith(NAN_REPORT_KEYS):
            continue
        if line.count(",") == 2:  # a stripe row: y, velocity, then a residual that may be NaN
            line = line.rpartition(",")[0]
        assert "nan" not in line, line
