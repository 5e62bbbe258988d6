"""End-to-end tests of the command-line interface: exit codes, report echoes,
file outputs, and byte determinism."""

import json
import os
import re
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import nanograting
from nanograting.cli import main
from nanograting.gravity import Interferogram
from nanograting.io import (
    read_interferogram,
    read_trace_csv,
    write_interferogram,
    write_trace_csv,
)
from nanograting.diffraction import MAX_PIXEL_SLITS, DetectorGrid, Trace


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
        assert report["first_order_position_m"] == "1.9693796653731233e-05"
        assert report["L2_m"] == "0.5860000000000001"
        raw_path = tmp_path / "trace.raw.csv"
        assert out.exists() and raw_path.exists()
        convolved, header = read_trace_csv(out)
        raw, _ = read_trace_csv(raw_path)
        assert header["grating"] == "sinx"
        assert convolved.intensities.sum() == pytest.approx(
            raw.intensities.sum(), rel=1e-9
        )

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
        grid = DetectorGrid.symmetric(40e-6, 0.5e-6)
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
             "--set", "simulate.window=gaussian", "--out", "trace.csv"),
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


class TestErrorHandling:
    def test_unknown_key_exits_2(self, capsys):
        code, _, stderr = run_cli(
            capsys, "simulate", "--set", "grating.banana=1"
        )
        assert code == 2
        assert "error:" in stderr

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
        proc = subprocess.run(
            [sys.executable, "-m", "nanograting", "limits",
             "--set", "grating.preset=slg"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert "min_coherent_slit_m" in proc.stdout
