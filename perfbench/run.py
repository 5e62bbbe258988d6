"""Benchmark of the nanograting package: one workload per invocation.

    python3 perfbench/run.py --workload {image-beam,fit-seff,cli-chain}
                             --seed N --seconds S --trace {0,1}

Run from the root of a checkout; the package is imported from ``src``.
Set-up time is the median wall time of several fresh interpreters that
import the package and build the workload's configuration, half of them
before the workload and half after it. The workload runs in one child
process (``workloads.py``) for S seconds with numpy/BLAS threads capped at
the number of usable cores. Every iteration's outputs are checked, and
outputs of the engine's public entries are compared with the benchmark's own
refined quadrature (``oracle.py``).

Prints a human-readable report (environment, every metric with its unit,
failures, absent trace targets) and, as the last line, one JSON object with
the keys correct, attempted, failed and metrics: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``. A fuller record is
written to ``.perfbench_work/result-<workload>-trace<t>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import oracle  # noqa: E402

WORKLOADS = ("image-beam", "fit-seff", "cli-chain")
WORK = ".perfbench_work"
SETUP_REPEATS = 12
CHILD_TIMEOUT_S = 150
# RMS against the oracle, relative to one class pattern's peak, counted as correct
ENGINE_RMS_LIMIT = 1e-3

END_TO_END = {"setup_s": "s", "run_s": "s", "peak_rss_mb": "MiB", "engine_rms_rel": "ratio"}
# reported by the command and kept in the record, but not in the final JSON:
# fail_frac is 0 on a healthy run, the other two exist on some workloads only
REPORTED = {"fail_frac": "ratio", "seff_err_nm": "nm", "vprofile_rms_rel": "ratio",
            "run_s_q1": "s", "run_s_q3": "s", "run_s_n": "count"}
PER_LAYER = {
    "diffraction.pattern.calls": "count",
    "diffraction.pattern.s": "s",
    "diffraction.pattern.ms_p50": "ms",
    "diffraction.pattern.ms_tail": "ms",
    "diffraction.pattern.pixel_slits": "count",
    "diffraction.pattern.ns_per_pixel_slit": "ns",
    "diffraction.convolve.s": "s",
    "vdwfit.band_trace.calls": "count",
    "vdwfit.band_trace.self_s": "s",
    "vdwfit.fit.evaluations": "count",
    "vdwfit.fit.s_per_eval": "s",
    "vdwfit.fit.self_s": "s",
    "gravity.synth.self_s": "s",
    "gravity.synth.useful_frac": "ratio",
    "gravity.blur.s": "s",
    "gravity.blur.calls": "count",
    "gravity.profile.s": "s",
    "imaging.render.s": "s",
    "imaging.render.bytes": "B",
    "io.write_image.s": "s",
    "io.read_image.s": "s",
    "io.pixmap.s": "s",
    "io.trace_csv.s": "s",
    "io.bytes": "B",
    "config.load_s": "s",
    "cli.import_s": "s",
    **{f"cli.{c}.{k}": "s" for c in ("simulate", "synth-image", "fit-velocity", "render",
                                      "limits", "fit-seff") for k in ("s", "spawn_s")},
    "trace.overhead_frac": "ratio",
    "trace.top_cover_frac": "ratio",
}


class BenchError(Exception):
    pass


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def _child_env(threads: int) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.abspath("src"), os.environ.get("PYTHONPATH")) if p
    )
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                 "NUMEXPR_NUM_THREADS"):
        env[name] = str(threads)
    return env


def _run_child(command: list[str], env: dict, timeout: float) -> None:
    # own session, so a timeout also ends the CLI processes the child started
    proc = subprocess.Popen(command, env=env, stdout=subprocess.DEVNULL,
                            stderr=subprocess.PIPE, start_new_session=True)
    try:
        _, stderr = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"workload process exceeded {timeout:.0f} s") from exc
    if proc.returncode != 0:
        tail = stderr.decode(errors="replace").strip().splitlines()[-5:]
        raise BenchError(f"workload process exited {proc.returncode}: " + " | ".join(tail))


def measure(workload: str, seed: int, seconds: float, trace: int) -> dict:
    threads = len(os.sched_getaffinity(0))
    env = _child_env(threads)
    workdir = os.path.join(WORK, workload)
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    result = os.path.join(workdir, "child.json")
    child = [sys.executable, os.path.join(HERE, "workloads.py"), "--workload", workload,
             "--seed", str(seed), "--seconds", repr(float(seconds)), "--trace", str(trace),
             "--workdir", workdir, "--result", result]

    def time_setup(repeats: int) -> list[float]:
        samples = []
        for _ in range(repeats):
            start = time.perf_counter()
            _run_child(child + ["--setup-only"], env, 60)
            samples.append(time.perf_counter() - start)
        return samples

    # half the set-up samples before the workload and half after, so that
    # they span the run instead of one moment of the machine's load
    setup = time_setup(SETUP_REPEATS // 2)
    _run_child(child, env, CHILD_TIMEOUT_S)
    setup += time_setup(SETUP_REPEATS - SETUP_REPEATS // 2)
    with open(result, encoding="utf-8") as handle:
        summary = json.load(handle)

    iterations = summary["iterations"]
    plain = [it["wall"] for it in iterations if it["phase"] == "plain"]
    q1, median, q3 = _quartiles(plain)
    errors = [(n, step, msg) for n, it in enumerate(iterations) for step, msg in it["errors"].items()]
    attempted = sum(it["attempted"] for it in iterations)

    cache = os.path.join(WORK, "oracle")
    probe_rms = []
    for probe in summary["probes"]:
        rms = oracle.peak_relative_rms(np.array(probe["engine"]), *oracle.expected(cache, probe))
        probe_rms.append((probe["name"], rms))
        if not rms <= ENGINE_RMS_LIMIT:
            errors.append((-1, probe["name"], f"engine rms {rms:.3g} vs oracle"))
    attempted += len(probe_rms)
    if not probe_rms:
        errors.append((-1, "probes", "no correct iteration to probe"))

    metrics = {
        "setup_s": statistics.median(setup),
        "run_s": median,
        "peak_rss_mb": summary["peak_rss_mb"],
        # peak-relative, so 1.0 stands for "no probe"
        "engine_rms_rel": max((rms for _, rms in probe_rms), default=1.0),
        "fail_frac": len(errors) / attempted,
        "run_s_q1": q1,
        "run_s_q3": q3,
        "run_s_n": len(plain),
    }
    for name in ("seff_err_nm", "vprofile_rms_rel"):
        samples = [it["values"][name] for it in iterations if name in it["values"]]
        if samples:
            metrics[name] = statistics.median(samples)
    if trace:
        traced = [it for it in iterations if it["phase"] == "traced"]
        for name in PER_LAYER:
            # a layer the workload leaves idle (or a CLI command it never runs) reads 0
            metrics[name] = statistics.median(it["layers"].get(name, 0) for it in traced)
        # against untraced iterations after the first, which runs slower
        metrics["trace.overhead_frac"] = (
            statistics.median(it["wall"] for it in traced) / statistics.median(plain[1:]) - 1.0
        )
    return {
        "workload": workload,
        "environment": {
            "nproc": os.cpu_count(), "usable_cores": threads, "blas_thread_cap": threads,
            "python": platform.python_version(), "numpy": summary["numpy"],
            "seed": seed, "seconds": seconds, "trace": trace,
        },
        "metrics": metrics,
        "setup_samples_s": setup,
        "iteration_walls_s": {
            phase: [it["wall"] for it in iterations if it["phase"] == phase]
            for phase in ("plain", "traced")
        },
        "probe_rms": probe_rms,
        "errors": errors,
        "attempted": attempted,
        "absent": summary["absent"],
    }


def report(record: dict) -> list[str]:
    env = record["environment"]
    m = record["metrics"]
    lines = [
        f"perfbench {record['workload']}  seed={env['seed']} seconds={env['seconds']} "
        f"trace={env['trace']}  nproc={env['nproc']} blas_threads={env['blas_thread_cap']} "
        f"python={env['python']} numpy={env['numpy']}",
        f"run_s median={m['run_s']:.4f} q1={m['run_s_q1']:.4f} q3={m['run_s_q3']:.4f} "
        f"n={m['run_s_n']}",
    ]
    units = {**END_TO_END, **REPORTED, **(PER_LAYER if env["trace"] else {})}
    for name, unit in units.items():
        value = m.get(name)
        text = "n/a on this workload" if value is None else f"{value:.6g}"
        lines.append(f"  {name:<40} {text:>22} {unit}")
    for n, step, message in record["errors"]:
        lines.append(f"FAILED iteration {n} {step}: {message}")
    for target in record["absent"]:
        lines.append(f"absent trace target: {target}")
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join("src", "nanograting", "__init__.py")):
        print("perfbench: src/nanograting not found; run from the repository root",
              file=sys.stderr)
        return 2
    try:
        record = measure(args.workload, args.seed, args.seconds, args.trace)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    with open(os.path.join(WORK, f"result-{args.workload}-trace{args.trace}.json"), "w",
              encoding="utf-8") as handle:
        json.dump(record, handle, indent=1)
    print("\n".join(report(record)))
    chosen = PER_LAYER if args.trace else END_TO_END
    print(json.dumps({
        "correct": not record["errors"],
        "attempted": record["attempted"],
        "failed": len(record["errors"]),
        "metrics": {name: {"value": record["metrics"][name], "unit": unit}
                    for name, unit in chosen.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
