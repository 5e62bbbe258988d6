"""Self-test of the benchmark. Run from the repository root:

    python3 perfbench/selftest.py

Checks, in order:
- a trace target that does not exist is reported absent, not raised;
- self time subtracts exactly the time child spans cover;
- two short traced runs of each workload with the same seed are correct and
  give identical work counts, and the last output line keeps the result
  contract (keys, metric names, units);
- the benchmark exits non-zero without printing a result where the package
  sources are missing.
Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.abspath("src"))

import run  # noqa: E402
import spans  # noqa: E402

SEED = 11
# per-layer metrics that count work; they must repeat exactly
COUNTS = (
    "diffraction.pattern.calls",
    "diffraction.pattern.pixel_slits",
    "vdwfit.band_trace.calls",
    "vdwfit.fit.evaluations",
    "gravity.synth.useful_frac",
    "gravity.blur.calls",
    "imaging.render.bytes",
    "io.bytes",
)


def check_tracer() -> None:
    tracer = spans.Tracer()
    tracer.install({"gravity.missing": ("nanograting.gravity.no_such_function",
                                        "nanograting.no_such_module.f")})
    tracer.uninstall()
    assert tracer.absent == ["nanograting.gravity.no_such_function",
                             "nanograting.no_such_module.f"], tracer.absent
    own = spans.self_times([("a", 0.0, 10.0, -1, {}), ("b", 1.0, 4.0, 0, {}),
                            ("c", 2.0, 3.0, 1, {}), ("d", 5.0, 6.0, 0, {})])
    assert own == [6.0, 2.0, 1.0, 1.0], own


def bench(workload: str, seed: int, trace: int, cwd: str = ".") -> tuple[int, str]:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )
    return proc.returncode, proc.stdout


def check_result_line(stdout: str, metrics: dict[str, str]) -> dict:
    result = json.loads(stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"], result.keys()
    assert result["correct"] is True and result["failed"] == 0, stdout
    assert result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == metrics
    return {k: v["value"] for k, v in result["metrics"].items()}


def check_counts_repeat(workload: str, seed: int) -> None:
    first, second = [], []
    for out in (first, second):
        code, stdout = bench(workload, seed, 1)
        assert code == 0, stdout
        values = check_result_line(stdout, run.PER_LAYER)
        out.extend(values[name] for name in COUNTS)
    assert first == second, (workload, dict(zip(COUNTS, zip(first, second))))
    print(f"ok  {workload}: counts repeat {dict(zip(COUNTS, first))}")


def check_bare_directory() -> None:
    bare = os.path.join(run.WORK, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, os.path.basename(HERE)),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy("BENCHMARK.json", bare)
    code, stdout = bench("cli-chain", 0, 0, cwd=bare)
    shutil.rmtree(bare)
    assert code != 0 and not stdout.strip(), (code, stdout)


def main() -> int:
    check_tracer()
    print("ok  tracer: absent targets reported, self time exact")
    for workload in run.WORKLOADS:
        check_counts_repeat(workload, SEED)
    code, stdout = bench("cli-chain", SEED, 0)
    assert code == 0, stdout
    check_result_line(stdout, run.END_TO_END)
    print("ok  end-to-end result line keeps the contract")
    check_bare_directory()
    print("ok  exits non-zero without a result where src/ is missing")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
