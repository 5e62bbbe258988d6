"""Record one trajectory entry: every workload untraced and traced.

    python3 perfbench/record.py --label NAME

Each run uses seed 1 and ``run_seconds`` from BENCHMARK.json.

Run from the repository root. Writes ``perfbench/trajectory/BENCH_<NAME>.json``
holding, per workload and trace mode, the full record ``run.py`` leaves in
``.perfbench_work``: environment, every metric, iteration times, failures.
The package sources are identified by a SHA-256 over ``src/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402


def source_digest(root: str = "src") -> str:
    h = hashlib.sha256()
    for folder, dirs, files in sorted(os.walk(root)):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            path = os.path.join(folder, name)
            h.update(path.encode())
            with open(path, "rb") as handle:
                h.update(handle.read())
    return h.hexdigest()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True)
    args = parser.parse_args()
    with open("BENCHMARK.json", encoding="utf-8") as handle:
        seconds = json.load(handle)["run_seconds"]
    entry = {"label": args.label, "src_sha256": source_digest(), "runs": []}
    for workload in run.WORKLOADS:
        for trace in (0, 1):
            subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                 "--seed", "1", "--seconds", str(seconds), "--trace", str(trace)],
                check=True, timeout=180,
            )
            path = os.path.join(run.WORK, f"result-{workload}-trace{trace}.json")
            with open(path, encoding="utf-8") as handle:
                entry["runs"].append(json.load(handle))
    os.makedirs(os.path.join(HERE, "trajectory"), exist_ok=True)
    out = os.path.join(HERE, "trajectory", f"BENCH_{args.label}.json")
    with open(out, "w", encoding="utf-8") as handle:
        json.dump(entry, handle, indent=1)
        handle.write("\n")
    print(out)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
