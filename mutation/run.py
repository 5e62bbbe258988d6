"""Check that the tests kill every one-line mutant of ``src/`` in mutants.json.

Each entry names a file, one of its lines (without indentation), the line
that replaces it and the test files that must fail on the result. Per
mutant, the script copies ``src/``, ``tests/``, ``pyproject.toml`` and
``README.md`` into a temporary directory, replaces the line there and runs
the entry's test files with ``pytest -x``. The unmutated copy runs every
named test file first and must pass.

An entry marked ``retired`` names a rule that the code no longer has: it
counts as retired while its original line is absent, and runs like any other
entry if the line comes back.

The script exits 1 when a mutant survives, when an entry's original line is
missing (or found more than once) and the entry is not retired, or when the
unmutated copy fails. Run it from anywhere, with numpy, pytest and
hypothesis installed:

    python3 mutation/run.py
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
MUTANTS = Path(__file__).resolve().with_name("mutants.json")
COPIED = ("src", "tests", "pyproject.toml", "README.md")
TIMEOUT_S = 600


def _copy(dest: Path) -> None:
    for name in COPIED:
        source = ROOT / name
        if source.is_dir():
            ignore = shutil.ignore_patterns("__pycache__", ".hypothesis")
            shutil.copytree(source, dest / name, ignore=ignore)
        else:
            shutil.copy2(source, dest / name)


def _pytest(tree: Path, files: list[str]) -> str:
    """'passed', 'failed', or 'error: ...' for the named test files of ``tree``."""
    command = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *files]
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    try:
        proc = subprocess.run(command, cwd=tree, env=env, capture_output=True, text=True,
                              timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return f"error: no result within {TIMEOUT_S} s"
    if proc.returncode in (0, 1):
        return ("passed", "failed")[proc.returncode]
    lines = (proc.stdout + proc.stderr).strip().splitlines()
    return f"error: pytest exit {proc.returncode}: {lines[-1] if lines else ''}"


def _hits(path: Path, original: str) -> list[int]:
    lines = path.read_text(encoding="utf-8").splitlines()
    return [i for i, line in enumerate(lines) if line.strip() == original]


def _apply(tree: Path, mutant: dict, line: int) -> None:
    path = tree / mutant["file"]
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    old = lines[line]
    indent = old[: len(old) - len(old.lstrip())]
    lines[line] = indent + mutant["replacement"] + "\n"
    path.write_text("".join(lines), encoding="utf-8")


def _run(mutant: dict) -> tuple[str, str]:
    """(status, detail) of one entry: killed, retired, survived, missing or error."""
    hits = _hits(ROOT / mutant["file"], mutant["original"])
    if not hits:
        if "retired" in mutant:
            return "retired", mutant["retired"]
        return "missing", f"original line not found in {mutant['file']}"
    if len(hits) > 1:
        return "missing", f"original line found {len(hits)} times in {mutant['file']}"
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        tree = Path(tmp)
        _copy(tree)
        _apply(tree, mutant, hits[0])
        start = time.perf_counter()
        result = _pytest(tree, mutant["tests"])
        seconds = time.perf_counter() - start
    status = {"failed": "killed", "passed": "survived"}.get(result, "error")
    detail = f"{' '.join(mutant['tests'])}, {seconds:.1f} s"
    return status, detail if status != "error" else f"{result} ({detail})"


def main() -> int:
    mutants = json.loads(MUTANTS.read_text(encoding="utf-8"))
    files = sorted({f for m in mutants for f in m["tests"]})
    with tempfile.TemporaryDirectory(prefix="unmutated-") as tmp:
        _copy(Path(tmp))
        baseline = _pytest(Path(tmp), files)
    if baseline != "passed":
        print(f"the unmutated copy does not pass {' '.join(files)}: {baseline}")
        return 1

    counts: dict[str, int] = {}
    for mutant in mutants:
        status, detail = _run(mutant)
        counts[status] = counts.get(status, 0) + 1
        print(f"{status:9} {mutant['id']:28} {detail}", flush=True)
    print(", ".join(f"{n} {status}" for status, n in counts.items()))
    return 0 if set(counts) <= {"killed", "retired"} else 1


if __name__ == "__main__":
    sys.exit(main())
