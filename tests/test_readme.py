"""The README's code examples run as written."""

import re
import shlex
from pathlib import Path

import pytest

from nanograting.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def _library_use_block() -> str:
    text = README.read_text(encoding="utf-8")
    section = text[text.index("## Library use") :]
    return re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)


def test_library_use_example_runs():
    namespace: dict = {}
    exec(compile(_library_use_block(), str(README), "exec"), namespace)
    fit_velocity = namespace["fit_velocity"]
    velocity = fit_velocity(namespace["y2"], namespace["geometry"])
    assert velocity == pytest.approx(220.0, abs=1e-9)
    assert namespace["trace"].intensities.max() > 0.0


def _quick_start_commands() -> list[tuple[list[str], list[str]]]:
    """(argv, expected stdout lines) for each ``nanograting`` command of the
    README's sh blocks, in order. A plain block that follows a command's sh
    block after nothing but blank lines is the stdout it shows for the last
    command of that block."""
    text = README.read_text(encoding="utf-8")
    fences = list(re.finditer(r"^```(\w*)\n(.*?)^```$", text, re.DOTALL | re.MULTILINE))
    commands: list[tuple[list[str], list[str]]] = []
    for fence, after in zip(fences, fences[1:] + [None]):
        if fence.group(1) != "sh":
            continue
        for line in fence.group(2).replace("\\\n", " ").splitlines():
            if line.startswith("nanograting "):
                commands.append((shlex.split(line)[1:], []))
        shown = (
            after is not None
            and after.group(1) == ""
            and not text[fence.end() : after.start()].strip()
        )
        if shown and commands:
            commands[-1][1].extend(after.group(2).splitlines())
    return commands


def test_cli_quick_start_runs_as_written(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    commands = _quick_start_commands()
    assert [argv[0] for argv, _ in commands] == [
        "simulate", "synth-image", "fit-seff", "fit-velocity", "fit-velocity", "limits", "render",
    ]
    for argv, shown in commands:
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 0, (argv, captured.err)
        printed = captured.out.splitlines()
        for line in shown:
            assert line in printed, (argv, line)
