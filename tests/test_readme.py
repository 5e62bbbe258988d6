"""The README's code examples run as written."""

import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"


def _library_use_block() -> str:
    text = README.read_text(encoding="utf-8")
    section = text[text.index("## Library use") :]
    return re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)


def test_library_use_example_runs():
    namespace: dict = {}
    exec(compile(_library_use_block(), str(README), "exec"), namespace)
    fit_velocity = namespace["fit_velocity"]
    velocity = fit_velocity(namespace["y2"], 0.0, 0.0, namespace["geometry"])
    assert velocity == pytest.approx(220.0, abs=1e-9)
    assert namespace["trace"].intensities.max() > 0.0
