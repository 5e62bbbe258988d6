"""The package namespace re-exports every module's public names once, and
each of them is read somewhere."""

import ast
import inspect
import json
import os
import re
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import nanograting
from nanograting import diffraction, domain, errors, gravity, imaging, limits, presets, vdwfit

MODULES = (diffraction, domain, errors, gravity, imaging, limits, presets, vdwfit)


def test_every_error_class_imports_from_the_package():
    from nanograting import WorkBudgetError

    assert WorkBudgetError is errors.WorkBudgetError
    assert issubclass(WorkBudgetError, nanograting.ResolutionError)
    assert issubclass(WorkBudgetError, nanograting.ConfigurationError)


def test_all_has_no_duplicates_and_every_name_resolves():
    names = nanograting.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert getattr(nanograting, name) is not None


def test_all_is_the_sorted_union_of_the_module_lists():
    union = {name for module in MODULES for name in module.__all__}
    assert nanograting.__all__ == sorted(union)
    # each name has one home module
    assert sum(len(module.__all__) for module in MODULES) == len(union)
    for module in MODULES:
        for name in module.__all__:
            assert getattr(nanograting, name) is getattr(module, name)


def test_a_star_import_in_a_fresh_interpreter_binds_every_public_name():
    # the namespace is built on first access, here by the star import itself
    script = """
import json
from nanograting import *
import nanograting
names = nanograting.__all__
print(json.dumps([len(names), [n for n in names if globals().get(n) is not getattr(nanograting, n)]]))
"""
    src = os.path.dirname(os.path.dirname(os.path.abspath(nanograting.__file__)))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [len(nanograting.__all__), []]


def _loaded_names(source):
    """Every name a module reads, as a bare name or as an attribute."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def _private_imports(source):
    """Every underscore name a module imports from another package module."""
    return {
        f"{node.module}.{alias.name}"
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom)
        and (node.level > 0 or (node.module or "").startswith("nanograting"))
        for alias in node.names
        if alias.name.startswith("_")
    }


def _loaded_keys(source):
    """Every string a module reads a mapping with: a subscript, a call
    argument (``entry.get(key)``) or a membership test (``key in entry``)."""
    keys = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Load):
            operands = [node.slice]
        elif isinstance(node, ast.Call):
            operands = node.args
        elif isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
        else:
            continue
        keys.update(
            op.value for op in operands
            if isinstance(op, ast.Constant) and isinstance(op.value, str)
        )
    return keys


def test_every_public_name_is_read_by_the_package_or_the_readme():
    # a public name that only its own tests call is surface nobody uses
    package = Path(nanograting.__file__).parent
    loaded = set()
    for path in package.glob("*.py"):
        loaded |= _loaded_names(path.read_text(encoding="utf-8"))
    readme = (package.parents[1] / "README.md").read_text(encoding="utf-8")
    unused = [
        name for name in nanograting.__all__
        if name not in loaded and not re.search(rf"\b{re.escape(name)}\b", readme)
    ]
    assert unused == []


def test_the_cli_imports_no_private_name():
    # the CLI reaches the engine through its public entry points, so no
    # second route to it grows beside the first
    cli = Path(nanograting.__file__).parent / "cli.py"
    assert _private_imports(cli.read_text(encoding="utf-8")) == set()


def test_only_diffraction_reaches_the_slit_terms():
    # the term format stays behind the one module that builds and reads it;
    # every other module goes through the class path
    terms = {"_SlitTerms", "_slit_terms", "_slit_envelope", "_envelope_scan", "_check_width",
             "_contract"}
    package = Path(nanograting.__file__).parent
    reached = {
        (path.stem, name)
        for path in package.glob("*.py")
        for name in _private_imports(path.read_text(encoding="utf-8"))
        if name.rpartition(".")[2] in terms
    }
    assert reached == set()


def test_every_grating_preset_key_is_read():
    # preset data nothing reads is a note that can drift from the code
    package = Path(nanograting.__file__).parent
    read = {field.name for field in fields(nanograting.Grating)}
    for path in package.glob("*.py"):
        read |= _loaded_keys(path.read_text(encoding="utf-8"))
    unread = {
        (name, key) for name, entry in presets.GRATING_PRESETS.items()
        for key in entry if key not in read
    }
    assert unread == set()


def _public_defaults():
    """(callable, parameter) of every defaulted parameter of the public
    functions, class signatures and class or static methods."""
    found = set()
    for name in nanograting.__all__:
        obj = getattr(nanograting, name)
        if inspect.isclass(obj):
            methods = [
                (f"{name}.{attr}", getattr(obj, attr)) for attr, raw in vars(obj).items()
                if isinstance(raw, (classmethod, staticmethod))
            ]
            # an error class keeps the built-in exception signature
            callables = [(name, obj.__init__)] if inspect.isfunction(obj.__init__) else []
            callables += methods
        elif inspect.isfunction(obj):
            callables = [(name, obj)]
        else:
            continue
        for label, fn in callables:
            found |= {
                (label, p.name) for p in inspect.signature(fn).parameters.values()
                if p.default is not inspect.Parameter.empty
            }
    return found


def test_no_public_default_restates_the_configuration():
    # config.KNOWN_KEYS states every default the CLI uses, once; the library
    # takes those values from its caller. What remains has no configuration key.
    assert _public_defaults() == {
        ("Grating", "label"),
        ("PhysicalConstants", "h"),
        ("PhysicalConstants", "k_B"),
        ("PhysicalConstants", "lambda_ref"),
        ("VelocityDistribution.maxwell_beam", "v_min"),
        ("VelocityDistribution.maxwell_beam", "v_max"),
        ("order_population", "n_max"),
    }
