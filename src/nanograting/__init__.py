"""Far-field matter-wave diffraction of molecules at ultra-thin nanogratings.

Forward simulation (near-field-corrected multi-slit interference with a
van-der-Waals-narrowed effective slit), 2D interferogram synthesis for a
velocity ensemble falling under gravity, inverse fitting of the effective
slit width and of the beam velocity, uncertainty-principle coherence limits,
and false-color rendering.

The namespace re-exports the public names of the library modules, imported
on the first access to one of them, so a submodule imported alone (such as
``nanograting.cli``) loads only what it imports.
"""

import importlib.util

__version__ = "0.1.0"

_MODULES = ("diffraction", "domain", "errors", "gravity", "imaging", "limits", "presets", "vdwfit")


def __getattr__(name: str):
    if name.startswith("_") and name != "__all__":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    if importlib.util.find_spec(f"{__name__}.{name}") is not None:
        # a submodule loads alone, with only what it imports
        return importlib.import_module(f"{__name__}.{name}")
    modules = [importlib.import_module(f"{__name__}.{module}") for module in _MODULES]
    public = {key: getattr(module, key) for module in modules for key in module.__all__}
    globals().update(public, __all__=sorted(public))
    if name not in globals():
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return globals()[name]
