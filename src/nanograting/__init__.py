"""Far-field matter-wave diffraction of molecules at ultra-thin nanogratings.

Forward simulation (near-field-corrected multi-slit interference with a
van-der-Waals-narrowed effective slit), 2D interferogram synthesis for a
velocity ensemble falling under gravity, inverse fitting of the effective
slit width and of the beam velocity, uncertainty-principle coherence limits,
and false-color rendering.
"""

from . import diffraction, domain, errors, gravity, imaging, limits, presets, vdwfit
from .diffraction import *
from .domain import *
from .errors import *
from .gravity import *
from .imaging import *
from .limits import *
from .presets import *
from .vdwfit import *

__version__ = "0.1.0"

__all__ = sorted(
    {
        name
        for module in (diffraction, domain, errors, gravity, imaging, limits, presets, vdwfit)
        for name in module.__all__
    }
)
