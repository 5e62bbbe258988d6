"""The configuration's built-in values, for the tests' library calls.

The library states no default that ``config.KNOWN_KEYS`` holds: a caller
passes each value. A test that wants the built-in value takes it from
``load_run_config()``, as the CLI does, so no test restates it either.
"""

from nanograting.config import load_run_config

CONFIG = load_run_config()
PCH2 = CONFIG.molecule()
GEOMETRY = CONFIG.geometry()
PSF_SIGMA = CONFIG.require("detector.psf_sigma_um")
PREFACTOR = CONFIG.require("source.coherence_prefactor")
N_STRIPES = CONFIG.require("profile.n_stripes")
# every option of fit_effective_slit
FIT_OPTIONS = {
    "psf_sigma": PSF_SIGMA,
    "coherence_prefactor": PREFACTOR,
    "coarse_step": CONFIG.require("fit.coarse_step_nm"),
    "tolerance": CONFIG.require("fit.tolerance_nm"),
    "lower_bound": CONFIG.require("fit.lower_bound_nm"),
}
