import numpy as np
import pytest

from nanograting import ATOMIC_MASS_KG, ConfigurationError, VelocityDistribution
from nanograting.config import (
    DEFAULTS,
    KNOWN_KEYS,
    load_run_config,
    parse_config_text,
)


def test_defaults_all_known_and_convertible():
    config = load_run_config()
    for key in DEFAULTS:
        assert key in KNOWN_KEYS
        assert config.get(key) is not None


def test_unit_suffix_conversion():
    config = load_run_config(overrides=[
        "grating.preset=sinx",
        "grating.period_nm=105",
        "source.width_um=1.5",
        "limits.youngs_modulus_GPa=1000",
        "molecule.mass_u=514",
    ])
    assert config.get("grating.period_nm") == pytest.approx(105e-9, rel=1e-15)
    assert config.get("source.width_um") == pytest.approx(1.5e-6, rel=1e-15)
    assert config.get("limits.youngs_modulus_GPa") == pytest.approx(1e12, rel=1e-15)
    assert config.get("molecule.mass_u") == pytest.approx(
        514 * 1.66053906660e-27, rel=1e-15
    )


def test_unknown_key_rejected_everywhere(tmp_path):
    with pytest.raises(ConfigurationError):
        load_run_config(overrides=["bogus.key=1"])
    cfg = tmp_path / "c.cfg"
    cfg.write_text("bogus.key = 1\n")
    with pytest.raises(ConfigurationError):
        load_run_config(cfg)


def test_parse_rejects_duplicates_and_malformed():
    with pytest.raises(ConfigurationError):
        parse_config_text("grating.period_nm = 1\ngrating.period_nm = 2\n")
    with pytest.raises(ConfigurationError):
        parse_config_text("no equals sign here\n")


def test_parse_skips_comments_and_blanks():
    raw = parse_config_text("# comment\n\n  grating.period_nm = 105  \n")
    assert raw == {"grating.period_nm": "105"}


def test_precedence_file_then_preset_then_set(tmp_path):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("grating.preset = sinx\nvelocity.center_m_s = 200\n")
    config = load_run_config(cfg, preset="slg", overrides=["velocity.center_m_s=250"])
    assert config.grating().label == "slg"
    assert config.get("velocity.center_m_s") == 250.0


def test_missing_config_file():
    with pytest.raises(ConfigurationError):
        load_run_config("/nonexistent/path.cfg")


def test_type_errors_are_config_errors():
    for bad in ("velocity.n_classes=2.5", "grating.period_nm=abc",
                "simulate.band=maybe", "grating.period_nm=nan"):
        with pytest.raises(ConfigurationError):
            load_run_config(overrides=[bad])


def test_grating_builder_preset_with_override():
    config = load_run_config(
        preset="bilayer", overrides=["grating.effective_slit_width_nm=30"]
    )
    g = config.grating()
    assert g.label == "bilayer"
    assert g.period == pytest.approx(113e-9)
    assert g.effective_slit_width == pytest.approx(30e-9)


def test_grating_builder_inline_without_preset():
    config = load_run_config(overrides=[
        "grating.period_nm=100",
        "grating.slit_width_nm=50",
        "grating.effective_slit_width_nm=25",
    ])
    g = config.grating()
    assert g.label == "custom"
    assert g.period == pytest.approx(100e-9)


def test_grating_builder_requires_definition():
    with pytest.raises(ConfigurationError):
        load_run_config().grating()


def test_molecule_builder_default_and_override():
    default = load_run_config().molecule()
    assert default.name == "PcH2"
    assert default.mass == 514.0 * ATOMIC_MASS_KG
    assert default.mass == pytest.approx(8.5e-25, rel=0.005)
    config = load_run_config(overrides=["molecule.mass_u=300", "molecule.name=probe"])
    m = config.molecule()
    assert m.name == "probe"
    assert m.mass == pytest.approx(300 * 1.66053906660e-27, rel=1e-15)


def test_geometry_holds_the_configured_detector_distance_exactly():
    # the geometry keeps the configured segments bit for bit
    assert load_run_config().geometry().L2 == 0.586
    assert load_run_config(overrides=["geometry.L2_m=0.005"]).geometry().L2 == 0.005


def test_geometry_and_source_builders():
    config = load_run_config()
    geo = config.geometry()
    assert geo.L1 == 1.554
    assert geo.L == pytest.approx(2.14)
    src = config.source()
    assert src.source_width == pytest.approx(1.5e-6)
    # a Maxwell band without velocity.most_probable_m_s takes its default, 180 m/s
    band = load_run_config(
        overrides=["velocity.kind=maxwell-boltzmann-beam"]
    ).velocity_distribution()
    expected = VelocityDistribution.maxwell_beam(180.0, n_classes=200)
    assert np.array_equal(band.velocities, expected.velocities)
    assert np.array_equal(band.weights, expected.weights)


def test_velocity_builder_kind_defaults():
    band = load_run_config().velocity_distribution()
    assert np.array_equal(
        band.velocities, VelocityDistribution.uniform_band(220.0, 10.0, 21).velocities
    )
    assert len(band) == 21
    mb = load_run_config(
        overrides=["velocity.kind=maxwell-boltzmann-beam"]
    ).velocity_distribution()
    assert np.array_equal(mb.weights, VelocityDistribution.maxwell_beam(180.0, 200).weights)
    assert len(mb) == 200
    disc = load_run_config(
        overrides=["velocity.kind=discrete", "velocity.list_m_s=145,220,263"]
    ).velocity_distribution()
    assert list(disc.velocities) == [145.0, 220.0, 263.0]


def test_velocity_builder_rejects_unknown_kind():
    with pytest.raises(ConfigurationError):
        load_run_config(overrides=["velocity.kind=gaussian"]).velocity_distribution()
    with pytest.raises(ConfigurationError):
        load_run_config(overrides=["velocity.kind=discrete"]).velocity_distribution()


def test_grid_builders():
    config = load_run_config()
    grid = config.detector_grid()
    assert grid.n_pixels == 921
    assert grid.pixel_pitch == pytest.approx(0.5e-6)
    image = config.image_grid()
    assert image.nx == 921
    assert image.ny == 103


def test_require_raises_on_missing():
    config = load_run_config()
    with pytest.raises(ConfigurationError):
        config.require("fit.measured_csv")
    with pytest.raises(ConfigurationError):
        config.get("not.a.key")


# Built-in values, in SI units, of the keys whose values the library takes
# from its caller: the configuration is the one place they are stated.
SI_DEFAULTS = {
    "detector.psf_sigma_um": 3.5e-6,
    "source.coherence_prefactor": 1.5,
    "fit.coarse_step_nm": 1e-9,
    "fit.tolerance_nm": 1.0000000000000002e-10,  # 0.1 x 1e-9, one ulp above 1e-10
    "fit.lower_bound_nm": 1e-9,
    "profile.n_stripes": 20,
    "render.vertical_stretch": 1.0,
    "geometry.g_m_s2": 9.81,
    "geometry.y0_m": 0.0,
    "geometry.y1_m": 0.0,
    "limits.youngs_modulus_GPa": 1e12,  # a single-wall carbon nanotube
    "limits.footprint_nm2": 1.7e-18,  # one phthalocyanine-sized molecule
}


@pytest.mark.parametrize("key", sorted(SI_DEFAULTS))
def test_each_default_reads_its_si_value(key):
    assert load_run_config().require(key) == SI_DEFAULTS[key]
