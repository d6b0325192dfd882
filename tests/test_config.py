"""Config document parsing: schema enforcement and round-trip identity."""

import pytest

from voxtherm.config import (
    ConfigError,
    dump_config,
    load_config,
    parse_config,
    save_config,
)
from voxtherm.driver import SimConfig
from voxtherm.fem import BoundarySpec, MaterialParams


def test_defaults_round_trip():
    cfg = SimConfig()
    assert parse_config(dump_config(cfg)) == cfg


CUSTOM = SimConfig(
    steps_per_voxel=5,
    dt=0.1,
    material=MaterialParams(kappa=0.0002, rho=1.3, cp=0.7, latent_source=2.5),
    bcs=BoundarySpec(t_bed=0.9, t_deposit=2.1, t_ambient=-0.5),
    base_level=1,
    max_level=6,
    solver_tol=1e-10,
    lumped_mass=False,
    deposit_mode="held",
    cooldown_steps=12,
    snapshot_fractions=(0.1, 0.5, 1.0),
    snapshot_every=7,
    label="bracket",
)


def test_custom_values_round_trip():
    cfg = CUSTOM
    text = dump_config(cfg)
    assert parse_config(text) == cfg
    # serialize -> parse -> serialize is also stable
    assert dump_config(parse_config(text)) == text


DEFAULT_TEXT = """\
[grid]
base_level = 2
max_level = auto

[material]
kappa = 0.0008
rho = 1.0
cp = 1.0
latent_source = 0.0

[boundary]
t_bed = 1.0
t_deposit = 2.0
t_ambient = 0.0

[schedule]
steps_per_voxel = 3
dt = 1.0
deposit_mode = initial
cooldown_steps = 0

[solver]
tolerance = 1e-12
lumped_mass = true

[output]
snapshot_fractions = 0.3 0.6 1.0
snapshot_every = 0
label = run
"""

CUSTOM_TEXT = """\
[grid]
base_level = 1
max_level = 6

[material]
kappa = 0.0002
rho = 1.3
cp = 0.7
latent_source = 2.5

[boundary]
t_bed = 0.9
t_deposit = 2.1
t_ambient = -0.5

[schedule]
steps_per_voxel = 5
dt = 0.1
deposit_mode = held
cooldown_steps = 12

[solver]
tolerance = 1e-10
lumped_mass = false

[output]
snapshot_fractions = 0.1 0.5 1.0
snapshot_every = 7
label = bracket
"""


def test_dump_text_is_pinned():
    assert dump_config(SimConfig()) == DEFAULT_TEXT
    assert dump_config(CUSTOM) == CUSTOM_TEXT


def test_repr_floats_survive_exactly():
    cfg = SimConfig(dt=0.1, material=MaterialParams(kappa=0.0008))
    again = parse_config(dump_config(cfg))
    assert again.dt == 0.1
    assert again.material.kappa == 0.0008


def test_partial_document_uses_defaults():
    cfg = parse_config("[schedule]\nsteps_per_voxel = 9\n")
    assert cfg.steps_per_voxel == 9
    assert cfg.dt == SimConfig().dt
    assert cfg.material == MaterialParams()


def test_auto_max_level():
    cfg = parse_config("[grid]\nmax_level = auto\n")
    assert cfg.max_level is None
    cfg = parse_config("[grid]\nmax_level = 5\n")
    assert cfg.max_level == 5


def test_unknown_section_rejected():
    with pytest.raises(ConfigError, match=r"unknown section \[physics\]"):
        parse_config("[physics]\nkappa = 1.0\n")


def test_unknown_key_rejected():
    with pytest.raises(ConfigError, match=r"unknown key 'conductivity'"):
        parse_config("[material]\nconductivity = 1.0\n")


def test_bad_value_types_rejected():
    with pytest.raises(ConfigError, match="steps_per_voxel"):
        parse_config("[schedule]\nsteps_per_voxel = three\n")
    with pytest.raises(ConfigError, match="lumped_mass"):
        parse_config("[solver]\nlumped_mass = yes\n")
    with pytest.raises(ConfigError, match="snapshot_fractions"):
        parse_config("[output]\nsnapshot_fractions =\n")


def test_semantic_validation_rejected():
    with pytest.raises(ConfigError, match="dt"):
        parse_config("[schedule]\ndt = 0.0\n")
    with pytest.raises(ConfigError, match="deposit_mode"):
        parse_config("[schedule]\ndeposit_mode = sometimes\n")
    with pytest.raises(ConfigError, match="kappa"):
        parse_config("[material]\nkappa = -1.0\n")
    with pytest.raises(ConfigError, match=r"0\.3 and 0\.3049 share the snapshot tag 030"):
        parse_config("[output]\nsnapshot_fractions = 0.30 0.3049 1.0\n")
    with pytest.raises(ConfigError, match=r"1\.0 and 1\.0 share the snapshot tag 100"):
        parse_config("[output]\nsnapshot_fractions = 1.0, 1.0\n")
    # a continuation line gives 'demo\nblock', a tab would write a stray footer key
    with pytest.raises(ConfigError, match="label must be printable"):
        parse_config("[output]\nlabel = demo\n  block\n")
    with pytest.raises(ConfigError, match="label must be printable"):
        parse_config("[output]\nlabel = a\tb=c\n")
    assert parse_config("[output]\nlabel = demo part\n").label == "demo part"


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize(
    "section,key",
    [("material", "kappa"), ("schedule", "dt"), ("solver", "tolerance"), ("boundary", "t_bed")],
)
def test_non_finite_values_rejected(section, key, value):
    with pytest.raises(ConfigError, match=rf"'{key}' in \[{section}\]: expected a finite"):
        parse_config(f"[{section}]\n{key} = {value}\n")


def test_fraction_separators():
    by_space = parse_config("[output]\nsnapshot_fractions = 0.25 0.5 1.0\n")
    by_comma = parse_config("[output]\nsnapshot_fractions = 0.25, 0.5, 1.0\n")
    assert by_space.snapshot_fractions == by_comma.snapshot_fractions == (0.25, 0.5, 1.0)


def test_malformed_document_rejected():
    with pytest.raises(ConfigError):
        parse_config("steps_per_voxel = 3\n")  # key before any section


def test_file_round_trip(tmp_path):
    cfg = SimConfig(label="file_case", dt=0.25)
    path = tmp_path / "run.cfg"
    save_config(cfg, path)
    assert load_config(path) == cfg


def test_load_missing_file_raises(tmp_path):
    with pytest.raises(OSError):
        load_config(tmp_path / "absent.cfg")
