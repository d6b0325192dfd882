"""Sectioned key-value run configuration.

Six sections map onto SimConfig: [grid], [material], [boundary],
[schedule], [solver], [output]. Every key is optional (defaults apply),
unknown sections or keys are rejected, and parse -> dump -> parse is the
identity because floats are written with repr.
"""

from __future__ import annotations

import configparser
import math
from typing import Literal, get_origin

from ._checks import field_types
from .driver import DriverError, SimConfig
from .fem import FemError

__all__ = ["ConfigError", "parse_config", "load_config", "dump_config", "save_config"]


class ConfigError(ValueError):
    """Malformed or invalid configuration document."""


def _to_float(raw: str) -> float:
    value = float(raw)
    if not math.isfinite(value):
        raise ValueError(f"expected a finite number, got {raw.strip()!r}")
    return value


def _to_bool(raw: str) -> bool:
    low = raw.strip().lower()
    if low not in ("true", "false"):
        raise ValueError(f"expected true or false, got {raw!r}")
    return low == "true"


def _to_fractions(raw: str) -> tuple[float, ...]:
    toks = raw.replace(",", " ").split()
    if not toks:
        raise ValueError("expected at least one fraction")
    return tuple(_to_float(t) for t in toks)


# section -> keys; a key names its field, except where _FIELD renames it
_SCHEMA: dict[str, tuple[str, ...]] = {
    "grid": ("base_level",),
    "material": ("kappa", "rho", "cp", "latent_source"),
    "boundary": ("t_bed", "t_deposit", "t_ambient"),
    "schedule": ("steps_per_voxel", "dt", "deposit_mode", "cooldown_steps"),
    "solver": ("tolerance", "lumped_mass"),
    "output": ("snapshot_fractions", "snapshot_every", "label"),
}
_FIELD = {"tolerance": "solver_tol"}

# SimConfig fields built from a whole section
_NESTED = {"material": "material", "boundary": "bcs"}

# field annotation -> (converter, formatter writing a value the converter reads back unchanged)
_CODECS = {
    int: (int, str),
    float: (_to_float, repr),
    bool: (_to_bool, lambda v: "true" if v else "false"),
    str: (str, str),  # configparser strips values
    tuple[float, ...]: (_to_fractions, lambda v: " ".join(repr(f) for f in v)),
}


def _codec(section: str, key: str) -> tuple:
    """(field name, converter, formatter) of a key; a Literal of strings is a str."""
    name = _FIELD.get(key, key)
    owner = field_types(SimConfig)[_NESTED[section]] if section in _NESTED else SimConfig
    hint = field_types(owner)[name]
    return (name, *_CODECS[str if get_origin(hint) is Literal else hint])


def parse_config(text: str, source: str = "<config>") -> SimConfig:
    # No header can name the section "", so [DEFAULT] is an ordinary, unknown section.
    cp = configparser.ConfigParser(
        interpolation=None, delimiters=("=",), comment_prefixes=("#", ";"), default_section=""
    )
    try:
        cp.read_string(text, source=source)
    except configparser.Error as err:
        raise ConfigError(f"{source}: {err}") from err

    values: dict[str, object] = {}
    nested: dict[str, dict[str, object]] = {section: {} for section in _NESTED}
    for section in cp.sections():
        if section not in _SCHEMA:
            raise ConfigError(f"{source}: unknown section [{section}]")
        for key, raw in cp.items(section):
            if key not in _SCHEMA[section]:
                raise ConfigError(f"{source}: unknown key {key!r} in [{section}]")
            target, conv, _ = _codec(section, key)
            try:
                value = conv(raw)
            except ValueError as err:
                raise ConfigError(
                    f"{source}: bad value for {key!r} in [{section}]: {err}"
                ) from err
            nested.get(section, values)[target] = value
    try:
        for section, name in _NESTED.items():
            if nested[section]:
                values[name] = field_types(SimConfig)[name](**nested[section])
        return SimConfig(**values)
    except (DriverError, FemError) as err:
        raise ConfigError(f"{source}: {err}") from err


def load_config(path) -> SimConfig:
    with open(path) as f:
        return parse_config(f.read(), source=str(path))


def dump_config(cfg: SimConfig) -> str:
    blocks = []
    for section, keys in _SCHEMA.items():
        owner = getattr(cfg, _NESTED[section]) if section in _NESTED else cfg
        lines = [f"[{section}]"]
        for key in keys:
            target, _, fmt = _codec(section, key)
            lines.append(f"{key} = {fmt(getattr(owner, target))}")
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks) + "\n"


def save_config(cfg: SimConfig, path) -> None:
    with open(path, "w") as f:
        f.write(dump_config(cfg))
