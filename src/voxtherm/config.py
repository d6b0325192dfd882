"""Sectioned key-value run configuration.

Six sections map onto SimConfig: [grid], [material], [boundary],
[schedule], [solver], [output]. Every key is optional (defaults apply),
unknown sections or keys are rejected, and parse -> dump -> parse is the
identity because floats are written with repr.
"""

from __future__ import annotations

import configparser
import math

from .driver import DriverError, SimConfig
from .fem import BoundarySpec, FemError, MaterialParams

__all__ = ["ConfigError", "parse_config", "load_config", "dump_config", "save_config"]


class ConfigError(ValueError):
    """Malformed or invalid configuration document."""


def _to_int(raw: str) -> int:
    return int(raw, 10)


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


def _to_str(raw: str) -> str:
    return raw.strip()


# section -> key -> (SimConfig construction target, converter)
_SCHEMA: dict[str, dict[str, tuple[str, object]]] = {
    "grid": {
        "base_level": ("base_level", _to_int),
    },
    "material": {
        "kappa": ("kappa", _to_float),
        "rho": ("rho", _to_float),
        "cp": ("cp", _to_float),
        "latent_source": ("latent_source", _to_float),
    },
    "boundary": {
        "t_bed": ("t_bed", _to_float),
        "t_deposit": ("t_deposit", _to_float),
        "t_ambient": ("t_ambient", _to_float),
    },
    "schedule": {
        "steps_per_voxel": ("steps_per_voxel", _to_int),
        "dt": ("dt", _to_float),
        "deposit_mode": ("deposit_mode", _to_str),
        "cooldown_steps": ("cooldown_steps", _to_int),
    },
    "solver": {
        "tolerance": ("solver_tol", _to_float),
        "lumped_mass": ("lumped_mass", _to_bool),
    },
    "output": {
        "snapshot_fractions": ("snapshot_fractions", _to_fractions),
        "snapshot_every": ("snapshot_every", _to_int),
        "label": ("label", _to_str),
    },
}


# SimConfig fields built from a whole section, and the type each one has
_NESTED = {"material": ("material", MaterialParams), "boundary": ("bcs", BoundarySpec)}

# converter -> formatter writing a value the converter reads back unchanged
_FORMATTERS = {
    _to_int: str,
    _to_float: repr,
    _to_bool: lambda v: "true" if v else "false",
    _to_fractions: lambda v: " ".join(repr(f) for f in v),
    _to_str: str,
}


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
            target, conv = _SCHEMA[section][key]
            try:
                value = conv(raw)
            except ValueError as err:
                raise ConfigError(
                    f"{source}: bad value for {key!r} in [{section}]: {err}"
                ) from err
            nested.get(section, values)[target] = value
    try:
        for section, (name, cls) in _NESTED.items():
            if nested[section]:
                values[name] = cls(**nested[section])
        return SimConfig(**values)
    except (DriverError, FemError) as err:
        raise ConfigError(f"{source}: {err}") from err


def load_config(path) -> SimConfig:
    with open(path) as f:
        return parse_config(f.read(), source=str(path))


def dump_config(cfg: SimConfig) -> str:
    blocks = []
    for section, keys in _SCHEMA.items():
        owner = getattr(cfg, _NESTED[section][0]) if section in _NESTED else cfg
        lines = [f"[{section}]"]
        for key, (target, conv) in keys.items():
            lines.append(f"{key} = {_FORMATTERS[conv](getattr(owner, target))}")
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks) + "\n"


def save_config(cfg: SimConfig, path) -> None:
    with open(path, "w") as f:
        f.write(dump_config(cfg))
