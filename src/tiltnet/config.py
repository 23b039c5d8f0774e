"""Run configuration: INI-style [section] key=value files, strictly checked.

The keys of [train], [data] and [hmc] are the fields of TrainConfig,
DataSpec and HmcConfig (all but seed): each value is converted by its
field's type, an absent key takes the field's default, and the dataclass
refuses a bad result when it is made. [network] takes only the layer line:
a network's input shape is its training images' shape. Unknown sections or
keys are rejected outright; values carry their section and key in every
complaint. One master seed under [run] feeds network initialization,
shuffling, and the sampler chain; parse_config's seed argument (the CLI
--seed flag) overrides it.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass, fields
from typing import get_type_hints

from .data import DataSpec
from .errors import ConfigError
from .hmc import HmcConfig
from .net import parse_layers
from .train import TrainConfig


# sections whose keys are a config dataclass's fields; seed comes from [run]
_TABLES = {"train": TrainConfig, "data": DataSpec, "hmc": HmcConfig}
_KEYS = {
    "network": {"layers"},
    "run": {"out_dir", "seed"},
    **{name: {f.name for f in fields(cls)} - {"seed"} for name, cls in _TABLES.items()},
}


@dataclass(frozen=True)
class RunSpec:
    layers: object     # tuple of LayerSpec, or None when [network] absent
    train: TrainConfig
    data: object       # DataSpec or None when [data] absent
    hmc: HmcConfig
    out_dir: str
    seed: int


def _get(section: str, items: dict, key: str, conv, default):
    if key not in items:
        return default
    raw = items[key]
    try:
        return conv(raw)
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"[{section}] {key}: bad value {raw!r}: {exc}") from exc


def _parse_bool(raw: str) -> bool:
    low = raw.strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"expected a boolean, got {raw!r}")


def _parse_ints(raw: str) -> tuple:
    return tuple(int(p) for p in raw.split(",") if p.strip())


_CONVERTERS = {int: int, float: float, str: str, bool: _parse_bool, tuple: _parse_ints}


def _from_table(section: str, items: dict, seed: int):
    """The section's dataclass from its items; the fields named in items are
    converted by their declared types, the rest keep defaults."""
    cls = _TABLES[section]
    types = get_type_hints(cls)
    values = {key: _get(section, items, key, _CONVERTERS[types[key]], None)
              for key in items}
    if "seed" in types:
        values["seed"] = seed
    try:
        return cls(**values)
    except ConfigError as exc:
        raise ConfigError(f"[{section}]: {exc}") from exc


def parse_config(path, seed=None) -> RunSpec:
    """Read and validate a config file into a RunSpec; a seed other than
    None replaces the file's [run] seed, which is still checked."""
    parser = configparser.ConfigParser(interpolation=None)
    parser.optionxform = str
    with open(path, encoding="utf-8") as fh:   # missing file surfaces as OSError (exit 3)
        try:
            parser.read_file(fh)
        except (configparser.Error, UnicodeDecodeError) as exc:
            raise ConfigError(f"{path}: {exc}") from exc

    sections = {}
    for name in parser.sections():
        if name not in _KEYS:
            raise ConfigError(f"unknown section [{name}]")
        items = dict(parser.items(name))
        unknown = set(items) - _KEYS[name]
        if unknown:
            raise ConfigError(f"[{name}]: unknown keys: {', '.join(sorted(unknown))}")
        sections[name] = items

    run = sections.get("run", {})
    if (file_seed := _get("run", run, "seed", int, 0)) < 0:
        raise ConfigError(f"[run] seed: must be >= 0, got {file_seed}")
    seed = file_seed if seed is None else seed
    out_dir = run.get("out_dir", "")

    layers = None
    if "network" in sections:
        if "layers" not in sections["network"]:
            raise ConfigError("[network]: needs layers")
        layers = parse_layers(sections["network"]["layers"])
    train = _from_table("train", sections.get("train", {}), seed)
    data = _from_table("data", sections["data"], seed) if "data" in sections else None
    hmc = _from_table("hmc", sections.get("hmc", {}), seed)
    return RunSpec(layers, train, data, hmc, out_dir, seed)
