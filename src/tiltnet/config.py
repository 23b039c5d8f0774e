"""Run configuration: INI-style [section] key=value files, strictly checked.

The keys of [train], [data] and [hmc] are the fields of TrainConfig,
DataSpec and HmcConfig (all but seed): each value is converted by its
field's type, an absent key takes the field's default, and the dataclass's
own validate() checks the result. Unknown sections or keys are rejected
outright; values carry their section and key in every complaint. One master
seed under [run] feeds network initialization, shuffling, and the sampler
chain; parse_config's seed argument (the CLI --seed flag) overrides it.
"""

from __future__ import annotations

import configparser
import math
import re
from dataclasses import dataclass, fields
from typing import get_type_hints

from .errors import ConfigError
from .hmc import HmcConfig
from .net import LayerSpec, NetworkConfig, lenet_config
from .train import TrainConfig

_LAYER_RES = {
    "conv": re.compile(r"conv:(\d+)@(\d+)(?:/(\d+))?(?:p(\d+))?"),
    "pool": re.compile(r"pool:(\d+)(?:/(\d+))?"),
    "dense": re.compile(r"dense:(\d+)"),
}


@dataclass(frozen=True)
class DataSpec:
    source: str = "synthetic"    # or "idx"
    train_images: str = ""       # idx only: the four IDX paths
    train_labels: str = ""
    test_images: str = ""
    test_labels: str = ""
    n: int = 512                 # synthetic only: the generator's arguments
    classes: int = 2
    image_size: int = 28
    noise_std: float = 0.1
    eval_n: int = 256

    def validate(self) -> None:
        if self.source not in ("synthetic", "idx"):
            raise ConfigError(f"source: expected synthetic or idx, got {self.source!r}")
        if self.source == "idx" and not (self.train_images and self.train_labels):
            raise ConfigError("source=idx needs train_images and train_labels")
        if not 0 <= self.noise_std < math.inf:
            raise ConfigError(f"noise_std must be finite and >= 0, got {self.noise_std}")


# sections whose keys are a config dataclass's fields; seed comes from [run]
_TABLES = {"train": TrainConfig, "data": DataSpec, "hmc": HmcConfig}
_KEYS = {
    "network": {"arch", "layers", "input_shape", "classes"},
    "run": {"out_dir", "seed"},
    **{name: {f.name for f in fields(cls)} - {"seed"} for name, cls in _TABLES.items()},
}


@dataclass(frozen=True)
class RunSpec:
    network: object    # NetworkConfig or None when [network] absent
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


def _parse_shape(raw: str) -> tuple:
    parts = raw.lower().split("x")
    if len(parts) != 3:
        raise ValueError("expected CxHxW, e.g. 1x28x28")
    return tuple(int(p) for p in parts)


def _parse_ints(raw: str) -> tuple:
    return tuple(int(p) for p in raw.split(",") if p.strip())


_CONVERTERS = {int: int, float: float, str: str, bool: _parse_bool, tuple: _parse_ints}


def _from_table(section: str, items: dict, seed: int):
    """The section's dataclass from its items, validated; the fields named
    in items are converted by their declared types, the rest keep defaults."""
    cls = _TABLES[section]
    types = get_type_hints(cls)
    values = {key: _get(section, items, key, _CONVERTERS[types[key]], None)
              for key in items}
    if "seed" in types:
        values["seed"] = seed
    spec = cls(**values)
    try:
        spec.validate()
    except ValueError as exc:
        raise ConfigError(f"[{section}]: {exc}") from exc
    return spec


def parse_layers(text: str) -> tuple:
    """Comma-separated layer tokens:
    conv:<ch>@<k>[/<stride>][p<pad>], pool:<k>[/<stride>], dense:<w>,
    relu, flatten. Pool stride defaults to the window edge."""
    specs = []
    for token in (t.strip() for t in text.split(",")):
        if not token:
            continue
        if token == "relu":
            specs.append(LayerSpec("relu"))
        elif token == "flatten":
            specs.append(LayerSpec("flatten"))
        elif (m := _LAYER_RES["conv"].fullmatch(token)):
            ch, k, s, p = m.groups()
            specs.append(LayerSpec("conv", channels=int(ch), kernel=int(k),
                                   stride=int(s or 1), pad=int(p or 0)))
        elif (m := _LAYER_RES["pool"].fullmatch(token)):
            k, s = m.groups()
            specs.append(LayerSpec("maxpool", kernel=int(k),
                                   stride=int(s) if s else int(k)))
        elif (m := _LAYER_RES["dense"].fullmatch(token)):
            specs.append(LayerSpec("dense", width=int(m.group(1))))
        else:
            raise ConfigError(f"[network] layers: unknown layer token {token!r}")
    if not specs:
        raise ConfigError("[network] layers: no layers given")
    return tuple(specs)


def _network_from(items: dict, seed: int):
    arch = items.get("arch", "")
    classes = _get("network", items, "classes", int, 10)
    input_shape = _get("network", items, "input_shape", _parse_shape, (1, 28, 28))
    if arch:
        if arch != "lenet":
            raise ConfigError(f"[network] arch: unknown preset {arch!r}")
        if "layers" in items:
            raise ConfigError("[network]: give either arch or layers, not both")
        return lenet_config(classes, input_shape, seed)
    if "layers" not in items:
        raise ConfigError("[network]: needs arch or layers")
    return NetworkConfig(input_shape, parse_layers(items["layers"]), classes, seed)


def parse_config(path, seed=None) -> RunSpec:
    """Read and validate a config file into a RunSpec; a seed other than
    None replaces the file's [run] seed, which is still checked."""
    parser = configparser.ConfigParser(interpolation=None)
    parser.optionxform = str
    with open(path) as fh:   # missing file surfaces as OSError (exit 3)
        try:
            parser.read_file(fh)
        except configparser.Error as exc:
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

    network = None
    if "network" in sections:
        network = _network_from(sections["network"], seed)
    train = _from_table("train", sections.get("train", {}), seed)
    data = _from_table("data", sections["data"], seed) if "data" in sections else None
    hmc = _from_table("hmc", sections.get("hmc", {}), seed)
    return RunSpec(network, train, data, hmc, out_dir, seed)
