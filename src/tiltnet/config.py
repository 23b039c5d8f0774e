"""Run configuration: INI-style [section] key=value files, strictly checked.

Unknown sections or keys are rejected outright; values carry their section
and key in every complaint. One master seed under [run] feeds network
initialization, shuffling, and the sampler chain; the CLI --seed flag
replaces it after parsing.
"""

from __future__ import annotations

import configparser
import re
from dataclasses import dataclass, replace

from .errors import ConfigError
from .hmc import HmcConfig
from .net import LayerSpec, NetworkConfig, lenet_config
from .train import TrainConfig

_LAYER_RES = {
    "conv": re.compile(r"conv:(\d+)@(\d+)(?:/(\d+))?(?:p(\d+))?"),
    "pool": re.compile(r"pool:(\d+)(?:/(\d+))?"),
    "dense": re.compile(r"dense:(\d+)"),
}

_SECTIONS = {
    "network": {"arch", "layers", "input_shape", "classes"},
    "train": {"mode", "batch_size", "lr", "weight_decay", "momentum", "epochs",
              "pretrain_epochs", "refine_lr", "lr_policy", "lr_step_every",
              "lr_step_factor"},
    "data": {"source", "train_images", "train_labels", "test_images",
             "test_labels", "n", "classes", "image_size", "noise_std", "eval_n"},
    "hmc": {"sigma", "mass", "step_size", "leapfrog_steps", "iterations",
            "init", "init_std", "metropolis", "snapshots"},
    "run": {"out_dir", "seed"},
}


@dataclass(frozen=True)
class DataSpec:
    source: str = "synthetic"
    train_images: str = ""
    train_labels: str = ""
    test_images: str = ""
    test_labels: str = ""
    n: int = 512
    classes: int = 2
    image_size: int = 28
    noise_std: float = 0.1
    eval_n: int = 256


@dataclass(frozen=True)
class RunSpec:
    network: object    # NetworkConfig or None when [network] absent
    train: TrainConfig
    data: object       # DataSpec or None when [data] absent
    hmc: HmcConfig
    out_dir: str
    seed: int

    def with_seed(self, seed: int) -> "RunSpec":
        network = replace(self.network, seed=seed) if self.network else None
        return RunSpec(network, replace(self.train, seed=seed), self.data,
                       replace(self.hmc, seed=seed), self.out_dir, seed)


class _Section:
    def __init__(self, name: str, items: dict):
        self.name = name
        self.items = items

    def _get(self, key: str, conv, default):
        if key not in self.items:
            return default
        raw = self.items[key]
        try:
            return conv(raw)
        except (ValueError, TypeError) as exc:
            raise ConfigError(f"[{self.name}] {key}: bad value {raw!r}: {exc}") from exc

    def str_(self, key, default=""):
        return self._get(key, str, default)

    def int_(self, key, default=0):
        return self._get(key, int, default)

    def float_(self, key, default=0.0):
        return self._get(key, float, default)

    def bool_(self, key, default=False):
        return self._get(key, _parse_bool, default)


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


def _network_from(section: _Section, seed: int):
    arch = section.str_("arch")
    classes = section.int_("classes", 10)
    input_shape = section._get("input_shape", _parse_shape, (1, 28, 28))
    if arch:
        if arch != "lenet":
            raise ConfigError(f"[network] arch: unknown preset {arch!r}")
        if "layers" in section.items:
            raise ConfigError("[network]: give either arch or layers, not both")
        return lenet_config(classes, input_shape, seed)
    if "layers" not in section.items:
        raise ConfigError("[network]: needs arch or layers")
    return NetworkConfig(input_shape, parse_layers(section.items["layers"]),
                         classes, "gaussian", seed)


def parse_config(path) -> RunSpec:
    """Read and validate a config file into a RunSpec."""
    parser = configparser.ConfigParser(interpolation=None)
    parser.optionxform = str
    with open(path) as fh:   # missing file surfaces as OSError (exit 3)
        try:
            parser.read_file(fh)
        except configparser.Error as exc:
            raise ConfigError(f"{path}: {exc}") from exc

    sections = {}
    for name in parser.sections():
        if name not in _SECTIONS:
            raise ConfigError(f"unknown section [{name}]")
        items = dict(parser.items(name))
        unknown = set(items) - _SECTIONS[name]
        if unknown:
            raise ConfigError(f"[{name}]: unknown keys: {', '.join(sorted(unknown))}")
        sections[name] = _Section(name, items)

    run = sections.get("run", _Section("run", {}))
    seed = run.int_("seed", 0)
    if seed < 0:
        raise ConfigError(f"[run] seed: must be >= 0, got {seed}")
    out_dir = run.str_("out_dir", "")

    network = None
    if "network" in sections:
        network = _network_from(sections["network"], seed)

    t = sections.get("train", _Section("train", {}))
    train = TrainConfig(
        mode=t.str_("mode", "DG"),
        batch_size=t.int_("batch_size", 64),
        lr=t.float_("lr", 0.01),
        weight_decay=t.float_("weight_decay", 0.0005),
        momentum=t.float_("momentum", 0.9),
        epochs=t.int_("epochs", 25),
        pretrain_epochs=t.int_("pretrain_epochs", 16),
        refine_lr=t.float_("refine_lr", 0.003),
        lr_policy=t.str_("lr_policy", "constant"),
        lr_step_every=t.int_("lr_step_every", 0),
        lr_step_factor=t.float_("lr_step_factor", 1.0),
        seed=seed,
    )
    train.validate()

    data = None
    if "data" in sections:
        d = sections["data"]
        source = d.str_("source", "synthetic")
        if source not in ("synthetic", "idx"):
            raise ConfigError(f"[data] source: expected synthetic or idx, got {source!r}")
        data = DataSpec(
            source=source,
            train_images=d.str_("train_images"),
            train_labels=d.str_("train_labels"),
            test_images=d.str_("test_images"),
            test_labels=d.str_("test_labels"),
            n=d.int_("n", 512),
            classes=d.int_("classes", 2),
            image_size=d.int_("image_size", 28),
            noise_std=d.float_("noise_std", 0.1),
            eval_n=d.int_("eval_n", 256),
        )
        if source == "idx" and not (data.train_images and data.train_labels):
            raise ConfigError("[data] source=idx needs train_images and train_labels")

    h = sections.get("hmc", _Section("hmc", {}))
    hmc = HmcConfig(
        sigma=h.float_("sigma", 10.0),
        mass=h.float_("mass", 1e-4),
        step_size=h.float_("step_size", 1e-4),
        leapfrog_steps=h.int_("leapfrog_steps", 100),
        iterations=h.int_("iterations", 300),
        init=h.str_("init", "gaussian"),
        init_std=h.float_("init_std", 10.0),
        metropolis=h.bool_("metropolis", True),
        seed=seed,
        snapshots=h._get("snapshots", _parse_ints, ()),
    )
    try:
        hmc.validate()
    except ValueError as exc:
        raise ConfigError(f"[hmc]: {exc}") from exc

    return RunSpec(network, train, data, hmc, out_dir, seed)
