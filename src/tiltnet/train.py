"""Training loop, momentum optimizer, and the run log.

Gradients arrive ascent-oriented from the loss layer; the optimizer performs
momentum gradient ascent on the batch log-likelihood with L2 shrinkage:

    v <- mu * v + lr * (g - decay * w);  w <- w + v

with g already scaled by 1/batch. Three schedules: DG (discriminative only),
GG (generative only), and GG+DG which pre-trains generatively and then
refines discriminatively from the pre-trained weights at a lower rate,
resetting velocities exactly once at the switch.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import loss as loss_mod
from . import net as net_mod
from .data import Dataset, epoch_batches
from .errors import ConfigError, NumericsError, ShapeError

MODES = ("DG", "GG", "GG+DG")


@dataclass(frozen=True)
class TrainConfig:
    mode: str = "DG"
    batch_size: int = 64
    lr: float = 0.01
    weight_decay: float = 0.0005
    momentum: float = 0.9
    epochs: int = 25
    pretrain_epochs: int = 16    # GG+DG only: epochs spent in GG
    refine_lr: float = 0.003     # GG+DG only: rate after the switch
    lr_policy: str = "constant"  # or "step"
    lr_step_every: int = 0
    lr_step_factor: float = 1.0
    seed: int = 0

    def validate(self) -> None:
        if self.mode not in MODES:
            raise ConfigError(f"mode must be one of {', '.join(MODES)}, got {self.mode!r}")
        if self.batch_size < 1 or self.epochs < 0:
            raise ConfigError("batch_size must be >= 1 and epochs >= 0")
        if self.lr <= 0 or self.refine_lr <= 0:
            raise ConfigError("learning rates must be positive")
        if not 0.0 <= self.momentum < 1.0:
            raise ConfigError("momentum must lie in [0, 1)")
        if self.weight_decay < 0:
            raise ConfigError("weight_decay must be >= 0")
        if self.mode == "GG+DG" and not 0 <= self.pretrain_epochs < max(self.epochs, 1):
            raise ConfigError(f"pretrain_epochs must lie in [0, epochs), got "
                              f"{self.pretrain_epochs} with epochs={self.epochs}")
        if self.lr_policy not in ("constant", "step"):
            raise ConfigError(f"unknown lr_policy {self.lr_policy!r}")
        if self.lr_policy == "step" and self.lr_step_every < 1:
            raise ConfigError("lr_policy=step needs lr_step_every >= 1")


class OptimizerState:
    """Velocity per parameter tensor, mirroring the network's store."""

    def __init__(self, net: net_mod.Network):
        self.velocity = {k: np.zeros_like(v) for k, v in net.params.items()}

    def reset(self) -> None:
        for v in self.velocity.values():
            v[...] = 0.0


def sgd_step(net: net_mod.Network, grads: dict, state: OptimizerState,
             lr: float, weight_decay: float, momentum: float) -> None:
    """One momentum ascent step in place; refuses non-finite gradients."""
    if set(grads) != set(net.params):
        missing = set(net.params) ^ set(grads)
        raise ShapeError(f"gradient dict does not match parameters: {sorted(missing)}")
    for name in sorted(grads):
        g = grads[name]
        if not np.all(np.isfinite(g)):
            raise NumericsError(f"non-finite gradient for {name}")
        v = state.velocity[name]
        v *= momentum
        v += lr * (g - weight_decay * net.params[name])
        net.params[name] += v
    net.bump_version()


class MetricsLog:
    """Append-only field=value records, one per line.

    Timestamps appear only in '#' header lines so two runs of the same seed
    produce byte-identical record sections.
    """

    def __init__(self, path=None, echo: bool = False):
        self.path = path
        self.echo = echo
        self.records: list = []
        if path is not None:
            open(path, "a").close()

    @staticmethod
    def _fmt(value) -> str:
        if isinstance(value, float):
            return f"{value:.10g}"
        return str(value)

    def header(self, text: str) -> None:
        self._emit("# " + text)

    def record(self, **fields_) -> None:
        line = " ".join(f"{k}={self._fmt(v)}" for k, v in fields_.items())
        self.records.append(dict(fields_))
        self._emit(line)

    def _emit(self, line: str) -> None:
        if self.echo:
            print(line)
        if self.path is not None:
            with open(self.path, "a") as fh:
                fh.write(line + "\n")


def evaluate(net: net_mod.Network, dataset: Dataset, batch_size: int = 256) -> float:
    """Classification error rate under argmax of the scores (ties resolve to
    the lowest class index, which is what argmax does)."""
    if len(dataset) < 1:
        raise ValueError("cannot evaluate on an empty dataset")
    wrong = 0
    for start in range(0, len(dataset), batch_size):
        xb = dataset.images[start:start + batch_size]
        yb = dataset.labels[start:start + batch_size]
        scores, _ = net_mod.forward_batch(net, xb)
        wrong += int((scores.argmax(axis=1) != yb).sum())
    return wrong / len(dataset)


def dataset_log_likelihoods(net: net_mod.Network, dataset: Dataset,
                            batch_size: int, seed: int = 0, epoch: int = 0) -> tuple:
    """(disc_ll, gen_ll) summed over the epoch's batch partition, without
    touching the parameters. Uses the same partition the trainer would."""
    total_d = total_g = 0.0
    for xb, yb in epoch_batches(dataset, batch_size, seed, epoch):
        scores, _ = net_mod.forward_batch(net, xb)
        ld, _ = loss_mod.disc_loss_and_grad(scores, yb)
        total_d += ld
        if len(yb) >= 2:
            lg, _ = loss_mod.gen_loss_and_grad(scores, yb)
            total_g += lg
    return total_d, total_g


def _mode_for_epoch(config: TrainConfig, epoch: int) -> str:
    if config.mode == "GG+DG":
        return "GG" if epoch < config.pretrain_epochs else "DG"
    return config.mode


def _lr_for_epoch(config: TrainConfig, epoch: int) -> float:
    if config.mode == "GG+DG" and epoch >= config.pretrain_epochs:
        base = config.refine_lr
        steps_into = epoch - config.pretrain_epochs
    else:
        base = config.lr
        steps_into = epoch
    if config.lr_policy == "step":
        base *= config.lr_step_factor ** (steps_into // config.lr_step_every)
    return base


def run_training(net: net_mod.Network, train_set: Dataset, config: TrainConfig,
                 eval_set: Dataset = None, out_dir=None, log: MetricsLog = None,
                 start_epoch: int = 0, state: OptimizerState = None):
    """Train in place for config.epochs epochs; returns (net, log).

    With out_dir set, writes <epoch>.ckpt plus an optimizer sidecar after
    every epoch, which resume_training picks up. start_epoch/state exist for
    that resume path.
    """
    config.validate()
    if log is None:
        log = MetricsLog()
    if state is None:
        state = OptimizerState(net)
    if start_epoch == 0:
        log.header("tiltnet-train format=1")
        log.header(f"time={time.strftime('%Y-%m-%dT%H:%M:%S')}")
        log.header(f"mode={config.mode} batch_size={config.batch_size} lr={config.lr} "
                   f"weight_decay={config.weight_decay} momentum={config.momentum} "
                   f"epochs={config.epochs} seed={config.seed}")
        if config.mode == "GG+DG":
            log.header(f"pretrain_epochs={config.pretrain_epochs} "
                       f"refine_lr={config.refine_lr}")

    for epoch in range(start_epoch, config.epochs):
        mode = _mode_for_epoch(config, epoch)
        lr = _lr_for_epoch(config, epoch)
        if config.mode == "GG+DG" and epoch == config.pretrain_epochs:
            state.reset()
            log.record(event="refine_switch", epoch=epoch, lr=lr)
        t0 = time.perf_counter()
        sum_d = sum_g = 0.0
        seen = wrong = 0
        ess_values: list = []
        for xb, yb in epoch_batches(train_set, config.batch_size, config.seed, epoch):
            scores, cache = net_mod.forward_batch(net, xb)
            ld, gd = loss_mod.disc_loss_and_grad(scores, yb)
            sum_d += ld
            if len(yb) >= 2:
                lg, gg = loss_mod.gen_loss_and_grad(scores, yb)
                sum_g += lg
                ess_values.extend(loss_mod.per_class_ess(scores, yb).values())
            else:
                gg = None
            if mode == "GG":
                if gg is None:
                    raise NumericsError("generative step needs a batch of >= 2")
                score_grad = gg
            else:
                score_grad = gd
            grads = net_mod.backward_params(net, cache, score_grad / len(yb))
            sgd_step(net, grads, state, lr, config.weight_decay, config.momentum)
            wrong += int((scores.argmax(axis=1) != yb).sum())
            seen += len(yb)
        wall = time.perf_counter() - t0
        rec = {
            "epoch": epoch,
            "mode": mode,
            "lr": lr,
            "disc_ll": sum_d,
            "gen_ll": sum_g,
            "train_err": wrong / max(seen, 1),
        }
        if eval_set is not None:
            rec["eval_err"] = evaluate(net, eval_set)
        if ess_values:
            rec["ess_mean"] = float(np.mean(ess_values))
            rec["ess_min"] = float(np.min(ess_values))
        rec["wall"] = wall
        log.record(**rec)
        if out_dir is not None:
            _checkpoint_epoch(net, state, config, epoch, out_dir)
    return net, log


def _checkpoint_epoch(net, state, config: TrainConfig, epoch: int, out_dir) -> None:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    net_mod.save_checkpoint(net, out / f"{epoch:03d}.ckpt")
    net_mod.write_tensor_file(out / f"{epoch:03d}.opt",
                              {"kind": "optimizer", "epoch": epoch,
                               "mode": config.mode},
                              state.velocity)


def resume_training(train_set: Dataset, config: TrainConfig, out_dir,
                    eval_set: Dataset = None, log: MetricsLog = None):
    """Continue an interrupted run from the newest epoch checkpoint in
    out_dir; bit-identical to the uninterrupted run."""
    out = Path(out_dir)
    done = sorted(out.glob("[0-9][0-9][0-9].ckpt"))
    if not done:
        raise ConfigError(f"no epoch checkpoints under {out_dir} to resume from")
    last = done[-1]
    epoch = int(last.stem)
    net = net_mod.load_checkpoint(last)
    meta, velocity = net_mod.read_tensor_file(last.with_suffix(".opt"))
    if meta.get("kind") != "optimizer":
        raise ConfigError(f"{last.with_suffix('.opt')} is not an optimizer sidecar")
    state = OptimizerState(net)
    for k in state.velocity:
        state.velocity[k] = velocity[k]
    return run_training(net, train_set, config, eval_set=eval_set, out_dir=out_dir,
                        log=log, start_epoch=epoch + 1, state=state)
