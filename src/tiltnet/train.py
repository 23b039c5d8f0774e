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

import math
import os
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import loss as loss_mod
from . import net as net_mod
from .data import Dataset, epoch_batches
from .errors import CheckpointError, ConfigError, DataError, NumericsError, ShapeError

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
        if not (0 < self.lr < math.inf and 0 < self.refine_lr < math.inf):
            raise ConfigError("learning rates must be positive and finite")
        if not 0.0 <= self.momentum < 1.0:
            raise ConfigError("momentum must lie in [0, 1)")
        if not 0 <= self.weight_decay < math.inf:
            raise ConfigError("weight_decay must be finite and >= 0")
        if self.mode == "GG+DG" and not 0 <= self.pretrain_epochs < max(self.epochs, 1):
            raise ConfigError(f"pretrain_epochs must lie in [0, epochs), got "
                              f"{self.pretrain_epochs} with epochs={self.epochs}")
        if self.lr_policy not in ("constant", "step"):
            raise ConfigError(f"unknown lr_policy {self.lr_policy!r}")
        if self.lr_policy == "step" and self.lr_step_every < 1:
            raise ConfigError("lr_policy=step needs lr_step_every >= 1")
        if not 0 < self.lr_step_factor < math.inf:
            raise ConfigError("lr_step_factor must be positive and finite")

    def check_batches(self, n: int) -> None:
        """Refuse a run with a GG epoch over n images whose last batch holds
        one image: the generative loss weighs images against each other."""
        last = (n - 1) % self.batch_size + 1 if n else 0   # images in the last batch
        if self.epochs and _mode_for_epoch(self, 0) == "GG" and last == 1:
            raise ConfigError(f"a GG epoch over n = {n} images in batches of batch_size = "
                              f"{self.batch_size} ends on a batch of one image; the "
                              f"generative loss needs >= 2")


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
        g, w, v = grads[name], net.params[name], state.velocity[name]
        with np.errstate(over="ignore", invalid="ignore"):  # a finite sum has finite entries
            finite = np.isfinite(g.sum()) or np.all(np.isfinite(g))
        if not finite:
            raise NumericsError(f"non-finite gradient for {name}")
        v *= momentum  # v += lr * (g - weight_decay * w), in place, same order
        t = w * weight_decay
        np.subtract(g, t, out=t)
        t *= lr
        v += t
        w += v
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

    def rewind(self, epoch: int) -> None:
        """Cut the file back to its lines from before ``epoch``: headers and
        the records of earlier epochs, up to the first line that is neither
        (a record of ``epoch`` or later, or a line torn by a crash). A resumed
        run that repeats those epochs then logs each of them once."""
        if self.path is None:
            return
        path = Path(self.path)
        kept = []
        for line in path.read_text().splitlines(keepends=True):
            if not line.endswith("\n"):
                break
            if not line.startswith("#"):
                tags = [t[len("epoch="):] for t in line.split() if t.startswith("epoch=")]
                if len(tags) != 1 or not tags[0].isdigit() or int(tags[0]) >= epoch:
                    break
            kept.append(line)
        tmp = path.with_name(path.name + ".tmp")
        tmp.write_text("".join(kept))
        os.replace(tmp, path)

    def _emit(self, line: str) -> None:
        if self.echo:
            print(line)
        if self.path is not None:
            with open(self.path, "a") as fh:
                fh.write(line + "\n")


def evaluate(net: net_mod.Network, dataset: Dataset, batch_size: int = 256) -> float:
    """Classification error rate under argmax of the scores (ties resolve to
    the lowest class index, which is what argmax does). Score-only forward
    passes: no activation cache is kept. DataError for an empty dataset or a
    batch size below 1."""
    if len(dataset) < 1:
        raise DataError("cannot evaluate on an empty dataset")
    if batch_size < 1:
        raise DataError(f"evaluation batch size must be >= 1, got {batch_size}")
    wrong = 0
    for start in range(0, len(dataset), batch_size):
        xb = dataset.images[start:start + batch_size]
        yb = dataset.labels[start:start + batch_size]
        scores, _ = net_mod.forward_batch(net, xb, keep=False)
        wrong += int((scores.argmax(axis=1) != yb).sum())
    return wrong / len(dataset)


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
    config.check_batches(len(train_set))
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
            score_grad = gg if mode == "GG" else gd
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
    # the sidecar goes first: a .ckpt on disk marks a complete epoch
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    net_mod.write_tensor_file(out / f"{epoch:03d}.opt",
                              {"kind": "optimizer", "epoch": epoch,
                               "mode": config.mode},
                              state.velocity)
    net_mod.save_checkpoint(net, out / f"{epoch:03d}.ckpt")


def _read_epoch(ckpt: Path):
    """Network and optimizer state saved after one epoch; CheckpointError
    when either file is missing or does not verify."""
    net = net_mod.load_checkpoint(ckpt)
    opt = ckpt.with_suffix(".opt")
    try:
        meta, velocity = net_mod.read_tensor_file(opt)
    except FileNotFoundError as exc:
        raise CheckpointError(f"optimizer sidecar {opt.name} is missing") from exc
    state = OptimizerState(net)
    if (meta.get("kind") != "optimizer" or set(velocity) != set(state.velocity)
            or any(velocity[k].shape != v.shape for k, v in state.velocity.items())):
        raise CheckpointError(f"{opt.name} is not this network's optimizer sidecar")
    state.velocity.update(velocity)
    return net, state


def resume_training(train_set: Dataset, config: TrainConfig, out_dir,
                    eval_set: Dataset = None, log: MetricsLog = None):
    """Continue an interrupted run from the newest epoch in out_dir whose
    checkpoint and optimizer sidecar both verify; bit-identical to the
    uninterrupted run. An epoch with a torn or missing file is passed over.
    A given log is first rewound to that epoch (``MetricsLog.rewind``), so
    an epoch logged before its checkpoint tore is not logged twice."""
    done = sorted(Path(out_dir).glob("[0-9][0-9][0-9].ckpt"), reverse=True)
    if not done:
        raise ConfigError(f"no epoch checkpoints under {out_dir} to resume from")
    problems = []
    for ckpt in done:
        try:
            net, state = _read_epoch(ckpt)
        except CheckpointError as exc:
            problems.append(f"{ckpt.name}: {exc}")
            continue
        start = int(ckpt.stem) + 1
        if log is not None:
            log.rewind(start)
        return run_training(net, train_set, config, eval_set=eval_set, out_dir=out_dir,
                            log=log, start_epoch=start, state=state)
    raise CheckpointError(f"no epoch under {out_dir} has a readable checkpoint "
                          f"and sidecar: {'; '.join(problems)}")
