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
from dataclasses import dataclass, fields
from itertools import takewhile
from pathlib import Path

import numpy as np

from . import loss as loss_mod
from . import net as net_mod
from . import tensor
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
    lr_step_every: int = 0       # 0: a constant rate
    lr_step_factor: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if self.mode not in MODES:
            raise ConfigError(f"mode must be one of {', '.join(MODES)}, got {self.mode!r}")
        if self.batch_size < 1 or self.epochs < 0:
            raise ConfigError("batch_size must be >= 1 and epochs >= 0")
        _check_rates(self.weight_decay, self.momentum, self.lr, self.refine_lr)
        if self.mode == "GG+DG" and not 0 <= self.pretrain_epochs < max(self.epochs, 1):
            raise ConfigError(f"pretrain_epochs must lie in [0, epochs), got "
                              f"{self.pretrain_epochs} with epochs={self.epochs}")
        if self.lr_step_every < 0:
            raise ConfigError(f"lr_step_every must be >= 0, got {self.lr_step_every}")
        if self.lr_step_every == 0 and self.lr_step_factor != 1.0:
            raise ConfigError("lr_step_factor needs lr_step_every >= 1")
        if not 0 < self.lr_step_factor < math.inf:
            raise ConfigError("lr_step_factor must be positive and finite")


def _check_rates(weight_decay: float, momentum: float, *lrs: float) -> None:
    """The rule TrainConfig and sgd_step share for their rates (ConfigError)."""
    if not all(0 < lr < math.inf for lr in lrs):
        raise ConfigError("learning rates must be positive and finite")
    if not 0.0 <= momentum < 1.0:
        raise ConfigError("momentum must lie in [0, 1)")
    if not 0 <= weight_decay < math.inf:
        raise ConfigError("weight_decay must be finite and >= 0")


def _check_fit(net: net_mod.Network, tensors: dict, what: str) -> None:
    """Refuse a dict whose names or shapes are not those of net.params, or a
    velocity dict whose arrays cannot be updated in place (ShapeError)."""
    want = {k: w.shape for k, w in net.params.items()}
    if (got := {k: np.shape(v) for k, v in tensors.items()}) != want:
        bad = sorted(k for k in want.keys() | got.keys() if got.get(k) != want.get(k))
        raise ShapeError(f"{what} dict does not match parameters: {bad}")
    if what == "velocity" and (bad := sorted(k for k, v in tensors.items() if not (
            isinstance(v, np.ndarray) and v.dtype == np.float64 and v.flags.writeable))):
        raise ShapeError(f"velocity arrays are not writeable float64: {bad}")


def sgd_step(net: net_mod.Network, grads: dict, state: dict,
             lr: float, weight_decay: float, momentum: float) -> None:
    """One momentum ascent step in place, or a refusal that changes nothing: of
    rates TrainConfig refuses (ConfigError), of grads or state unlike
    net.params in names or shapes or of state not writeable float64
    (ShapeError), or of a non-finite gradient (NumericsError). Split engaged,
    the worker updates each tensor's second half of rows."""
    _check_rates(weight_decay, momentum, lr)
    _check_fit(net, grads, "gradient")
    _check_fit(net, state, "velocity")
    names = sorted(grads)
    for name in names:
        with np.errstate(over="ignore", invalid="ignore"):  # a finite sum has finite entries
            if not (np.isfinite(grads[name].sum()) or np.all(np.isfinite(grads[name]))):
                raise NumericsError(f"non-finite gradient for {name}")

    def half(t):
        for g, w, v in ((grads[k], net.params[k], state[k]) for k in names):
            cut = (len(w) + 1) // 2
            g, w, v = (a[cut:] if t else a[:cut] for a in (g, w, v))
            v *= momentum  # v += lr * (g - weight_decay * w), in place, same order
            u = w * weight_decay
            np.subtract(g, u, out=u)
            u *= lr
            v += u
            w += v

    tensor._split(half)
    net.bump_version()


class MetricsLog:
    """Append-only field=value records, one per line; the first line makes the file.

    Timestamps appear only in '#' header lines so two runs of the same seed
    produce byte-identical record sections.
    """

    def __init__(self, path=None, echo: bool = False):
        self.path = path
        self.echo = echo
        self.records: list = []

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
        """Cut ``records`` and the file back to what came before ``epoch``:
        headers and the records of earlier epochs, up to the first line that
        is neither (a record of ``epoch`` or later, or a line torn by a crash).
        A resumed run that repeats those epochs then logs each of them once."""
        self.records[:] = takewhile(lambda r: r.get("epoch", epoch) < epoch, self.records)
        if self.path is None or not os.path.exists(self.path):
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


def _check_set(net: net_mod.Network, dataset: Dataset, what: str) -> None:
    """Refuse a set the network cannot score: DataError when it is empty or
    its arrays, changed since it was made, would no longer make a Dataset;
    ShapeError when it has more classes than the network outputs or its
    images are not the network's input_shape."""
    try:
        Dataset(dataset.images, dataset.labels)
    except DataError as exc:
        raise DataError(f"the {what} set: {exc}") from exc
    if len(dataset) < 1:
        raise DataError(f"the {what} set is empty")
    if dataset.num_classes > net.num_outputs:
        raise ShapeError(f"the {what} set has {dataset.num_classes} classes, "
                         f"the network outputs {net.num_outputs}")
    shape, want = dataset.images.shape[1:], tuple(net.config.input_shape)
    if shape != want:
        raise ShapeError(f"{what} images are {'x'.join(map(str, shape))}, "
                         f"the network's input_shape is {'x'.join(map(str, want))}")


def evaluate(net: net_mod.Network, dataset: Dataset, batch_size: int = 256) -> float:
    """Classification error rate under argmax of the scores (ties resolve to
    the lowest class index, which is what argmax does). Score-only forward
    passes: no activation cache is kept. Refuses a set the network cannot
    score, a batch size below 1 (DataError) and non-finite scores (NumericsError)."""
    _check_set(net, dataset, "evaluation")
    if batch_size < 1:
        raise DataError(f"evaluation batch size must be >= 1, got {batch_size}")
    wrong = 0
    with np.errstate(over="ignore", invalid="ignore"):  # non-finite scores are refused
        for start in range(0, len(dataset), batch_size):
            xb = dataset.images[start:start + batch_size]
            yb = dataset.labels[start:start + batch_size]
            scores, _ = net_mod.forward_batch(net, xb, keep=False)
            if not np.all(np.isfinite(scores)):
                raise NumericsError("non-finite scores in evaluation")
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
    if config.lr_step_every:
        base *= config.lr_step_factor ** (steps_into // config.lr_step_every)
    return base


def _keep_heap_mapped() -> None:
    """Fix glibc's mmap and trim thresholds (process-wide) at its dynamic rule's ceilings,
    so a step's freed heap stays mapped (see README); a no-op where libc has no mallopt."""
    import ctypes  # not on import
    mallopt = getattr(ctypes.CDLL(None) if os.name == "posix" else None, "mallopt", None)
    if mallopt:  # M_TRIM_THRESHOLD alone would pin M_MMAP_THRESHOLD at 128 KiB
        mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD
        mallopt(-1, 64 << 20)  # M_TRIM_THRESHOLD


def run_training(net: net_mod.Network, train_set: Dataset, config: TrainConfig,
                 eval_set: Dataset = None, out_dir=None, log: MetricsLog = None,
                 start_epoch: int = 0, state: dict = None):
    """Train in place for config.epochs epochs; returns (net, log).

    With out_dir set, writes <epoch>.ckpt plus an optimizer sidecar after
    every epoch, which resume_training picks up. start_epoch and state (the
    velocity per parameter name; zeros when None) exist for that resume path,
    which rewinds the log where a fresh start writes its header. A network
    with fewer than 2 score columns, a state that sgd_step would refuse, a set
    the network cannot score and a GG epoch ending on one image are refused first.
    """
    if net.num_outputs < 2:
        raise ShapeError(f"training needs >= 2 score columns, the network has {net.num_outputs}")
    if state is None:
        state = {k: np.zeros_like(v) for k, v in net.params.items()}
    _check_fit(net, state, "velocity")
    _check_set(net, train_set, "training")
    if eval_set is not None:
        _check_set(net, eval_set, "evaluation")
    n = len(train_set)
    if config.epochs and _mode_for_epoch(config, 0) == "GG" and (n - 1) % config.batch_size == 0:
        raise ConfigError(f"a GG epoch over n = {n} images in batches of batch_size = "
                          f"{config.batch_size} ends on a batch of one image; the "
                          f"generative loss needs >= 2")
    if out_dir is not None:
        Path(out_dir).mkdir(parents=True, exist_ok=True)
    if log is None:
        log = MetricsLog()
    if start_epoch == 0:
        log.header("tiltnet-train format=1")
        log.header(f"time={time.strftime('%Y-%m-%dT%H:%M:%S')}")
        log.header(" ".join(f"{f.name}={getattr(config, f.name)}" for f in fields(config)))
    else:
        log.rewind(start_epoch)
    _keep_heap_mapped()

    with np.errstate(over="ignore", invalid="ignore"):  # losses and sgd_step refuse NaN/inf
        for epoch in range(start_epoch, config.epochs):
            mode = _mode_for_epoch(config, epoch)
            lr = _lr_for_epoch(config, epoch)
            if config.mode == "GG+DG" and epoch == config.pretrain_epochs:
                for v in state.values():
                    v[...] = 0.0
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
    net_mod.write_tensor_file(out / f"{epoch:03d}.opt",
                              {"kind": "optimizer", "epoch": epoch,
                               "mode": config.mode},
                              state)
    net_mod.save_checkpoint(net, out / f"{epoch:03d}.ckpt")


def _read_epoch(ckpt: Path):
    """Network and velocity per parameter saved after one epoch; CheckpointError
    when either file is missing or does not verify."""
    net = net_mod.load_checkpoint(ckpt)
    opt = ckpt.with_suffix(".opt")
    try:
        meta, velocity = net_mod.read_tensor_file(opt)
    except FileNotFoundError as exc:
        raise CheckpointError(f"optimizer sidecar {opt.name} is missing") from exc
    if meta.get("kind") != "optimizer" or net.param_shapes != {
            k: v.shape for k, v in velocity.items()}:
        raise CheckpointError(f"{opt.name} is not this network's optimizer sidecar")
    return net, {k: velocity[k] for k in net.param_shapes}


def resume_training(train_set: Dataset, config: TrainConfig, out_dir,
                    eval_set: Dataset = None, log: MetricsLog = None):
    """Continue an interrupted run from the newest epoch in out_dir whose
    checkpoint and optimizer sidecar both verify; bit-identical to the
    uninterrupted run. An epoch with a torn or missing file is passed over.
    run_training rewinds a given log to that epoch, so an epoch logged
    before its checkpoint tore is not logged twice."""
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
        return run_training(net, train_set, config, eval_set=eval_set, out_dir=out_dir,
                            log=log, start_epoch=int(ckpt.stem) + 1, state=state)
    raise CheckpointError(f"no epoch under {out_dir} has a readable checkpoint "
                          f"and sidecar: {'; '.join(problems)}")
