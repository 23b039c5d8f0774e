"""Optimizer arithmetic, schedule mechanics, determinism, resume, and the
cost parity between the two training modes."""

import ctypes
import math
import os
import re
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from tiltnet import data, hmc, loss, net, tensor, train
from tiltnet.errors import CheckpointError, ConfigError, DataError, NumericsError, ShapeError
from tiltnet.net import LayerSpec, NetworkConfig, build_network

from conftest import assert_refused_when_made, dataset_log_likelihoods, op_counts_since


def small_config(seed=0, classes=2):
    return NetworkConfig(
        input_shape=(1, 8, 8),
        layers=(
            LayerSpec("conv", channels=4, kernel=3),
            LayerSpec("maxpool", kernel=2, stride=2),
            LayerSpec("flatten"),
            LayerSpec("dense", width=classes),
        ),
        seed=seed,
    )


def zero_velocity(network):
    """The optimizer state run_training starts from: a zero velocity per
    parameter."""
    return {k: np.zeros_like(v) for k, v in network.params.items()}


def small_sets(n=32, seed=0):
    return (data.synthetic_dataset(n, 2, 8, seed=seed),
            data.synthetic_dataset(16, 2, 8, seed=seed + 1))


def test_sgd_step_formula():
    network = build_network(small_config())
    state = zero_velocity(network)
    name = "dense1.weight"
    w0 = network.params[name].copy()
    state[name][...] = 0.25
    g = np.full_like(w0, 2.0)
    grads = {k: (g if k == name else np.zeros_like(v))
             for k, v in network.params.items()}
    train.sgd_step(network, grads, state, lr=0.1, weight_decay=0.01, momentum=0.9)
    expected_v = 0.9 * 0.25 + 0.1 * (2.0 - 0.01 * w0)
    np.testing.assert_allclose(state[name], expected_v, atol=1e-15)
    np.testing.assert_allclose(network.params[name], w0 + expected_v, atol=1e-15)


def test_sgd_step_is_ascent():
    # a positive gradient with no decay must increase the parameter
    network = build_network(small_config())
    state = zero_velocity(network)
    grads = {k: np.ones_like(v) for k, v in network.params.items()}
    before = {k: v.copy() for k, v in network.params.items()}
    train.sgd_step(network, grads, state, lr=0.01, weight_decay=0.0, momentum=0.0)
    for k in before:
        assert (network.params[k] > before[k]).all()


def test_sgd_step_refuses_nonfinite():
    network = build_network(small_config())
    state = zero_velocity(network)
    grads = {k: np.zeros_like(v) for k, v in network.params.items()}
    grads["conv1.bias"][0] = np.inf
    with pytest.raises(NumericsError, match="conv1.bias"):
        train.sgd_step(network, grads, state, 0.1, 0.0, 0.9)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_sgd_step_refuses_each_nonfinite_kind_with_its_name(bad):
    network = build_network(small_config())
    state = zero_velocity(network)
    grads = {k: np.ones_like(v) for k, v in network.params.items()}
    grads["dense1.weight"][0, 3] = bad
    with pytest.raises(NumericsError, match="^non-finite gradient for dense1.weight$"):
        train.sgd_step(network, grads, state, 0.1, 0.0005, 0.9)


@pytest.mark.parametrize("worker", [True, False], ids=["worker", "serial"])
def test_a_refused_sgd_step_changes_no_tensor_and_keeps_the_version(monkeypatch, worker):
    # dense2.weight sorts last: every other tensor would be updated before its check
    monkeypatch.setattr(tensor, "_WORKER", worker)
    network = build_network(net.lenet_config(seed=0))
    nan = np.ones((10, 500))
    nan[9, 499] = np.nan
    unfit = "dict does not match parameters: ['dense2.weight']"

    def snapshot():
        return [{k: v.tobytes() for k, v in d.items()} for d in (network.params, *dicts.values())]

    frozen = np.full((10, 500), 0.5)
    frozen.flags.writeable = False
    unwritable = "velocity arrays are not writeable float64: ['dense2.weight']"
    rates = {"lr": 0.1, "weight_decay": 0.0005, "momentum": 0.9}
    lrs = "learning rates must be positive and finite"
    for which, value, error, message in [
            ("gradient", nan, NumericsError, "non-finite gradient for dense2.weight"),
            ("gradient", np.ones((10, 499)), ShapeError, f"gradient {unfit}"),
            ("velocity", np.ones((10, 499)), ShapeError, f"velocity {unfit}"),
            ("velocity", None, ShapeError, f"velocity {unfit}"),   # None: the key is missing
            ("velocity", np.ones((10, 500), np.int64), ShapeError, unwritable),
            ("velocity", frozen, ShapeError, unwritable),
            # the rates TrainConfig refuses
            ("lr", np.nan, ConfigError, lrs), ("lr", 0.0, ConfigError, lrs),
            ("momentum", 5.0, ConfigError, "momentum must lie in [0, 1)"),
            ("weight_decay", -1.0, ConfigError, "weight_decay must be finite and >= 0")]:
        dicts = {"gradient": {k: np.ones_like(v) for k, v in network.params.items()},
                 "velocity": {k: np.full_like(v, 0.5) for k, v in network.params.items()}}
        if which in rates:
            step = {**rates, which: value}
        else:
            step = rates
            dicts[which]["dense2.weight"] = value
            if value is None:
                del dicts[which]["dense2.weight"]
        before, version = snapshot(), network.version
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            train.sgd_step(network, dicts["gradient"], dicts["velocity"], **step)
        assert snapshot() == before, message
        assert network.version == version


def test_sgd_step_accepts_a_finite_gradient_whose_sum_overflows():
    network = build_network(small_config())
    state = zero_velocity(network)
    grads = {k: np.zeros_like(v) for k, v in network.params.items()}
    grads["dense1.weight"][0, :2] = 1e308
    with np.errstate(over="ignore"):
        assert not np.isfinite(grads["dense1.weight"].sum())
    train.sgd_step(network, grads, state, 1e-10, 0.0, 0.9)
    assert np.isfinite(network.params["dense1.weight"]).all()


def test_sgd_step_bytes_equal_the_longhand_update():
    rng = np.random.default_rng(4)
    network = build_network(small_config())
    state = zero_velocity(network)
    params = {k: v.copy() for k, v in network.params.items()}
    velocity = {}
    for step in range(3):
        grads = {k: rng.normal(0.0, 0.1, v.shape) for k, v in params.items()}
        train.sgd_step(network, grads, state, 0.01, 0.0005, 0.9)
        for k, g in grads.items():
            velocity[k] = 0.9 * velocity.get(k, np.zeros_like(g)) + 0.01 * (g - 0.0005 * params[k])
            params[k] = params[k] + velocity[k]
    for k in params:
        assert network.params[k].tobytes() == params[k].tobytes(), k
        assert state[k].tobytes() == velocity[k].tobytes(), k


def test_sgd_step_invalidates_caches():
    network = build_network(small_config())
    version = network.version
    state = zero_velocity(network)
    grads = {k: np.zeros_like(v) for k, v in network.params.items()}
    train.sgd_step(network, grads, state, 0.1, 0.0, 0.9)
    assert network.version == version + 1


def test_config_validation():
    rates = "learning rates must be positive and finite"
    assert_refused_when_made(train.TrainConfig, [
        ({"mode": "XX"}, "mode must be one of DG, GG, GG+DG, got 'XX'"),
        ({"batch_size": 0}, "batch_size must be >= 1 and epochs >= 0"),
        ({"epochs": -1}, "batch_size must be >= 1 and epochs >= 0"),
        ({"lr": 0.0}, rates), ({"lr": float("nan")}, rates), ({"refine_lr": math.inf}, rates),
        ({"momentum": 1.0}, "momentum must lie in [0, 1)"),
        ({"momentum": -0.1}, "momentum must lie in [0, 1)"),
        ({"weight_decay": -1.0}, "weight_decay must be finite and >= 0"),
        ({"mode": "GG+DG", "epochs": 5, "pretrain_epochs": 5},
         "pretrain_epochs must lie in [0, epochs), got 5 with epochs=5"),
        ({"lr_step_every": -1}, "lr_step_every must be >= 0, got -1"),
        ({"lr_step_factor": 0.5}, "lr_step_factor needs lr_step_every >= 1"),
        ({"lr_step_every": 2, "lr_step_factor": 0.0}, "lr_step_factor must be positive and finite"),
    ])
    train.TrainConfig(mode="GG+DG", epochs=5, pretrain_epochs=0)
    train.TrainConfig(mode="GG", epochs=5, pretrain_epochs=5)   # only GG+DG reads it


def test_training_modes_cost_the_same_network_work():
    train_set, _ = small_sets()
    xb = train_set.images[:8]
    yb = train_set.labels[:8]
    counts = {}
    for mode in ("DG", "GG"):
        network = build_network(small_config())
        state = zero_velocity(network)
        before = tensor.op_counts()
        scores, cache = net.forward_batch(network, xb)
        loss_fn = loss.disc_loss_and_grad if mode == "DG" else loss.gen_loss_and_grad
        _, gmat = loss_fn(scores, yb)
        grads = net.backward_params(network, cache, gmat / len(yb))
        train.sgd_step(network, grads, state, 0.01, 0.0005, 0.9)
        counts[mode] = op_counts_since(before)
    assert counts["DG"] == counts["GG"]


def test_run_training_records_and_learns(tmp_path):
    train_set, eval_set = small_sets(n=64)
    config = train.TrainConfig(mode="DG", batch_size=16, lr=0.05, epochs=3,
                               weight_decay=0.0005, momentum=0.9, seed=0)
    network = build_network(small_config())
    ll_before, _ = dataset_log_likelihoods(network, train_set, 16)
    _, log = train.run_training(network, train_set, config, eval_set=eval_set,
                                out_dir=tmp_path)
    ll_after, _ = dataset_log_likelihoods(network, train_set, 16)
    assert ll_after > ll_before
    epochs = [r for r in log.records if "epoch" in r]
    assert [r["epoch"] for r in epochs] == [0, 1, 2]
    for r in epochs:
        for key in ("mode", "lr", "disc_ll", "gen_ll", "train_err", "eval_err",
                    "ess_mean", "ess_min", "wall"):
            assert key in r, key
    assert (tmp_path / "000.ckpt").exists() and (tmp_path / "002.opt").exists()


def test_first_gg_batch_ess_is_batch_size():
    # fresh nets score everything near zero, so the in-batch weights start
    # uniform and the effective sample size starts at the batch size
    train_set, _ = small_sets(n=32)
    config = train.TrainConfig(mode="GG", batch_size=16, lr=0.01, epochs=1, seed=0)
    network = build_network(small_config())
    scores, _ = net.forward_batch(network, train_set.images[:16])
    ess = loss.per_class_ess(scores, train_set.labels[:16])
    for v in ess.values():
        assert v == pytest.approx(16.0, rel=0.05)
    _, log = train.run_training(network, train_set, config)
    assert log.records[-1]["ess_mean"] == pytest.approx(16.0, rel=0.1)


def test_gg_pretrain_then_dg_switch(tmp_path):
    train_set, _ = small_sets(n=32)
    config = train.TrainConfig(mode="GG+DG", batch_size=16, lr=0.02,
                               refine_lr=0.006, epochs=4, pretrain_epochs=2, seed=0)
    network = build_network(small_config())
    _, log = train.run_training(network, train_set, config)
    events = [r for r in log.records if r.get("event") == "refine_switch"]
    assert len(events) == 1 and events[0]["epoch"] == 2
    by_epoch = {r["epoch"]: r for r in log.records if "mode" in r}
    assert by_epoch[0]["mode"] == "GG" and by_epoch[1]["mode"] == "GG"
    assert by_epoch[2]["mode"] == "DG" and by_epoch[3]["mode"] == "DG"
    assert by_epoch[1]["lr"] == 0.02 and by_epoch[2]["lr"] == 0.006


@pytest.mark.parametrize("mode,pretrain", [("GG", 0), ("GG+DG", 1)])
@pytest.mark.parametrize("n,batch_size", [(17, 8), (9, 4), (4, 1)])
def test_gg_epoch_ending_on_a_batch_of_one_is_refused_before_the_log(mode, pretrain, n,
                                                                     batch_size):
    train_set, _ = small_sets(n=n)
    config = train.TrainConfig(mode=mode, pretrain_epochs=pretrain, batch_size=batch_size,
                               epochs=2, seed=0)
    log = train.MetricsLog()
    with pytest.raises(ConfigError, match=f"n = {n} .*batch_size = {batch_size}"):
        train.run_training(build_network(small_config()), train_set, config, log=log)
    assert log.records == []


@pytest.mark.parametrize("mode", ["DG", "GG+DG"])
def test_discriminative_epochs_take_a_batch_of_one(mode):
    train_set, _ = small_sets(n=17)
    config = train.TrainConfig(mode=mode, pretrain_epochs=0, batch_size=8, epochs=1)
    _, log = train.run_training(build_network(small_config()), train_set, config)
    assert [r["mode"] for r in log.records if "mode" in r] == ["DG"]


def test_ggdg_with_zero_pretrain_equals_dg_at_refine_rate(tmp_path):
    train_set, _ = small_sets(n=32)
    a = build_network(small_config(seed=5))
    b = build_network(small_config(seed=5))
    train.run_training(a, train_set, train.TrainConfig(
        mode="GG+DG", pretrain_epochs=0, refine_lr=0.004, lr=99.0,
        batch_size=8, epochs=2, seed=1))
    train.run_training(b, train_set, train.TrainConfig(
        mode="DG", lr=0.004, batch_size=8, epochs=2, seed=1))
    for name in a.params:
        np.testing.assert_array_equal(a.params[name], b.params[name])


def _strip_volatile(path):
    lines = []
    for line in path.read_text().splitlines():
        if line.startswith("# time="):
            continue
        lines.append(" ".join(f for f in line.split() if not f.startswith("wall=")))
    return "\n".join(lines)


def test_same_seed_runs_are_identical_modulo_timestamps(tmp_path):
    train_set, eval_set = small_sets(n=32)
    config = train.TrainConfig(mode="GG+DG", batch_size=8, epochs=3,
                               pretrain_epochs=1, lr=0.02, refine_lr=0.005, seed=7)
    outs = []
    for tag in ("a", "b"):
        d = tmp_path / tag
        d.mkdir()
        network = build_network(small_config(seed=3))
        log = train.MetricsLog(d / "train.log")
        train.run_training(network, train_set, config, eval_set=eval_set,
                           out_dir=d, log=log)
        outs.append(d)
    assert _strip_volatile(outs[0] / "train.log") == _strip_volatile(outs[1] / "train.log")
    assert (outs[0] / "002.ckpt").read_bytes() == (outs[1] / "002.ckpt").read_bytes()


def test_resume_matches_uninterrupted_run(tmp_path):
    train_set, _ = small_sets(n=32)
    full_dir = tmp_path / "full"
    part_dir = tmp_path / "part"
    cfg3 = train.TrainConfig(mode="GG+DG", batch_size=8, epochs=3,
                             pretrain_epochs=2, lr=0.02, refine_lr=0.005, seed=2)
    # the pre-switch epochs of GG+DG are plain GG, so a run killed before the
    # switch leaves exactly the state this produces
    cfg_part = train.TrainConfig(mode="GG", batch_size=8, epochs=2, lr=0.02, seed=2)

    network = build_network(small_config(seed=1))
    train.run_training(network, train_set, cfg3, out_dir=full_dir)

    interrupted = build_network(small_config(seed=1))
    train.run_training(interrupted, train_set, cfg_part, out_dir=part_dir)
    # resuming crosses the refine switch: velocities reset, rate drops
    train.resume_training(train_set, cfg3, part_dir)

    assert (full_dir / "002.ckpt").read_bytes() == (part_dir / "002.ckpt").read_bytes()


@pytest.mark.parametrize("victim", ["002.ckpt", "002.opt"])
@pytest.mark.parametrize("damage", ["truncate", "remove"])
def test_resume_passes_over_a_torn_last_epoch(tmp_path, victim, damage):
    # a kill during the last epoch's checkpoint: resume from the epoch before
    # and end with the uninterrupted run's files, byte for byte
    train_set, _ = small_sets(n=32)
    cfg = train.TrainConfig(mode="GG+DG", batch_size=8, epochs=3,
                            pretrain_epochs=1, lr=0.02, refine_lr=0.005, seed=5)
    full_dir, part_dir = tmp_path / "full", tmp_path / "part"
    for d in (full_dir, part_dir):
        d.mkdir()
        train.run_training(build_network(small_config(seed=4)), train_set, cfg,
                           out_dir=d, log=train.MetricsLog(d / "train.log"))
    torn = part_dir / victim
    if damage == "truncate":
        torn.write_bytes(torn.read_bytes()[:-9])
    else:
        torn.unlink()
    (part_dir / "002.ckpt.tmp").write_bytes(b"half a write")
    train.resume_training(train_set, cfg, part_dir,
                          log=train.MetricsLog(part_dir / "train.log"))
    for f in sorted(full_dir.glob("00?.*")):
        assert (part_dir / f.name).read_bytes() == f.read_bytes(), f.name
    # epoch 2 was logged before its checkpoint tore; it is logged once
    assert _records_without_wall(part_dir) == _records_without_wall(full_dir)


def _records_without_wall(out_dir):
    lines = (out_dir / "train.log").read_text().splitlines()
    return [[t for t in line.split() if not t.startswith("wall=")]
            for line in lines if not line.startswith("#")]


def test_resume_rewinds_the_log_to_the_resumed_epoch(tmp_path):
    # resuming at the refine switch logs the switch and each later epoch once
    train_set, _ = small_sets(n=32)
    cfg = train.TrainConfig(mode="GG+DG", batch_size=8, epochs=3,
                            pretrain_epochs=1, lr=0.02, refine_lr=0.005, seed=5)
    full_dir, part_dir = tmp_path / "full", tmp_path / "part"
    for d in (full_dir, part_dir):
        d.mkdir()
        train.run_training(build_network(small_config(seed=4)), train_set, cfg,
                           out_dir=d, log=train.MetricsLog(d / "train.log"))
    for f in ("001.ckpt", "002.ckpt"):
        (part_dir / f).unlink()
    train.resume_training(train_set, cfg, part_dir,
                          log=train.MetricsLog(part_dir / "train.log"))
    records = _records_without_wall(part_dir)
    assert records == _records_without_wall(full_dir)
    assert sum("event=refine_switch" in r for r in records) == 1
    assert not (part_dir / "train.log.tmp").exists()


@pytest.mark.parametrize("on_file", [True, False], ids=["file", "memory"])
def test_resume_cuts_the_records_back_with_the_file(tmp_path, on_file):
    # one log object through a run and its resume holds each epoch once, in
    # its records as in its file
    train_set, _ = small_sets(n=32)
    cfg = train.TrainConfig(mode="GG+DG", batch_size=8, epochs=3,
                            pretrain_epochs=1, lr=0.02, refine_lr=0.005, seed=5)
    full_dir, part_dir = tmp_path / "full", tmp_path / "part"
    logs = []
    for d in (full_dir, part_dir):
        d.mkdir()
        logs.append(train.MetricsLog(d / "train.log" if on_file else None))
        train.run_training(build_network(small_config(seed=4)), train_set, cfg,
                           out_dir=d, log=logs[-1])
    for f in ("002.ckpt", "002.opt"):
        (part_dir / f).unlink()
    train.resume_training(train_set, cfg, part_dir, log=logs[1])
    full, part = ([{k: v for k, v in r.items() if k != "wall"} for r in log.records]
                  for log in logs)
    assert part == full
    if on_file:
        assert _records_without_wall(part_dir) == _records_without_wall(full_dir)


def test_resume_after_a_torn_last_log_line(tmp_path):
    # a crash while epoch 2's record was being written: its tail and newline
    # never reached the log, and neither did its checkpoint or sidecar
    train_set, _ = small_sets(n=32)
    cfg = train.TrainConfig(mode="GG+DG", batch_size=8, epochs=3,
                            pretrain_epochs=1, lr=0.02, refine_lr=0.005, seed=5)
    full_dir, part_dir = tmp_path / "full", tmp_path / "part"
    for d in (full_dir, part_dir):
        d.mkdir()
        train.run_training(build_network(small_config(seed=4)), train_set, cfg,
                           out_dir=d, log=train.MetricsLog(d / "train.log"))
    for f in ("002.ckpt", "002.opt"):
        (part_dir / f).unlink()
    log_path = part_dir / "train.log"
    log_path.write_bytes(log_path.read_bytes()[:-5])   # inside the wall= value
    train.resume_training(train_set, cfg, part_dir, log=train.MetricsLog(log_path))
    assert _records_without_wall(part_dir) == _records_without_wall(full_dir)
    assert (part_dir / "002.ckpt").read_bytes() == (full_dir / "002.ckpt").read_bytes()


def unscorable_sets(case):
    """(train_set, eval_set, error, message): small_sets with one set that
    small_config's network cannot score."""
    train_set, eval_set = small_sets(n=32)
    return {
        "train-4-classes": (data.synthetic_dataset(32, 4, 8, seed=0), eval_set, ShapeError,
                            "the training set has 4 classes, the network outputs 2"),
        "eval-labels-0-3": (train_set, data.Dataset(eval_set.images, np.arange(16) % 4),
                            ShapeError, "the evaluation set has 4 classes, the network outputs 2"),
        "eval-empty": (train_set, data.Dataset(eval_set.images[:0], eval_set.labels[:0]),
                       DataError, "the evaluation set is empty"),
        "eval-12x12": (train_set, data.synthetic_dataset(16, 2, 12, seed=1), ShapeError,
                       "evaluation images are 1x12x12, the network's input_shape is 1x8x8"),
        # labels changed in place after the set was made
        "train-label-set-to-minus-1": (relabeled(train_set, -1), eval_set, DataError,
                                       "the training set: labels must be >= 0, got -1"),
        "eval-label-set-to-minus-1": (train_set, relabeled(eval_set, -1), DataError,
                                      "the evaluation set: labels must be >= 0, got -1"),
    }[case]


def relabeled(dataset, label):
    """A copy of dataset whose first label was set to label after it was made."""
    copy = data.Dataset(dataset.images, dataset.labels.copy())
    copy.labels[0] = label
    return copy


UNSCORABLE = ["train-4-classes", "eval-labels-0-3", "eval-empty", "eval-12x12",
              "train-label-set-to-minus-1", "eval-label-set-to-minus-1"]


@pytest.mark.parametrize("case", UNSCORABLE)
def test_run_training_refuses_a_set_before_any_output(tmp_path, case):
    train_set, eval_set, error, message = unscorable_sets(case)
    log = train.MetricsLog(tmp_path / "train.log")
    with pytest.raises(error, match=message):
        train.run_training(build_network(small_config()), train_set,
                           train.TrainConfig(batch_size=8, epochs=1), eval_set=eval_set,
                           out_dir=tmp_path / "out", log=log)
    assert log.records == [] and sorted(tmp_path.iterdir()) == []


@pytest.mark.parametrize("case", ["one-score-column", "velocity-missing", "velocity-shape",
                                  "velocity-int64"])
def test_run_training_refuses_a_network_or_state_before_any_output(tmp_path, case):
    train_set, _ = small_sets(n=32)
    network = build_network(small_config())
    state = zero_velocity(network)
    message = "velocity dict does not match parameters: ['dense1.weight']"
    if case == "velocity-int64":
        state["dense1.weight"] = state["dense1.weight"].astype(np.int64)
        message = "velocity arrays are not writeable float64: ['dense1.weight']"
    elif case == "one-score-column":   # a one-class set it can score
        network = build_network(small_config(classes=1))
        train_set = data.Dataset(train_set.images, np.zeros(len(train_set), np.int64))
        state = None
        message = "training needs >= 2 score columns, the network has 1"
    elif case == "velocity-missing":
        del state["dense1.weight"]
    else:
        state["dense1.weight"] = state["dense1.weight"][:, :-1].copy()
    before = {k: v.tobytes() for k, v in network.params.items()}
    log = train.MetricsLog(tmp_path / "train.log")
    with pytest.raises(ShapeError, match=f"^{re.escape(message)}$"):
        train.run_training(network, train_set, train.TrainConfig(batch_size=8, epochs=1),
                           out_dir=tmp_path / "out", log=log, state=state)
    assert log.records == [] and sorted(tmp_path.iterdir()) == []
    assert {k: v.tobytes() for k, v in network.params.items()} == before


@pytest.mark.parametrize("case", UNSCORABLE)
def test_resume_with_a_set_it_cannot_score_leaves_the_log_as_it_was(tmp_path, case):
    train_set, eval_set = small_sets(n=32)
    cfg = train.TrainConfig(batch_size=8, epochs=3, seed=5)
    log_path = tmp_path / "train.log"
    train.run_training(build_network(small_config(seed=4)), train_set, cfg, eval_set=eval_set,
                       out_dir=tmp_path, log=train.MetricsLog(log_path))
    (tmp_path / "002.ckpt").unlink()   # a resume at epoch 2 would cut epoch 2's record
    before = log_path.read_bytes()
    train_set, eval_set, error, message = unscorable_sets(case)
    with pytest.raises(error, match=message):
        train.resume_training(train_set, cfg, tmp_path, eval_set=eval_set,
                              log=train.MetricsLog(log_path))
    assert log_path.read_bytes() == before


def test_resume_refuses_when_no_epoch_reads(tmp_path):
    train_set, _ = small_sets(n=16)
    cfg = train.TrainConfig(mode="DG", batch_size=8, epochs=2, seed=1)
    train.run_training(build_network(small_config()), train_set, cfg, out_dir=tmp_path)
    (tmp_path / "000.opt").unlink()
    net.write_tensor_file(tmp_path / "001.opt", {"kind": "optimizer"},
                          {"conv1.weight": np.zeros(3)})
    with pytest.raises(CheckpointError, match="001.ckpt: 001.opt is not this network's "
                                              ".*000.ckpt: optimizer sidecar 000.opt is missing"):
        train.resume_training(train_set, cfg, tmp_path)


def test_loading_an_epoch_draws_no_initial_values(tmp_path, monkeypatch):
    train_set, _ = small_sets(n=16)
    cfg = train.TrainConfig(mode="GG+DG", batch_size=8, epochs=2, pretrain_epochs=1, seed=3)
    network, _ = train.run_training(build_network(small_config(seed=2)), train_set, cfg,
                                    out_dir=tmp_path)
    _, velocity = net.read_tensor_file(tmp_path / "001.opt")

    def no_draw(*args, **kwargs):
        raise AssertionError("a load drew from a generator")

    monkeypatch.setattr(np.random, "default_rng", no_draw)
    loaded = net.load_checkpoint(tmp_path / "001.ckpt")
    resumed, state = train._read_epoch(tmp_path / "001.ckpt")
    monkeypatch.undo()
    for model in (loaded, resumed):
        assert list(model.params) == list(network.params)
        assert all(model.params[k].tobytes() == v.tobytes() for k, v in network.params.items())
    assert list(state) == list(network.params)
    assert all(state[k].tobytes() == v.tobytes() for k, v in velocity.items())


def test_resume_needs_checkpoints(tmp_path):
    train_set, _ = small_sets(n=8)
    with pytest.raises(ConfigError, match="resume"):
        train.resume_training(train_set, train.TrainConfig(epochs=1), tmp_path)


def test_evaluate_breaks_ties_toward_lower_index():
    # a network whose scores are all equal: argmax must pick class 0
    network = build_network(small_config())
    for p in network.params.values():
        p[...] = 0.0
    network.bump_version()
    ds = data.synthetic_dataset(12, 2, 8, seed=0)
    err = train.evaluate(network, ds)
    expected_wrong = (ds.labels != 0).mean()
    assert err == pytest.approx(expected_wrong)


def test_evaluate_rejects_empty():
    network = build_network(small_config())
    ds = data.synthetic_dataset(4, 2, 8, seed=0)
    empty = data.Dataset(ds.images[:0], ds.labels[:0])
    assert empty.num_classes == 0
    with pytest.raises(ValueError, match="empty"):
        train.evaluate(network, empty)


@pytest.mark.parametrize("size,batch_size,label,fragment", [
    (0, 256, 0, "empty"), (4, 0, 0, "batch size"), (4, -1, 0, "batch size"),
    (4, 256, -1, "the evaluation set: labels must be >= 0, got -1")],
    ids=["0-256-empty", "4-0-batch size", "4--1-batch size", "4-256-label-set-to-minus-1"])
def test_evaluate_refuses_with_data_error(size, batch_size, label, fragment):
    network = build_network(small_config())
    ds = data.synthetic_dataset(4, 2, 8, seed=0)
    ds = data.Dataset(ds.images[:size], ds.labels[:size])
    if label:
        ds = relabeled(ds, label)
    with pytest.raises(DataError, match=re.escape(fragment)):
        train.evaluate(network, ds, batch_size)


def test_evaluate_refuses_more_classes_than_the_network_outputs():
    # a set made from labels 0-3 counts the 4 classes they need: no count is
    # stated beside them, so none can understate them
    four = data.synthetic_dataset(16, 4, 8)
    for ds in (four, data.Dataset(four.images, np.arange(16) % 4)):
        assert ds.num_classes == 4
        with pytest.raises(ShapeError, match="the evaluation set has 4 classes, the network "
                                             "outputs 2"):
            train.evaluate(build_network(small_config()), ds)


def test_evaluate_error_matches_cached_forward():
    network = build_network(net.lenet_config(seed=2))
    ds = data.synthetic_dataset(257, 10, 28, seed=2)
    scores, _ = net.forward_batch(network, ds.images)
    want = float((scores.argmax(axis=1) != ds.labels).mean())
    for batch_size in (1, 63, 256):
        assert train.evaluate(network, ds, batch_size) == want


def test_step_lr_policy():
    config = train.TrainConfig(lr=0.1, lr_step_every=2, lr_step_factor=0.5, epochs=6)
    lrs = [train._lr_for_epoch(config, e) for e in range(6)]
    assert lrs == [0.1, 0.1, 0.05, 0.05, 0.025, 0.025]


def test_train_log_header_states_the_whole_config(tmp_path):
    # a step schedule's fields are logged too; the records keep their format
    config = train.TrainConfig(batch_size=8, lr=0.1, lr_step_every=2, lr_step_factor=0.5,
                               epochs=3, seed=4)
    path = tmp_path / "train.log"
    train.run_training(build_network(small_config()), small_sets(n=16)[0], config,
                       log=train.MetricsLog(path))
    lines = path.read_text().splitlines()
    assert lines[0] == "# tiltnet-train format=1" and lines[1].startswith("# time=")
    assert dict(f.split("=") for f in lines[2][2:].split()) == {
        f.name: str(getattr(config, f.name)) for f in fields(config)}
    records = [dict(f.split("=") for f in line.split()) for line in lines[3:]]
    assert [list(r) for r in records] == [
        ["epoch", "mode", "lr", "disc_ll", "gen_ll", "train_err", "ess_mean", "ess_min",
         "wall"]] * 3
    assert [(r["epoch"], r["lr"]) for r in records] == [("0", "0.1"), ("1", "0.1"),
                                                        ("2", "0.05")]


def test_metrics_log_format(tmp_path):
    path = tmp_path / "m.log"
    log = train.MetricsLog(path)
    log.header("demo")
    log.record(epoch=0, value=0.5, name="x")
    text = path.read_text().splitlines()
    assert text[0] == "# demo"
    assert text[1] == "epoch=0 value=0.5 name=x"


def test_metrics_log_makes_its_file_at_the_first_line(tmp_path):
    path = tmp_path / "m.log"
    log = train.MetricsLog(path)
    log.records.extend([{"epoch": 0}, {"epoch": 1}])
    log.rewind(1)   # no file yet: only the records are cut
    assert log.records == [{"epoch": 0}] and not path.exists()
    log.record(epoch=1, value=0.5)
    assert path.read_text() == "epoch=1 value=0.5\n"


def test_a_nan_weight_is_refused_before_any_routing_is_read():
    # the NaN rule: a NaN shows up in every score it feeds, its bits and its
    # pool routing unspecified; evaluation, training and sampling refuse it
    network = build_network(small_config())
    network.params["conv1.weight"][1, 0, 2, 0] = np.nan
    network.bump_version()
    train_set, eval_set = small_sets(n=16)
    kept, _ = net.forward_batch(network, eval_set.images)
    lean, _ = net.forward_batch(network, eval_set.images, keep=False)
    assert np.isnan(kept).any()
    np.testing.assert_array_equal(np.isnan(kept), np.isnan(lean))
    with pytest.raises(NumericsError, match="non-finite scores"):
        train.evaluate(network, eval_set)
    with pytest.raises(NumericsError, match="non-finite"):
        train.run_training(network, train_set, train.TrainConfig(batch_size=16, epochs=1))
    with pytest.raises(NumericsError, match="network's score"):
        hmc.sample_node(network, "dense1", 0, hmc.HmcConfig(iterations=1, leapfrog_steps=1))


def _has_mallopt() -> bool:
    return os.name == "posix" and hasattr(ctypes.CDLL(None), "mallopt")


FAULT_PROBE = """
import resource
from tiltnet import data, net, train
train_set = data.synthetic_dataset(320, 10, 28, seed=1)
config = train.TrainConfig(mode="GG+DG", batch_size=64, epochs=2, pretrain_epochs=1)
for seed in range(3):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    train.run_training(net.build_network(net.lenet_config(seed=seed)), train_set, config)
print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 10)
"""


@pytest.mark.skipif(not _has_mallopt(), reason="libc has no mallopt")
def test_training_steps_fault_no_pages_once_the_heap_has_grown():
    # LeNet GG+DG at batch 64, BLAS pinned: the third run's 10 steps reuse the
    # heap the first two grew; with glibc's dynamic thresholds a step faulted
    # 1,300-2,100 pages back in
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {k: v for k, v in os.environ.items()
           if k not in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "MALLOC_TOP_PAD_",
                        "MALLOC_TRIM_THRESHOLD_", "MALLOC_MMAP_THRESHOLD_")}
    env.update(OMP_NUM_THREADS="1", PYTHONPATH=src + os.pathsep + env.get("PYTHONPATH", ""))
    out = subprocess.run([sys.executable, "-c", FAULT_PROBE], env=env, check=True,
                         capture_output=True, text=True, timeout=300).stdout
    assert float(out) <= 50
