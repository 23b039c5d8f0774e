"""Optimizer arithmetic, schedule mechanics, determinism, resume, and the
cost parity between the two training modes."""

import numpy as np
import pytest

from tiltnet import data, loss, net, tensor, train
from tiltnet.errors import CheckpointError, ConfigError, DataError, NumericsError
from tiltnet.net import LayerSpec, NetworkConfig, build_network

from conftest import dataset_log_likelihoods, op_counts_since


def small_config(seed=0, classes=2):
    return NetworkConfig(
        input_shape=(1, 8, 8),
        layers=(
            LayerSpec("conv", channels=4, kernel=3),
            LayerSpec("maxpool", kernel=2, stride=2),
            LayerSpec("flatten"),
            LayerSpec("dense", width=classes),
        ),
        num_classes=classes,
        seed=seed,
    )


def small_sets(n=32, seed=0):
    return (data.synthetic_dataset(n, 2, 8, seed=seed),
            data.synthetic_dataset(16, 2, 8, seed=seed + 1))


def test_sgd_step_formula():
    network = build_network(small_config())
    state = train.OptimizerState(network)
    name = "dense1.weight"
    w0 = network.params[name].copy()
    state.velocity[name][...] = 0.25
    g = np.full_like(w0, 2.0)
    grads = {k: (g if k == name else np.zeros_like(v))
             for k, v in network.params.items()}
    train.sgd_step(network, grads, state, lr=0.1, weight_decay=0.01, momentum=0.9)
    expected_v = 0.9 * 0.25 + 0.1 * (2.0 - 0.01 * w0)
    np.testing.assert_allclose(state.velocity[name], expected_v, atol=1e-15)
    np.testing.assert_allclose(network.params[name], w0 + expected_v, atol=1e-15)


def test_sgd_step_is_ascent():
    # a positive gradient with no decay must increase the parameter
    network = build_network(small_config())
    state = train.OptimizerState(network)
    grads = {k: np.ones_like(v) for k, v in network.params.items()}
    before = {k: v.copy() for k, v in network.params.items()}
    train.sgd_step(network, grads, state, lr=0.01, weight_decay=0.0, momentum=0.0)
    for k in before:
        assert (network.params[k] > before[k]).all()


def test_sgd_step_refuses_nonfinite():
    network = build_network(small_config())
    state = train.OptimizerState(network)
    grads = {k: np.zeros_like(v) for k, v in network.params.items()}
    grads["conv1.bias"][0] = np.inf
    with pytest.raises(NumericsError, match="conv1.bias"):
        train.sgd_step(network, grads, state, 0.1, 0.0, 0.9)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_sgd_step_refuses_each_nonfinite_kind_with_its_name(bad):
    network = build_network(small_config())
    state = train.OptimizerState(network)
    grads = {k: np.ones_like(v) for k, v in network.params.items()}
    grads["dense1.weight"][0, 3] = bad
    with pytest.raises(NumericsError, match="^non-finite gradient for dense1.weight$"):
        train.sgd_step(network, grads, state, 0.1, 0.0005, 0.9)


def test_sgd_step_accepts_a_finite_gradient_whose_sum_overflows():
    network = build_network(small_config())
    state = train.OptimizerState(network)
    grads = {k: np.zeros_like(v) for k, v in network.params.items()}
    grads["dense1.weight"][0, :2] = 1e308
    with np.errstate(over="ignore"):
        assert not np.isfinite(grads["dense1.weight"].sum())
    train.sgd_step(network, grads, state, 1e-10, 0.0, 0.9)
    assert np.isfinite(network.params["dense1.weight"]).all()


def test_sgd_step_bytes_equal_the_longhand_update():
    rng = np.random.default_rng(4)
    network = build_network(small_config())
    state = train.OptimizerState(network)
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
        assert state.velocity[k].tobytes() == velocity[k].tobytes(), k


def test_sgd_step_invalidates_caches():
    network = build_network(small_config())
    version = network.version
    state = train.OptimizerState(network)
    grads = {k: np.zeros_like(v) for k, v in network.params.items()}
    train.sgd_step(network, grads, state, 0.1, 0.0, 0.9)
    assert network.version == version + 1


def test_config_validation():
    with pytest.raises(ConfigError, match="mode"):
        train.TrainConfig(mode="XX").validate()
    with pytest.raises(ConfigError, match="momentum"):
        train.TrainConfig(momentum=1.0).validate()
    with pytest.raises(ConfigError, match="pretrain"):
        train.TrainConfig(mode="GG+DG", epochs=5, pretrain_epochs=5).validate()
    train.TrainConfig(mode="GG+DG", epochs=5, pretrain_epochs=0).validate()


def test_training_modes_cost_the_same_network_work():
    train_set, _ = small_sets()
    xb = train_set.images[:8]
    yb = train_set.labels[:8]
    counts = {}
    for mode in ("DG", "GG"):
        network = build_network(small_config())
        state = train.OptimizerState(network)
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
    # a crash mid-write leaves a torn last line; resuming at the refine
    # switch logs the switch and each later epoch once
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
    with open(part_dir / "train.log", "a") as fh:
        fh.write("epoch=3 mode=D")
    train.resume_training(train_set, cfg, part_dir,
                          log=train.MetricsLog(part_dir / "train.log"))
    records = _records_without_wall(part_dir)
    assert records == _records_without_wall(full_dir)
    assert sum("event=refine_switch" in r for r in records) == 1
    assert not (part_dir / "train.log.tmp").exists()


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
    empty = data.Dataset(ds.images[:0], ds.labels[:0], 2)
    with pytest.raises(ValueError, match="empty"):
        train.evaluate(network, empty)


@pytest.mark.parametrize("size,batch_size,fragment", [
    (0, 256, "empty"), (4, 0, "batch size"), (4, -1, "batch size")])
def test_evaluate_refuses_with_data_error(size, batch_size, fragment):
    network = build_network(small_config())
    ds = data.synthetic_dataset(4, 2, 8, seed=0)
    with pytest.raises(DataError, match=fragment):
        train.evaluate(network, data.Dataset(ds.images[:size], ds.labels[:size], 2),
                       batch_size)


def test_evaluate_error_matches_cached_forward():
    network = build_network(net.lenet_config(seed=2))
    ds = data.synthetic_dataset(257, 10, 28, seed=2)
    scores, _ = net.forward_batch(network, ds.images)
    want = float((scores.argmax(axis=1) != ds.labels).mean())
    for batch_size in (1, 63, 256):
        assert train.evaluate(network, ds, batch_size) == want


def test_step_lr_policy():
    config = train.TrainConfig(lr=0.1, lr_policy="step", lr_step_every=2,
                               lr_step_factor=0.5, epochs=6)
    lrs = [train._lr_for_epoch(config, e) for e in range(6)]
    assert lrs == [0.1, 0.1, 0.05, 0.05, 0.025, 0.025]


def test_metrics_log_format(tmp_path):
    path = tmp_path / "m.log"
    log = train.MetricsLog(path)
    log.header("demo")
    log.record(epoch=0, value=0.5, name="x")
    text = path.read_text().splitlines()
    assert text[0] == "# demo"
    assert text[1] == "epoch=0 value=0.5 name=x"
