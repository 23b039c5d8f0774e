"""Config parsing and the command-line surface, driven in process."""

import configparser
import os
import re
import shutil
import struct
import subprocess
import sys
from dataclasses import fields
from pathlib import Path
from typing import get_type_hints

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tiltnet import cli, hmc, net
from tiltnet.config import DataSpec, parse_config, parse_layers
from tiltnet.errors import ConfigError
from tiltnet.hmc import HmcConfig
from tiltnet.train import TrainConfig

from conftest import read_image

BASE_CONFIG = """\
[network]
layers = conv:2@3, pool:2/2, flatten, dense:2
input_shape = 1x8x8
classes = 2

[train]
mode = DG
batch_size = 16
lr = 0.05
epochs = 2
pretrain_epochs = 0

[data]
source = synthetic
n = 64
classes = 2
image_size = 8
eval_n = 32

[hmc]
sigma = 2.0
mass = 1.0
step_size = 0.01
leapfrog_steps = 3
iterations = 4
init_std = 1.0
snapshots = 2

[run]
out_dir = {out}
seed = 3
"""


def write_config(tmp_path, text=None, name="run.ini", out="out"):
    path = tmp_path / name
    path.write_text((text or BASE_CONFIG).format(out=tmp_path / out))
    return path


# the config dataclass behind each section whose keys are its fields
TABLES = {"train": TrainConfig, "data": DataSpec, "hmc": HmcConfig}
FLOAT_KEYS = [(section, f.name) for section, cls in TABLES.items()
              for f in fields(cls) if get_type_hints(cls)[f.name] is float]


def table_keys(section):
    return {f.name for f in fields(TABLES[section])} - {"seed"}


def with_key(text, section, key, value):
    """text with `key = value` as the first line of [section], replacing
    any line that already sets key."""
    text = re.sub(rf"^{key} = .*\n", "", text, flags=re.M)
    return text.replace(f"[{section}]\n", f"[{section}]\n{key} = {value}\n")


# ---------------------------------------------------------------------------
# layer DSL and config parsing


def test_parse_layers_tokens():
    specs = parse_layers("conv:8@3/2p1, pool:3, flatten, dense:5, relu")
    assert [s.kind for s in specs] == ["conv", "maxpool", "flatten", "dense", "relu"]
    conv, pool, _, dense, _ = specs
    assert (conv.channels, conv.kernel, conv.stride, conv.pad) == (8, 3, 2, 1)
    assert (pool.kernel, pool.stride) == (3, 3)
    assert parse_layers("pool:2/1")[0].stride == 1
    assert dense.width == 5


def test_parse_layers_rejects_junk():
    with pytest.raises(ConfigError, match="unknown layer token"):
        parse_layers("conv:2@3, softmax")
    with pytest.raises(ConfigError, match="no layers"):
        parse_layers(" , ")


def test_parse_config_round_trip(tmp_path):
    spec = parse_config(write_config(tmp_path))
    assert spec.seed == 3
    assert spec.network.input_shape == (1, 8, 8)
    assert spec.network.num_classes == 2
    assert spec.train.batch_size == 16
    assert spec.data.n == 64
    assert spec.hmc.snapshots == (2,)
    assert spec.hmc.metropolis is True
    assert spec.out_dir.endswith("out")


def test_parse_config_empty_file_gives_defaults(tmp_path):
    path = tmp_path / "empty.ini"
    path.write_text("")
    spec = parse_config(path)
    assert spec.network is None and spec.data is None
    assert spec.train.mode == "DG" and spec.train.epochs == 25
    assert spec.hmc.iterations == 300
    assert spec.seed == 0


def test_parse_config_lenet_preset(tmp_path):
    path = tmp_path / "lenet.ini"
    path.write_text("[network]\narch = lenet\n")
    spec = parse_config(path)
    kinds = [l.kind for l in spec.network.layers]
    assert kinds == ["conv", "maxpool", "conv", "maxpool", "flatten",
                     "dense", "relu", "dense"]
    assert spec.network.num_classes == 10


@pytest.mark.parametrize("text,fragment", [
    ("[oops]\nx = 1\n", "unknown section"),
    ("[train]\nlearning_rate = 0.1\n", "unknown keys"),
    ("[network]\narch = lenet\nlayers = dense:2\n", "either arch or layers"),
    ("[network]\narch = alexnet\n", "unknown preset"),
    ("[network]\nlayers = dense:2\ninput_shape = 28x28\n", "input_shape"),
    ("[network]\nclasses = 2\n", "needs arch or layers"),
    ("[data]\nsource = csv\n", "synthetic or idx"),
    ("[data]\nsource = idx\n", "needs train_images"),
    ("[hmc]\nstep_size = 0\n", r"\[hmc\]"),
    ("[hmc]\nmetropolis = maybe\n", "boolean"),
    ("[train]\nbatch_size = soon\n", "bad value"),
    ("[train]\nseed = 1\n", "unknown keys"),
    ("[hmc]\nseed = 1\n", "unknown keys"),
    ("[train]\nlr_policy = step\nlr_step_every = 1\nlr_step_factor = -1\n",
     r"\[train\]: lr_step_factor"),
    ("[hmc]\ninit_std = 0\n", r"\[hmc\]: init_std"),
])
def test_parse_config_rejections(tmp_path, text, fragment):
    path = tmp_path / "bad.ini"
    path.write_text(text)
    with pytest.raises(ConfigError, match=fragment):
        parse_config(path)


def test_zero_init_accepts_zero_init_std(tmp_path):
    path = tmp_path / "zero.ini"
    path.write_text("[hmc]\ninit = zero\ninit_std = 0\n")
    assert parse_config(path).hmc.init_std == 0.0   # a zero start ignores it


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("section,key", FLOAT_KEYS)
def test_non_finite_float_keys_exit_2_before_any_output(tmp_path, capsys, section, key, value):
    config = write_config(tmp_path, text=with_key(BASE_CONFIG, section, key, value))
    with pytest.raises(ConfigError, match=rf"^\[{section}\]"):
        parse_config(config)
    assert cli.main(["train", "--config", str(config)]) == 2
    assert f"error: [{section}]" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_negative_noise_std_exits_2_before_any_output(tmp_path, capsys):
    config = write_config(tmp_path, text=with_key(BASE_CONFIG, "data", "noise_std", "-1"))
    assert cli.main(["train", "--config", str(config)]) == 2
    assert "[data]: noise_std must be finite and >= 0" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_readme_config_parses_and_lists_every_key(tmp_path):
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = re.search(r"A complete config.*?```ini\n(.*?)```", readme, re.S).group(1)
    path = tmp_path / "readme.ini"
    path.write_text(block)
    spec = parse_config(path)
    assert spec.data.source == "idx" and spec.network.num_classes == 10
    listed = configparser.ConfigParser(interpolation=None)
    listed.optionxform = str
    listed.read_string(block)
    for section in TABLES:
        assert set(listed[section]) == table_keys(section), section


def test_seed_override_replaces_every_component(tmp_path):
    spec = parse_config(write_config(tmp_path), seed=99)
    assert spec.seed == 99
    assert spec.network.seed == 99
    assert spec.train.seed == 99
    assert spec.hmc.seed == 99
    # the file's own seed is still checked under an override
    bad = write_config(tmp_path, text=BASE_CONFIG.replace("seed = 3", "seed = -1"), name="bad.ini")
    with pytest.raises(ConfigError, match=r"\[run\] seed"):
        parse_config(bad, seed=99)


# ---------------------------------------------------------------------------
# commands, end to end


def test_train_eval_sample_inspect_pipeline(tmp_path, capsys):
    config = write_config(tmp_path)
    out = tmp_path / "out"

    assert cli.main(["train", "--config", str(config)]) == 0
    stdout = capsys.readouterr().out
    assert "final_train_err=" in stdout
    assert "final_eval_err=" in stdout
    for name in ("train.log", "final.ckpt", "000.ckpt", "001.ckpt", "001.opt"):
        assert (out / name).is_file(), name

    ckpt = str(out / "final.ckpt")
    assert cli.main(["eval", "--config", str(config), "--checkpoint", ckpt]) == 0
    line = capsys.readouterr().out.strip().splitlines()[-1]
    assert line.startswith("error_rate=") and line.endswith("n=32")

    assert cli.main(["sample", "--config", str(config), "--checkpoint", ckpt,
                     "--layer", "dense1", "--channel", "1"]) == 0
    stdout = capsys.readouterr().out
    manifest = (out / "manifest.txt").read_text()
    for it in (0, 2, 4):
        fname = f"sample_dense1_c1_iter{it:06d}.pgm"
        assert (out / fname).is_file()
        assert f"file={fname}" in stdout and f"file={fname}" in manifest

    assert cli.main(["inspect", "--checkpoint", ckpt]) == 0
    stdout = capsys.readouterr().out
    assert "input_shape=1x8x8" in stdout
    assert "layer=conv1 kind=conv" in stdout
    assert "param=dense1.weight" in stdout
    assert "total_params=" in stdout


def test_train_is_seed_reproducible(tmp_path, capsys):
    a = write_config(tmp_path, name="a.ini", out="out_a")
    b = write_config(tmp_path, name="b.ini", out="out_b")
    c = write_config(tmp_path, name="c.ini", out="out_c")
    assert cli.main(["train", "--config", str(a)]) == 0
    assert cli.main(["train", "--config", str(b)]) == 0
    assert cli.main(["train", "--config", str(c), "--seed", "4"]) == 0
    capsys.readouterr()
    same = (tmp_path / "out_a" / "final.ckpt").read_bytes()
    again = (tmp_path / "out_b" / "final.ckpt").read_bytes()
    reseeded = (tmp_path / "out_c" / "final.ckpt").read_bytes()
    assert same == again
    assert same != reseeded


def test_sample_final_layer_matches_input_shape(tmp_path, capsys):
    config = write_config(tmp_path)
    assert cli.main(["train", "--config", str(config)]) == 0
    capsys.readouterr()
    out = tmp_path / "out"
    assert cli.main(["sample", "--config", str(config),
                     "--checkpoint", str(out / "final.ckpt"),
                     "--layer", "conv1", "--channel", "0"]) == 0
    capsys.readouterr()
    img = read_image(out / "sample_conv1_c0_iter000004.pgm")
    assert img.shape == (1, 3, 3)  # conv 3x3 prefix needs only its receptive field


def test_gradcheck_passes(capsys):
    assert cli.main(["gradcheck"]) == 0
    stdout = capsys.readouterr().out
    assert "failures=0" in stdout
    assert "status=FAIL" not in stdout
    assert "check=loss-vs-longhand" in stdout


def test_gradcheck_catches_a_planted_loss_bug(monkeypatch, capsys):
    import tiltnet.loss as loss_mod
    true_fn = loss_mod.gen_loss_and_grad

    def skewed(scores, labels):
        value, grad = true_fn(scores, labels)
        return value, grad * 1.001   # subtly wrong scale
    monkeypatch.setattr(loss_mod, "gen_loss_and_grad", skewed)

    assert cli.main(["gradcheck"]) == 5
    stdout = capsys.readouterr().out
    assert "status=FAIL" in stdout
    failing = [l for l in stdout.splitlines() if "FAIL" in l]
    assert any("gen-grad" in l for l in failing)


# ---------------------------------------------------------------------------
# exit codes


def test_bad_config_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.ini"
    path.write_text("[train]\nwarp_speed = 9\n")
    assert cli.main(["train", "--config", str(path)]) == 2
    assert "unknown keys" in capsys.readouterr().err


def test_missing_config_exits_3(tmp_path, capsys):
    assert cli.main(["train", "--config", str(tmp_path / "nope.ini")]) == 3
    capsys.readouterr()


def test_missing_data_files_exit_3_without_partial_output(tmp_path, capsys):
    text = BASE_CONFIG.replace(
        "source = synthetic",
        "source = idx\ntrain_images = missing.idx\ntrain_labels = missing.idx")
    config = write_config(tmp_path, text=text)
    assert cli.main(["train", "--config", str(config)]) == 3
    capsys.readouterr()
    assert not (tmp_path / "out").exists()   # data is read before any mkdir


def test_image_size_other_than_input_shape_exits_2_without_output(tmp_path, capsys):
    config = write_config(tmp_path, text=BASE_CONFIG.replace("image_size = 8", "image_size = 12"))
    assert cli.main(["train", "--config", str(config)]) == 2
    assert "training images are 1x12x12, [network] input_shape is 1x8x8" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("old,new,fragment", [
    ("n = 64\nclasses = 2", "n = 64\nclasses = 3",
     "the evaluation set has 3 classes, the checkpoint outputs 2"),
    ("image_size = 8", "image_size = 12",
     "evaluation images are 1x12x12, the checkpoint input_shape is 1x8x8")])
def test_eval_refuses_a_set_the_checkpoint_cannot_score(tmp_path, capsys, old, new, fragment):
    ckpt = tmp_path / "net.ckpt"
    net.save_checkpoint(net.build_network(parse_config(write_config(tmp_path)).network), ckpt)
    config = write_config(tmp_path, text=BASE_CONFIG.replace(old, new), name="eval.ini")
    assert cli.main(["eval", "--config", str(config), "--checkpoint", str(ckpt)]) == 2
    out, err = capsys.readouterr()
    assert fragment in err and "error_rate" not in out


def write_idx(path, count):
    """An IDX image/label pair of `count` 8x8 images, labels alternating 0/1."""
    images, labels = Path(f"{path}-images"), Path(f"{path}-labels")
    images.write_bytes(struct.pack(">IIII", 0x803, count, 8, 8) + bytes(64 * count))
    labels.write_bytes(struct.pack(">II", 0x801, count) + bytes(i % 2 for i in range(count)))
    return images, labels


@pytest.mark.parametrize("train_count,test_count,fragment", [
    (0, 4, "the training set is empty"), (4, 0, "the evaluation set is empty")])
def test_empty_idx_set_exits_3_without_output(tmp_path, capsys, train_count, test_count,
                                               fragment):
    train_files = write_idx(tmp_path / "train", train_count)
    test_files = write_idx(tmp_path / "test", test_count)
    text = BASE_CONFIG.replace("source = synthetic", (
        "source = idx\ntrain_images = {}\ntrain_labels = {}\n"
        "test_images = {}\ntest_labels = {}").format(*train_files, *test_files))
    config = write_config(tmp_path, text=text)
    assert cli.main(["train", "--config", str(config)]) == 3
    assert fragment in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_eval_on_empty_idx_set_exits_3(tmp_path, capsys):
    test_files = write_idx(tmp_path / "test", 0)
    text = BASE_CONFIG.replace("source = synthetic", (
        "source = idx\ntrain_images = {0}\ntrain_labels = {1}\n"
        "test_images = {0}\ntest_labels = {1}").format(*test_files))
    config = write_config(tmp_path, text=text)
    ckpt = tmp_path / "net.ckpt"
    net.save_checkpoint(net.build_network(parse_config(config).network), ckpt)
    assert cli.main(["eval", "--config", str(config), "--checkpoint", str(ckpt)]) == 3
    assert "cannot evaluate on an empty dataset" in capsys.readouterr().err


def test_missing_checkpoint_exits_3(tmp_path, capsys):
    config = write_config(tmp_path)
    assert cli.main(["eval", "--config", str(config),
                     "--checkpoint", str(tmp_path / "ghost.ckpt")]) == 3
    capsys.readouterr()


def test_corrupt_checkpoint_exits_3(tmp_path, capsys):
    config = write_config(tmp_path)
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(b"not a checkpoint at all")
    assert cli.main(["inspect", "--checkpoint", str(bad)]) == 3
    capsys.readouterr()


def test_unknown_layer_kind_in_checkpoint_exits_3(tmp_path, capsys):
    bogus = tmp_path / "bogus.ckpt"
    network = net.build_network(parse_config(write_config(tmp_path)).network)
    net.save_checkpoint(network, bogus)
    meta, tensors = net.read_tensor_file(bogus)
    meta["layers"][0]["kind"] = "bogus"
    net.write_tensor_file(bogus, meta, tensors)
    assert cli.main(["inspect", "--checkpoint", str(bogus)]) == 3
    assert "unknown layer kind 'bogus'" in capsys.readouterr().err


def test_ill_typed_checkpoint_meta_exits_3(tmp_path, capsys):
    ckpt = tmp_path / "typed.ckpt"
    net.save_checkpoint(net.build_network(parse_config(write_config(tmp_path)).network), ckpt)
    meta, tensors = net.read_tensor_file(ckpt)
    meta["layers"][0]["channels"] = "2"
    net.write_tensor_file(ckpt, meta, tensors)
    assert cli.main(["inspect", "--checkpoint", str(ckpt)]) == 3
    assert "layer 0 channels is '2', expected int" in capsys.readouterr().err


def test_checkpoint_with_retired_meta_keys_still_loads(tmp_path, capsys):
    # the meta as written before LayerSpec.in_width and NetworkConfig.init
    # were retired: the same keys plus those two
    new, old, resaved = tmp_path / "new.ckpt", tmp_path / "old.ckpt", tmp_path / "re.ckpt"
    network = net.build_network(parse_config(write_config(tmp_path)).network)
    net.save_checkpoint(network, new)
    meta, tensors = net.read_tensor_file(new)
    meta["init"] = "gaussian"
    for layer in meta["layers"]:
        layer["in_width"] = 0
    net.write_tensor_file(old, meta, tensors)
    loaded = net.load_checkpoint(old)
    assert loaded.config == network.config
    assert loaded.params.keys() == network.params.keys()
    assert all(np.array_equal(loaded.params[k], network.params[k]) for k in network.params)
    net.save_checkpoint(loaded, resaved)   # re-saving drops the retired keys
    assert resaved.read_bytes() == new.read_bytes()
    assert cli.main(["inspect", "--checkpoint", str(new)]) == 0
    want = capsys.readouterr().out
    assert cli.main(["inspect", "--checkpoint", str(old)]) == 0
    assert capsys.readouterr().out == want
    # any other unknown layer key is still refused
    meta["layers"][0]["dilation"] = 1
    net.write_tensor_file(old, meta, tensors)
    assert cli.main(["inspect", "--checkpoint", str(old)]) == 3
    assert "dilation" in capsys.readouterr().err


@pytest.mark.parametrize("layer,channel,fragment", [
    ("nope", "0", "unknown layer 'nope'"),
    ("conv1", "99", "channel 99 out of range"),
    ("conv1", "-1", "channel -1 out of range"),
])
def test_bad_sample_node_exits_2(tmp_path, capsys, layer, channel, fragment):
    config = write_config(tmp_path)
    ckpt = tmp_path / "net.ckpt"
    net.save_checkpoint(net.build_network(parse_config(config).network), ckpt)
    assert cli.main(["sample", "--config", str(config), "--checkpoint", str(ckpt),
                     "--layer", layer, "--channel", channel]) == 2
    assert fragment in capsys.readouterr().err


def test_out_of_range_snapshots_exit_2_without_output(tmp_path, capsys):
    ckpt = tmp_path / "net.ckpt"
    net.save_checkpoint(net.build_network(parse_config(write_config(tmp_path)).network), ckpt)
    text = with_key(with_key(BASE_CONFIG, "hmc", "iterations", "3"), "hmc", "snapshots",
                    "2, -4, 99")
    config = write_config(tmp_path, text=text)
    assert cli.main(["sample", "--config", str(config), "--checkpoint", str(ckpt),
                     "--layer", "conv1", "--channel", "0"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "[hmc]: snapshots outside [0, iterations = 3]: [-4, 99]" in captured.err
    assert not (tmp_path / "out").exists()


def test_untileable_layer_stack_exits_2_without_output(tmp_path, capsys):
    text = BASE_CONFIG.replace("conv:2@3, pool:2/2, flatten", "conv:2@9, flatten")
    config = write_config(tmp_path, text=text)
    assert cli.main(["train", "--config", str(config)]) == 2
    assert "exceeds" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()   # the network is built before any mkdir


@pytest.mark.parametrize("mode", ["GG", "GG+DG"])
def test_gg_batch_of_one_exits_2_without_output(tmp_path, capsys, mode):
    # GG+DG spends its first epoch in GG
    text = with_key(with_key(BASE_CONFIG, "data", "n", "17"), "train", "batch_size", "8")
    text = with_key(with_key(text, "train", "mode", mode), "train", "pretrain_epochs", "1")
    assert cli.main(["train", "--config", str(write_config(tmp_path, text=text))]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "n = 17 images in batches of batch_size = 8" in captured.err
    assert not (tmp_path / "out").exists()


def test_unrenderable_channel_count_exits_2_before_sampling(tmp_path, capsys, monkeypatch):
    text = BASE_CONFIG.replace("input_shape = 1x8x8", "input_shape = 2x8x8")
    config = write_config(tmp_path, text=text)
    ckpt = tmp_path / "net.ckpt"
    net.save_checkpoint(net.build_network(parse_config(config).network), ckpt)
    calls = []
    monkeypatch.setattr(hmc, "sample_node", lambda *a, **k: calls.append(a))
    assert cli.main(["sample", "--config", str(config), "--checkpoint", str(ckpt),
                     "--layer", "dense1", "--channel", "0"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "input has 2 channels" in captured.err
    assert calls == []
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("flag", [["--config", "run.ini"], ["--seed", "3"]])
def test_inspect_takes_only_a_checkpoint(tmp_path, capsys, flag):
    ckpt = tmp_path / "net.ckpt"
    net.save_checkpoint(net.build_network(parse_config(write_config(tmp_path)).network), ckpt)
    assert cli.main(["inspect", "--checkpoint", str(ckpt)] + flag) == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_module_runs_as_a_command():
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(Path(__file__).resolve().parent.parent / "src"), os.environ.get("PYTHONPATH", "")])}
    ok = subprocess.run([sys.executable, "-m", "tiltnet.cli", "gradcheck"], env=env,
                        capture_output=True, text=True, timeout=300)
    assert ok.returncode == 0
    assert ok.stdout.splitlines()[-1] == "checks=20 failures=0"
    bad = subprocess.run([sys.executable, "-m", "tiltnet.cli", "serve"], env=env,
                         capture_output=True, text=True, timeout=60)
    assert bad.returncode == 2 and "invalid choice" in bad.stderr


def test_missing_required_flag_exits_2(capsys):
    assert cli.main(["train"]) == 2
    capsys.readouterr()


# ---------------------------------------------------------------------------
# exit-code contract over arbitrary argv and config text

# Value fragments per section and key, the valid one first; "{out}",
# "{missing}" and "{junk}" become a writable directory, an absent path and a
# file of garbage. Sizes stay tiny (epochs <= 1, n <= 32, iterations <= 2) so
# an example runs in milliseconds.
_INI = {
    "network": {
        "layers": ["conv:2@3, pool:2/2, flatten, dense:2", "conv:1@3/2p1, relu, flatten, dense:3",
                   "pool:3, flatten, dense:2", "conv:2@9, flatten, dense:2", "conv:1@1p2, dense:2",
                   "dense:0", "softmax", ""],
        "input_shape": ["1x8x8", "3x8x8", "1x6x6", "1x28x28", "8x8", "0x8x8", "1x-8x8"],
        "classes": ["2", "3", "1", "0", "-1", "two"],
        "arch": ["lenet", "resnet"],
    },
    "train": {
        "mode": ["DG", "GG", "GG+DG", "EM"], "batch_size": ["8", "1", "0"],
        "lr": ["0.05", "0", "nan", "inf"], "weight_decay": ["0", "-1"],
        "momentum": ["0.9", "1", "nan"], "epochs": ["1", "0", "-1"],
        "pretrain_epochs": ["0", "1", "-1"], "refine_lr": ["0.01", "-0.5"],
        "lr_policy": ["constant", "step", "cosine"], "lr_step_every": ["1", "0"],
        "lr_step_factor": ["0.5", "x"],
    },
    "data": {
        "source": ["synthetic", "idx", "tape"],
        **{k: ["{missing}", "{junk}", ""] for k in ("train_images", "train_labels",
                                                   "test_images", "test_labels")},
        "n": ["32", "0", "2", "8", "-4"], "classes": ["2", "1", "3"],
        "image_size": ["8", "0", "4", "28"], "noise_std": ["0.1", "-1", "nan"],
        "eval_n": ["8", "0", "x"],
    },
    "hmc": {
        "sigma": ["2", "0", "nan", "inf"], "mass": ["1", "-1"],
        "step_size": ["0.01", "1e9", "nan"], "leapfrog_steps": ["2", "1", "0"],
        "iterations": ["2", "0", "1", "-1"], "init": ["gaussian", "zero", "ones"],
        "init_std": ["1", "0"], "metropolis": ["true", "off", "maybe"],
        "snapshots": ["1", "0,2", "-1", "x"],
    },
    "run": {"out_dir": ["{out}", "", "{junk}"], "seed": ["3", "0", "-1", "x"]},
}
for _section, _key in FLOAT_KEYS:   # every float key also meets these
    _INI[_section][_key] += [v for v in ("nan", "inf", "-0.0") if v not in _INI[_section][_key]]
# keys written whenever their section is; [train] and [hmc] are always there,
# the others are left out only from wild texts
_ALWAYS_KEYS = {"network": ("layers",), "train": ("epochs",), "data": ("n", "eval_n"),
              "hmc": ("iterations", "leapfrog_steps")}
_JUNK_LINES = ["[bogus]", "extra = 1", "no equals sign", "[network", "= 3", "[run]"]


@st.composite
def _ini_texts(draw):
    """(text, whether a single float key was spoiled). "clean" texts take
    every key's valid value, "one" spoils a single key, "wild" draws every
    value."""
    style = draw(st.sampled_from(["clean", "one", "wild"]))
    # half the spoiled keys are float keys, whose bad values must exit 2
    spoiled = draw(st.sampled_from(FLOAT_KEYS)
                   | st.sampled_from([(s, k) for s, keys in _INI.items() for k in keys]))
    lines = []
    for section, keys in _INI.items():
        if style == "wild" and section not in ("train", "hmc") and not draw(st.booleans()):
            continue
        lines.append(f"[{section}]")
        chosen = set(_ALWAYS_KEYS.get(section, ()))
        chosen |= set(draw(st.lists(st.sampled_from(sorted(keys)), max_size=4)))
        if style == "one" and spoiled[0] == section:
            chosen.add(spoiled[1])
        for key in sorted(chosen):
            wild = style == "wild" or (style == "one" and (section, key) == spoiled)
            value = draw(st.sampled_from(keys[key])) if wild else keys[key][0]
            lines.append(f"{key} = {value}")
        if style == "wild":
            lines += draw(st.lists(st.sampled_from(_JUNK_LINES), max_size=1))
    return "\n".join(lines) + "\n", style == "one" and spoiled in FLOAT_KEYS


# each command's required flags with valid values, then drawn extra flags
_COMMANDS = {
    "train": ["--config", "{config}"],
    "eval": ["--config", "{config}", "--checkpoint", "{ckpt}"],
    "sample": ["--config", "{config}", "--checkpoint", "{ckpt}", "--layer", "conv1",
               "--channel", "1"],
    "gradcheck": [],
    "inspect": ["--checkpoint", "{ckpt}"],
    "serve": [],
}
_FLAGS = st.sampled_from([
    ["--config", "{config}"], ["--config", "{missing}"], ["--config", "{out}"],
    ["--checkpoint", "{ckpt}"], ["--checkpoint", "{junk}"], ["--checkpoint", "{missing}"],
    ["--seed", "0"], ["--seed", "7"], ["--seed", "-1"], ["--seed", "x"], ["--seed"],
    ["--layer", "pool1"], ["--layer", "dense1"], ["--layer", "nope"],
    ["--channel", "0"], ["--channel", "-1"], ["--channel", "x"],
    ["--help"], ["--verbose"],
])


@pytest.fixture(scope="module")
def cli_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("exit_codes")
    ckpt = root / "net.ckpt"
    net.save_checkpoint(net.build_network(parse_config(write_config(root)).network), ckpt)
    (root / "junk").write_bytes(b"\x00garbage\n[network\n")
    return {"config": str(root / "run.ini"), "ckpt": str(ckpt), "out": str(root / "out"),
            "missing": str(root / "missing"), "junk": str(root / "junk")}


@settings(max_examples=100)
@given(command=st.sampled_from(sorted(_COMMANDS)), flags=st.lists(_FLAGS, max_size=3),
       ini=_ini_texts())
def test_cli_maps_every_input_to_an_exit_code(cli_files, command, flags, ini):
    text, float_spoiled = ini
    with open(cli_files["config"], "w") as fh:
        fh.write(text.format(**cli_files))
    shutil.rmtree(cli_files["out"], ignore_errors=True)
    argv = [command] + [part.format(**cli_files) for part in
                        _COMMANDS[command] + [part for flag in flags for part in flag]]
    code = cli.main(argv)
    assert code in (0, 2, 3, 4, 5)
    if float_spoiled and code == 2:
        assert not Path(cli_files["out"]).exists()   # refused before any output
