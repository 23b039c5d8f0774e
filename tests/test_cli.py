"""Config parsing and the command-line surface, driven in process."""

import configparser
import gzip
import os
import re
import shutil
import struct
import subprocess
import sys
import zlib
from dataclasses import fields
from pathlib import Path
from typing import get_type_hints

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from tiltnet import checks, cli, hmc, net
from tiltnet.config import parse_config, parse_layers
from tiltnet.data import DataSpec
from tiltnet.errors import ConfigError
from tiltnet.hmc import HmcConfig
from tiltnet.train import TrainConfig

from conftest import read_image

BASE_CONFIG = """\
[network]
layers = conv:2@3, pool:2/2, flatten, dense:2

[train]
mode = DG
batch_size = 16
lr = 0.05
epochs = 2
pretrain_epochs = 0

[data]
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


def network_of(config, channels=1):
    """The network of config's layers and seed on channels x 8 x 8 images."""
    spec = parse_config(config)
    return net.build_network(net.NetworkConfig((channels, 8, 8), spec.layers, spec.seed))


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
    assert spec.layers == parse_layers("conv:2@3, pool:2/2, flatten, dense:2")
    assert net.build_network(net.NetworkConfig((1, 8, 8), spec.layers, spec.seed)).num_outputs == 2
    assert spec.train.batch_size == 16
    assert spec.data.n == 64
    assert spec.hmc.snapshots == (2,)
    assert spec.hmc.metropolis is True
    assert spec.out_dir.endswith("out")


def test_parse_config_empty_file_gives_defaults(tmp_path):
    path = tmp_path / "empty.ini"
    path.write_text("")
    spec = parse_config(path)
    assert spec.layers is None and spec.data is None
    assert spec.train.mode == "DG" and spec.train.epochs == 25
    assert spec.hmc.iterations == 300
    assert spec.seed == 0


def test_parse_config_lenet_preset(tmp_path):
    # the README's LeNet layer line is the whole of lenet_config
    path = tmp_path / "lenet.ini"
    path.write_text("[network]\nlayers = conv:20@5, pool:2/2, conv:50@5, pool:2/2, flatten, "
                    "dense:500, relu, dense:10\n")
    assert parse_config(path).layers == net.lenet_config(10, (1, 28, 28), seed=0).layers


@pytest.mark.parametrize("text,fragment", [
    ("[oops]\nx = 1\n", "unknown section"),
    ("[train]\nlearning_rate = 0.1\n", "unknown keys"),
    ("[network]\narch = lenet\nlayers = dense:2\n", "unknown keys: arch"),
    ("[network]\narch = alexnet\n", "unknown keys: arch"),
    ("[network]\nlayers = dense:2\ninput_shape = 28x28\n", "input_shape"),   # an unknown key
    ("[network]\n", "needs layers"),
    ("[network]\nclasses = 2\n", "unknown keys: classes"),
    ("[data]\nsource = idx\n", "unknown keys"),
    ("[data]\ntrain_images = a.idx\n", "train_images and train_labels together"),
    ("[data]\ntrain_images = a.idx\ntrain_labels = b.idx\ntest_labels = c.idx\n",
     "test_images and test_labels together"),
    ("[data]\ntest_images = c.idx\ntest_labels = d.idx\n", "need train_images"),
    ("[data]\neval_n = -5\n", r"\[data\]: eval_n must be >= 0"),
    ("[hmc]\nstep_size = 0\n", r"\[hmc\]"),
    ("[hmc]\nmetropolis = maybe\n", "boolean"),
    ("[train]\nbatch_size = soon\n", "bad value"),
    ("[train]\nseed = 1\n", "unknown keys"),
    ("[hmc]\nseed = 1\n", "unknown keys"),
    ("[train]\nlr_policy = step\n", "unknown keys"),
    ("[train]\nlr_step_every = 1\nlr_step_factor = -1\n", r"\[train\]: lr_step_factor"),
    ("[train]\nlr_step_every = -1\n", r"\[train\]: lr_step_every"),
    ("[train]\nlr_step_factor = 0.5\n", r"\[train\]: lr_step_factor needs lr_step_every"),
    ("[hmc]\ninit = zero\n", "unknown keys"),
    ("[hmc]\ninit_std = -1\n", r"\[hmc\]: init_std"),
])
def test_parse_config_rejections(tmp_path, text, fragment):
    path = tmp_path / "bad.ini"
    path.write_text(text)
    with pytest.raises(ConfigError, match=fragment):
        parse_config(path)


def test_zero_init_accepts_zero_init_std(tmp_path):
    path = tmp_path / "zero.ini"
    path.write_text("[hmc]\ninit_std = 0\n")
    assert parse_config(path).hmc.init_std == 0.0   # the zero-image start


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


def test_negative_zero_noise_std_trains_like_zero(tmp_path, capsys):
    # numpy's normal refuses a scale whose sign bit is set, -0.0's included
    outs = []
    for value in ("-0.0", "0"):
        text = with_key(BASE_CONFIG, "data", "noise_std", value)
        config = write_config(tmp_path, text=text, name=f"{value}.ini", out=f"out{value}")
        assert cli.main(["train", "--config", str(config)]) == 0
        outs.append(tmp_path / f"out{value}")
    capsys.readouterr()
    ckpts = [sorted(out.glob("*.ckpt")) for out in outs]
    assert [p.name for p in ckpts[0]] == [p.name for p in ckpts[1]]
    assert [p.read_bytes() for p in ckpts[0]] == [p.read_bytes() for p in ckpts[1]]
    records = [[[t for t in line.split() if not t.startswith("wall=")]
                for line in (out / "train.log").read_text().splitlines()
                if not line.startswith("#")] for out in outs]
    assert records[0] and records[0] == records[1]


@pytest.mark.parametrize("lines", [
    "train_images = {0}\ntrain_labels = {1}\ntest_images = {0}\n", "eval_n = -5\n",
], ids=["half-test-pair", "negative-eval_n"])
def test_data_that_would_drop_the_evaluation_set_exits_2_before_any_output(tmp_path, capsys,
                                                                         lines):
    text = BASE_CONFIG.replace("eval_n = 32\n", lines.format(*write_idx(tmp_path / "idx", 32)))
    assert cli.main(["train", "--config", str(write_config(tmp_path, text=text))]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: [data]: "), err
    assert ("test_images and test_labels" in err[0]) == lines.startswith("train"), err
    assert not (tmp_path / "out").exists()


def test_readme_config_parses_and_lists_every_key(tmp_path):
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = re.search(r"A complete config.*?```ini\n(.*?)```", readme, re.S).group(1)
    path = tmp_path / "readme.ini"
    path.write_text(block)
    spec = parse_config(path)
    network = net.build_network(net.NetworkConfig((1, 28, 28), spec.layers, spec.seed))
    assert spec.data.train_images and network.num_outputs == 10
    listed = configparser.ConfigParser(interpolation=None)
    listed.optionxform = str
    listed.read_string(block)
    for section in TABLES:
        assert set(listed[section]) == table_keys(section), section


def test_seed_override_replaces_every_component(tmp_path):
    spec = parse_config(write_config(tmp_path), seed=99)
    assert spec.seed == 99
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
    # an optimizer sidecar passed for a checkpoint
    assert cli.main(["eval", "--config", str(config), "--checkpoint", str(out / "000.opt")]) == 3
    assert "file holds 'optimizer', not a network" in capsys.readouterr().err

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


@pytest.mark.parametrize("text,message", [
    (b"[train]\nwarp_speed = 9\n", "unknown keys"),
    (b"[run]\nout_dir = \xff\xfe\n", "can't decode byte 0xff"),
    (BASE_CONFIG.replace("conv:2@3", "conv:0@3").encode(),
     "conv layer needs channels >= 1 and kernel >= 1"),
    (BASE_CONFIG.replace("conv:2@3", "conv:2@0").encode(),
     "conv layer needs channels >= 1 and kernel >= 1"),
    (BASE_CONFIG.replace("dense:2", "dense:0").encode(), "dense layer needs width >= 1"),
    (with_key(BASE_CONFIG, "train", "batch_size", "0").encode(),
     "[train]: batch_size must be >= 1"),
    (BASE_CONFIG.replace("conv:2@3", "conv:2@3/0").encode(),
     "layer 'conv1': conv height: kernel/stride must be >= 1"),
    (BASE_CONFIG.replace("pool:2/2", "pool:2/0").encode(),
     "layer 'pool1': pool height: kernel/stride must be >= 1"),
], ids=["unknown-key", "not-utf8", "conv-0-channels", "conv-0-kernel", "dense-0-width",
        "batch_size-0", "conv-0-stride", "pool-0-stride"])
def test_bad_config_exits_2(tmp_path, capsys, text, message):
    path = tmp_path / "bad.ini"
    path.write_bytes(text.replace(b"{out}", str(tmp_path / "out").encode()))
    assert cli.main(["train", "--config", str(path)]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_missing_config_exits_3(tmp_path, capsys):
    assert cli.main(["train", "--config", str(tmp_path / "nope.ini")]) == 3
    capsys.readouterr()


def test_missing_data_files_exit_3_without_partial_output(tmp_path, capsys):
    text = BASE_CONFIG.replace(
        "[data]\n", "[data]\ntrain_images = missing.idx\ntrain_labels = missing.idx\n")
    config = write_config(tmp_path, text=text)
    assert cli.main(["train", "--config", str(config)]) == 3
    capsys.readouterr()
    assert not (tmp_path / "out").exists()   # data is read before any mkdir


def test_the_network_takes_the_training_images_shape(tmp_path, capsys):
    # [network] states no input shape: the stack trains on 12x12 images too
    config = write_config(tmp_path, text=BASE_CONFIG.replace("image_size = 8", "image_size = 12"))
    assert cli.main(["train", "--config", str(config)]) == 0
    capsys.readouterr()
    assert cli.main(["inspect", "--checkpoint", str(tmp_path / "out" / "final.ckpt")]) == 0
    assert "input_shape=1x12x12\n" in capsys.readouterr().out


def test_a_stated_input_shape_exits_2_without_output(tmp_path, capsys):
    text = with_key(BASE_CONFIG, "network", "input_shape", "1x8x8")
    assert cli.main(["train", "--config", str(write_config(tmp_path, text=text))]) == 2
    assert capsys.readouterr().err == "error: [network]: unknown keys: input_shape\n"
    assert not (tmp_path / "out").exists()


def test_a_stack_the_images_cannot_fill_exits_2_naming_the_layer(tmp_path, capsys):
    # 9x9 images: conv:2@3 leaves 7x7, which pool:2/2 cannot tile
    config = write_config(tmp_path, text=BASE_CONFIG.replace("image_size = 8", "image_size = 9"))
    assert cli.main(["train", "--config", str(config)]) == 2
    assert capsys.readouterr().err.startswith("error: layer 'pool1': ")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("old,new,fragment", [
    ("n = 64\nclasses = 2", "n = 64\nclasses = 3",
     "the evaluation set has 3 classes, the network outputs 2"),
    ("image_size = 8", "image_size = 12",
     "evaluation images are 1x12x12, the network's input_shape is 1x8x8"),
    ("eval_n = 32", "eval_n = 0",
     "eval needs test_images/test_labels (idx) or eval_n (synthetic)")])
def test_eval_refuses_a_set_the_checkpoint_cannot_score(tmp_path, capsys, old, new, fragment):
    ckpt = tmp_path / "net.ckpt"
    net.save_checkpoint(network_of(write_config(tmp_path)), ckpt)
    config = write_config(tmp_path, text=BASE_CONFIG.replace(old, new), name="eval.ini")
    assert cli.main(["eval", "--config", str(config), "--checkpoint", str(ckpt)]) == 2
    out, err = capsys.readouterr()
    assert fragment in err and "error_rate" not in out


def write_idx(path, count, size=8, classes=2):
    """An IDX image/label pair of `count` size x size images, labels cycling
    through 0 .. classes - 1."""
    images, labels = Path(f"{path}-images"), Path(f"{path}-labels")
    images.write_bytes(struct.pack(">IIII", 0x803, count, size, size)
                       + bytes(size * size * count))
    labels.write_bytes(struct.pack(">II", 0x801, count)
                       + bytes(i % classes for i in range(count)))
    return images, labels


def idx_config(tmp_path, train_files, test_files):
    """BASE_CONFIG with IDX train and test pairs in [data]."""
    return write_config(tmp_path, text=BASE_CONFIG.replace("[data]\n", (
        "[data]\ntrain_images = {}\ntrain_labels = {}\n"
        "test_images = {}\ntest_labels = {}\n").format(*train_files, *test_files)))


@pytest.mark.parametrize("train_count,test_count,fragment", [
    (0, 4, "the training set is empty"), (4, 0, "the evaluation set is empty")])
def test_empty_idx_set_exits_3_without_output(tmp_path, capsys, train_count, test_count,
                                               fragment):
    config = idx_config(tmp_path, write_idx(tmp_path / "train", train_count),
                        write_idx(tmp_path / "test", test_count))
    assert cli.main(["train", "--config", str(config)]) == 3
    assert fragment in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("size,classes,fragment", [
    (12, 2, "evaluation images are 1x12x12"), (8, 3, "the evaluation set has 3 classes"),
], ids=["test-images-12x12", "test-labels-past-classes"])
def test_idx_test_pair_the_network_cannot_score_exits_2_without_output(tmp_path, capsys, size,
                                                                        classes, fragment):
    config = idx_config(tmp_path, write_idx(tmp_path / "train", 4),
                        write_idx(tmp_path / "test", 4, size, classes))
    assert cli.main(["train", "--config", str(config)]) == 2
    assert fragment in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("width", [2, 3])
def test_the_last_layer_width_is_the_class_count(tmp_path, capsys, width):
    # [network] states no count: a stack ending in dense:2 or dense:3 trains
    # on [data]'s two generated classes, and the checkpoint reports its width
    text = BASE_CONFIG.replace("dense:2", f"dense:{width}")
    assert "classes" not in text.split("[train]")[0]
    assert cli.main(["train", "--config", str(write_config(tmp_path, text=text))]) == 0
    capsys.readouterr()
    assert cli.main(["inspect", "--checkpoint", str(tmp_path / "out" / "final.ckpt")]) == 0
    assert f"\nclasses={width}\n" in capsys.readouterr().out


def test_network_with_one_score_column_exits_2_without_output(tmp_path, capsys):
    text = BASE_CONFIG.replace("dense:2", "dense:1")
    text = text.replace("[data]\n", "[data]\ntrain_images = {}\ntrain_labels = {}\n"
                        .format(*write_idx(tmp_path / "train", 8, classes=1)))
    assert cli.main(["train", "--config", str(write_config(tmp_path, text=text))]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "error: training needs >= 2 score columns, the network has 1"]
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("part,keep,fragment", [
    (0, slice(0, 10), "truncated IDX header"),
    (1, slice(0, -1), "payload holds 3 labels, header implies 4"),
], ids=["images-cut-in-header", "labels-short-of-count"])
def test_cut_idx_file_exits_3_without_output(tmp_path, capsys, part, keep, fragment):
    files = write_idx(tmp_path / "train", 4)
    files[part].write_bytes(files[part].read_bytes()[keep])
    text = BASE_CONFIG.replace("[data]\n", "[data]\ntrain_images = {}\ntrain_labels = {}\n"
                               .format(*files))
    assert cli.main(["train", "--config", str(write_config(tmp_path, text=text))]) == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and fragment in err[0], err
    assert not (tmp_path / "out").exists()


def test_eval_on_empty_idx_set_exits_3(tmp_path, capsys):
    test_files = write_idx(tmp_path / "test", 0)
    text = BASE_CONFIG.replace("[data]\n", (
        "[data]\ntrain_images = {0}\ntrain_labels = {1}\n"
        "test_images = {0}\ntest_labels = {1}\n").format(*test_files))
    config = write_config(tmp_path, text=text)
    ckpt = tmp_path / "net.ckpt"
    net.save_checkpoint(network_of(config), ckpt)
    assert cli.main(["eval", "--config", str(config), "--checkpoint", str(ckpt)]) == 3
    assert "the evaluation set is empty" in capsys.readouterr().err


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
    network = network_of(write_config(tmp_path))
    net.save_checkpoint(network, bogus)
    meta, tensors = net.read_tensor_file(bogus)
    meta["layers"][0]["kind"] = "bogus"
    net.write_tensor_file(bogus, meta, tensors)
    assert cli.main(["inspect", "--checkpoint", str(bogus)]) == 3
    assert "unknown layer kind 'bogus'" in capsys.readouterr().err


def test_checkpoint_layer_with_a_field_its_kind_does_not_take_exits_3(tmp_path, capsys):
    ckpt = tmp_path / "padded.ckpt"
    net.save_checkpoint(network_of(write_config(tmp_path)), ckpt)
    meta, tensors = net.read_tensor_file(ckpt)
    assert meta["layers"][1]["kind"] == "maxpool"
    meta["layers"][1]["pad"] = 1
    net.write_tensor_file(ckpt, meta, tensors)   # CRC recomputed
    assert cli.main(["inspect", "--checkpoint", str(ckpt)]) == 3
    assert "layer 'pool1': a maxpool layer takes no pad" in capsys.readouterr().err


def test_ill_typed_checkpoint_meta_exits_3(tmp_path, capsys):
    ckpt = tmp_path / "typed.ckpt"
    net.save_checkpoint(network_of(write_config(tmp_path)), ckpt)
    meta, tensors = net.read_tensor_file(ckpt)
    meta["layers"][0]["channels"] = "2"
    net.write_tensor_file(ckpt, meta, tensors)
    assert cli.main(["inspect", "--checkpoint", str(ckpt)]) == 3
    assert "layer 0 channels is '2', expected int" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["inspect", "eval", "sample"])
def test_checkpoint_whose_config_implies_an_impossible_weight_exits_3(tmp_path, capsys,
                                                                       command):
    # a final width numpy refuses to allocate: the load compares shapes, and
    # draws no weight of that size first
    config = write_config(tmp_path)
    ckpt = tmp_path / "huge.ckpt"
    net.save_checkpoint(network_of(config), ckpt)
    meta, tensors = net.read_tensor_file(ckpt)
    meta["layers"][-1]["width"] = 10**18
    net.write_tensor_file(ckpt, meta, tensors)
    argv = {"inspect": [], "eval": ["--config", str(config)],
            "sample": ["--config", str(config), "--layer", "conv1", "--channel", "0"]}[command]
    assert cli.main([command, "--checkpoint", str(ckpt)] + argv) == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: parameter dense")
    assert "config implies (1000000000000000000" in err[0]


def _crafted_checkpoint(tmp_path, input_shape, dense):
    """The base stack's checkpoint at another input shape, cut to its flatten
    layer, or to its flatten and dense:2 layers with the dense tensors."""
    ckpt = tmp_path / "crafted.ckpt"
    net.save_checkpoint(network_of(write_config(tmp_path)), ckpt)
    meta, tensors = net.read_tensor_file(ckpt)
    meta["input_shape"] = list(input_shape)
    if dense:
        meta["layers"] = meta["layers"][2:]
        tensors = {k: v for k, v in tensors.items() if k.startswith("dense1.")}
    else:
        meta["layers"], tensors = meta["layers"][2:3], {}
    net.write_tensor_file(ckpt, meta, tensors)
    return ckpt


@pytest.mark.parametrize("extent", [10**9, 10**10])
def test_sample_whose_start_image_cannot_be_allocated_exits_3(tmp_path, capsys, extent):
    # 10^18 float64s fail in malloc before any memory is touched; 10^20
    # exceed numpy's size limit ("array is too big")
    ckpt = _crafted_checkpoint(tmp_path, (1, extent, extent), dense=False)
    argv = ["sample", "--config", str(write_config(tmp_path)), "--checkpoint", str(ckpt),
            "--layer", "flatten1", "--channel", "0"]
    assert cli.main(argv) == 3
    err = capsys.readouterr().err.splitlines()
    assert err == [f"error: cannot allocate a start image of shape (1, {extent}, {extent})"]
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("key,value,shape", [
    ("n", 10**20, (10**20, 1, 8, 8)), ("eval_n", 10**20, (10**20, 1, 8, 8)),
    ("image_size", 10**10, (64, 1, 10**10, 10**10))])
def test_synthetic_set_that_cannot_be_allocated_exits_3(tmp_path, capsys, key, value, shape):
    # each size is past numpy's size limit, refused before any memory is touched
    config = write_config(tmp_path, text=with_key(BASE_CONFIG, "data", key, value))
    assert cli.main(["train", "--config", str(config)]) == 3
    err = capsys.readouterr().err.splitlines()
    assert err == [f"error: cannot allocate a synthetic set of shape {shape}"]
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["inspect", "eval", "sample"])
def test_dense_input_width_beyond_float_range_exits_3(tmp_path, capsys, command):
    # a flatten width of 10^310 has no float square root: the load needs only
    # the weight shape, not its init std
    ckpt = _crafted_checkpoint(tmp_path, (1, 10**155, 10**155), dense=True)
    config = write_config(tmp_path)
    argv = {"inspect": [], "eval": ["--config", str(config)],
            "sample": ["--config", str(config), "--layer", "dense1", "--channel", "0"]}[command]
    assert cli.main([command, "--checkpoint", str(ckpt)] + argv) == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: parameter dense1.weight has shape (2, ")
    assert f"config implies (2, {10**310})" in err[0]


@pytest.mark.parametrize("edit,message", [
    ({"dense1.extra": np.zeros(1)}, "checkpoint parameter names do not match its config"),
    ({"conv1.bias": None}, "checkpoint parameter names do not match its config"),
    ({"dense1.bias": np.zeros(3)}, "parameter dense1.bias has shape (3,), config implies (2,)"),
    (None, "checkpoint has trailing bytes"),
    ({"layers": []}, "checkpoint describes an invalid network: network needs at least one layer"),
    ({"input_shape": [0, 6, 6]}, "input shape must be (C, H, W) with positive extents, "
                                 "got (0, 6, 6)"),
])
def test_checkpoint_that_disagrees_with_its_config_exits_3(tmp_path, capsys, edit, message):
    # tensors added, dropped (None) or reshaped, or meta keys replaced, all
    # re-signed; or one byte past the last tensor
    ckpt = tmp_path / "edited.ckpt"
    net.save_checkpoint(network_of(write_config(tmp_path)), ckpt)
    if edit is None:
        blob = ckpt.read_bytes()[:-4] + b"\0"
        ckpt.write_bytes(blob + struct.pack("<I", zlib.crc32(blob)))  # re-signed
    else:
        meta, tensors = net.read_tensor_file(ckpt)
        for key, value in edit.items():
            (meta if key in meta else tensors)[key] = value
        net.write_tensor_file(ckpt, meta, {k: v for k, v in tensors.items() if v is not None})
    assert cli.main(["inspect", "--checkpoint", str(ckpt)]) == 3
    assert message in capsys.readouterr().err


def test_checkpoint_with_retired_meta_keys_still_loads(tmp_path, capsys):
    # the meta as written before LayerSpec.in_width, LayerSpec.name,
    # NetworkConfig.init and NetworkConfig.num_classes were retired: the same
    # keys plus those four, the stored count agreeing with the layers
    new, old, resaved = tmp_path / "new.ckpt", tmp_path / "old.ckpt", tmp_path / "re.ckpt"
    network = network_of(write_config(tmp_path))
    net.save_checkpoint(network, new)
    meta, tensors = net.read_tensor_file(new)
    assert "num_classes" not in meta
    meta["init"], meta["num_classes"] = "gaussian", 2
    for layer in meta["layers"]:
        assert "name" not in layer
        layer["in_width"] = 0
        layer["name"] = ""
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
    # a stored count other than the layers' width is refused
    for count in (3, True):
        net.write_tensor_file(old, {**meta, "num_classes": count}, tensors)
        assert cli.main(["inspect", "--checkpoint", str(old)]) == 3
        assert capsys.readouterr().err == (f"error: malformed checkpoint metadata: num_classes "
                                           f"is {count}, the layers output 2\n")
    # any other unknown layer key is still refused
    meta["layers"][0]["dilation"] = 1
    net.write_tensor_file(old, meta, tensors)
    assert cli.main(["inspect", "--checkpoint", str(old)]) == 3
    assert "dilation" in capsys.readouterr().err


@pytest.mark.parametrize("index,name", [(0, "mid"), (1, "p")], ids=["conv", "pool"])
def test_checkpoint_with_a_hand_named_layer_exits_3(tmp_path, capsys, index, name):
    # layers are named <stem><k> only; a name, even with its tensors renamed
    # to match, would otherwise load a layer under another name
    ckpt = tmp_path / "named.ckpt"
    net.save_checkpoint(network_of(write_config(tmp_path)), ckpt)
    meta, tensors = net.read_tensor_file(ckpt)
    stem = meta["layers"][index]["kind"].replace("maxpool", "pool")
    meta["layers"][index]["name"] = name
    tensors = {k.replace(f"{stem}1.", f"{name}."): v for k, v in tensors.items()}
    net.write_tensor_file(ckpt, meta, tensors)
    assert cli.main(["inspect", "--checkpoint", str(ckpt)]) == 3
    assert "unexpected keyword argument 'name'" in capsys.readouterr().err


@pytest.mark.parametrize("layer,channel,fragment", [
    ("nope", "0", "unknown layer 'nope'"),
    ("conv1", "99", "channel 99 out of range"),
    ("conv1", "-1", "channel -1 out of range"),
])
def test_bad_sample_node_exits_2(tmp_path, capsys, layer, channel, fragment):
    config = write_config(tmp_path)
    ckpt = tmp_path / "net.ckpt"
    net.save_checkpoint(network_of(config), ckpt)
    assert cli.main(["sample", "--config", str(config), "--checkpoint", str(ckpt),
                     "--layer", layer, "--channel", channel]) == 2
    assert fragment in capsys.readouterr().err


def test_out_of_range_snapshots_exit_2_without_output(tmp_path, capsys):
    ckpt = tmp_path / "net.ckpt"
    net.save_checkpoint(network_of(write_config(tmp_path)), ckpt)
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
    config = write_config(tmp_path)
    ckpt = tmp_path / "net.ckpt"
    net.save_checkpoint(network_of(config, channels=2), ckpt)
    calls = []
    monkeypatch.setattr(hmc, "sample_node", lambda *a, **k: calls.append(a))
    assert cli.main(["sample", "--config", str(config), "--checkpoint", str(ckpt),
                     "--layer", "dense1", "--channel", "0"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "input has 2 channels" in captured.err
    assert calls == []
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command,section,key,edits,names", [
    pytest.param("sample", "hmc", "step_size", {}, "step_size", id="sample-hmc-step_size"),
    pytest.param("sample", "hmc", "init_std", {}, "init_std", id="sample-hmc-init_std"),
    pytest.param("train", "train", "lr", {}, "non-finite", id="train-train-lr"),
    # one step, so no later step's loss meets the overflowed weights: evaluate must
    pytest.param("train", "train", "lr", {("data", "n"): "16", ("train", "epochs"): "1"},
                 "non-finite scores", id="train-train-lr-last-step"),
    # and with no evaluation set, the final evaluate meets them before final.ckpt
    pytest.param("train", "train", "lr", {("data", "n"): "16", ("train", "epochs"): "1",
                                          ("data", "eval_n"): "0"},
                 "non-finite scores", id="train-train-lr-no-eval-set"),
    # sampling from that run's 000.ckpt: the network, not init_std, is at fault
    pytest.param("sample", "train", "lr", {("data", "n"): "16", ("train", "epochs"): "1",
                                           ("data", "eval_n"): "0"},
                 "network's score", id="sample-train-lr-diverged-checkpoint"),
])
def test_diverged_run_exits_4_with_one_error_line(tmp_path, capsys, command, section, key,
                                                   edits, names):
    # tier-1 turns numpy warnings into errors, so a warning would surface
    # here as an uncaught RuntimeWarning
    text = with_key(with_key(BASE_CONFIG, section, key, "1e300"), "data", "n", "32")
    for (sec, k), value in edits.items():
        text = with_key(text, sec, k, value)
    config = write_config(tmp_path, text=text)
    argv = [command, "--config", str(config)]
    if command == "sample":
        ckpt = tmp_path / "net.ckpt"
        if section == "train":   # the first checkpoint of a run that diverged
            assert cli.main(["train", "--config", str(config)]) == 4
            (tmp_path / "out" / "000.ckpt").rename(ckpt)
            shutil.rmtree(tmp_path / "out")
            capsys.readouterr()
        else:
            net.save_checkpoint(network_of(config), ckpt)
        argv += ["--checkpoint", str(ckpt), "--layer", "dense1", "--channel", "0"]
    assert cli.main(argv) == 4
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and names in err[0], err
    assert ("init_std" in err[0]) == (key == "init_std"), err
    if command == "sample":
        assert not (tmp_path / "out").exists()
    assert not (tmp_path / "out" / "final.ckpt").exists()


def test_sample_renders_three_channel_images_as_ppm(tmp_path, capsys):
    config = write_config(tmp_path)
    ckpt = tmp_path / "net.ckpt"
    net.save_checkpoint(network_of(config, channels=3), ckpt)
    assert cli.main(["sample", "--config", str(config), "--checkpoint", str(ckpt),
                     "--layer", "dense1", "--channel", "0"]) == 0
    capsys.readouterr()
    out = tmp_path / "out"
    names = sorted(p.name for p in out.glob("sample_*"))
    assert names == [f"sample_dense1_c0_iter{it:06d}.ppm" for it in (0, 2, 4)]
    for name in names:
        assert (out / name).read_bytes()[:2] == b"P6"
        assert f"file={name}" in (out / "manifest.txt").read_text()


def test_negative_seed_flag_exits_2_and_names_the_seed(tmp_path, capsys):
    assert cli.main(["train", "--config", str(write_config(tmp_path)), "--seed", "-1"]) == 2
    assert "seed must be >= 0, got -1" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_gradcheck_takes_only_a_seed(tmp_path, capsys, monkeypatch):
    seen = []
    monkeypatch.setattr(checks, "all_suites", lambda seed: seen.append(seed) or [])
    assert cli.main(["gradcheck"]) == 0
    assert cli.main(["gradcheck", "--seed", "5"]) == 0
    assert seen == [0, 5]
    assert capsys.readouterr().out.splitlines()[-1] == "checks=0 failures=0"
    assert cli.main(["gradcheck", "--config", str(write_config(tmp_path))]) == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    assert seen == [0, 5]


def test_metropolis_off_parses_to_false(tmp_path):
    text = with_key(BASE_CONFIG, "hmc", "metropolis", "off")
    assert parse_config(write_config(tmp_path, text=text)).hmc.metropolis is False


@pytest.mark.parametrize("flag", [["--config", "run.ini"], ["--seed", "3"]])
def test_inspect_takes_only_a_checkpoint(tmp_path, capsys, flag):
    ckpt = tmp_path / "net.ckpt"
    net.save_checkpoint(network_of(write_config(tmp_path)), ckpt)
    assert cli.main(["inspect", "--checkpoint", str(ckpt)] + flag) == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_module_runs_as_a_command():
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(Path(__file__).resolve().parent.parent / "src"), os.environ.get("PYTHONPATH", "")])}
    ok = subprocess.run([sys.executable, "-m", "tiltnet.cli", "gradcheck"], env=env,
                        capture_output=True, text=True, timeout=300)
    assert ok.returncode == 0
    assert ok.stdout.splitlines()[-1] == "checks=22 failures=0"
    bad = subprocess.run([sys.executable, "-m", "tiltnet.cli", "serve"], env=env,
                         capture_output=True, text=True, timeout=60)
    assert bad.returncode == 2 and "invalid choice" in bad.stderr


def test_missing_required_flag_exits_2(capsys):
    assert cli.main(["train"]) == 2
    capsys.readouterr()


# ---------------------------------------------------------------------------
# exit-code contract over arbitrary argv and config text

# Value fragments per section and key, the valid one first;
# "{out}", "{images}", "{labels}", "{missing}", "{junk}" and "{gzjunk}" become
# a writable directory, a gzipped and a raw IDX file of 32 8x8 images, an
# absent path, a file of garbage and a gzip stream cut short. Sizes stay tiny
# (epochs <= 1, n <= 32, iterations <= 2) so an example runs in milliseconds.
_INI = {
    "network": {
        "layers": ["conv:2@3, pool:2/2, flatten, dense:2", "conv:1@3/2p1, relu, flatten, dense:3",
                   "pool:3, flatten, dense:2", "conv:2@9, flatten, dense:2", "conv:1@1p2, dense:2",
                   "dense:0", "softmax", ""],
    },
    "train": {
        "mode": ["DG", "GG", "GG+DG", "EM"], "batch_size": ["8", "1", "0"],
        "lr": ["0.05", "0", "nan", "inf"], "weight_decay": ["0", "-1"],
        "momentum": ["0.9", "1", "nan"], "epochs": ["1", "0", "-1"],
        "pretrain_epochs": ["0", "1", "-1"], "refine_lr": ["0.01", "-0.5"],
        "lr_step_every": ["0", "1", "-1"], "lr_step_factor": ["1.0", "0.5", "x"],
    },
    "data": {
        **{f"{part}_{kind}": [f"{{{kind}}}", "{missing}", "{junk}", "{gzjunk}", ""]
           for part in ("train", "test") for kind in ("images", "labels")},
        "n": ["32", "0", "2", "8", "-4"], "classes": ["2", "1", "3"],
        "image_size": ["8", "0", "4", "28"], "noise_std": ["0.1", "-1", "nan"],
        "eval_n": ["8", "0", "-1", "x"],
    },
    "hmc": {
        "sigma": ["2", "0", "nan", "inf"], "mass": ["1", "-1"],
        "step_size": ["0.01", "1e9", "nan"], "leapfrog_steps": ["2", "1", "0"],
        "iterations": ["2", "0", "1", "-1"], "init_std": ["1", "0", "-1"],
        "metropolis": ["true", "off", "maybe"], "snapshots": ["1", "0,2", "-1", "x"],
    },
    "run": {"out_dir": ["{out}", "", "{junk}"], "seed": ["3", "0", "-1", "x"]},
}
for _section, _key in FLOAT_KEYS:   # every float key also meets these
    _INI[_section][_key] += [v for v in ("nan", "inf", "-0.0") if v not in _INI[_section][_key]]
# keys written whenever their section is; [train] and [hmc] are always there,
# the others are left out only from wild texts. The four IDX paths are one
# group, written all or none by a drawn boolean, so clean texts reach both
# data sources and a spoiled path meets the other three about half the time.
# The layers, the data shapes and out_dir are written too, so a clean text is
# a config that every command runs to exit 0; the network takes the data's
# 8x8 shape, that of the IDX files too. A wild text may end a section with
# the retired input_shape, an unknown key in every section.
_ALWAYS_KEYS = {"network": ("layers",), "train": ("epochs",),
              "data": ("n", "eval_n", "classes", "image_size"),
              "hmc": ("iterations", "leapfrog_steps"), "run": ("out_dir",)}
_PATHS = ("train_images", "train_labels", "test_images", "test_labels")
_JUNK_LINES = ["[bogus]", "extra = 1", "no equals sign", "[network", "= 3", "[run]",
               "input_shape = 1x8x8"]


@st.composite
def _ini_texts(draw):
    """(text, style). "clean" texts draw every key from its valid values,
    "one" spoils a single key, "wild" draws every value."""
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
        drawable = sorted(k for k in keys if k not in _PATHS)
        chosen |= set(draw(st.lists(st.sampled_from(drawable), max_size=4)))
        if section == "data" and draw(st.booleans()):
            chosen |= set(_PATHS)
        if style == "one" and spoiled[0] == section:
            chosen.add(spoiled[1])
        for key in sorted(chosen):
            wild = style == "wild" or (style == "one" and (section, key) == spoiled)
            value = draw(st.sampled_from(keys[key] if wild else keys[key][:1]))
            lines.append(f"{key} = {value}")
        if style == "wild":
            lines += draw(st.lists(st.sampled_from(_JUNK_LINES), max_size=1))
    return "\n".join(lines) + "\n", style


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
    ["--config", "{latin1}"],
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
    net.save_checkpoint(network_of(write_config(root)), ckpt)
    (root / "junk").write_bytes(b"\x00garbage\n[network\n")
    (root / "gzjunk").write_bytes(gzip.compress(b"\x00" * 256)[:-8])   # no trailer
    (root / "latin1.ini").write_bytes(b"[run]\nseed = \xff\n")   # not UTF-8
    images, labels = write_idx(root / "idx", 32)
    images.write_bytes(gzip.compress(images.read_bytes()))
    return {"config": str(root / "run.ini"), "ckpt": str(ckpt), "out": str(root / "out"),
            "images": str(images), "labels": str(labels),
            "missing": str(root / "missing"), "junk": str(root / "junk"),
            "gzjunk": str(root / "gzjunk"), "latin1": str(root / "latin1.ini")}


def _idx_text(values: dict) -> tuple:
    """An ini draw of the always-written keys and the four IDX paths at
    their valid values, with the given {(section, key): value} in place."""
    values = {**{("data", key): _INI["data"][key][0] for key in _PATHS}, **values}
    lines = []
    for section, keys in _INI.items():
        lines.append(f"[{section}]")
        named = {key for s, key in values if s == section}
        for key in sorted(named | set(_ALWAYS_KEYS.get(section, ()))):
            lines.append(f"{key} = {values.get((section, key), keys[key][0])}")
    return "\n".join(lines) + "\n", "idx"


# Drawn texts reach an IDX reader only now and then (IDX paths, a train or
# eval command and no flag that fails first), so each broken file also runs
# once through each reader, and one valid idx run trains to the end.
@settings(max_examples=100)
@given(command=st.sampled_from(sorted(_COMMANDS)), flags=st.lists(_FLAGS, max_size=3),
       ini=_ini_texts())
@example(command="train", flags=[], ini=_idx_text({}))
@example(command="train", flags=[], ini=_idx_text({("data", "train_images"): "{gzjunk}"}))
@example(command="train", flags=[], ini=_idx_text({("data", "train_labels"): "{junk}"}))
@example(command="eval", flags=[], ini=_idx_text({("data", "test_images"): "{missing}"}))
@example(command="eval", flags=[], ini=_idx_text({("data", "test_labels"): "{gzjunk}"}))
def test_cli_maps_every_input_to_an_exit_code(cli_files, command, flags, ini):
    text, style = ini
    with open(cli_files["config"], "w") as fh:
        fh.write(text.format(**cli_files))
    shutil.rmtree(cli_files["out"], ignore_errors=True)
    argv = [command] + [part.format(**cli_files) for part in
                        _COMMANDS[command] + [part for flag in flags for part in flag]]
    code = cli.main(argv)
    assert code in (0, 2, 3, 4, 5)
    if style == "clean" and not flags and command != "serve":
        assert code == 0, (argv, text)
    if code in (2, 3):
        assert not Path(cli_files["out"]).exists(), (argv, text)   # refused before any output
