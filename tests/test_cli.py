"""Config parsing and the command-line surface, driven in process."""

import numpy as np
import pytest

from tiltnet import cli, net
from tiltnet.config import parse_config, parse_layers
from tiltnet.errors import ConfigError

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
])
def test_parse_config_rejections(tmp_path, text, fragment):
    path = tmp_path / "bad.ini"
    path.write_text(text)
    with pytest.raises(ConfigError, match=fragment):
        parse_config(path)


def test_with_seed_replaces_every_component(tmp_path):
    spec = parse_config(write_config(tmp_path)).with_seed(99)
    assert spec.seed == 99
    assert spec.network.seed == 99
    assert spec.train.seed == 99
    assert spec.hmc.seed == 99


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
    from tiltnet.hmc import read_image
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


def test_untileable_layer_stack_exits_2_without_output(tmp_path, capsys):
    text = BASE_CONFIG.replace("conv:2@3, pool:2/2, flatten", "conv:2@9, flatten")
    config = write_config(tmp_path, text=text)
    assert cli.main(["train", "--config", str(config)]) == 2
    assert "exceeds" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()   # the network is built before any mkdir


def test_missing_required_flag_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["train"])
    assert exc.value.code == 2
    capsys.readouterr()
