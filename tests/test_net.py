"""Network construction, both backward passes, truncation with its input
shape, and checkpoint round-trips."""

import re
import weakref

import numpy as np
import pytest

from tiltnet import loss, net, tensor
from tiltnet.checks import fd_grad, network_suite, rel_err
from tiltnet.errors import CacheError, CheckpointError, ShapeError

from conftest import tiny_config


def test_reference_stack_parameter_count():
    network = net.build_network(net.lenet_config())
    # 20*(25+...) by hand: conv1 520, conv2 25050, dense1 400500, dense2 5010
    assert network.param_count() == 431080
    assert network.params["conv1.weight"].shape == (20, 1, 5, 5)
    assert network.params["conv2.weight"].shape == (50, 20, 5, 5)
    assert network.params["dense1.weight"].shape == (500, 800)
    assert network.params["dense2.weight"].shape == (10, 500)


def test_truncation_counts_only_its_own_parameters():
    network = net.build_network(net.lenet_config())
    assert net.truncate_at(network, "conv1", 0).param_count() == 520
    assert net.truncate_at(network, "dense2", 0).param_count() == 431080


def test_shape_propagation_reference_stack():
    network = net.build_network(net.lenet_config())
    assert network.names == ["conv1", "pool1", "conv2", "pool2", "flatten1",
                             "dense1", "relu1", "dense2"]
    assert network.shapes == [(20, 24, 24), (20, 12, 12), (50, 8, 8),
                              (50, 4, 4), (800,), (500,), (500,), (10,)]


def test_bad_configs_rejected():
    with pytest.raises(ShapeError, match="flat"):
        net.build_network(net.NetworkConfig(
            (1, 6, 6), (net.LayerSpec("dense", width=4),), 4))
    with pytest.raises(ShapeError, match="final layer"):
        net.build_network(net.NetworkConfig(
            (1, 6, 6),
            (net.LayerSpec("flatten"), net.LayerSpec("dense", width=5)), 4))
    with pytest.raises(ShapeError, match="duplicate"):
        net.build_network(net.NetworkConfig(
            (1, 6, 6),
            (net.LayerSpec("flatten", name="a"),
             net.LayerSpec("dense", width=4, name="a")), 4))
    for unknown in (net.LayerSpec("softmax"), net.LayerSpec("softmax", name="s")):
        with pytest.raises(ShapeError, match="unknown layer kind 'softmax'"):
            net.build_network(net.NetworkConfig((1, 6, 6), (unknown,), 4))


def test_auto_names_count_only_unnamed_layers():
    network = net.build_network(net.NetworkConfig((1, 7, 7), (
        net.LayerSpec("conv", channels=2, kernel=3),
        net.LayerSpec("conv", channels=2, kernel=3, name="mid"),
        net.LayerSpec("conv", channels=2, kernel=3),
        net.LayerSpec("flatten"),
        net.LayerSpec("dense", width=2)), 2))
    assert network.names == ["conv1", "mid", "conv2", "flatten1", "dense1"]
    assert list(network.params) == [
        "conv1.weight", "conv1.bias", "mid.weight", "mid.bias",
        "conv2.weight", "conv2.bias", "dense1.weight", "dense1.bias"]


def test_forward_rejects_wrong_input_shape(tiny_net):
    with pytest.raises(ShapeError, match="configured input"):
        net.forward_batch(tiny_net, np.zeros((2, 1, 7, 7)))


def test_init_is_seeded():
    a = net.build_network(tiny_config(seed=3))
    b = net.build_network(tiny_config(seed=3))
    c = net.build_network(tiny_config(seed=4))
    for name in a.params:
        assert (a.params[name] == b.params[name]).all()
    assert any((a.params[n] != c.params[n]).any() for n in a.params)


def test_backward_params_matches_fd(tiny_net, rng):
    xb = rng.normal(0.5, 0.25, (3, 1, 6, 6))
    yb = rng.integers(0, 3, 3)
    scores, cache = net.forward_batch(tiny_net, xb)
    _, gmat = loss.disc_loss_and_grad(scores, yb)
    grads = net.backward_params(tiny_net, cache, gmat)
    assert set(grads) == set(tiny_net.params)
    for name in tiny_net.params:
        def obj(a, _n=name):
            keep = tiny_net.params[_n]
            tiny_net.params[_n] = a
            try:
                s, _ = net.forward_batch(tiny_net, xb)
                return loss.disc_loss_and_grad(s, yb)[0]
            finally:
                tiny_net.params[_n] = keep
        assert rel_err(fd_grad(obj, tiny_net.params[name].copy()), grads[name]) < 1e-6


def test_backward_input_matches_fd(tiny_net, rng):
    # the input gradient of sum(score_grad * scores) over the whole batch
    xb = rng.normal(0.5, 0.25, (2, 1, 6, 6))
    scores, cache = net.forward_batch(tiny_net, xb)
    score_grad = rng.normal(size=scores.shape)
    gin = net.backward_input(tiny_net, cache, score_grad)
    assert gin.shape == (2, 1, 6, 6)

    def obj(a):
        return float((net.forward_batch(tiny_net, a)[0] * score_grad).sum())

    assert rel_err(fd_grad(obj, xb.copy()), gin) < 1e-6
    with pytest.raises(ShapeError, match="score gradient shape"):
        net.backward_input(tiny_net, cache, score_grad[:, :2])


@pytest.mark.parametrize("k", [1, 2, 5])
@pytest.mark.parametrize("layer", ["dense2", "conv2", "pool1"])
def test_input_gradient_rows_are_independent(rng, layer, k):
    # an all-ones seed gives every image the gradient of its own score, byte
    # for byte what a one-hot seed on that image gives; dense2 is a flat
    # head, conv2 and pool1 are spatial ones
    network = net.build_network(net.lenet_config(seed=5))
    sub = net.truncate_at(network, layer, 3)
    shape = sub.config.input_shape
    _, cache = net.forward_batch(sub, rng.random((k,) + shape))
    together = net.backward_input(sub, cache, np.ones((k, 1)))
    assert together.shape == (k,) + shape
    for item in range(k):
        one_hot = np.zeros((k, 1))
        one_hot[item] = 1.0
        alone = net.backward_input(sub, cache, one_hot)
        assert together[item].tobytes() == alone[item].tobytes()
        assert not np.delete(alone, item, axis=0).any()


def test_every_kind_stack_gradients_match_fd(rng):
    # strided padded conv, overlapping pool, flatten, dense, relu, dense
    network = net.build_network(net.NetworkConfig((2, 7, 7), (
        net.LayerSpec("conv", channels=2, kernel=3, stride=2, pad=1),
        net.LayerSpec("maxpool", kernel=2, stride=1),
        net.LayerSpec("flatten"),
        net.LayerSpec("dense", width=5),
        net.LayerSpec("relu"),
        net.LayerSpec("dense", width=3)), 3, seed=1))
    assert [s.kind for s in network.layers] == ["conv", "maxpool", "flatten",
                                                 "dense", "relu", "dense"]
    for p in network.params.values():
        p += rng.normal(0.0, 0.3, p.shape)
    network.bump_version()
    xb = rng.normal(0.5, 0.5, (2, 2, 7, 7))
    yb = np.array([0, 2])
    scores, cache = net.forward_batch(network, xb)
    assert (cache.layer_inputs[4] > 0).any() and (cache.layer_inputs[4] < 0).any()
    _, gmat = loss.disc_loss_and_grad(scores, yb)
    grads = net.backward_params(network, cache, gmat)
    assert set(grads) == set(network.params)
    for name in network.params:
        def obj(a, _n=name):
            keep = network.params[_n]
            network.params[_n] = a
            try:
                return loss.disc_loss_and_grad(net.forward_batch(network, xb)[0], yb)[0]
            finally:
                network.params[_n] = keep
        assert rel_err(fd_grad(obj, network.params[name].copy()), grads[name]) < 1e-6, name

    score_grad = rng.normal(size=scores.shape)
    gin = net.backward_input(network, cache, score_grad)

    def score(a):
        return float((net.forward_batch(network, a)[0] * score_grad).sum())

    assert rel_err(fd_grad(score, xb.copy()), gin) < 1e-6


def test_only_backward_params_asks_for_param_grads(tiny_net, rng, monkeypatch):
    calls = []
    for fn in ("conv2d_backward_batch", "dense_backward_batch"):
        def recorder(*args, _orig=getattr(tensor, fn), _fn=fn, **kwargs):
            calls.append((_fn, kwargs["need_param_grad"]))
            return _orig(*args, **kwargs)
        monkeypatch.setattr(tensor, fn, recorder)
    scores, cache = net.forward_batch(tiny_net, rng.normal(0.5, 0.25, (2, 1, 6, 6)))
    net.backward_input(tiny_net, cache, np.ones_like(scores))
    assert calls == [("dense_backward_batch", False), ("conv2d_backward_batch", False)]
    calls.clear()
    net.backward_params(tiny_net, cache, np.ones_like(scores))
    assert calls == [("dense_backward_batch", True), ("conv2d_backward_batch", True)]


def test_gen_loss_cannot_move_final_bias(tiny_net, rng):
    # the generative gradient's columns sum to zero, and the final bias is a
    # pure per-class shift, so its gradient vanishes identically: intercepts
    # are only learnable discriminatively
    xb = rng.normal(0.5, 0.25, (5, 1, 6, 6))
    yb = rng.integers(0, 3, 5)
    scores, cache = net.forward_batch(tiny_net, xb)
    _, gmat = loss.gen_loss_and_grad(scores, yb)
    grads = net.backward_params(tiny_net, cache, gmat)
    assert np.abs(grads["dense1.bias"]).max() < 1e-12
    _, dmat = loss.disc_loss_and_grad(scores, yb)
    dgrads = net.backward_params(tiny_net, cache, dmat)
    assert np.abs(dgrads["dense1.bias"]).max() > 1e-3


def test_stale_cache_is_refused(tiny_net, rng):
    xb = rng.normal(size=(2, 1, 6, 6))
    scores, cache = net.forward_batch(tiny_net, xb)
    tiny_net.params["dense1.weight"] += 0.1
    tiny_net.bump_version()
    with pytest.raises(CacheError, match="stale"):
        net.backward_params(tiny_net, cache, np.zeros((2, 3)))
    with pytest.raises(CacheError):
        net.backward_input(tiny_net, cache, np.zeros((2, 3)))


@pytest.mark.parametrize("n", [1, 63, 256, 257])
def test_score_only_forward_keeps_no_cache(rng, n):
    # 63, 256 and 257 split LeNet's convs into blocks of different lengths
    network = net.build_network(net.lenet_config(seed=5))
    sub = net.truncate_at(network, "conv2", 3)
    for model, shape in ((network, (1, 28, 28)), (sub, sub.config.input_shape)):
        x = rng.random((n,) + shape)
        scores, cache = net.forward_batch(model, x)
        lean, none = net.forward_batch(model, x, keep=False)
        assert cache is not None and none is None
        assert lean.tobytes() == scores.tobytes()


def test_score_only_forward_frees_each_layer_input(monkeypatch, rng):
    # when a primitive starts, no input of a layer before the previous one
    # may still be alive, except the caller's own image batch
    network = net.build_network(net.lenet_config(seed=5))
    inputs = []
    alive = []

    def watch(fn):
        def wrapper(x, *args, **kwargs):
            alive.append(sum(ref() is not None for ref in inputs[1:-1]))
            inputs.append(weakref.ref(x))
            return fn(x, *args, **kwargs)
        return wrapper

    for name in ("conv2d_forward_batch", "maxpool_forward_batch", "dense_forward_batch",
                 "relu_forward"):
        monkeypatch.setattr(tensor, name, watch(getattr(tensor, name)))
    net.forward_batch(network, rng.random((4, 1, 28, 28)), keep=False)
    assert len(inputs) == 7 and alive == [0] * 7


def test_kept_forward_frees_pool_inputs(monkeypatch, rng):
    # no backward reads a pool layer's input (its routing is in the map), so
    # conv1's output is dead once pool1 has run, and the cache holds None
    network = net.build_network(net.lenet_config(seed=5))
    pool_inputs, alive_at_conv = [], []
    pool, conv = tensor.maxpool_forward_batch, tensor.conv2d_forward_batch

    def watch_pool(x, *args, **kwargs):
        pool_inputs.append(weakref.ref(x))
        return pool(x, *args, **kwargs)

    def watch_conv(x, *args, **kwargs):
        alive_at_conv.append([ref() is not None for ref in pool_inputs])
        return conv(x, *args, **kwargs)

    monkeypatch.setattr(tensor, "maxpool_forward_batch", watch_pool)
    monkeypatch.setattr(tensor, "conv2d_forward_batch", watch_conv)
    x = rng.random((6, 1, 28, 28))
    scores, cache = net.forward_batch(network, x)
    assert alive_at_conv == [[], [False]]
    assert all(ref() is None for ref in pool_inputs)
    assert [i for i, a in enumerate(cache.layer_inputs) if a is None] == [1, 3]
    monkeypatch.undo()

    # the backward reads the same bytes as from a cache that kept them
    probe = rng.normal(size=scores.shape)
    full = list(cache.layer_inputs)
    full[1] = tensor.conv2d_forward_batch(x, network.params["conv1.weight"],
                                          network.params["conv1.bias"])
    full[3] = tensor.conv2d_forward_batch(full[2], network.params["conv2.weight"],
                                          network.params["conv2.bias"])
    kept = net.ActivationCache(full, cache.argmax, cache.scores, cache.version)
    grads, want = net.backward_params(network, cache, probe), net.backward_params(network, kept, probe)
    assert all(grads[k].tobytes() == want[k].tobytes() for k in want)
    got, want = net.backward_input(network, cache, probe), net.backward_input(network, kept, probe)
    assert got.tobytes() == want.tobytes()


def test_only_a_kept_forward_builds_pool_maps(monkeypatch, rng):
    network = net.build_network(net.lenet_config(seed=5))
    maps = []
    pool = tensor.maxpool_forward_batch

    def spy(*args, **kwargs):
        pooled, amap = pool(*args, **kwargs)
        maps.append(amap)
        return pooled, amap

    monkeypatch.setattr(tensor, "maxpool_forward_batch", spy)
    x = rng.random((3, 1, 28, 28))
    net.forward_batch(network, x, keep=False)
    assert maps == [None, None]
    maps.clear()
    _, cache = net.forward_batch(network, x)
    assert all(isinstance(amap, tensor.ArgmaxMap) for amap in maps)
    assert [cache.argmax[i] for i in sorted(cache.argmax)] == maps and len(maps) == 2


def test_truncation_at_final_layer_selects_score(tiny_net, rng):
    xb = rng.normal(size=(4, 1, 6, 6))
    full, _ = net.forward_batch(tiny_net, xb)
    for y in range(3):
        sub = net.truncate_at(tiny_net, "dense1", y)
        partial, _ = net.forward_batch(sub, xb)
        np.testing.assert_array_equal(partial[:, 0], full[:, y])


def test_truncation_shares_parameters(tiny_net, rng):
    sub = net.truncate_at(tiny_net, "conv1", 1)
    xb = rng.normal(size=(1, 1, 6, 6))
    # need a 1x1 output: conv1 on 6x6 with k3 gives 4x4, so feed 3x3
    x_small = rng.normal(size=(1, 1, 3, 3))
    before, _ = net.forward_batch(sub, x_small)
    tiny_net.params["conv1.bias"] += 1.0
    tiny_net.bump_version()
    after, _ = net.forward_batch(sub, x_small)
    assert after[0, 0] == pytest.approx(before[0, 0] + 1.0)


def test_truncated_needs_unit_spatial_extent(tiny_net, rng, monkeypatch):
    # a conv1 truncation accepts only 3x3 images; a 6x6 one is refused
    # before any primitive runs
    sub = net.truncate_at(tiny_net, "conv1", 0)
    assert sub.config.input_shape == (1, 3, 3)
    calls = []
    monkeypatch.setattr(tensor, "conv2d_forward_batch", lambda *a, **k: calls.append(a))
    with pytest.raises(ShapeError, match="configured input"):
        net.forward_batch(sub, rng.normal(size=(1, 1, 6, 6)))
    assert calls == []


def test_truncation_validates_arguments(tiny_net):
    with pytest.raises(ShapeError, match="unknown layer"):
        net.truncate_at(tiny_net, "conv9", 0)
    with pytest.raises(ShapeError, match="channel"):
        net.truncate_at(tiny_net, "conv1", 2)
    sub = net.truncate_at(tiny_net, "conv1", 0)
    with pytest.raises(ShapeError, match="already truncated"):
        net.truncate_at(sub, "conv1", 0)


def input_shape(network, layer):
    return net.truncate_at(network, layer, 0).config.input_shape


def test_required_input_shape_reference_stack():
    network = net.build_network(net.lenet_config())
    assert input_shape(network, "conv1") == (1, 5, 5)
    assert input_shape(network, "pool1") == (1, 6, 6)
    assert input_shape(network, "conv2") == (1, 14, 14)
    assert input_shape(network, "pool2") == (1, 16, 16)
    # a flat layer takes the parent's input
    assert input_shape(network, "dense1") == (1, 28, 28)


def test_spatial_truncation_shapes_describe_its_own_input():
    network = net.build_network(net.lenet_config())
    sub = net.truncate_at(network, "conv2", 7)
    assert sub.names == ["conv1", "pool1", "conv2"]
    assert sub.shapes == [(20, 10, 10), (20, 5, 5), (50, 1, 1)]
    assert sub.config.num_classes == 10 and sub.num_outputs == 1
    assert isinstance(sub.config.layers, tuple)


def test_required_input_shape_composes_to_unit_extent(rng):
    network = net.build_network(net.lenet_config())
    for layer in ("conv1", "pool1", "conv2", "pool2"):
        sub = net.truncate_at(network, layer, 0)
        shape = sub.config.input_shape
        scores, _ = net.forward_batch(sub, rng.normal(size=(1,) + shape))
        assert scores.shape == (1, 1)


def test_required_input_shape_strided_padded_conv(rng):
    network = net.build_network(net.NetworkConfig((3, 9, 9), (
        net.LayerSpec("conv", channels=2, kernel=3, stride=2, pad=1),
        net.LayerSpec("conv", channels=2, kernel=3),
        net.LayerSpec("conv", channels=2, kernel=1, pad=1),
        net.LayerSpec("flatten"),
        net.LayerSpec("dense", width=2)), 2))
    # conv2 needs 3x3; conv1 (k3, s2, p1) maps 5x5 onto 3x3
    assert input_shape(network, "conv1") == (3, 1, 1)
    assert input_shape(network, "conv2") == (3, 5, 5)
    sub = net.truncate_at(network, "conv2", 1)
    scores, _ = net.forward_batch(sub, rng.normal(size=(1, 3, 5, 5)))
    assert scores.shape == (1, 1)
    # truncate_at itself refuses a layer that no input shrinks to 1x1
    with pytest.raises(ShapeError, match="padding swallows the window"):
        net.truncate_at(network, "conv3", 0)


def test_truncated_backward_input_matches_fd(tiny_net, rng):
    sub = net.truncate_at(tiny_net, "pool1", 1)
    shape = sub.config.input_shape
    x = rng.normal(size=(1,) + shape)
    scores, cache = net.forward_batch(sub, x)
    gin = net.backward_input(sub, cache, np.ones((1, 1)))
    assert gin.shape == (1,) + shape

    def obj(a):
        return float(net.forward_batch(sub, a)[0][0, 0])

    assert rel_err(fd_grad(obj, x.copy()), gin) < 1e-6


def test_checkpoint_roundtrip_is_byte_identical(tiny_net, tmp_path):
    p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    net.save_checkpoint(tiny_net, p1)
    loaded = net.load_checkpoint(p1)
    assert loaded.config == tiny_net.config
    for name in tiny_net.params:
        assert (loaded.params[name] == tiny_net.params[name]).all()
    net.save_checkpoint(loaded, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_checkpoint_rejects_corruption(tiny_net, tmp_path):
    import struct, zlib
    p = tmp_path / "x.ckpt"
    net.save_checkpoint(tiny_net, p)
    blob = bytearray(p.read_bytes())

    flipped = tmp_path / "flip.ckpt"
    blob2 = bytearray(blob)
    blob2[len(blob2) // 2] ^= 0xFF
    flipped.write_bytes(bytes(blob2))
    with pytest.raises(CheckpointError, match="checksum"):
        net.load_checkpoint(flipped)

    short = tmp_path / "short.ckpt"
    short.write_bytes(bytes(blob[:len(blob) // 2]))
    with pytest.raises(CheckpointError):
        net.load_checkpoint(short)

    bad_magic = tmp_path / "magic.ckpt"
    blob3 = bytearray(blob)
    blob3[0] ^= 0xFF
    bad_magic.write_bytes(bytes(blob3))
    with pytest.raises(CheckpointError, match="magic|checksum"):
        net.load_checkpoint(bad_magic)

    # the first tensor name's first byte, re-signed: only the name is wrong
    bad_name = tmp_path / "name.ckpt"
    blob4 = bytearray(blob[:-4])
    blob4[16 + struct.unpack("<I", blob[12:16])[0] + 4 + 2] = 0xFF
    bad_name.write_bytes(bytes(blob4) + struct.pack("<I", zlib.crc32(bytes(blob4))))
    with pytest.raises(CheckpointError, match="checkpoint tensor name is not UTF-8"):
        net.load_checkpoint(bad_name)

    # a stored shape whose element count exceeds any file, re-signed
    huge = tmp_path / "huge.ckpt"
    net.write_tensor_file(huge, {}, {"w": np.zeros((1, 1, 1))})
    blob5 = bytearray(huge.read_bytes()[:-4])
    blob5[-20:-8] = struct.pack("<III", *[2**32 - 1] * 3)
    huge.write_bytes(bytes(blob5) + struct.pack("<I", zlib.crc32(bytes(blob5))))
    with pytest.raises(CheckpointError, match="truncated checkpoint file"):
        net.read_tensor_file(huge)


def test_checkpoint_rejects_future_version(tiny_net, tmp_path):
    import struct, zlib
    p = tmp_path / "v.ckpt"
    net.save_checkpoint(tiny_net, p)
    blob = bytearray(p.read_bytes())
    blob[8:12] = struct.pack("<I", 99)            # bump format version
    blob[-4:] = struct.pack("<I", zlib.crc32(bytes(blob[:-4])))  # re-sign
    p.write_bytes(bytes(blob))
    with pytest.raises(CheckpointError, match="version"):
        net.load_checkpoint(p)


def test_checkpoint_with_unknown_layer_kind_is_refused(tiny_net, tmp_path):
    p = tmp_path / "bogus.ckpt"
    net.save_checkpoint(tiny_net, p)
    meta, tensors = net.read_tensor_file(p)
    meta["layers"][1]["kind"] = "bogus"
    net.write_tensor_file(p, meta, tensors)
    with pytest.raises(CheckpointError, match="unknown layer kind 'bogus'"):
        net.load_checkpoint(p)


@pytest.mark.parametrize("meta_blob,fragment", [
    (b"[1]", "not a JSON object"),
    (b"{", "not JSON"),
    (b"\xff", "not JSON"),
])
def test_checkpoint_meta_must_be_a_json_object(tiny_net, tmp_path, meta_blob, fragment):
    import struct, zlib
    p = tmp_path / "m.ckpt"
    net.save_checkpoint(tiny_net, p)
    blob = bytearray(p.read_bytes()[:-4])
    n = struct.unpack("<I", blob[12:16])[0]
    blob[12:16 + n] = struct.pack("<I", len(meta_blob)) + meta_blob
    blob += struct.pack("<I", zlib.crc32(bytes(blob)))  # re-sign
    p.write_bytes(bytes(blob))
    with pytest.raises(CheckpointError, match=fragment):
        net.load_checkpoint(p)


@pytest.mark.parametrize("layer,key,value,fragment", [
    (0, "channels", "2", "layer 0 channels is '2'"),
    (1, "stride", True, "layer 1 stride is True"),
    (2, "kind", 3, "layer 2 kind is 3"),
    (3, "width", 3.0, "layer 3 width is 3.0"),
    (None, "input_shape", [1, "6", 6], "input_shape entry is '6'"),
    (None, "num_classes", False, "num_classes is False"),
    (None, "seed", "0", "seed is '0'"),
    (None, "layers", [1], "malformed checkpoint metadata"),
])
def test_checkpoint_with_ill_typed_meta_is_refused(tiny_net, tmp_path, layer, key,
                                                   value, fragment):
    p = tmp_path / "typed.ckpt"
    net.save_checkpoint(tiny_net, p)
    meta, tensors = net.read_tensor_file(p)
    (meta if layer is None else meta["layers"][layer])[key] = value
    net.write_tensor_file(p, meta, tensors)
    with pytest.raises(CheckpointError, match=re.escape(fragment)):
        net.load_checkpoint(p)


def test_checkpoint_refuses_truncated_networks(tiny_net, tmp_path):
    sub = net.truncate_at(tiny_net, "conv1", 0)
    with pytest.raises(ShapeError, match="truncated"):
        net.save_checkpoint(sub, tmp_path / "no.ckpt")


def test_builtin_network_suite_is_green():
    for result in network_suite(seed=7):
        assert result.ok, f"{result.name}: {result.value} > {result.tol}"
