"""Network construction, both backward passes, truncation with its input
shape, and checkpoint round-trips."""

import re
import tempfile
import weakref
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tiltnet import loss, net, tensor
from tiltnet.checks import fd_grad, network_suite, rel_err
from tiltnet.errors import CacheError, CheckpointError, ShapeError

from conftest import op_counts_since, routed_net, tiny_config


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
        net.build_network(net.NetworkConfig((1, 6, 6), (net.LayerSpec("dense", width=4),)))
    with pytest.raises(ShapeError, match=re.escape(
            "final layer produces (2, 4, 4), expected a flat width")):
        net.build_network(net.NetworkConfig((1, 6, 6), (net.LayerSpec("conv", channels=2,
                                                                         kernel=3),)))
    with pytest.raises(ShapeError, match="unknown layer kind 'softmax'"):
        net.build_network(net.NetworkConfig((1, 6, 6), (net.LayerSpec("softmax"),)))


# LeNet as literal specs; lenet_config parses all but the last layer
LENET_FEATURES = (
    net.LayerSpec("conv", channels=20, kernel=5),
    net.LayerSpec("maxpool", kernel=2, stride=2),
    net.LayerSpec("conv", channels=50, kernel=5),
    net.LayerSpec("maxpool", kernel=2, stride=2),
    net.LayerSpec("flatten"),
    net.LayerSpec("dense", width=500),
    net.LayerSpec("relu"),
)


@pytest.mark.parametrize("classes", [1, 2, 10, 0, -1])
def test_lenet_config_is_the_literal_stack(classes):
    config = net.lenet_config(classes, (3, 32, 32), seed=4)
    assert config == net.NetworkConfig(
        (3, 32, 32), LENET_FEATURES + (net.LayerSpec("dense", width=classes),), 4)


# one token per kind, every optional group given a non-default value
_SAMPLE_TOKENS = {"conv": "conv:8@3/2p1", "maxpool": "pool:3/2", "flatten": "flatten",
                  "dense": "dense:5", "relu": "relu"}


def test_each_kind_token_parses_to_exactly_its_named_fields():
    assert set(_SAMPLE_TOKENS) == set(net._KINDS)
    for kind, record in net._KINDS.items():
        assert record.token
        (spec,) = net.parse_layers(_SAMPLE_TOKENS[kind])
        assert spec.kind == kind
        set_fields = {f.name for f in fields(net.LayerSpec)[1:]
                      if getattr(spec, f.name) != f.default}
        assert set_fields == set(re.compile(record.token).groupindex)


@pytest.mark.parametrize("spec,field", [
    (net.LayerSpec("maxpool", kernel=3, stride=1, pad=1), "pad"),
    (net.LayerSpec("dense", width=4, kernel=3), "kernel"),
    (net.LayerSpec("relu", channels=2), "channels"),
])
def test_a_field_its_kind_does_not_take_is_refused(spec, field):
    # on its own the pool would silently drop the pad: 6x6 -> 4x4
    layers = (net.LayerSpec("flatten"), spec) if spec.kind == "dense" else (spec,)
    with pytest.raises(ShapeError, match=rf"layer '\w+1': a {spec.kind} layer takes no {field}"):
        net.build_network(net.NetworkConfig((1, 6, 6), layers))


@pytest.mark.parametrize("layers,message", [
    ("conv:2@3, conv:2@9, flatten, dense:2",
     "layer 'conv2': conv height: window 9 exceeds padded extent 6"),
    ("conv:2@3, flatten, conv:2@1",
     "layer 'conv2': conv layer needs spatial input, got flat width (72,)"),
    ("pool:3/2, flatten, dense:2",
     "layer 'pool1': pool height: stride 2 does not tile extent 8 with window 3"),
    ("flatten, pool:2", "layer 'pool1': maxpool layer needs spatial input"),
    ("flatten, flatten", "layer 'flatten2': flatten layer needs spatial input"),
    ("dense:2", "layer 'dense1': dense layer needs flat input; add a flatten layer"),
    ("flatten, dense:0", "layer 'dense1': dense layer needs width >= 1"),
])
def test_shape_errors_name_their_layer(tmp_path, layers, message):
    # on a 1x8x8 input; a checkpoint of the same stack is refused with it too
    config = net.NetworkConfig((1, 8, 8), net.parse_layers(layers))
    with pytest.raises(ShapeError, match=f"^{re.escape(message)}$"):
        net.build_network(config)
    ckpt = tmp_path / "stack.ckpt"
    net.write_tensor_file(ckpt, net._config_to_meta(config), {})
    with pytest.raises(CheckpointError, match=f"^checkpoint describes an invalid network: "
                                              f"{re.escape(message)}$"):
        net.load_checkpoint(ckpt)


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
        net.LayerSpec("dense", width=3)), seed=1))
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
    net.backward_input(tiny_net, cache, np.ones((2, 3)))   # leaves a reuse record
    tiny_net.params["dense1.weight"] += 0.1
    tiny_net.bump_version()
    with pytest.raises(CacheError, match="stale"):
        net.backward_params(tiny_net, cache, np.zeros((2, 3)))
    with pytest.raises(CacheError):
        net.backward_input(tiny_net, cache, np.zeros((2, 3)))
    # so is a reuse cache from before the update
    _, fresh = net.forward_batch(tiny_net, xb)
    with pytest.raises(CacheError, match="stale"):
        net.backward_input(tiny_net, fresh, np.zeros((2, 3)), reuse=cache)


def _backward_calls(before):
    counts = op_counts_since(before)
    return {op: counts.get(f"{op}_bwd.calls", 0) for op in ("dense", "relu", "maxpool", "conv2d")}


# layers 0-7: conv1 pool1 conv2 pool2 flatten dense1 relu1 dense2
@pytest.mark.parametrize("change,recomputed", [
    ("nothing", {"dense": 0, "relu": 0, "maxpool": 0, "conv2d": 0}),
    ("relu1 sign", {"dense": 1, "relu": 1, "maxpool": 2, "conv2d": 2}),
    ("pool2 winner", {"dense": 0, "relu": 0, "maxpool": 2, "conv2d": 2}),
    ("pool1 winner", {"dense": 0, "relu": 0, "maxpool": 1, "conv2d": 1}),
    ("score gradient", {"dense": 2, "relu": 1, "maxpool": 2, "conv2d": 2}),
])
def test_reuse_recomputes_from_the_first_changed_routing_down(rng, change, recomputed):
    network = routed_net()
    seed = np.array([[0.0, 1.0, 0.0]])
    _, old = net.forward_batch(network, rng.normal(size=(1, 1, 14, 14)))
    net.backward_input(network, old, seed)
    # the same forward pass with one routing state edited by hand
    cache = net.ActivationCache(list(old.layer_inputs), dict(old.argmax), old.scores, old.version)
    if change == "relu1 sign":
        flipped = old.layer_inputs[6].copy()
        flipped[0, 0] = -flipped[0, 0]
        assert flipped[0, 0] != 0.0
        cache.layer_inputs[6] = flipped
    elif change.endswith("winner"):
        i = 3 if change == "pool2 winner" else 1
        winners = old.argmax[i].winners.copy()
        winners[0, 0, 0, 0] ^= 1   # the next column in the same 2x2 window
        cache.argmax[i] = replace(old.argmax[i], winners=winners)
    elif change == "score gradient":
        seed = np.array([[0.0, 0.0, 1.0]])
    before = tensor.op_counts()
    got = net.backward_input(network, cache, seed, reuse=old)
    assert _backward_calls(before) == recomputed
    fresh = net.ActivationCache(cache.layer_inputs, cache.argmax, cache.scores, cache.version)
    assert got.tobytes() == net.backward_input(network, fresh, seed).tobytes()


def test_a_reused_result_is_never_an_array_the_caller_holds(rng):
    network = routed_net()
    seed, x = np.array([[1.0, 0.0, 0.0]]), rng.normal(size=(1, 1, 14, 14))
    _, first = net.forward_batch(network, x)
    want = net.backward_input(network, first, seed)
    returned = net.backward_input(network, first, seed)
    returned[...] = 7.0   # the caller owns what it got back
    for _ in range(2):
        _, cache = net.forward_batch(network, x)
        before = tensor.op_counts()
        got = net.backward_input(network, cache, seed, reuse=first)
        assert _backward_calls(before) == {"dense": 0, "relu": 0, "maxpool": 0, "conv2d": 0}
        assert got.tobytes() == want.tobytes()
        got[...] = -7.0
        first = cache


@st.composite
def _random_stacks(draw):
    """Layers from the grammar on 1-2 channels of 6-12 pixels: strided and
    padded convs, some with a relu after, and pools that overlap when their
    stride is below their kernel; then flatten and one or two dense, the last
    1-4 wide."""
    shape = (draw(st.integers(1, 2)),) + (draw(st.integers(6, 12)),) * 2
    tokens, e = [], shape[1]
    for _ in range(draw(st.integers(1, 3))):
        if e >= 2 and draw(st.booleans()):
            k = draw(st.integers(2, min(3, e)))
            stride = draw(st.sampled_from([s for s in (1, 2) if (e - k) % s == 0]))
            tokens.append(f"pool:{k}/{stride}")
            e = (e - k) // stride + 1
        else:
            pad = draw(st.integers(0, 1))
            k = draw(st.integers(1, min(3, e + 2 * pad)))
            stride = draw(st.sampled_from([s for s in (1, 2) if (e + 2 * pad - k) % s == 0]))
            tokens.append(f"conv:{draw(st.integers(1, 3))}@{k}/{stride}p{pad}")
            tokens += ["relu"] if draw(st.booleans()) else []
            e = (e + 2 * pad - k) // stride + 1
    tokens.append("flatten")
    if draw(st.booleans()):
        tokens += [f"dense:{draw(st.integers(2, 6))}", "relu"]
    seed = draw(st.integers(0, 2**32 - 1))
    return shape, ", ".join(tokens + [f"dense:{draw(st.integers(1, 4))}"]), seed


@settings(max_examples=25)
@given(_random_stacks())
def test_reuse_gives_the_bytes_of_a_fresh_pass_on_random_stacks(case):
    # every truncation too; steps from none to large move routing states from
    # none to all, and an overlapping pool's cell may win several windows.
    # Then the last gradient against a central difference along a direction
    # d, at the largest step whose end points keep every routing state: there
    # each truncation is linear, so a shared adjoint error cannot pass
    shape, layers, seed = case
    directions = np.random.default_rng([seed, 1])
    network = net.build_network(net.NetworkConfig(shape, net.parse_layers(layers), seed))
    rng = np.random.default_rng(seed)
    for p in network.params.values():
        p += rng.normal(0.0, 0.3, p.shape)
    network.bump_version()
    subs = [network]
    for name in network.names:
        try:
            subs.append(net.truncate_at(network, name, 0))
        except ShapeError as e:
            assert "padding swallows" in str(e)
    for sub in subs:
        x = rng.normal(size=(1,) + sub.config.input_shape)
        up = rng.normal(size=(1, sub.num_outputs))
        _, old = net.forward_batch(sub, x)
        net.backward_input(sub, old, up)
        for scale in (0.0, 1e-3, 0.1, 1.0):
            x = x + rng.normal(0.0, scale, x.shape)
            _, cache = net.forward_batch(sub, x)
            got = net.backward_input(sub, cache, up, reuse=old)
            fresh = net.backward_input(sub, net.forward_batch(sub, x)[1], up)
            assert got.tobytes() == fresh.tobytes(), (layers, sub.names[-1], scale)
            old = cache
        d = directions.normal(size=x.shape)
        exact = float(np.sum(fresh * d))
        here = _routing(sub, x)
        h = next((h for h in (1e-3, 1e-4, 1e-5, 1e-6)
                  if _routing(sub, x + h * d) == here == _routing(sub, x - h * d)), None)
        assert h is not None, (layers, sub.names[-1])
        f = [np.sum(up * net.forward_batch(sub, x + t * d, keep=False)[0]) for t in (h, -h)]
        fd = (f[0] - f[1]) / (2 * h)
        assert abs(fd - exact) <= 1e-6 * max(1.0, abs(exact)), (layers, sub.names[-1], h)


@settings(max_examples=25)
@given(_random_stacks())
def test_random_stacks_output_their_last_width_and_save_without_a_count(case):
    # the class count is the last layer's width, stated nowhere else: not in
    # the config, not in a checkpoint's meta, and a load derives it again
    shape, layers, seed = case
    network = net.build_network(net.NetworkConfig(shape, net.parse_layers(layers), seed))
    assert network.num_outputs == network.shapes[-1][0] == int(layers.rsplit(":", 1)[1])
    with tempfile.TemporaryDirectory() as tmp:
        first, again = Path(tmp, "first.ckpt"), Path(tmp, "again.ckpt")
        net.save_checkpoint(network, first)
        loaded = net.load_checkpoint(first)
        net.save_checkpoint(loaded, again)
        assert again.read_bytes() == first.read_bytes()
        assert "num_classes" not in net.read_tensor_file(first)[0]
    assert loaded.config == network.config and loaded.num_outputs == network.num_outputs


def _routing(network, x):
    """Every routing state (ReLU signs, pool winners) of a pass at x."""
    cache = net.forward_batch(network, x)[1]
    return [net._KINDS[s.kind].routing(cache.layer_inputs[i], cache.argmax.get(i))
            for i, s in enumerate(network.layers) if net._KINDS[s.kind].routing]


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


@pytest.mark.parametrize("layer", [None, "conv2"])
def test_an_empty_batch_gives_empty_results(layer):
    # flatten and the truncation head keep n = 0; the parameter gradients of
    # no images are zeros of the parameters' shapes
    network = net.build_network(net.lenet_config(seed=3))
    if layer is not None:
        network = net.truncate_at(network, layer, 7)
    images = np.zeros((0,) + tuple(network.config.input_shape))
    scores, cache = net.forward_batch(network, images)
    assert scores.shape == net.forward_batch(network, images, keep=False)[0].shape == (
        0, network.num_outputs)
    seed = np.zeros(scores.shape)
    assert net.backward_input(network, cache, seed).shape == images.shape
    grads = net.backward_params(network, cache, seed)
    assert grads.keys() == {key for key in network.params if key.split(".")[0] in network.names}
    assert all(g.shape == network.params[key].shape and not g.any()
               for key, g in grads.items())


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
    assert network.num_outputs == 10 and sub.num_outputs == 1
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
        net.LayerSpec("dense", width=2))))
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
    (None, "seed", -1, "seed is -1"),
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
