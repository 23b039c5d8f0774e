"""Layered scoring networks.

A network maps an image batch to an n-by-C score matrix through a declared
stack of conv / maxpool / flatten / dense / relu layers. Besides the forward
pass it supports two exact backward passes (to parameters for training, to
the input image for sampling), truncation at any layer to expose a single
internal node as the score, spatial input-size inversion for truncated
prefixes, and versioned binary checkpoints.

What a layer kind means (its auto-name stem, output shape, parameter init,
forward, backward and receptive-field inverse) lives in one record of
``_KINDS``; the passes below only loop over it. Adding a kind means adding
one record there and one token in ``config.parse_layers``.
"""

from __future__ import annotations

import json
import os
import struct
import zlib
from dataclasses import dataclass, fields
from typing import Callable

import numpy as np

from . import tensor
from .errors import CacheError, CheckpointError, ShapeError


@dataclass(frozen=True)
class LayerSpec:
    """One layer of the stack. Fields that do not apply to the kind stay 0.

    in_width lets a dense layer pin the width it expects; 0 means inferred.
    """
    kind: str
    name: str = ""
    channels: int = 0   # conv output channels
    kernel: int = 0     # conv / maxpool square window edge
    stride: int = 1
    pad: int = 0
    width: int = 0      # dense output width
    in_width: int = 0


@dataclass(frozen=True)
class NetworkConfig:
    input_shape: tuple          # (C, H, W)
    layers: tuple               # of LayerSpec
    num_classes: int
    init: str = "gaussian"
    seed: int = 0


def lenet_config(num_classes: int = 10, input_shape=(1, 28, 28), seed: int = 0) -> NetworkConfig:
    """The reference stack: conv(20@5) - pool2/2 - conv(50@5) - pool2/2 -
    flatten - dense(500) - relu - dense(C)."""
    layers = (
        LayerSpec("conv", channels=20, kernel=5),
        LayerSpec("maxpool", kernel=2, stride=2),
        LayerSpec("conv", channels=50, kernel=5),
        LayerSpec("maxpool", kernel=2, stride=2),
        LayerSpec("flatten"),
        LayerSpec("dense", width=500),
        LayerSpec("relu"),
        LayerSpec("dense", width=num_classes),
    )
    return NetworkConfig(tuple(input_shape), layers, num_classes, "gaussian", seed)


# ---------------------------------------------------------------------------
# layer kinds

@dataclass(frozen=True)
class _Kind:
    """Everything one layer kind means; shapes exclude the batch axis.
    Parameter-free kinds get weight and bias None and return None for gw, gb;
    so do the others when need_params is False.
    Primitives are looked up as ``tensor.<fn>`` at call time, so a wrapper
    patched onto the tensor module (a profiler, a counter) sees every call."""
    stem: str            # prefix of auto-generated layer names
    out_shape: Callable  # (spec, in_shape) -> out_shape; raises ShapeError
    forward: Callable    # (spec, x, weight, bias) -> (y, ArgmaxMap or None)
    backward: Callable   # (spec, up, x, weight, amap, need_input, need_params) -> (gx, gw, gb)
    init: Callable = None  # (spec, in_shape, rng) -> (weight, bias); None: no parameters
    grow: Callable = None  # (spec, out_extent) -> in_extent; None: no spatial inverse


def _spatial(shape, message: str) -> tuple:
    if len(shape) != 3:
        raise ShapeError(message)
    return shape


def _conv_shape(spec, shape) -> tuple:
    _, h, w = _spatial(shape, f"conv layer {spec.name or spec.kind!r} needs spatial "
                              f"input, got flat width {shape}")
    if spec.channels < 1 or spec.kernel < 1:
        raise ShapeError("conv layer needs channels >= 1 and kernel >= 1")
    return (spec.channels,
            tensor.output_extent(h, spec.kernel, spec.stride, spec.pad, "conv height"),
            tensor.output_extent(w, spec.kernel, spec.stride, spec.pad, "conv width"))


def _pool_shape(spec, shape) -> tuple:
    c, h, w = _spatial(shape, "maxpool layer needs spatial input")
    return (c,
            tensor.output_extent(h, spec.kernel, spec.stride, 0, "pool height"),
            tensor.output_extent(w, spec.kernel, spec.stride, 0, "pool width"))


def _dense_shape(spec, shape) -> tuple:
    if len(shape) != 1:
        raise ShapeError("dense layer needs flat input; add a flatten layer")
    if spec.width < 1:
        raise ShapeError("dense layer needs width >= 1")
    if spec.in_width and spec.in_width != shape[0]:
        raise ShapeError(f"dense layer expects input width {spec.in_width}, "
                         f"gets {shape[0]}")
    return (spec.width,)


_KINDS = {
    "conv": _Kind(
        stem="conv", out_shape=_conv_shape,
        forward=lambda s, x, w, b: (tensor.conv2d_forward_batch(x, w, b, s.stride, s.pad), None),
        backward=lambda s, up, x, w, amap, need_input, need_params: (
            tensor.conv2d_backward_batch(up, x, w, s.stride, s.pad, need_input_grad=need_input,
                                         need_param_grad=need_params)),
        init=lambda s, shape, rng: (
            rng.normal(0.0, 0.01, (s.channels, shape[0], s.kernel, s.kernel)),
            np.zeros(s.channels)),
        grow=lambda s, e: (e - 1) * s.stride + s.kernel - 2 * s.pad),
    "maxpool": _Kind(
        stem="pool", out_shape=_pool_shape,
        forward=lambda s, x, w, b: tensor.maxpool_forward_batch(x, s.kernel, s.stride),
        backward=lambda s, up, x, w, amap, need_input, need_params: (
            tensor.maxpool_backward_batch(up, amap), None, None),
        grow=lambda s, e: (e - 1) * s.stride + s.kernel),
    "flatten": _Kind(
        stem="flatten",
        out_shape=lambda s, shape: (
            int(np.prod(_spatial(shape, "flatten layer needs spatial input"))),),
        forward=lambda s, x, w, b: (np.ascontiguousarray(x.reshape(len(x), -1)), None),
        backward=lambda s, up, x, w, amap, need_input, need_params: (
            up.reshape(x.shape), None, None)),
    "dense": _Kind(
        stem="dense", out_shape=_dense_shape,
        forward=lambda s, x, w, b: (tensor.dense_forward_batch(x, w, b), None),
        backward=lambda s, up, x, w, amap, need_input, need_params: (
            tensor.dense_backward_batch(up, x, w, need_param_grad=need_params)),
        init=lambda s, shape, rng: (
            rng.normal(0.0, 1.0 / np.sqrt(shape[0]), (s.width, shape[0])),
            np.zeros(s.width))),
    "relu": _Kind(
        stem="relu", out_shape=lambda s, shape: shape,
        forward=lambda s, x, w, b: (tensor.relu_forward(x), None),
        backward=lambda s, up, x, w, amap, need_input, need_params: (
            tensor.relu_backward(up, x), None, None),
        grow=lambda s, e: e),
}


def _kind(spec: LayerSpec) -> _Kind:
    """spec's record; the one place an unknown kind is rejected."""
    if spec.kind not in _KINDS:
        raise ShapeError(f"unknown layer kind {spec.kind!r}; have {', '.join(_KINDS)}")
    return _KINDS[spec.kind]


def _resolve_names(layers) -> list:
    counters: dict = {}
    names = []
    for spec in layers:
        if spec.name:
            name = spec.name
        else:
            stem = _kind(spec).stem
            counters[stem] = counters.get(stem, 0) + 1
            name = f"{stem}{counters[stem]}"
        if name in names:
            raise ShapeError(f"duplicate layer name {name!r}")
        names.append(name)
    return names


def propagate_shapes(config: NetworkConfig) -> list:
    """Per-layer output shapes (without the batch axis); raises ShapeError
    when the kinds do not chain."""
    if len(config.input_shape) != 3 or any(d < 1 for d in config.input_shape):
        raise ShapeError(f"input shape must be (C, H, W) with positive extents, "
                         f"got {config.input_shape}")
    shape = tuple(int(d) for d in config.input_shape)
    shapes = []
    for spec in config.layers:
        shape = _kind(spec).out_shape(spec, shape)
        shapes.append(shape)
    if not shapes:
        raise ShapeError("network needs at least one layer")
    if shapes[-1] != (config.num_classes,):
        raise ShapeError(f"final layer produces {shapes[-1]}, "
                         f"expected flat width {config.num_classes}")
    return shapes


@dataclass
class ActivationCache:
    """Per-layer forward inputs plus pooling argmax maps for one batch: what
    the backward passes read. Only ``forward_batch(keep=True)`` builds one;
    a score-only pass keeps none of it.

    version pins the parameters the pass was computed with; the backward
    passes refuse a cache that predates an optimizer step.
    """
    layer_inputs: list
    argmax: dict
    output: np.ndarray
    scores: np.ndarray
    version: int


class Network:
    """A built network: resolved layer stack, parameter store, and optionally
    a truncation head that exposes one channel of a prefix as the score."""

    def __init__(self, config: NetworkConfig, layers, names, shapes, params,
                 head=None, version_cell=None):
        self.config = config
        self.layers = list(layers)
        self.names = list(names)
        self.shapes = list(shapes)
        self.params = params
        self.head = head  # None for full nets, else selected channel (int)
        self._version = version_cell if version_cell is not None else [0]

    @property
    def version(self) -> int:
        return self._version[0]

    def bump_version(self) -> None:
        """Invalidate outstanding activation caches (called after updates)."""
        self._version[0] += 1

    @property
    def num_outputs(self) -> int:
        return 1 if self.head is not None else self.config.num_classes

    def param_count(self) -> int:
        return int(sum(p.size for p in self.params.values()))


def build_network(config: NetworkConfig) -> Network:
    """Validate the config, allocate parameters, and seed the initializer."""
    names = _resolve_names(config.layers)
    shapes = propagate_shapes(config)
    if config.init != "gaussian":
        raise ShapeError(f"unknown init scheme {config.init!r}")
    rng = np.random.default_rng(config.seed)
    params: dict = {}
    in_shapes = [tuple(config.input_shape)] + shapes[:-1]
    for spec, name, in_shape in zip(config.layers, names, in_shapes):
        init = _KINDS[spec.kind].init
        if init is not None:
            params[name + ".weight"], params[name + ".bias"] = init(spec, in_shape, rng)
    return Network(config, config.layers, names, shapes, params)


def forward_batch(net: Network, images, keep: bool = True) -> tuple:
    """Run a batch [n, C, H, W] through the stack.

    Returns (scores [n, num_outputs], ActivationCache). Full networks insist
    on the configured input shape; truncated ones only pin the channel count
    so the sampler can feed the size required by the prefix.

    keep=False is the score-only pass (evaluation, the sampler's potential):
    no layer input or argmax map outlives the layer that reads it, the cache
    is None, and the scores are the same bytes as with keep=True.
    """
    x = np.ascontiguousarray(images, dtype=np.float64)
    if x.ndim != 4:
        raise ShapeError(f"image batch must be 4-D [n,C,H,W], got {x.shape}")
    if net.head is None:
        if x.shape[1:] != tuple(net.config.input_shape):
            raise ShapeError(f"batch shape {x.shape[1:]} != configured input "
                             f"{tuple(net.config.input_shape)}")
    elif x.shape[1] != net.config.input_shape[0]:
        raise ShapeError(f"batch has {x.shape[1]} channels, network expects "
                         f"{net.config.input_shape[0]}")
    layer_inputs = []
    argmax: dict = {}
    for i, (spec, name) in enumerate(zip(net.layers, net.names)):
        if keep:
            layer_inputs.append(x)
        x, amap = _KINDS[spec.kind].forward(spec, x, net.params.get(name + ".weight"),
                                            net.params.get(name + ".bias"))
        if keep and amap is not None:
            argmax[i] = amap
    output = x
    if net.head is None:
        scores = output
    else:
        ch = net.head
        if output.ndim == 4:
            if output.shape[2:] != (1, 1):
                raise ShapeError(
                    f"truncated network output is {output.shape[1:]}, needs spatial "
                    f"1x1; size the input with required_input_shape")
            scores = np.ascontiguousarray(output[:, ch, 0, 0])[:, None]
        else:
            scores = np.ascontiguousarray(output[:, ch])[:, None]
    if not keep:
        return scores, None
    return scores, ActivationCache(layer_inputs, argmax, output, scores, net.version)


def _backward(net: Network, cache: ActivationCache, score_grad,
              want_params: bool, want_input: bool):
    """Reverse pass from d(objective)/d(scores); returns (grads, grad_input).

    want_params=False skips every parameter-gradient product (grads is
    empty); want_input=False skips the first layer's input gradient
    (grad_input may be None). Neither flag changes the other's results.
    """
    if cache.version != net.version:
        raise CacheError("activation cache is stale: parameters changed after the "
                         "forward pass")
    up = np.ascontiguousarray(score_grad, dtype=np.float64)
    n = cache.scores.shape[0]
    if up.shape != (n, net.num_outputs):
        raise ShapeError(f"score gradient shape {up.shape} != {(n, net.num_outputs)}")
    if net.head is not None:
        seeded = np.zeros_like(cache.output)
        if seeded.ndim == 4:
            seeded[:, net.head, 0, 0] = up[:, 0]
        else:
            seeded[:, net.head] = up[:, 0]
        up = seeded
    grads: dict = {}
    for i in reversed(range(len(net.layers))):
        spec, name = net.layers[i], net.names[i]
        up, gw, gb = _KINDS[spec.kind].backward(
            spec, up, cache.layer_inputs[i], net.params.get(name + ".weight"),
            cache.argmax.get(i), want_input or i > 0, want_params)
        if gw is not None:
            grads[name + ".weight"] = gw
            grads[name + ".bias"] = gb
    return grads, up


def backward_params(net: Network, cache: ActivationCache, score_grad) -> dict:
    """Exact parameter gradients for a given d(objective)/d(scores).

    Returns a dict keyed like net.params; unscaled (the caller owns 1/batch).
    """
    grads, _ = _backward(net, cache, score_grad, want_params=True, want_input=False)
    return grads


def backward_input(net: Network, cache: ActivationCache, node: int, item: int) -> np.ndarray:
    """Gradient of one output node's score with respect to one input image.

    Input gradient only; no parameter-gradient work. Pool routing follows
    the argmax maps recorded for that forward pass.
    """
    n, c = cache.scores.shape
    if not 0 <= node < c:
        raise ShapeError(f"node {node} out of range for {c} outputs")
    if not 0 <= item < n:
        raise ShapeError(f"item {item} out of range for batch of {n}")
    seed = np.zeros((n, c))
    seed[item, node] = 1.0
    _, gin = _backward(net, cache, seed, want_params=False, want_input=True)
    return np.ascontiguousarray(gin[item])


def truncate_at(net: Network, layer_name: str, channel: int) -> Network:
    """Expose one channel of one layer as a scalar score.

    The truncated network shares the parent's parameter store (training the
    parent moves the truncation too). Truncating at the final layer with
    channel y reproduces score selection f_y exactly.
    """
    if net.head is not None:
        raise ShapeError("network is already truncated")
    if layer_name not in net.names:
        raise ShapeError(f"unknown layer {layer_name!r}; have {', '.join(net.names)}")
    idx = net.names.index(layer_name)
    out_shape = net.shapes[idx]
    n_channels = out_shape[0]
    if not 0 <= channel < n_channels:
        raise ShapeError(f"channel {channel} out of range: layer {layer_name!r} "
                         f"has {n_channels}")
    return Network(net.config, net.layers[:idx + 1], net.names[:idx + 1],
                   net.shapes[:idx + 1], net.params, head=channel,
                   version_cell=net._version)


def required_input_shape(net: Network, layer_name: str) -> tuple:
    """Smallest input (C, H, W) for which the prefix ending at layer_name has
    spatial extent exactly 1x1.

    Only defined for prefixes whose kinds all have a receptive-field inverse
    (conv / maxpool / relu); flatten and dense discard spatial semantics.
    Windows are square, so height and width grow alike.
    """
    if layer_name not in net.names:
        raise ShapeError(f"unknown layer {layer_name!r}; have {', '.join(net.names)}")
    prefix = net.layers[:net.names.index(layer_name) + 1]
    for spec in prefix:
        if _KINDS[spec.kind].grow is None:
            raise ShapeError(f"layer {layer_name!r} has no spatial semantics: the "
                             f"prefix contains a {spec.kind} layer")
    extent = 1
    for spec in reversed(prefix):
        extent = _KINDS[spec.kind].grow(spec, extent)
        if extent < 1:
            raise ShapeError(f"no valid input size for layer {layer_name!r}: "
                             f"padding swallows the window")
    return (int(net.config.input_shape[0]), int(extent), int(extent))


# ---------------------------------------------------------------------------
# checkpoints: versioned binary container with a whole-file checksum

_MAGIC = b"TILTCKPT"
_FORMAT_VERSION = 1


def write_tensor_file(path, meta: dict, tensors: dict) -> None:
    """Pack named float64 tensors plus a JSON metadata blob; little-endian
    throughout, CRC32 over everything that precedes it.

    The bytes go to ``<path>.tmp`` first and are then renamed over ``path``,
    so a crash mid-write leaves the previous file (or none), never a torn one.
    """
    meta_blob = json.dumps(meta, sort_keys=True, separators=(",", ":")).encode()
    buf = bytearray()
    buf += _MAGIC
    buf += struct.pack("<I", _FORMAT_VERSION)
    buf += struct.pack("<I", len(meta_blob)) + meta_blob
    buf += struct.pack("<I", len(tensors))
    for name in sorted(tensors):
        arr = np.ascontiguousarray(tensors[name], dtype="<f8")
        nb = name.encode()
        buf += struct.pack("<H", len(nb)) + nb
        buf += struct.pack("<B", arr.ndim)
        buf += b"".join(struct.pack("<I", d) for d in arr.shape)
        buf += arr.tobytes()
    buf += struct.pack("<I", zlib.crc32(bytes(buf)))
    tmp = f"{path}.tmp"
    with open(tmp, "wb") as fh:
        fh.write(bytes(buf))
    os.replace(tmp, path)


class _Cursor:
    def __init__(self, blob: bytes):
        self.blob = blob
        self.pos = 0

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.blob):
            raise CheckpointError("truncated checkpoint file")
        out = self.blob[self.pos:self.pos + n]
        self.pos += n
        return out

    def u(self, fmt: str) -> int:
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))[0]


def read_tensor_file(path) -> tuple:
    """Inverse of write_tensor_file; returns (meta, tensors). Raises
    CheckpointError on any structural or checksum problem."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < len(_MAGIC) + 8 or not blob.startswith(_MAGIC):
        raise CheckpointError("not a checkpoint file (bad magic)")
    stored_crc = struct.unpack("<I", blob[-4:])[0]
    if zlib.crc32(blob[:-4]) != stored_crc:
        raise CheckpointError("checkpoint checksum mismatch")
    cur = _Cursor(blob[:-4])
    cur.take(len(_MAGIC))
    version = cur.u("<I")
    if version != _FORMAT_VERSION:
        raise CheckpointError(f"unsupported checkpoint format version {version}")
    try:
        meta = json.loads(cur.take(cur.u("<I")).decode())
    except ValueError as exc:  # bad UTF-8 or bad JSON
        raise CheckpointError(f"checkpoint metadata is not JSON: {exc}") from exc
    if not isinstance(meta, dict):
        raise CheckpointError("checkpoint metadata is not a JSON object")
    tensors = {}
    for _ in range(cur.u("<I")):
        name = cur.take(cur.u("<H")).decode()
        ndim = cur.u("<B")
        shape = tuple(cur.u("<I") for _ in range(ndim))
        count = int(np.prod(shape)) if shape else 1
        payload = cur.take(count * 8)
        tensors[name] = np.frombuffer(payload, dtype="<f8").reshape(shape).copy()
    if cur.pos != len(cur.blob):
        raise CheckpointError("checkpoint has trailing bytes")
    return meta, tensors


def _config_to_meta(config: NetworkConfig) -> dict:
    return {
        "kind": "network",
        "input_shape": list(config.input_shape),
        "num_classes": config.num_classes,
        "init": config.init,
        "seed": config.seed,
        "layers": [{f.name: getattr(spec, f.name) for f in fields(LayerSpec)}
                   for spec in config.layers],
    }


def _check_meta_type(what: str, value, want: type) -> None:
    # bool is a subclass of int, but true is no channel count
    if not isinstance(value, want) or isinstance(value, bool):
        raise CheckpointError(f"malformed checkpoint metadata: {what} is {value!r}, "
                              f"expected {want.__name__}")


def _config_from_meta(meta: dict) -> NetworkConfig:
    try:
        layers = tuple(LayerSpec(**d) for d in meta["layers"])
        config = NetworkConfig(tuple(meta["input_shape"]), layers,
                               meta["num_classes"], meta["init"], meta["seed"])
    except (KeyError, TypeError) as exc:
        raise CheckpointError(f"malformed checkpoint metadata: {exc}") from exc
    for i, spec in enumerate(layers):
        for f in fields(LayerSpec):
            _check_meta_type(f"layer {i} {f.name}", getattr(spec, f.name),
                             str if f.type == "str" else int)
    for extent in config.input_shape:
        _check_meta_type("input_shape entry", extent, int)
    _check_meta_type("num_classes", config.num_classes, int)
    _check_meta_type("seed", config.seed, int)
    _check_meta_type("init", config.init, str)
    return config


def save_checkpoint(net: Network, path) -> None:
    """Write config + parameters; save -> load -> save is byte-identical."""
    if net.head is not None:
        raise ShapeError("refusing to checkpoint a truncated network")
    write_tensor_file(path, _config_to_meta(net.config), net.params)


def load_checkpoint(path) -> Network:
    """Rebuild a network from a checkpoint, verifying parameter inventory."""
    meta, tensors = read_tensor_file(path)
    if meta.get("kind") != "network":
        raise CheckpointError(f"file holds {meta.get('kind')!r}, not a network")
    try:
        net = build_network(_config_from_meta(meta))
    except ShapeError as exc:
        raise CheckpointError(f"checkpoint describes an invalid network: {exc}") from exc
    if set(tensors) != set(net.params):
        raise CheckpointError("checkpoint parameter names do not match its config")
    for name, arr in tensors.items():
        if arr.shape != net.params[name].shape:
            raise CheckpointError(f"parameter {name} has shape {arr.shape}, "
                                  f"config implies {net.params[name].shape}")
        net.params[name] = arr
    return net
