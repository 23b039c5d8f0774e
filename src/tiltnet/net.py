"""Layered scoring networks.

A network maps an image batch to an n-by-C score matrix through a declared
stack of conv / maxpool / flatten / dense / relu layers. Besides the forward
pass it supports two exact backward passes (to parameters for training, to
the input image for sampling), truncation at any layer to expose a single
internal node as the score (an ordinary network whose config holds the
prefix and the one input shape it accepts), and versioned binary checkpoints.

What a layer kind means (its name stem, INI token and so the fields it takes,
output shape, weight shape and init std, forward, backward and receptive-field
inverse) lives in one record of ``_KINDS``; ``parse_layers`` and the passes
below only loop over it. Adding a kind means adding one record there.
"""

from __future__ import annotations

import io
import json
import math
import os
import re
import struct
import sys
import zlib
from dataclasses import asdict, dataclass, fields, replace
from typing import Callable

import numpy as np

from . import tensor
from .errors import CacheError, CheckpointError, ConfigError, ShapeError


@dataclass(frozen=True)
class LayerSpec:
    """One layer of the stack. Fields its kind does not take keep their defaults."""
    kind: str
    channels: int = 0   # conv output channels
    kernel: int = 0     # conv / maxpool square window edge
    stride: int = 1
    pad: int = 0
    width: int = 0      # dense output width


@dataclass(frozen=True)
class NetworkConfig:
    input_shape: tuple          # (C, H, W)
    layers: tuple               # of LayerSpec; a full stack's last width is its class count
    seed: int = 0


# ---------------------------------------------------------------------------
# layer kinds

@dataclass(frozen=True)
class _Kind:
    """Everything one layer kind means; shapes exclude the batch axis. The
    token's named groups are the LayerSpec fields the kind takes.
    A kind with a weight has one zero-initialized bias per weight row.
    Parameter-free kinds get weight and bias None and return None for gw, gb;
    so do the others when need_params is False.
    Primitives are looked up as ``tensor.<fn>`` at call time, so a wrapper
    patched onto the tensor module (a profiler, a counter) sees every call."""
    stem: str            # prefix of auto-generated layer names
    token: str           # regex its INI layer token fullmatches
    out_shape: Callable  # (spec, in_shape) -> out_shape; raises ShapeError
    forward: Callable    # (spec, x, weight, bias, keep) -> (y, pool's ArgmaxMap if keep else None)
    backward: Callable   # (spec, up, x, weight, amap, need_input, need_params) -> (gx, gw, gb)
    weight: Callable = None  # (spec, in_shape) -> weight shape; None: no parameters
    init_std: Callable = None  # weight shape -> std of its seeded normal init
    grow: Callable = None  # (spec, out_extent) -> in_extent; None: no spatial inverse
    reads_input: bool = True  # False: its backward gets x None (a kept pass frees it)
    routing: Callable = None  # (x, amap) -> bytes of what its input gradient reads of x


def _spatial(shape, message: str) -> tuple:
    if len(shape) != 3:
        raise ShapeError(message)
    return shape


def _conv_shape(spec, shape) -> tuple:
    _, h, w = _spatial(shape, f"conv layer needs spatial input, got flat width {shape}")
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
    return (spec.width,)


_KINDS = {
    "conv": _Kind(
        stem="conv", out_shape=_conv_shape,
        token=r"conv:(?P<channels>\d+)@(?P<kernel>\d+)(?:/(?P<stride>\d+))?(?:p(?P<pad>\d+))?",
        forward=lambda s, x, w, b, keep: (
            tensor.conv2d_forward_batch(x, w, b, s.stride, s.pad), None),
        backward=lambda s, up, x, w, amap, need_input, need_params: (
            tensor.conv2d_backward_batch(up, x, w, s.stride, s.pad, need_input_grad=need_input,
                                         need_param_grad=need_params)),
        weight=lambda s, shape: (s.channels, shape[0], s.kernel, s.kernel),
        init_std=lambda shape: 0.01,
        grow=lambda s, e: (e - 1) * s.stride + s.kernel - 2 * s.pad),
    "maxpool": _Kind(
        stem="pool", out_shape=_pool_shape, token=r"pool:(?P<kernel>\d+)(?:/(?P<stride>\d+))?",
        forward=lambda s, x, w, b, keep: tensor.maxpool_forward_batch(x, s.kernel, s.stride, keep),
        backward=lambda s, up, x, w, amap, need_input, need_params: (
            tensor.maxpool_backward_batch(up, amap), None, None),
        grow=lambda s, e: (e - 1) * s.stride + s.kernel, reads_input=False,
        routing=lambda x, amap: amap.winners.tobytes()),
    "flatten": _Kind(
        stem="flatten", token="flatten",
        out_shape=lambda s, shape: (
            math.prod(_spatial(shape, "flatten layer needs spatial input")),),
        forward=lambda s, x, w, b, keep: (x.reshape(-1, math.prod(x.shape[1:])), None),
        backward=lambda s, up, x, w, amap, need_input, need_params: (
            up.reshape(x.shape), None, None)),
    "dense": _Kind(
        stem="dense", out_shape=_dense_shape, token=r"dense:(?P<width>\d+)",
        forward=lambda s, x, w, b, keep: (tensor.dense_forward_batch(x, w, b), None),
        backward=lambda s, up, x, w, amap, need_input, need_params: (
            tensor.dense_backward_batch(up, x, w, need_param_grad=need_params)),
        weight=lambda s, shape: (s.width, shape[0]),
        init_std=lambda shape: 1.0 / math.sqrt(shape[1])),
    "relu": _Kind(
        stem="relu", token="relu", out_shape=lambda s, shape: shape,
        forward=lambda s, x, w, b, keep: (tensor.relu_forward(x), None),
        backward=lambda s, up, x, w, amap, need_input, need_params: (
            tensor.relu_backward(up, x), None, None),
        grow=lambda s, e: e, routing=lambda x, amap: (x > 0.0).tobytes()),
}


def _kind(spec: LayerSpec) -> _Kind:
    """spec's record; the one place an unknown kind is rejected."""
    if spec.kind not in _KINDS:
        raise ShapeError(f"unknown layer kind {spec.kind!r}; have {', '.join(_KINDS)}")
    return _KINDS[spec.kind]


def parse_layers(text: str) -> tuple:
    """Comma-separated tokens, each fullmatching one kind's ``token`` (see the
    README's layer line); a pool's stride defaults to its window edge."""
    specs = []
    for token in (t.strip() for t in text.split(",")):
        if not token:
            continue
        for kind, record in _KINDS.items():
            if match := re.fullmatch(record.token, token):
                break
        else:
            raise ConfigError(f"[network] layers: unknown layer token {token!r}")
        values = {k: int(v) for k, v in match.groupdict().items() if v is not None}
        values = ({"stride": values["kernel"]} if kind == "maxpool" else {}) | values
        specs.append(LayerSpec(kind, **values))
    if not specs:
        raise ConfigError("[network] layers: no layers given")
    return tuple(specs)


def lenet_config(num_classes: int = 10, input_shape=(1, 28, 28), seed: int = 0) -> NetworkConfig:
    """The reference stack: the README's layer line, then dense(num_classes)."""
    layers = parse_layers("conv:20@5, pool:2/2, conv:50@5, pool:2/2, flatten, dense:500, relu")
    return NetworkConfig(tuple(input_shape), layers + (LayerSpec("dense", width=num_classes),),
                         seed)


@dataclass
class ActivationCache:
    """Per-layer forward inputs (None where the backward reads none: pool
    layers), pooling argmax maps and scores for one batch: what the backward
    passes read. Only ``forward_batch(keep=True)`` builds one; a score-only
    pass keeps none of it.

    version pins the parameters the pass was computed with; the backward
    passes refuse a cache that predates an optimizer step.
    """
    layer_inputs: list
    argmax: dict
    scores: np.ndarray
    version: int
    record: tuple = None  # backward_input's (net, seed bytes, routing states, upstreams)


class Network:
    """The config's layer stack with its resolved names and output shapes (no
    batch axis; ShapeError when the kinds do not chain, a layer sets a field
    its kind does not take, or an untruncated stack does not end flat), the
    parameter shapes it implies (``param_shapes``, name to shape in layer
    order, each weight before its bias), a parameter store, and optionally a
    truncation head exposing one channel of the last layer."""

    def __init__(self, config: NetworkConfig, params, head=None, version_cell=None):
        if len(config.input_shape) != 3 or any(d < 1 for d in config.input_shape):
            raise ShapeError(f"input shape must be (C, H, W) with positive extents, "
                             f"got {config.input_shape}")
        self.config = config
        self.layers = list(config.layers)
        stems = [_kind(spec).stem for spec in config.layers]   # layer k of a stem is <stem><k>
        self.names = [f"{stem}{stems[:i + 1].count(stem)}" for i, stem in enumerate(stems)]
        self.shapes, self.param_shapes = [], {}
        shape = tuple(int(d) for d in config.input_shape)
        for spec, name in zip(config.layers, self.names):
            kind = _kind(spec)
            takes = re.compile(kind.token).groupindex
            for f in fields(LayerSpec)[1:]:   # all but kind
                if f.name not in takes and getattr(spec, f.name) != f.default:
                    raise ShapeError(f"layer {name!r}: a {spec.kind} layer takes no {f.name}, "
                                     f"got {f.name}={getattr(spec, f.name)!r}")
            try:
                in_shape, shape = shape, kind.out_shape(spec, shape)
            except ShapeError as exc:
                raise ShapeError(f"layer {name!r}: {exc}") from None
            if kind.weight is not None:
                weight = kind.weight(spec, in_shape)
                self.param_shapes |= {name + ".weight": weight, name + ".bias": weight[:1]}
            self.shapes.append(shape)
        if not self.shapes:
            raise ShapeError("network needs at least one layer")
        if head is None and len(self.shapes[-1]) != 1:
            raise ShapeError(f"final layer produces {self.shapes[-1]}, expected a flat width")
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
        """Score columns: 1 for a truncation, else the last layer's width,
        which is the class count."""
        return 1 if self.head is not None else self.shapes[-1][0]

    def param_count(self) -> int:
        """Parameters of this network's own layers, not its parent's whole store."""
        return sum(map(math.prod, self.param_shapes.values()))


def build_network(config: NetworkConfig) -> Network:
    """Validate the config; draw its weights from one default_rng(seed), biases zero."""
    net = Network(config, {})
    rng = np.random.default_rng(config.seed)
    for spec, name in zip(config.layers, net.names):
        if (shape := net.param_shapes.get(name + ".weight")) is not None:
            net.params[name + ".weight"] = rng.normal(0.0, _KINDS[spec.kind].init_std(shape), shape)
            net.params[name + ".bias"] = np.zeros(shape[0])
    return net


def forward_batch(net: Network, images, keep: bool = True) -> tuple:
    """Run a batch [n, C, H, W] of the configured input shape through the
    stack; returns (scores [n, num_outputs], ActivationCache). A batch of 0
    images gives empty scores, and both backward passes take its cache.

    keep=False is the score-only pass (``evaluate``, ``hmc.potential``):
    no layer input outlives the layer that reads it, no pool layer builds an
    argmax map, the cache is None, and the scores are the same bytes as with
    keep=True.
    """
    x = np.ascontiguousarray(images, dtype=np.float64)
    if x.shape[1:] != tuple(net.config.input_shape):
        raise ShapeError(f"image batch must be [n, C, H, W] with (C, H, W) the "
                         f"configured input {tuple(net.config.input_shape)}, got {x.shape}")
    layer_inputs = []
    argmax: dict = {}
    for i, (spec, name) in enumerate(zip(net.layers, net.names)):
        if keep:
            layer_inputs.append(x if _KINDS[spec.kind].reads_input else None)
        x, amap = _KINDS[spec.kind].forward(spec, x, net.params.get(name + ".weight"),
                                            net.params.get(name + ".bias"), keep)
        if amap is not None:
            argmax[i] = amap
    scores = x
    if net.head is not None:
        scores = np.ascontiguousarray(x[:, net.head].reshape(-1, 1))  # x is [n, C(, 1, 1)]
    if not keep:
        return scores, None
    return scores, ActivationCache(layer_inputs, argmax, scores, net.version)


def _backward(net: Network, cache: ActivationCache, score_grad, params: bool, reuse=None):
    """Reverse pass from score_grad = d(objective)/d(scores), [n, num_outputs].

    params=True returns the parameter gradients and skips the first layer's
    input gradient; params=False returns the input gradient [n, C, H, W] and
    skips every parameter-gradient product. No layer couples batch items, so
    row k of the input gradient depends on row k of score_grad only.
    """
    if any(c is not None and c.version != net.version for c in (cache, reuse)):
        raise CacheError("activation cache is stale: parameters changed after the "
                         "forward pass")
    up = np.ascontiguousarray(score_grad, dtype=np.float64)
    n = cache.scores.shape[0]
    if up.shape != (n, net.num_outputs):
        raise ShapeError(f"score gradient shape {up.shape} != {(n, net.num_outputs)}")
    if net.head is not None:
        # the head layer's output is [n, C], or [n, C, 1, 1] when it is spatial
        shape = net.shapes[-1]
        seeded = np.zeros((n, shape[0]))
        seeded[:, net.head] = up[:, 0]
        up = seeded.reshape((n, shape[0]) + (1,) * (len(shape) - 1))
    grads: dict = {}
    record, old = (net, up.tobytes(), {}, {}), reuse and reuse.record
    same = bool(old) and old[:2] == record[:2]
    for i in reversed(range(len(net.layers))):
        spec, name, kind = net.layers[i], net.names[i], _KINDS[net.layers[i].kind]
        if kind.routing is not None and not params:  # record the upstream it routes
            up = record[3][i] = old[3][i] if same else up
            record[2][i] = kind.routing(cache.layer_inputs[i], cache.argmax.get(i))
            same = same and record[2][i] == old[2][i]
        if not same:
            up, gw, gb = kind.backward(spec, up, cache.layer_inputs[i], net.params.get(
                name + ".weight"), cache.argmax.get(i), not params or i > 0, params)
            if gw is not None:
                grads[name + ".weight"] = gw
                grads[name + ".bias"] = gb
    if not params:
        up = record[3][-1] = old[3][-1] if same else up
        cache.record = record
    return grads if params else up.copy()  # the record's array is never the caller's


def backward_params(net: Network, cache: ActivationCache, score_grad) -> dict:
    """Exact parameter gradients for a given d(objective)/d(scores).

    Returns a dict keyed like net.params; unscaled (the caller owns 1/batch).
    """
    return _backward(net, cache, score_grad, params=True)


def backward_input(net: Network, cache: ActivationCache, score_grad, reuse=None) -> np.ndarray:
    """Input gradient [n, C, H, W] of sum(score_grad * scores), score_grad
    being [n, num_outputs]: a one-hot seed picks one node of one image, an
    all-ones column gives every image the gradient of its own score.

    No parameter-gradient work; pool routing follows the argmax maps
    recorded for that forward pass. reuse, an earlier cache of net (CacheError
    if stale), lends its layers' results from the head down while the seed's
    bytes and each routing state so far (ReLU signs, pool winners) match.
    """
    return _backward(net, cache, score_grad, False, reuse)


def truncate_at(net: Network, layer_name: str, channel: int) -> Network:
    """Expose one channel of one layer as a scalar score.

    The result is a network whose config holds the layers up to layer_name
    and the one input shape it accepts: the parent's when the layer is flat,
    else the smallest input the prefix maps onto a 1x1 output (ShapeError
    when padding swallows the window). Windows are square, so height and
    width grow alike. The truncation shares the parent's parameter store
    (training the parent moves the truncation too). Truncating at the final
    layer with channel y reproduces score selection f_y exactly.
    """
    if net.head is not None:
        raise ShapeError("network is already truncated")
    if layer_name not in net.names:
        raise ShapeError(f"unknown layer {layer_name!r}; have {', '.join(net.names)}")
    idx = net.names.index(layer_name)
    n_channels = net.shapes[idx][0]
    if not 0 <= channel < n_channels:
        raise ShapeError(f"channel {channel} out of range: layer {layer_name!r} "
                         f"has {n_channels}")
    prefix = tuple(net.layers[:idx + 1])
    input_shape = tuple(net.config.input_shape)
    if len(net.shapes[idx]) == 3:
        # only conv / maxpool / relu chain into a spatial output, and each
        # has a receptive-field inverse
        extent = 1
        for spec in reversed(prefix):
            extent = _KINDS[spec.kind].grow(spec, extent)
            if extent < 1:
                raise ShapeError(f"no valid input size for layer {layer_name!r}: "
                                 f"padding swallows the window")
        input_shape = (input_shape[0], extent, extent)
    return Network(replace(net.config, input_shape=input_shape, layers=prefix),
                   net.params, head=channel, version_cell=net._version)


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
    buf += struct.pack("<I", zlib.crc32(buf))
    tmp = f"{path}.tmp"
    with open(tmp, "wb") as fh:
        fh.write(buf)
    os.replace(tmp, path)


def _take(fh, n: int) -> bytes:
    # a stored shape's product can be any size; BytesIO.read takes at most maxsize
    out = fh.read(min(n, sys.maxsize))
    if len(out) < n:
        raise CheckpointError("truncated checkpoint file")
    return out


def _u(fh, fmt: str) -> int:
    return struct.unpack(fmt, _take(fh, struct.calcsize(fmt)))[0]


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
    body = io.BytesIO(blob[len(_MAGIC):-4])
    version = _u(body, "<I")
    if version != _FORMAT_VERSION:
        raise CheckpointError(f"unsupported checkpoint format version {version}")
    try:
        meta = json.loads(_take(body, _u(body, "<I")).decode())
    except ValueError as exc:  # bad UTF-8 or bad JSON
        raise CheckpointError(f"checkpoint metadata is not JSON: {exc}") from exc
    if not isinstance(meta, dict):
        raise CheckpointError("checkpoint metadata is not a JSON object")
    tensors = {}
    for _ in range(_u(body, "<I")):
        try:
            name = _take(body, _u(body, "<H")).decode()
        except UnicodeDecodeError as exc:
            raise CheckpointError("checkpoint tensor name is not UTF-8") from exc
        shape = tuple(_u(body, "<I") for _ in range(_u(body, "<B")))
        payload = _take(body, math.prod(shape) * 8)
        tensors[name] = np.frombuffer(payload, dtype="<f8").reshape(shape).copy()
    if body.read(1):
        raise CheckpointError("checkpoint has trailing bytes")
    return meta, tensors


def _config_to_meta(config: NetworkConfig) -> dict:
    return {"kind": "network", **asdict(config)}


def _check_meta_type(what: str, value, want: type) -> None:
    # bool is a subclass of int, but true is no channel count
    if not isinstance(value, want) or isinstance(value, bool):
        raise CheckpointError(f"malformed checkpoint metadata: {what} is {value!r}, "
                              f"expected {want.__name__}")


def _config_from_meta(meta: dict) -> NetworkConfig:
    try:
        # files saved before three fields were retired still carry their keys:
        # the config's init is not read and each layer's input width and empty
        # name are dropped (any other name is an unknown key, as tiltnet never
        # wrote one); the stored tensors replace the init either way
        layers = tuple(LayerSpec(**{k: v for k, v in d.items()
                                    if k != "in_width" and (k, v) != ("name", "")})
                       for d in meta["layers"])
        config = NetworkConfig(tuple(meta["input_shape"]), layers, meta["seed"])
    except (AttributeError, KeyError, TypeError) as exc:
        raise CheckpointError(f"malformed checkpoint metadata: {exc}") from exc
    for i, spec in enumerate(layers):
        for f in fields(LayerSpec):
            _check_meta_type(f"layer {i} {f.name}", getattr(spec, f.name),
                             str if f.type == "str" else int)
    for extent in config.input_shape:
        _check_meta_type("input_shape entry", extent, int)
    _check_meta_type("seed", config.seed, int)
    if config.seed < 0:
        raise CheckpointError(f"malformed checkpoint metadata: seed is {config.seed}")
    return config


def save_checkpoint(net: Network, path) -> None:
    """Write config + parameters; save -> load -> save is byte-identical."""
    if net.head is not None:
        raise ShapeError("refusing to checkpoint a truncated network")
    write_tensor_file(path, _config_to_meta(net.config), net.params)


def load_checkpoint(path) -> Network:
    """Rebuild a network from a checkpoint whose tensors fit its config; draws nothing."""
    meta, tensors = read_tensor_file(path)
    if meta.get("kind") != "network":
        raise CheckpointError(f"file holds {meta.get('kind')!r}, not a network")
    try:
        net = Network(_config_from_meta(meta), {})
    except ShapeError as exc:
        raise CheckpointError(f"checkpoint describes an invalid network: {exc}") from exc
    stored = meta.get("num_classes", net.num_outputs)   # files before the count was derived
    if type(stored) is not int or stored != net.num_outputs:
        raise CheckpointError(f"malformed checkpoint metadata: num_classes is {stored!r}, "
                              f"the layers output {net.num_outputs}")
    if set(tensors) != set(net.param_shapes):
        raise CheckpointError("checkpoint parameter names do not match its config")
    for name, arr in tensors.items():
        if arr.shape != net.param_shapes[name]:
            raise CheckpointError(f"parameter {name} has shape {arr.shape}, "
                                  f"config implies {net.param_shapes[name]}")
    net.params.update((name, tensors[name]) for name in net.param_shapes)
    return net
