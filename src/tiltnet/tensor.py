"""Differentiable array primitives: 2-D cross-correlation, max-pooling with
argmax tracking, affine maps, and the rectifier, each paired with its exact
adjoint.

Everything operates on float64 numpy arrays and is deterministic: the same
inputs give bit-identical outputs. Every primitive is batch-first: images are
[n, C, H, W] and flat activations [n, D]; a single image is a batch of one.
A NaN in an input shows up as a NaN in every output it feeds; its sign and
payload are unspecified, and so is any routing through it.
"""

from __future__ import annotations

import contextvars
import ctypes
import functools
import os
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .errors import ShapeError

_OP_COUNTS: Counter = Counter()


def op_counts() -> dict:
    """Work done per primitive since import; diff two snapshots to count one call.

    Keys are ``<op>.calls`` and ``<op>.elems``; ``elems`` counts
    multiply-accumulate-sized units so that different calls are comparable.
    """
    return dict(_OP_COUNTS)


def _count(op: str, elems) -> None:
    _OP_COUNTS[op + ".calls"] += 1
    _OP_COUNTS[op + ".elems"] += int(elems)


def _as_f64(a) -> np.ndarray:
    return np.ascontiguousarray(a, dtype=np.float64)


def output_extent(extent: int, kernel: int, stride: int = 1, pad: int = 0,
                  what: str = "window") -> int:
    """Sliding-window output size along one axis; rejects geometry that does
    not tile exactly."""
    if kernel < 1 or stride < 1 or pad < 0:
        raise ShapeError(f"{what}: kernel/stride must be >= 1 and pad >= 0")
    span = extent + 2 * pad - kernel
    if span < 0:
        raise ShapeError(
            f"{what}: window {kernel} exceeds padded extent {extent + 2 * pad}")
    if span % stride:
        raise ShapeError(
            f"{what}: stride {stride} does not tile extent {extent + 2 * pad} "
            f"with window {kernel}")
    return span // stride + 1


# ---------------------------------------------------------------------------
# convolution (cross-correlation: kernels are applied unflipped)

def _windows(x: np.ndarray, kh: int, kw: int, stride: int, pad: int) -> np.ndarray:
    """[C_in, kH, kW, n, H', W'] read-only view of a contiguous batch's columns X:
    as [C_in·kH·kW, n·H'·W'], row (c, i, j) holds input channel c at kernel
    offset (i, j) for every output position, batch before rows before columns.
    All three conv products use it: W·X, U·Xᵀ and Wᵀ·U (see conv2d_backward_batch).
    Its shape and strides follow from the input's; only a padded input is copied."""
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad))) if pad else x
    (n, c, h, w), (sn, sc, sh, sw) = xp.shape, xp.strides
    shape = (c, kh, kw, n, (h - kh) // stride + 1, (w - kw) // stride + 1)
    win = np.ndarray(shape, xp.dtype, xp, 0, (sc, sh, sw, sn, stride * sh, stride * sw))
    win.flags.writeable = False
    return win


def _conv_geometry(x: np.ndarray, kernels: np.ndarray, stride: int, pad: int) -> tuple:
    """(n, C_in, H, W, C_out, kH, kW, H', W') of a conv call, or ShapeError."""
    if x.ndim != 4:
        raise ShapeError(f"conv2d: input must be 4-D [n,C,H,W], got {x.shape}")
    if kernels.ndim != 4:
        raise ShapeError(f"conv2d: kernels must be 4-D, got {kernels.shape}")
    n, c_in, h, w = x.shape
    c_out, kc, kh, kw = kernels.shape
    if kc != c_in:
        raise ShapeError(f"conv2d: kernels expect {kc} input channels, image has {c_in}")
    return (n, c_in, h, w, c_out, kh, kw, output_extent(h, kh, stride, pad, "conv2d height"),
            output_extent(w, kw, stride, pad, "conv2d width"))


def _scatter_index(kh, kw, c_in, hp, wp, stride, b) -> np.ndarray:
    """Flat map from each element of a block's Wᵀ·U, in the column layout
    [C_in, kH, kW, b, H', W'], to its cell of the padded block [b, C_in, Hp,
    Wp]: the forward's windows over the cell numbers, so the scatter is the
    gather's adjoint. A C-ordered copy: np.bincount copies a read-only index."""
    cells = np.arange(b * c_in * hp * wp).reshape(b, c_in, hp, wp)
    return _windows(cells, kh, kw, stride, 0).flatten()


# per geometry; callers keep only indices of at most half of _BLOCK_BYTES here
_cached_index = functools.lru_cache(maxsize=8)(_scatter_index)


# Column-matrix bytes of the two blocks in flight, half each. Chosen by
# measurement: a thread's 2 MiB block fills its own core's private 2 MiB L2 on
# the 2-vCPU Xeon of the benchmark baseline; whole-batch columns at batch 256
# (65.5 MB for LeNet's conv2) made that layer's forward about 1.6x slower there.
_BLOCK_BYTES = 4 << 20

def _blas_threads(pin: bool = False) -> int:
    """OpenBLAS's thread count, set to 1 first if ``pin``; 0 where numpy's BLAS has no getter."""
    try:   # np.core warns on numpy 2; numpy 1's np._core, where present, is a stub
        core = np._core if np.lib.NumpyVersion(np.__version__) >= "2.0.0" else np.core
        lib = ctypes.CDLL(core._multiarray_umath.__file__)
    except (OSError, AttributeError):   # no library to ask: no split, nothing pinned
        return 0
    for name in ("scipy_openblas_{}_num_threads64_", "openblas_{}_num_threads64_",
                 "openblas_{}_num_threads"):
        if hasattr(lib, name.format("get")):
            if pin:
                getattr(lib, name.format("set"))(ctypes.c_int(1))
            return getattr(lib, name.format("get"))()
    return 0


def _split_engages(pin: bool = False) -> bool:
    """At least 2 CPUs, and OpenBLAS reports one thread (after ``_blas_threads(pin)``)."""
    return _blas_threads(pin) == 1 and len(getattr(os, "sched_getaffinity", lambda _: ())(0)) >= 2

_WORKER = _split_engages()  # tests and checks force it on or off
_workers = {}  # pid -> its one-thread executor: a forked child starts its own


def _block_images(per_image: int) -> int:  # the block size of _in_blocks
    return max(1, _BLOCK_BYTES // (16 * per_image))


def _in_blocks(n: int, per_image: int, body) -> None:
    """body(start, b) for each block of b images, the most whose per_image·b
    elements take half of ``_BLOCK_BYTES`` (at least one), in one loop: n = 0
    runs no block, and one block (the sampler's single image) runs here. With
    more blocks and the split engaged, a worker thread takes blocks too, each
    thread the next block whenever it is free, so a thread the OS delays holds
    up at most one block. A block allocates its temporaries on the thread that
    runs it and writes its own rows; blocks depend only on shapes, so the bytes
    are the same whichever thread ran a block. The worker runs only numpy calls
    and private helpers (no module attribute a profiler may wrap); the most it
    allocates is one block's arrays."""
    block = _block_images(per_image)
    todo = iter(range(0, n, block))  # shared; its next() is atomic under the interpreter lock

    def part(t):
        for start in todo:
            body(start, min(block, n - start))

    _split(part, n > block)  # serially, part(0) runs every block and part(1) none


def _split(part, engage: bool = True) -> None:
    """part(0) and part(1): on the two threads when the split is engaged and
    ``engage`` holds, else in turn here."""
    if _WORKER and engage:
        _dispatch(part)
    else:
        part(0), part(1)


def _dispatch(part) -> None:
    """part(1) on the worker, part(0) here; the worker's error is raised here
    once both are done. The worker runs in a copy of the caller's context,
    which holds numpy's error state (``np.errstate``)."""
    if os.getpid() not in _workers:
        from concurrent.futures import ThreadPoolExecutor  # not on import: ~5 ms
        _workers.clear()
        _workers[os.getpid()] = ThreadPoolExecutor(1)
    job = _workers[os.getpid()].submit(contextvars.copy_context().run, part, 1)
    try:
        part(0)
    finally:
        job.exception()  # waits
    job.result()


def conv2d_forward_batch(x: np.ndarray, kernels: np.ndarray, bias: np.ndarray,
                         stride: int = 1, pad: int = 0) -> np.ndarray:
    """Cross-correlate a batch [n, C_in, H, W] with kernels
    [C_out, C_in, kH, kW] plus per-channel bias; returns [n, C_out, H', W'].

    The batch runs in blocks of b images (see ``_in_blocks``). Each block is
    one GEMM, kernels as [C_out, C_in·kH·kW] times a C-ordered copy of its
    columns (see ``_windows``; a reshaped view can reach the GEMM strided and
    round otherwise); the [C_out, b, H', W'] product takes the bias and is
    copied transposed into its rows of the NCHW output. A block allocates its
    columns and product on the thread that runs it, so a call holds the
    output plus two blocks' columns and products, whatever n is, and a batch
    within one block (n=1 in the sampler) stays on one thread. The batch lies
    along the GEMM's column axis: on LeNet's geometries an image's output has
    the same bytes whatever block it lands in, while OpenBLAS can give other
    geometries last-bit differences from one whole-batch product.
    """
    x, kernels, bias = map(_as_f64, (x, kernels, bias))
    n, c_in, h, w, c_out, kh, kw, h_out, w_out = _conv_geometry(x, kernels, stride, pad)
    if bias.shape != (c_out,):
        raise ShapeError(f"conv2d: bias shape {bias.shape} != ({c_out},)")

    weights = kernels.reshape(c_out, -1)
    rows, hw = weights.shape[1], h_out * w_out
    win = _windows(x, kh, kw, stride, pad)
    out = np.empty((n, c_out, h_out, w_out))

    def block(start, b):
        prod = weights @ np.ascontiguousarray(win[:, :, :, start:start + b]).reshape(rows, -1)
        prod += bias[:, None]
        out[start:start + b] = prod.reshape(c_out, b, h_out, w_out).transpose(1, 0, 2, 3)

    _in_blocks(n, rows * hw, block)
    _count("conv2d", out.size * c_in * kh * kw)
    return out


def conv2d_backward_batch(upstream: np.ndarray, x: np.ndarray,
                          kernels: np.ndarray, stride: int = 1, pad: int = 0,
                          need_input_grad: bool = True, need_param_grad: bool = True):
    """Adjoint of conv2d_forward_batch.

    Returns (grad_input, grad_kernels, grad_bias). grad_input is None when
    need_input_grad is False (saves the scatter for the first layer);
    grad_kernels and grad_bias are None when need_param_grad is False (saves
    the column product when only the input gradient is wanted). Either flag
    leaves the other results bit-identical.

    Both gradients run in the forward's blocks and layout (see ``_in_blocks``
    and ``_windows``), U a block's upstream as [C_out, b·H'·W'] and X its
    columns, both C-ordered. Kernel and bias gradients: U·Xᵀ and U's row sums
    per block, summed in block order, so a batch within one block gets the
    bytes of one whole-batch product. Input gradient: Wᵀ·U, added into the
    padded block by one ``np.bincount`` through ``_scatter_index`` (built on
    the calling thread, kept per geometry) in index order from +0.0, so each
    cell sums its kernel offsets (i, j) in the order of a loop of strided adds.
    """
    upstream, x, kernels = map(_as_f64, (upstream, x, kernels))
    n, c_in, h, w, c_out, kh, kw, h_out, w_out = _conv_geometry(x, kernels, stride, pad)
    if upstream.shape != (n, c_out, h_out, w_out):
        raise ShapeError(
            f"conv2d backward: upstream {upstream.shape} != {(n, c_out, h_out, w_out)}")
    rows, hw = c_in * kh * kw, h_out * w_out
    block = _block_images(rows * hw)

    def block_upstream(start, b):  # C order for any b (a view at b=1): strides change GEMM bytes
        u = np.ascontiguousarray(upstream[start:start + b].transpose(1, 0, 2, 3))
        return u.reshape(c_out, -1)

    grad_kernels = grad_bias = None
    if need_param_grad:
        win = _windows(x, kh, kw, stride, pad)
        n_blocks = -(-n // block)
        parts, bias_parts = np.empty((n_blocks, c_out, rows)), np.empty((n_blocks, c_out))

        def param_grad(start, b):
            cols = np.ascontiguousarray(win[:, :, :, start:start + b]).reshape(rows, -1)
            u = block_upstream(start, b)
            parts[start // block], bias_parts[start // block] = u @ cols.T, u.sum(axis=1)

        _in_blocks(n, rows * hw, param_grad)
        grad_kernels, grad_bias = parts.sum(axis=0).reshape(kernels.shape), bias_parts.sum(axis=0)

    grad_input = None
    if need_input_grad:
        weights = kernels.reshape(c_out, -1)
        hp, wp = h + 2 * pad, w + 2 * pad
        build = _cached_index if 16 * rows * hw <= _BLOCK_BYTES else _scatter_index
        index = {b: build(kh, kw, c_in, hp, wp, stride, b)
                 for b in {min(n, block), n % block} - {0}}
        grad_input = np.empty(x.shape)

        def block_grad(start, b):
            contrib = weights.T @ block_upstream(start, b)
            grid = np.bincount(index[b], contrib.reshape(-1), b * c_in * hp * wp)
            grad_input[start:start + b] = grid.reshape(b, c_in, hp, wp)[:, :, pad:pad + h, pad:pad + w]

        _in_blocks(n, rows * hw, block_grad)
    _count("conv2d_bwd", upstream.size * c_in * kh * kw)
    return grad_input, grad_kernels, grad_bias


# ---------------------------------------------------------------------------
# max pooling

@functools.lru_cache(maxsize=8)
def _pool_base(n, c, h, w, h_out, w_out, kernel, stride) -> tuple:
    """(offset, corner, plane) of ``ArgmaxMap.indices``, kept per geometry: a
    window offset's flat step from its corner, a pooled cell's corner in its
    plane, an (image, channel) plane's start; never a full-size base."""
    offset = (np.arange(kernel, dtype=np.int64)[:, None] * w + np.arange(kernel)).ravel()
    corner = (np.arange(h_out, dtype=np.int64)[:, None] * w + np.arange(w_out)) * stride
    plane = (np.arange(n * c, dtype=np.int64) * (h * w)).reshape(n, c, 1, 1)
    return offset, corner, plane


@dataclass(frozen=True)
class ArgmaxMap:
    """Routing table from pooled cells back to winning input positions.

    ``winners`` has the pooled shape and holds each cell's row-major offset in
    its window (int8 unless kernel² > 127); ``indices``, built on each read,
    holds them as int64 flat positions into an input of ``input_shape``. Ties
    go to the first maximal element; overlapping windows may share a position.
    """
    input_shape: tuple
    winners: np.ndarray
    kernel: int
    stride: int

    @property
    def indices(self) -> np.ndarray:
        offset, corner, plane = _pool_base(*self.input_shape, *self.winners.shape[2:],
                                           self.kernel, self.stride)
        idx = offset[self.winners]
        idx += corner
        idx += plane
        return idx


def maxpool_forward_batch(x: np.ndarray, kernel: int, stride: int, need_map: bool = True):
    """Max-pool a batch [n, C, H, W]; returns (pooled, ArgmaxMap), the map
    None when need_map is False (no backward will read it).

    Works on one strided slice of ``x`` per window offset (i, j), in row-major
    scan order, so no window copy is made (numpy's sliding window view costs
    about 20 us, two thirds of pool1's map-free pass at n=1). Each block of
    images (see ``_in_blocks``) copies the first view into its rows of
    ``pooled`` and folds in each later one with ``np.maximum``, which on a tie
    keeps its second argument, the earlier value (``-0.0`` against ``0.0``
    yields the first). With a map, the block then finds its rows' winners
    while they are in cache: the first offset whose view equals ``pooled``, as
    ``argmax`` over the window picks, by walking the offsets back with
    ``r = (v != pooled) * (r + 1)``, three in-place passes per offset.
    """
    x = _as_f64(x)
    if x.ndim != 4:
        raise ShapeError(f"maxpool: input must be 4-D [n,C,H,W], got {x.shape}")
    n, c, h, w = x.shape
    k = int(kernel)
    h_out = output_extent(h, k, stride, 0, "maxpool height")
    w_out = output_extent(w, k, stride, 0, "maxpool width")

    views = [x[:, :, i:i + stride * h_out:stride, j:j + stride * w_out:stride]
             for i in range(k) for j in range(k)]
    pooled = np.empty((n, c, h_out, w_out))
    inner = np.zeros(pooled.shape, np.int8 if k * k <= 127 else np.intp) if need_map else None

    def block(start, b):
        out = pooled[start:start + b]
        np.copyto(out, views[0][start:start + b])
        for v in views[1:]:
            np.maximum(v[start:start + b], out, out=out)
        if need_map:  # the last offset is never tested: it wins what no earlier one does
            r, miss = inner[start:start + b], np.empty(out.shape, bool)
            for v in reversed(views[:-1]):
                np.not_equal(v[start:start + b], out, out=miss)
                r += 1
                r *= miss

    _in_blocks(n, c * h * w, block)
    _count("maxpool", pooled.size * k * k)
    return pooled, ArgmaxMap(x.shape, inner, k, stride) if need_map else None


def maxpool_backward_batch(upstream: np.ndarray, amap: ArgmaxMap) -> np.ndarray:
    """Route pooled-cell gradients to the recorded winners, accumulating on
    collisions."""
    upstream = _as_f64(upstream)
    if upstream.shape != amap.winners.shape:
        raise ShapeError(
            f"maxpool backward: upstream {upstream.shape} != map {amap.winners.shape}")
    grad = np.bincount(amap.indices.ravel(), weights=upstream.ravel(),
                       minlength=int(np.prod(amap.input_shape)))
    _count("maxpool_bwd", upstream.size)
    return grad.reshape(amap.input_shape)


# ---------------------------------------------------------------------------
# dense / rectifier

def dense_forward_batch(x: np.ndarray, weight: np.ndarray, bias: np.ndarray) -> np.ndarray:
    """Affine map of a flat batch: [n, D] @ [K, D]^T + [K] -> [n, K]."""
    x, weight, bias = map(_as_f64, (x, weight, bias))
    if x.ndim != 2 or weight.ndim != 2:
        raise ShapeError("dense: input and weight must be 2-D")
    if x.shape[1] != weight.shape[1]:
        raise ShapeError(f"dense: input width {x.shape[1]} != weight width {weight.shape[1]}")
    if bias.shape != (weight.shape[0],):
        raise ShapeError(f"dense: bias shape {bias.shape} != ({weight.shape[0]},)")
    out = x @ weight.T + bias
    _count("dense", x.shape[0] * weight.size)
    return out


def dense_backward_batch(upstream: np.ndarray, x: np.ndarray, weight: np.ndarray,
                         need_param_grad: bool = True):
    """Adjoint of dense_forward_batch; returns (grad_input, grad_weight, grad_bias).

    grad_weight and grad_bias are None when need_param_grad is False (saves
    the outer product when only the input gradient is wanted). Otherwise, at
    n > 1 and with the split engaged, the worker computes them while the
    caller computes grad_input.
    """
    upstream, x, weight = map(_as_f64, (upstream, x, weight))
    if upstream.shape != (x.shape[0], weight.shape[0]):
        raise ShapeError(
            f"dense backward: upstream {upstream.shape} != {(x.shape[0], weight.shape[0])}")
    grads = [None, None, None]

    def part(t):  # whole products on either thread: the same bytes
        if t == 0:
            grads[0] = upstream @ weight
        elif need_param_grad:
            grads[1:] = upstream.T @ x, upstream.sum(axis=0)

    _split(part, need_param_grad and x.shape[0] > 1)
    _count("dense_bwd", x.shape[0] * weight.size)
    return tuple(grads)


def relu_forward(x) -> np.ndarray:
    """Elementwise max(x, 0); any rank."""
    x = _as_f64(x)
    _count("relu", x.size)
    return np.maximum(x, 0.0)


def relu_backward(upstream, x) -> np.ndarray:
    """Passes upstream where the forward input was strictly positive.

    The subgradient at exactly 0 is taken as 0.
    """
    upstream, x = _as_f64(upstream), _as_f64(x)
    if upstream.shape != x.shape:
        raise ShapeError(f"relu backward: upstream {upstream.shape} != input {x.shape}")
    _count("relu_bwd", x.size)
    return np.where(x > 0.0, upstream, 0.0)
