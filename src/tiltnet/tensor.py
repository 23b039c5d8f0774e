"""Differentiable array primitives: 2-D cross-correlation, max-pooling with
argmax tracking, affine maps, and the rectifier, each paired with its exact
adjoint.

Everything operates on float64 numpy arrays and is deterministic: the same
inputs give bit-identical outputs. Every primitive is batch-first: images are
[n, C, H, W] and flat activations [n, D]; a single image is a batch of one.
"""

from __future__ import annotations

import functools
import os
from collections import Counter
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

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
    """[C_in, kH, kW, n, H', W'] view of a batch's column matrix: reshaped to
    [C_in·kH·kW, n·H'·W'], row (c, i, j) holds input channel c at kernel
    offset (i, j) for every output position, batch before rows before
    columns. Only a padded input is copied, once for the whole batch."""
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad))) if pad else x
    win = sliding_window_view(xp, (kh, kw), axis=(2, 3))[:, :, ::stride, ::stride]
    return win.transpose(1, 4, 5, 0, 2, 3)


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


def _scatter_index(kh, kw, c_in, hp, wp, stride, h_out, w_out, b) -> np.ndarray:
    """Flat map from each element of a block's input-gradient contributions
    [kH, kW, C_in, H', W', b] to its cell of the padded grid [C_in, Hp, Wp, b].
    Never written, yet writeable: np.bincount copies a read-only index."""
    index = np.zeros((kh, kw, c_in, h_out, w_out, b), np.int64)
    steps = (wp * b, b, hp * wp * b, stride * wp * b, stride * b, 1)
    for term in np.ix_(*(np.arange(e) * s for e, s in zip(index.shape, steps))):
        index += term
    return index.reshape(-1)


# per geometry; callers keep only indices of at most half of _BLOCK_BYTES here
_cached_index = functools.lru_cache(maxsize=8)(_scatter_index)


# Column-matrix bytes of the two blocks in flight, half each: one core's L2
# (4 MiB on the 2-vCPU Xeon the benchmark baseline ran on), so a block's GEMM
# reads its columns from cache. Whole-batch columns at batch 256 (65.5 MB for
# LeNet's conv2) made that layer's forward about 1.6x slower there.
_BLOCK_BYTES = 4 << 20

def _split_engages() -> bool:
    """At least 2 CPUs, and OpenBLAS runs one thread: the first variable it
    reads that holds a positive count says 1 (read here, never set)."""
    counts = [int(v) for v in map(os.environ.get, (
        "OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"))
        if v and v.strip().isdigit() and int(v) > 0]
    cpus = os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else ()
    return counts[:1] == [1] and len(cpus) >= 2


_WORKER = _split_engages()  # tests and checks force it on or off
_workers = {}  # pid -> its one-thread executor: a forked child starts its own


def _block_images(per_image: int) -> int:  # the block size of _in_blocks
    return max(1, _BLOCK_BYTES // (16 * per_image))


def _in_blocks(n: int, per_image: int, body) -> None:
    """body(start, b) for each block of b images, the most whose per_image·b
    elements take half of ``_BLOCK_BYTES`` (at least one); a block allocates
    its own temporaries on the thread that runs it. With more than one block
    and the split engaged, a worker thread takes blocks too: each thread
    takes the next block whenever it is free, so a thread the OS delays
    holds up at most one block. Each block writes its own rows and the
    blocks depend only on shapes, so the bytes are the same with the worker
    on or off, whichever thread ran a block. The worker runs only numpy
    calls and private helpers (no module attribute a profiler may wrap); the
    most it allocates is one block's arrays."""
    block = _block_images(per_image)
    if n <= block:  # one block, on this thread (the sampler's single image)
        return body(0, n)
    todo = iter(range(0, n, block))  # shared; its next() is atomic under the interpreter lock

    def part(t):
        for start in todo:
            body(start, min(block, n - start))

    if _WORKER:
        _dispatch(part)
    else:
        part(0)


def _dispatch(part) -> None:
    """part(1) on the worker, part(0) here; the worker's error is raised here
    once both are done."""
    if os.getpid() not in _workers:
        from concurrent.futures import ThreadPoolExecutor  # not on import: ~5 ms
        _workers.clear()
        _workers[os.getpid()] = ThreadPoolExecutor(1)
    job = _workers[os.getpid()].submit(part, 1)
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

    Kernel gradient: one GEMM, ``upstream`` as [C_out, n·H'·W'] times the
    transposed column matrix of the whole batch, filled in the forward's
    blocks of b images. Input gradient: one GEMM per block, kernels as
    [kH·kW·C_in, C_out] times the block's ``upstream`` as [C_out, H'·W'·b],
    batch innermost. One ``np.bincount`` through ``_scatter_index`` (built on
    the calling thread, kept per geometry) adds them into a padded grid,
    cropped into the block's NCHW rows: in index order from +0.0, so each cell
    sums its kernel offsets (i, j) in the order of a loop of strided adds.
    """
    upstream, x, kernels = map(_as_f64, (upstream, x, kernels))
    n, c_in, h, w, c_out, kh, kw, h_out, w_out = _conv_geometry(x, kernels, stride, pad)
    if upstream.shape != (n, c_out, h_out, w_out):
        raise ShapeError(
            f"conv2d backward: upstream {upstream.shape} != {(n, c_out, h_out, w_out)}")
    rows, hw = c_in * kh * kw, h_out * w_out

    grad_kernels = grad_bias = None
    if need_param_grad:
        win = _windows(x, kh, kw, stride, pad)
        cols = np.empty(win.shape)

        def fill(start, b):
            cols[:, :, :, start:start + b] = win[:, :, :, start:start + b]

        _in_blocks(n, rows * hw, fill)
        up = upstream.transpose(1, 0, 2, 3).reshape(c_out, -1)
        grad_kernels = (up @ cols.reshape(rows, -1).T).reshape(kernels.shape)
        grad_bias = up.sum(axis=1)
        del up, cols

    grad_input = None
    if need_input_grad:
        k_t = kernels.transpose(2, 3, 1, 0).reshape(-1, c_out)
        hp, wp, block = h + 2 * pad, w + 2 * pad, _block_images(rows * hw)
        build = _cached_index if 16 * rows * hw * min(n, block) <= _BLOCK_BYTES else _scatter_index
        index = {b: build(kh, kw, c_in, hp, wp, stride, h_out, w_out, b)
                 for b in {min(n, block), n % block} - {0}}
        grad_input = np.empty(x.shape)

        def block_grad(start, b):
            # C order for any b and H'·W' (a view at b=1): strides change GEMM bytes
            up = np.ascontiguousarray(upstream[start:start + b].transpose(1, 2, 3, 0))
            contrib = k_t @ up.reshape(c_out, -1)
            grid = np.bincount(index[b], contrib.reshape(-1), c_in * hp * wp * b)
            grad_input[start:start + b] = grid.reshape(c_in, hp, wp, b)[
                :, pad:pad + h, pad:pad + w].transpose(3, 0, 1, 2)

        _in_blocks(n, rows * hw, block_grad)
    _count("conv2d_bwd", upstream.size * c_in * kh * kw)
    return grad_input, grad_kernels, grad_bias


# ---------------------------------------------------------------------------
# max pooling

@dataclass(frozen=True)
class ArgmaxMap:
    """Routing table from pooled cells back to winning input positions.

    ``indices`` has the pooled shape, which the backward pass checks its
    upstream against, and holds flat row-major positions into an input of
    ``input_shape``; ties go to the first maximal element in window scan
    order. Overlapping windows may route several cells to one position.
    """
    input_shape: tuple
    indices: np.ndarray


def maxpool_forward_batch(x: np.ndarray, kernel: int, stride: int, need_map: bool = True):
    """Max-pool a batch [n, C, H, W]; returns (pooled, ArgmaxMap), the map
    None when need_map is False (no backward will read it).

    Works on one strided view of ``x`` per window offset (i, j), taken in
    row-major scan order, so no window copy is made. ``pooled`` starts as the
    first view and takes the elementwise maximum with each later one, in
    blocks of images (see ``_in_blocks``); on a tie ``np.maximum`` keeps its
    second argument, the earlier value, so ``-0.0`` against ``0.0`` yields
    whichever comes first in the window. A NaN anywhere in a window makes the
    cell NaN. The winner is the first offset whose view equals ``pooled``
    (or, in a NaN cell, the first NaN): the same element ``argmax`` over the
    window picks. Walking the offsets back from the last,
    ``r = (v != pooled) * (r + 1)`` ends at it, in three in-place passes per
    offset; the flat row-major map is built from it at the end. Only an
    input holding a NaN pays for the NaN tests and for re-reading ``pooled``
    from the winners (even without need_map), so that a NaN cell carries the
    first NaN's bits.
    """
    x = _as_f64(x)
    if x.ndim != 4:
        raise ShapeError(f"maxpool: input must be 4-D [n,C,H,W], got {x.shape}")
    n, c, h, w = x.shape
    k = int(kernel)
    h_out = output_extent(h, k, stride, 0, "maxpool height")
    w_out = output_extent(w, k, stride, 0, "maxpool width")

    h_span, w_span = stride * (h_out - 1) + 1, stride * (w_out - 1) + 1
    views = [x[:, :, i:i + h_span:stride, j:j + w_span:stride]
             for i in range(k) for j in range(k)]
    pooled = np.empty((n, c, h_out, w_out))

    def block(start, b):
        np.copyto(pooled[start:start + b], views[0][start:start + b])
        for v in views[1:]:
            np.maximum(v[start:start + b], pooled[start:start + b], out=pooled[start:start + b])

    _in_blocks(n, c * h * w, block)
    _count("maxpool", pooled.size * k * k)

    has_nan = bool(np.isnan(pooled).any())
    if not (need_map or has_nan):
        return pooled, None
    # the last offset is never tested: a cell no earlier offset wins goes to it
    inner = np.zeros(pooled.shape, np.int8 if k * k <= 127 else np.intp)
    miss = np.empty(pooled.shape, bool)
    for v in reversed(views[:-1]):
        np.not_equal(v, pooled, out=miss)
        if has_nan:
            miss &= ~np.isnan(v)
        inner += 1
        inner *= miss

    offset = (np.arange(k, dtype=np.int64)[:, None] * w + np.arange(k)).ravel()
    corner = (np.arange(h_out, dtype=np.int64)[:, None] * w + np.arange(w_out)) * stride
    idx = offset[inner]
    idx += corner
    idx += (np.arange(n * c, dtype=np.int64) * (h * w)).reshape(n, c, 1, 1)
    if has_nan:  # np.maximum keeps the last NaN of a window, argmax the first
        pooled = x.reshape(-1)[idx]
    return pooled, ArgmaxMap(x.shape, idx) if need_map else None


def maxpool_backward_batch(upstream: np.ndarray, amap: ArgmaxMap) -> np.ndarray:
    """Route pooled-cell gradients to the recorded winners, accumulating on
    collisions."""
    upstream = _as_f64(upstream)
    if upstream.shape != amap.indices.shape:
        raise ShapeError(
            f"maxpool backward: upstream {upstream.shape} != map {amap.indices.shape}")
    grad = np.bincount(amap.indices.ravel(), weights=upstream.ravel(),
                       minlength=int(np.prod(amap.input_shape)))
    _count("maxpool_bwd", upstream.size)
    return grad.reshape(amap.input_shape)


# ---------------------------------------------------------------------------
# dense / rectifier

def dense_forward_batch(x: np.ndarray, weight: np.ndarray, bias: np.ndarray) -> np.ndarray:
    """Affine map of a flat batch: [n, D] @ [K, D]^T + [K] -> [n, K]."""
    x = _as_f64(x)
    weight = _as_f64(weight)
    bias = _as_f64(bias)
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
    the outer product when only the input gradient is wanted).
    """
    upstream = _as_f64(upstream)
    x = _as_f64(x)
    weight = _as_f64(weight)
    if upstream.shape != (x.shape[0], weight.shape[0]):
        raise ShapeError(
            f"dense backward: upstream {upstream.shape} != {(x.shape[0], weight.shape[0])}")
    grad_input = upstream @ weight
    grad_weight = grad_bias = None
    if need_param_grad:
        grad_weight = upstream.T @ x
        grad_bias = upstream.sum(axis=0)
    _count("dense_bwd", x.shape[0] * weight.size)
    return grad_input, grad_weight, grad_bias


def relu_forward(x) -> np.ndarray:
    """Elementwise max(x, 0); any rank."""
    x = _as_f64(x)
    _count("relu", x.size)
    return np.maximum(x, 0.0)


def relu_backward(upstream, x) -> np.ndarray:
    """Passes upstream where the forward input was strictly positive.

    The subgradient at exactly 0 is taken as 0.
    """
    upstream = _as_f64(upstream)
    x = _as_f64(x)
    if upstream.shape != x.shape:
        raise ShapeError(f"relu backward: upstream {upstream.shape} != input {x.shape}")
    _count("relu_bwd", x.size)
    return np.where(x > 0.0, upstream, 0.0)
