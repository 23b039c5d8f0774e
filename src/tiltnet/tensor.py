"""Differentiable array primitives: 2-D cross-correlation, max-pooling with
argmax tracking, affine maps, and the rectifier, each paired with its exact
adjoint.

Everything operates on float64 numpy arrays and is deterministic: the same
inputs give bit-identical outputs. Every primitive is batch-first: images are
[n, C, H, W] and flat activations [n, D]; a single image is a batch of one.
"""

from __future__ import annotations

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

def _columns(x: np.ndarray, kh: int, kw: int, stride: int, pad: int) -> np.ndarray:
    """Column matrix [C_in·kH·kW, n·H'·W'] of a batch: row (c, i, j) holds
    input channel c at kernel offset (i, j) for every output position, batch
    before rows before columns."""
    n, c_in = x.shape[:2]
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad))) if pad else x
    win = sliding_window_view(xp, (kh, kw), axis=(2, 3))[:, :, ::stride, ::stride]
    h_out, w_out = win.shape[2:4]
    return win.transpose(1, 4, 5, 0, 2, 3).reshape(c_in * kh * kw, n * h_out * w_out)


# Column-matrix bytes per forward block: one core's L2 (4 MiB on the 2-vCPU
# Xeon the benchmark baseline ran on), so a block's GEMM reads its columns
# from cache. Whole-batch columns at batch 256 (65.5 MB for LeNet's conv2)
# made that layer's forward about 1.6x slower there.
_BLOCK_BYTES = 4 << 20


def conv2d_forward_batch(x: np.ndarray, kernels: np.ndarray, bias: np.ndarray,
                         stride: int = 1, pad: int = 0) -> np.ndarray:
    """Cross-correlate a batch [n, C_in, H, W] with kernels
    [C_out, C_in, kH, kW] plus per-channel bias; returns [n, C_out, H', W'].

    The batch runs in blocks of b images, b the most whose column matrix
    [C_in·kH·kW, b·H'·W'] (see ``_columns``) fits in ``_BLOCK_BYTES``, and
    at least one. Each block is one GEMM, kernels as [C_out, C_in·kH·kW]
    times its columns; the [C_out, b, H', W'] product takes the bias and is
    copied transposed into its rows of the NCHW output. So a call holds the
    output plus one block's columns and product, whatever n is, and a batch
    within the budget (n=1 in the sampler) is a single block. The batch lies
    along the GEMM's column axis: on LeNet's geometries an image's output
    has the same bytes whatever block it lands in, while OpenBLAS can give
    other geometries last-bit differences from one whole-batch product.
    """
    x = _as_f64(x)
    kernels = _as_f64(kernels)
    bias = _as_f64(bias)
    if x.ndim != 4:
        raise ShapeError(f"conv2d: input must be 4-D [n,C,H,W], got {x.shape}")
    if kernels.ndim != 4:
        raise ShapeError(f"conv2d: kernels must be 4-D, got {kernels.shape}")
    n, c_in, h, w = x.shape
    c_out, kc, kh, kw = kernels.shape
    if kc != c_in:
        raise ShapeError(f"conv2d: kernels expect {kc} input channels, image has {c_in}")
    if bias.shape != (c_out,):
        raise ShapeError(f"conv2d: bias shape {bias.shape} != ({c_out},)")
    h_out = output_extent(h, kh, stride, pad, "conv2d height")
    w_out = output_extent(w, kw, stride, pad, "conv2d width")

    weights = kernels.reshape(c_out, -1)
    block = max(1, _BLOCK_BYTES // (8 * weights.shape[1] * h_out * w_out))
    out = np.empty((n, c_out, h_out, w_out))
    for start in range(0, n, block):
        xb = x[start:start + block]
        # the columns are passed inline so they are freed before the copy,
        # and the product is freed before the next block's GEMM
        prod = weights @ _columns(xb, kh, kw, stride, pad)
        prod += bias[:, None]
        out[start:start + len(xb)] = prod.reshape(c_out, -1, h_out, w_out).transpose(1, 0, 2, 3)
        del prod
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
    transposed column matrix of the forward. Input gradient: one GEMM,
    kernels as [kH·kW·C_in, C_out] times ``upstream`` as [C_out, H'·W'·n],
    batch innermost, so each kernel offset (i, j) owns a contiguous
    [C_in, H', W', n] block. The kH·kW blocks are added at their strided
    positions into a [C_in, H+2p, W+2p, n] buffer, which is cropped and
    transposed to NCHW once.
    """
    upstream = _as_f64(upstream)
    x = _as_f64(x)
    kernels = _as_f64(kernels)
    n, c_in, h, w = x.shape
    c_out, _, kh, kw = kernels.shape
    h_out = output_extent(h, kh, stride, pad, "conv2d height")
    w_out = output_extent(w, kw, stride, pad, "conv2d width")
    if upstream.shape != (n, c_out, h_out, w_out):
        raise ShapeError(
            f"conv2d backward: upstream {upstream.shape} != {(n, c_out, h_out, w_out)}")

    grad_kernels = grad_bias = None
    if need_param_grad:
        up = upstream.transpose(1, 0, 2, 3).reshape(c_out, -1)
        grad_kernels = (up @ _columns(x, kh, kw, stride, pad).T).reshape(kernels.shape)
        grad_bias = up.sum(axis=1)
        del up

    grad_input = None
    if need_input_grad:
        up = upstream.transpose(1, 2, 3, 0).reshape(c_out, -1)
        contrib = kernels.transpose(2, 3, 1, 0).reshape(-1, c_out) @ up
        del up
        contrib = contrib.reshape(kh, kw, c_in, h_out, w_out, n)
        gxp = np.zeros((c_in, h + 2 * pad, w + 2 * pad, n))
        for i in range(kh):
            for j in range(kw):
                gxp[:, i:i + stride * h_out:stride, j:j + stride * w_out:stride] += contrib[i, j]
        del contrib
        grad_input = np.ascontiguousarray(
            gxp[:, pad:pad + h, pad:pad + w].transpose(3, 0, 1, 2))
    _count("conv2d_bwd", upstream.size * c_in * kh * kw)
    return grad_input, grad_kernels, grad_bias


# ---------------------------------------------------------------------------
# max pooling

@dataclass(frozen=True)
class ArgmaxMap:
    """Routing table from pooled cells back to winning input positions.

    ``indices`` has the pooled shape and holds flat row-major positions into
    the original input; ties go to the first maximal element in window scan
    order. With overlapping windows one input position may win several cells,
    and the backward pass accumulates.
    """
    pooled_shape: tuple
    input_shape: tuple
    indices: np.ndarray


def maxpool_forward_batch(x: np.ndarray, kernel: int, stride: int):
    """Max-pool a batch [n, C, H, W]; returns (pooled, ArgmaxMap).

    Works on one strided view of ``x`` per window offset (i, j), taken in
    row-major scan order, so no window copy is made. ``pooled`` starts as the
    first view and takes the elementwise maximum with each later one; on a
    tie ``np.maximum`` keeps its second argument, the earlier value, so
    ``-0.0`` against ``0.0`` yields whichever comes first in the window. A NaN
    anywhere in a window makes the cell NaN. The winner is the first offset
    whose view equals ``pooled`` (or, in a NaN cell, the first NaN): the same
    element ``argmax`` over the window picks. It is kept as a small in-window
    offset and turned into the flat row-major map at the end. Only an input
    holding a NaN pays for the NaN tests and for re-reading ``pooled`` from
    the winners, so that a NaN cell carries the first NaN's bits.
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
    pooled = views[0].copy()
    for v in views[1:]:
        np.maximum(v, pooled, out=pooled)

    has_nan = bool(np.isnan(pooled).any())
    inner = np.zeros(pooled.shape, np.int8 if k * k <= 127 else np.intp)
    still_open = np.ones(pooled.shape, bool)
    for o, v in enumerate(views):
        hit = v == pooled
        if has_nan:
            hit |= np.isnan(v)
        hit &= still_open
        still_open ^= hit
        inner += hit * inner.dtype.type(o)

    offset = (np.arange(k, dtype=np.int64)[:, None] * w + np.arange(k)).ravel()
    corner = (np.arange(h_out, dtype=np.int64)[:, None] * w + np.arange(w_out)) * stride
    idx = offset[inner]
    idx += corner
    idx += (np.arange(n * c, dtype=np.int64) * (h * w)).reshape(n, c, 1, 1)
    if has_nan:  # np.maximum keeps the last NaN of a window, argmax the first
        pooled = x.reshape(-1)[idx]

    _count("maxpool", pooled.size * k * k)
    return pooled, ArgmaxMap(pooled.shape, x.shape, idx)


def maxpool_backward_batch(upstream: np.ndarray, amap: ArgmaxMap) -> np.ndarray:
    """Route pooled-cell gradients to the recorded winners, accumulating on
    collisions."""
    upstream = _as_f64(upstream)
    if upstream.shape != tuple(amap.pooled_shape):
        raise ShapeError(
            f"maxpool backward: upstream {upstream.shape} != map {amap.pooled_shape}")
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
