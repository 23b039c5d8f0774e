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


def reset_op_counts() -> None:
    """Zero the per-primitive work counters."""
    _OP_COUNTS.clear()


def op_counts() -> dict:
    """Work done per primitive since the last reset.

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

def conv2d_forward_batch(x: np.ndarray, kernels: np.ndarray, bias: np.ndarray,
                         stride: int = 1, pad: int = 0) -> np.ndarray:
    """Cross-correlate a batch [n, C_in, H, W] with kernels
    [C_out, C_in, kH, kW] plus per-channel bias; returns [n, C_out, H', W']."""
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

    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad))) if pad else x
    # windows: [n, C_in, H', W', kH, kW]
    win = sliding_window_view(xp, (kh, kw), axis=(2, 3))[:, :, ::stride, ::stride]
    out = np.tensordot(win, kernels, axes=([1, 4, 5], [1, 2, 3]))  # [n,H',W',C_out]
    out += bias
    out = np.ascontiguousarray(out.transpose(0, 3, 1, 2))
    _count("conv2d", out.size * c_in * kh * kw)
    return out


def conv2d_backward_batch(upstream: np.ndarray, x: np.ndarray,
                          kernels: np.ndarray, stride: int = 1, pad: int = 0,
                          need_input_grad: bool = True, need_param_grad: bool = True):
    """Adjoint of conv2d_forward_batch.

    Returns (grad_input, grad_kernels, grad_bias). grad_input is None when
    need_input_grad is False (saves the scatter for the first layer);
    grad_kernels and grad_bias are None when need_param_grad is False (saves
    the window product when only the input gradient is wanted). Either flag
    leaves the other results bit-identical.
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
        xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad))) if pad else x
        win = sliding_window_view(xp, (kh, kw), axis=(2, 3))[:, :, ::stride, ::stride]
        grad_kernels = np.tensordot(upstream, win, axes=([0, 2, 3], [0, 2, 3]))
        grad_bias = upstream.sum(axis=(0, 2, 3))

    grad_input = None
    if need_input_grad:
        # scatter each kernel offset back onto the (padded) input grid
        contrib = np.tensordot(upstream, kernels, axes=([1], [0]))  # [n,H',W',C_in,kH,kW]
        gxp = np.zeros((n, c_in, h + 2 * pad, w + 2 * pad))
        for i in range(kh):
            for j in range(kw):
                gxp[:, :, i:i + stride * h_out:stride, j:j + stride * w_out:stride] += \
                    contrib[:, :, :, :, i, j].transpose(0, 3, 1, 2)
        grad_input = gxp[:, :, pad:pad + h, pad:pad + w] if pad else gxp
        grad_input = np.ascontiguousarray(grad_input)
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
    """Max-pool a batch [n, C, H, W]; returns (pooled, ArgmaxMap)."""
    x = _as_f64(x)
    if x.ndim != 4:
        raise ShapeError(f"maxpool: input must be 4-D [n,C,H,W], got {x.shape}")
    n, c, h, w = x.shape
    kh = kw = int(kernel)
    h_out = output_extent(h, kh, stride, 0, "maxpool height")
    w_out = output_extent(w, kw, stride, 0, "maxpool width")

    win = sliding_window_view(x, (kh, kw), axis=(2, 3))[:, :, ::stride, ::stride]
    flat = win.reshape(n, c, h_out, w_out, kh * kw)
    inner = flat.argmax(axis=-1)  # first max in row-major window order
    pooled = np.take_along_axis(flat, inner[..., None], axis=-1)[..., 0]

    rows = inner // kw + (np.arange(h_out) * stride)[None, None, :, None]
    cols = inner % kw + (np.arange(w_out) * stride)[None, None, None, :]
    chan = np.arange(c)[None, :, None, None]
    samp = np.arange(n)[:, None, None, None]
    idx = (((samp * c + chan) * h + rows) * w + cols).astype(np.int64)

    pooled = np.ascontiguousarray(pooled)
    _count("maxpool", pooled.size * kh * kw)
    return pooled, ArgmaxMap(pooled.shape, x.shape, idx)


def maxpool_backward_batch(upstream: np.ndarray, amap: ArgmaxMap) -> np.ndarray:
    """Route pooled-cell gradients to the recorded winners, accumulating on
    collisions."""
    upstream = _as_f64(upstream)
    if upstream.shape != tuple(amap.pooled_shape):
        raise ShapeError(
            f"maxpool backward: upstream {upstream.shape} != map {amap.pooled_shape}")
    grad = np.zeros(int(np.prod(amap.input_shape)))
    np.add.at(grad, amap.indices.ravel(), upstream.ravel())
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
