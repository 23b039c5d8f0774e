"""Primitives against finite differences and hand-computed cases."""

import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp
from numpy.lib.stride_tricks import sliding_window_view

from tiltnet import tensor
from tiltnet.checks import fd_grad, rel_err, tensor_suite
from tiltnet.errors import ShapeError

from conftest import op_counts_since


def test_conv_all_ones_single_window():
    x = np.ones((1, 1, 3, 3))
    k = np.ones((1, 1, 3, 3))
    out = tensor.conv2d_forward_batch(x, k, np.zeros(1))
    assert out.shape == (1, 1, 1, 1)
    assert out[0, 0, 0, 0] == 9.0


def test_conv_all_ones_padded():
    x = np.ones((1, 1, 3, 3))
    k = np.ones((1, 1, 3, 3))
    out = tensor.conv2d_forward_batch(x, k, np.zeros(1), stride=1, pad=1)
    expected = np.array([[4.0, 6.0, 4.0], [6.0, 9.0, 6.0], [4.0, 6.0, 4.0]])
    np.testing.assert_array_equal(out[0, 0], expected)


def test_conv_is_cross_correlation():
    # an asymmetric kernel applied without flipping
    x = np.zeros((1, 1, 3, 3))
    x[0, 0, 0, 0] = 1.0
    k = np.arange(9, dtype=float).reshape(1, 1, 3, 3)
    out = tensor.conv2d_forward_batch(x, k, np.zeros(1))
    assert out[0, 0, 0, 0] == 0.0  # k[0,0] multiplies x[0,0]


def test_conv_bias_broadcast(rng):
    x = rng.normal(size=(2, 3, 5, 5))
    k = rng.normal(size=(4, 3, 3, 3))
    b = np.array([1.0, 2.0, 3.0, 4.0])
    with_b = tensor.conv2d_forward_batch(x, k, b)
    without = tensor.conv2d_forward_batch(x, k, np.zeros(4))
    np.testing.assert_allclose(with_b - without, b[None, :, None, None] * np.ones_like(without))


def test_conv_stride_geometry():
    x = np.zeros((1, 1, 7, 7))
    out = tensor.conv2d_forward_batch(x, np.zeros((1, 1, 3, 3)), np.zeros(1), stride=2)
    assert out.shape == (1, 1, 3, 3)


def test_conv_rejects_untileable_stride():
    x = np.zeros((1, 1, 6, 6))
    with pytest.raises(ShapeError, match="stride"):
        tensor.conv2d_forward_batch(x, np.zeros((1, 1, 3, 3)), np.zeros(1), stride=2)


def test_conv_rejects_oversized_kernel():
    with pytest.raises(ShapeError, match="exceeds"):
        tensor.conv2d_forward_batch(np.zeros((1, 1, 4, 4)),
                                    np.zeros((1, 1, 5, 5)), np.zeros(1))


def _refuse_index(monkeypatch):
    def refuse(*geometry):
        raise AssertionError("scatter index built before the shape checks")

    monkeypatch.setattr(tensor, "_scatter_index", refuse)
    monkeypatch.setattr(tensor, "_cached_index", refuse)


def test_conv_rejects_channel_mismatch(monkeypatch):
    _refuse_index(monkeypatch)
    with pytest.raises(ShapeError, match="channels"):
        tensor.conv2d_forward_batch(np.zeros((1, 2, 5, 5)),
                                    np.zeros((1, 3, 3, 3)), np.zeros(1))
    # the backward checks like the forward before it builds or reads an index
    with pytest.raises(ShapeError, match="kernels expect 2 input channels, image has 3"):
        tensor.conv2d_backward_batch(np.zeros((2, 4, 6, 6)), np.zeros((2, 3, 8, 8)),
                                     np.zeros((4, 2, 3, 3)))


def test_conv_rejects_wrong_rank(monkeypatch):
    _refuse_index(monkeypatch)
    with pytest.raises(ShapeError, match="input must be 4-D"):
        tensor.conv2d_forward_batch(np.zeros((3, 8, 8)), np.zeros((4, 3, 3, 3)), np.zeros(4))
    with pytest.raises(ShapeError, match="input must be 4-D"):
        tensor.conv2d_backward_batch(np.zeros((4, 6, 6)), np.zeros((3, 8, 8)),
                                     np.zeros((4, 3, 3, 3)))
    with pytest.raises(ShapeError, match="kernels must be 4-D"):
        tensor.conv2d_backward_batch(np.zeros((1, 4, 6, 6)), np.zeros((1, 3, 8, 8)),
                                     np.zeros((4, 27)))


def test_conv_gradients_match_fd(rng):
    x = rng.normal(size=(2, 2, 6, 6))
    k = rng.normal(size=(3, 2, 3, 3))
    b = rng.normal(size=3)
    probe = rng.normal(size=(2, 3, 6, 6))  # pad 1, stride 1 keeps 6x6
    gx, gk, gb = tensor.conv2d_backward_batch(probe, x, k, stride=1, pad=1)

    def obj(which, a):
        parts = {"x": x, "k": k, "b": b, which: a}
        out = tensor.conv2d_forward_batch(parts["x"], parts["k"], parts["b"], 1, 1)
        return float((out * probe).sum())

    assert rel_err(fd_grad(lambda a: obj("x", a), x.copy()), gx) < 1e-6
    assert rel_err(fd_grad(lambda a: obj("k", a), k.copy()), gk) < 1e-6
    assert rel_err(fd_grad(lambda a: obj("b", a), b.copy()), gb) < 1e-6


def test_conv_backward_can_skip_input_grad(rng):
    x = rng.normal(size=(1, 1, 5, 5))
    k = rng.normal(size=(2, 1, 3, 3))
    up = rng.normal(size=(1, 2, 3, 3))
    gx, gk, gb = tensor.conv2d_backward_batch(up, x, k, need_input_grad=False)
    assert gx is None
    gx2, gk2, gb2 = tensor.conv2d_backward_batch(up, x, k)
    np.testing.assert_array_equal(gk, gk2)
    np.testing.assert_array_equal(gb, gb2)
    assert gx2.shape == x.shape


def test_backward_can_skip_param_grads(rng):
    # the input-only path must not change a bit of the input gradient, or
    # sampler chains would drift from the full backward's
    x = rng.normal(size=(2, 3, 7, 7))
    k = rng.normal(size=(4, 3, 3, 3))
    up = rng.normal(size=(2, 4, 4, 4))
    gx, gk, gb = tensor.conv2d_backward_batch(up, x, k, stride=2, pad=1,
                                              need_param_grad=False)
    assert gk is None and gb is None
    np.testing.assert_array_equal(gx, tensor.conv2d_backward_batch(up, x, k, 2, 1)[0])
    xd = rng.normal(size=(3, 6))
    w = rng.normal(size=(5, 6))
    upd = rng.normal(size=(3, 5))
    gx, gw, gb = tensor.dense_backward_batch(upd, xd, w, need_param_grad=False)
    assert gw is None and gb is None
    np.testing.assert_array_equal(gx, tensor.dense_backward_batch(upd, xd, w)[0])


def _conv_reference(x, k, b, up, stride, pad):
    """Output-position loop: forward, grad_input, grad_kernels, grad_bias."""
    n, c_in, h, w = x.shape
    kh, kw = k.shape[2:]
    h_out, w_out = up.shape[2:]
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    out = np.zeros(up.shape)
    gxp = np.zeros(xp.shape)
    gk = np.zeros(k.shape)
    for r in range(h_out):
        for c in range(w_out):
            rows = slice(r * stride, r * stride + kh)
            cols = slice(c * stride, c * stride + kw)
            out[:, :, r, c] = np.tensordot(xp[:, :, rows, cols], k, axes=([1, 2, 3], [1, 2, 3])) + b
            gxp[:, :, rows, cols] += np.tensordot(up[:, :, r, c], k, axes=(1, 0))
            gk += np.tensordot(up[:, :, r, c], xp[:, :, rows, cols], axes=(0, 0))
    return out, gxp[:, :, pad:pad + h, pad:pad + w], gk, up.sum(axis=(0, 2, 3))


@st.composite
def _conv_cases(draw):
    k, stride, pad = draw(st.integers(1, 4)), draw(st.integers(1, 3)), draw(st.integers(0, 2))
    # output extents whose input extent k + stride*(out-1) - 2*pad lies in 1..9
    low = 1 + max(0, -(-(1 + 2 * pad - k) // stride))
    high = (9 + 2 * pad - k) // stride + 1
    h_out, w_out = draw(st.integers(low, high)), draw(st.integers(low, high))
    n, c_in, c_out = (draw(st.integers(1, 3)) for _ in range(3))
    h, w = (k + stride * (e - 1) - 2 * pad for e in (h_out, w_out))

    def arr(*shape):
        return draw(hnp.arrays(np.float64, shape, elements=st.integers(-3, 3)))

    return (arr(n, c_in, h, w), arr(c_out, c_in, k, k), arr(c_out),
            arr(n, c_out, h_out, w_out), stride, pad)


@settings(max_examples=200)
@given(_conv_cases())
def test_conv_matches_loop_reference_exactly(case):
    # small integers make every summation order exact, so any reordering of
    # the sums shows up only as a real error
    x, k, b, up, stride, pad = case
    want = _conv_reference(x, k, b, up, stride, pad)
    out = tensor.conv2d_forward_batch(x, k, b, stride, pad)
    gx, gk, gb = tensor.conv2d_backward_batch(up, x, k, stride, pad)
    for got, ref in zip((out, gx, gk, gb), want):
        assert got.shape == ref.shape and got.tobytes() == ref.tobytes()
    gx_only = tensor.conv2d_backward_batch(up, x, k, stride, pad, need_param_grad=False)
    assert gx_only[0].tobytes() == gx.tobytes() and gx_only[1:] == (None, None)
    params_only = tensor.conv2d_backward_batch(up, x, k, stride, pad, need_input_grad=False)
    assert params_only[0] is None
    assert params_only[1].tobytes() == gk.tobytes() and params_only[2].tobytes() == gb.tobytes()


LENET_CONVS = pytest.mark.parametrize("c_in,extent,c_out", [(1, 28, 20), (20, 12, 50)],
                                      ids=["conv1", "conv2"])


def _input_grad_by_offsets(up, x, k, stride, pad):
    """The input gradient as kH·kW strided adds onto a zeroed padded grid, one
    block of images at a time, each block's contributions from the one GEMM
    conv2d_backward_batch makes."""
    n, c_in, h, w = x.shape
    c_out, _, kh, kw = k.shape
    h_out, w_out = up.shape[2:]
    k_t = k.transpose(2, 3, 1, 0).reshape(-1, c_out)
    block = tensor._block_images(c_in * kh * kw * h_out * w_out)
    grad = np.empty(x.shape)
    for start in range(0, n, block):
        b = min(block, n - start)
        up_t = np.ascontiguousarray(up[start:start + b].transpose(1, 2, 3, 0))
        contrib = (k_t @ up_t.reshape(c_out, -1)).reshape(kh, kw, c_in, h_out, w_out, b)
        gxp = np.zeros((c_in, h + 2 * pad, w + 2 * pad, b))
        for i in range(kh):
            for j in range(kw):
                gxp[:, i:i + stride * h_out:stride, j:j + stride * w_out:stride] += contrib[i, j]
        grad[start:start + b] = gxp[:, pad:pad + h, pad:pad + w].transpose(3, 0, 1, 2)
    return grad


def _one_nan(a):
    return np.where(np.isnan(a), np.nan, a)


def _assert_input_grad_by_offsets(up, x, k, stride, pad):
    # the same bytes, up to which NaN a NaN cell holds: where NaNs of both
    # signs meet, IEEE 754 leaves the sign of their sum open, and numpy's own
    # add paths do not agree on it
    with np.errstate(all="ignore"):
        want = _input_grad_by_offsets(up, x, k, stride, pad)
        for need_params in (True, False):
            got = tensor.conv2d_backward_batch(up, x, k, stride, pad,
                                               need_param_grad=need_params)[0]
            assert got.shape == want.shape
            assert np.array_equal(np.isnan(got), np.isnan(want))
            assert _one_nan(got).tobytes() == _one_nan(want).tobytes()


def _with_specials(rng, a):
    """a with inf, -inf, NaN and -0.0 at random positions."""
    flat = a.reshape(-1)
    flat[rng.integers(0, flat.size, 4)] = (np.inf, -np.inf, np.nan, -0.0)
    return a


@st.composite
def _float_conv_cases(draw):
    k, stride, pad = draw(st.integers(1, 4)), draw(st.integers(1, 3)), draw(st.integers(0, 2))
    low = 1 + max(0, -(-(1 + 2 * pad - k) // stride))
    high = (9 + 2 * pad - k) // stride + 1
    h_out, w_out = draw(st.integers(low, high)), draw(st.integers(low, high))
    h, w = (k + stride * (e - 1) - 2 * pad for e in (h_out, w_out))
    n = draw(st.sampled_from([1, 2, 7, 64]))
    c_in, c_out = draw(st.integers(1, 3)), draw(st.integers(1, 24))
    return ((n, c_in, h, w), (c_out, c_in, k, k), (n, c_out, h_out, w_out), stride, pad,
            draw(st.integers(0, 2 ** 32 - 1)), draw(st.sampled_from(["none", "up", "k"])))


@settings(max_examples=150, deadline=None)
@given(_float_conv_cases())
def test_conv_input_grad_adds_offsets_in_loop_order(case):
    # random floats round differently in every summation order, so byte
    # equality with the loop pins the order in which each cell sums its
    # kernel offsets (and which inf or signed zero comes out)
    x_shape, k_shape, up_shape, stride, pad, seed, specials = case
    rng = np.random.default_rng(seed)
    x, k = rng.normal(size=x_shape), rng.normal(size=k_shape)
    up = rng.normal(size=up_shape) * 10.0 ** rng.integers(-3, 4, up_shape)
    if specials == "up":
        up = _with_specials(rng, up)
    elif specials == "k":
        k = _with_specials(rng, k)
    _assert_input_grad_by_offsets(up, x, k, stride, pad)


def _forward_by_copied_blocks(x, k, bias, stride, pad):
    """The conv forward one block of images at a time, each block's window
    view copied into a C-ordered array before its one GEMM."""
    n, c_in, h, w = x.shape
    c_out, _, kh, kw = k.shape
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    win = sliding_window_view(xp, (kh, kw), axis=(2, 3))[:, :, ::stride, ::stride]
    win = win.transpose(1, 4, 5, 0, 2, 3)
    h_out, w_out = win.shape[4:]
    weights = k.reshape(c_out, -1)
    block = tensor._block_images(weights.shape[1] * h_out * w_out)
    out = np.empty((n, c_out, h_out, w_out))
    for start in range(0, n, block):
        b = min(block, n - start)
        cols = np.empty(win.shape[:3] + (b, h_out, w_out))
        cols[...] = win[:, :, :, start:start + b]
        prod = weights @ cols.reshape(weights.shape[1], -1)
        prod += bias[:, None]
        out[start:start + b] = prod.reshape(c_out, b, h_out, w_out).transpose(1, 0, 2, 3)
    return out


@st.composite
def _float_forward_cases(draw):
    k, stride, pad = draw(st.integers(1, 4)), draw(st.integers(1, 3)), draw(st.integers(0, 2))
    low = 1 + max(0, -(-(1 + 2 * pad - k) // stride))
    high = (9 + 2 * pad - k) // stride + 1
    # the smallest output extent often: one pixel wide or tall where it can be
    extent = st.one_of(st.just(low), st.integers(low, high))
    h_out, w_out = draw(extent), draw(extent)
    h, w = (k + stride * (e - 1) - 2 * pad for e in (h_out, w_out))
    n = draw(st.sampled_from([1, 2, 9, 16, 64]))
    c_in, c_out = draw(st.integers(1, 3)), draw(st.integers(1, 24))
    return ((n, c_in, h, w), (c_out, c_in, k, k), stride, pad,
            draw(st.integers(0, 2 ** 32 - 1)), draw(st.sampled_from(["none", "x", "k"])),
            draw(st.integers(0, 4)), draw(st.booleans()))


@settings(max_examples=200, deadline=None)
@given(_float_forward_cases())
def test_conv_forward_copies_each_block_before_its_gemm(case):
    # random floats round differently under another GEMM operand layout, so
    # byte equality pins that each block's columns reach the GEMM as a
    # C-ordered copy (a reshaped window view can reach it strided); budgets
    # run from below one image's columns to a few images', worker on and off
    x_shape, k_shape, stride, pad, seed, specials, images, worker = case
    rng = np.random.default_rng(seed)
    x, k, bias = rng.normal(size=x_shape), rng.normal(size=k_shape), rng.normal(size=k_shape[0])
    if specials == "x":
        x = _with_specials(rng, x)
    elif specials == "k":
        k = _with_specials(rng, k)
    h_out, w_out = (tensor.output_extent(e, k_shape[2], stride, pad) for e in x_shape[2:])
    per_image = x_shape[1] * k_shape[2] * k_shape[3] * h_out * w_out
    with pytest.MonkeyPatch.context() as mp, np.errstate(all="ignore"), \
            warnings.catch_warnings():
        # np.errstate holds for this thread only; the worker's inf·0 warns
        warnings.simplefilter("ignore", RuntimeWarning)
        mp.setattr(tensor, "_BLOCK_BYTES", 16 * per_image * images + 8)
        mp.setattr(tensor, "_WORKER", worker)
        want = _forward_by_copied_blocks(x, k, bias, stride, pad)
        got = tensor.conv2d_forward_batch(x, k, bias, stride, pad)
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("n", [1, 7, 64, 257])
@LENET_CONVS
def test_lenet_conv_input_grad_adds_offsets_in_loop_order(rng, n, c_in, extent, c_out):
    x, k = rng.normal(size=(n, c_in, extent, extent)), rng.normal(size=(c_out, c_in, 5, 5))
    up = rng.normal(size=(n, c_out, extent - 4, extent - 4))
    _assert_input_grad_by_offsets(up, x, k, 1, 0)
    _assert_input_grad_by_offsets(_with_specials(rng, up), x, k, 1, 0)


def _peak_bytes(call) -> int:
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@LENET_CONVS
def test_conv_peak_memory_is_columns_plus_output(rng, c_in, extent, c_out):
    # LeNet's convs at batch 64: no call may hold more than the column
    # matrix [C_in*k*k, n*H'*W'] and one output-sized array at once
    n, k = 64, 5
    x = rng.normal(size=(n, c_in, extent, extent))
    kernels = rng.normal(size=(c_out, c_in, k, k))
    bias = rng.normal(size=c_out)
    up = rng.normal(size=(n, c_out, extent - k + 1, extent - k + 1))
    col_bytes = 8 * c_in * k * k * n * up.shape[2] * up.shape[3]
    calls = {
        "forward": lambda: tensor.conv2d_forward_batch(x, kernels, bias),
        "backward": lambda: tensor.conv2d_backward_batch(up, x, kernels),
        "input only": lambda: tensor.conv2d_backward_batch(up, x, kernels,
                                                            need_param_grad=False),
    }
    for name, call in calls.items():
        assert _peak_bytes(call) <= 1.1 * (col_bytes + up.nbytes), name

    # the forward at batch 256 holds one block's columns and product next
    # to the output, far below the whole batch's columns
    n, hw = 256, (extent - k + 1) ** 2
    x = rng.normal(size=(n, c_in, extent, extent))
    block = tensor._BLOCK_BYTES // (8 * c_in * k * k * hw)
    bound = 8 * block * hw * (c_in * k * k + c_out) + 8 * n * c_out * hw
    assert bound < 8 * n * hw * (c_in * k * k + c_out)
    assert _peak_bytes(lambda: tensor.conv2d_forward_batch(x, kernels, bias)) <= 1.1 * bound


@LENET_CONVS
def test_conv_forward_blocks_match_per_image_calls(rng, c_in, extent, c_out):
    # two full blocks and a short one; each image's output must not depend
    # on the block it shares (the batch lies along the GEMM's column axis)
    k = 5
    block = tensor._BLOCK_BYTES // (8 * c_in * k * k * (extent - k + 1) ** 2)
    n = 2 * block + block // 2 + 1
    x = rng.normal(size=(n, c_in, extent, extent))
    kernels = rng.normal(size=(c_out, c_in, k, k))
    bias = rng.normal(size=c_out)
    whole = tensor.conv2d_forward_batch(x, kernels, bias)
    single = np.concatenate([tensor.conv2d_forward_batch(x[i:i + 1], kernels, bias)
                             for i in range(n)])
    assert whole.tobytes() == single.tobytes()


def test_conv_forward_blocks_keep_padding_and_stride(rng, monkeypatch):
    # integers make every sum exact, so only the block bookkeeping can differ:
    # a block takes half the budget, so a budget of four images' columns
    # splits 5 images into 2 + 2 + 1
    x = rng.integers(-3, 4, (5, 2, 7, 7)).astype(float)
    kernels = rng.integers(-3, 4, (3, 2, 3, 3)).astype(float)
    bias = rng.integers(-3, 4, 3).astype(float)
    want = tensor.conv2d_forward_batch(x, kernels, bias, stride=2, pad=1)
    monkeypatch.setattr(tensor, "_BLOCK_BYTES", 2 * (2 * 8 * 2 * 3 * 3 * 4 * 4 + 8))
    got = tensor.conv2d_forward_batch(x, kernels, bias, stride=2, pad=1)
    assert got.tobytes() == want.tobytes()


def test_maxpool_constant_input_picks_first():
    x = np.zeros((1, 1, 4, 4))
    pooled, amap = tensor.maxpool_forward_batch(x, 2, 2)
    assert pooled.shape == (1, 1, 2, 2)
    np.testing.assert_array_equal(amap.indices[0, 0], [[0, 2], [8, 10]])


def test_maxpool_tie_goes_to_scan_order():
    x = np.array([[[[5.0, 5.0], [5.0, 5.0]]]])
    _, amap = tensor.maxpool_forward_batch(x, 2, 2)
    assert amap.indices.ravel()[0] == 0


def test_maxpool_values_and_routing(rng):
    x = rng.normal(size=(2, 3, 6, 6))
    pooled, amap = tensor.maxpool_forward_batch(x, 2, 2)
    # pooled values really are window maxima
    for n in range(2):
        for c in range(3):
            for i in range(3):
                for j in range(3):
                    window = x[n, c, 2 * i:2 * i + 2, 2 * j:2 * j + 2]
                    assert pooled[n, c, i, j] == window.max()
    # routed gradient matches finite differences (continuous input, no ties)
    probe = rng.normal(size=pooled.shape)
    grad = tensor.maxpool_backward_batch(probe, amap)

    def obj(a):
        out, _ = tensor.maxpool_forward_batch(a, 2, 2)
        return float((out * probe).sum())

    assert rel_err(fd_grad(obj, x.copy()), grad) < 1e-6


def test_maxpool_overlapping_windows_accumulate():
    # stride 1 windows share the single maximum at (1,1)
    x = np.array([[[[0.0, 0.0, 0.0], [0.0, 9.0, 0.0], [0.0, 0.0, 0.0]]]])
    pooled, amap = tensor.maxpool_forward_batch(x, 2, 1)
    assert (pooled == 9.0).all()
    grad = tensor.maxpool_backward_batch(np.ones_like(pooled), amap)
    assert grad.shape == x.shape
    assert grad[0, 0, 1, 1] == 4.0
    assert grad.sum() == 4.0


def _maxpool_reference(x, k, stride):
    """Window-copy max-pool: argmax over every [k*k] window, first max wins."""
    n, c, h, w = x.shape
    win = sliding_window_view(x, (k, k), axis=(2, 3))[:, :, ::stride, ::stride]
    flat = win.reshape(*win.shape[:4], k * k)
    inner = flat.argmax(axis=-1)
    pooled = np.take_along_axis(flat, inner[..., None], axis=-1)[..., 0]
    rows = inner // k + (np.arange(win.shape[2]) * stride)[:, None]
    cols = inner % k + np.arange(win.shape[3]) * stride
    plane = np.arange(n * c).reshape(n, c, 1, 1)
    return pooled, ((plane * h + rows) * w + cols).astype(np.int64)


@st.composite
def _pool_cases(draw):
    k = draw(st.integers(1, 4))
    stride = draw(st.integers(1, 3))
    h_out = draw(st.integers(1, (9 - k) // stride + 1))
    w_out = draw(st.integers(1, (9 - k) // stride + 1))
    shape = (draw(st.integers(1, 3)), draw(st.integers(1, 3)),
             k + stride * (h_out - 1), k + stride * (w_out - 1))
    values = st.one_of(
        st.sampled_from([-1.0, -0.0, 0.0, 1.0, np.nan, -np.nan, np.inf, -np.inf]),
        st.floats(-3.0, 3.0))
    return draw(hnp.arrays(np.float64, shape, elements=values)), k, stride


@settings(max_examples=300)
@given(_pool_cases())
def test_maxpool_matches_window_argmax(case):
    # ties, signed zeros, NaN, infinities and overlapping windows
    x, k, stride = case
    pooled, amap = tensor.maxpool_forward_batch(x, k, stride)
    want, want_idx = _maxpool_reference(x, k, stride)
    assert pooled.shape == want.shape and pooled.tobytes() == want.tobytes()
    assert amap.indices.dtype == np.int64
    np.testing.assert_array_equal(amap.indices, want_idx)
    # backward: the same additions, in the same order, as np.add.at from +0.0
    up = np.where(np.isfinite(pooled), pooled, 0.5)
    grad = np.zeros(x.size)
    np.add.at(grad, want_idx.ravel(), up.ravel())
    assert tensor.maxpool_backward_batch(up, amap).tobytes() == grad.reshape(x.shape).tobytes()


@settings(max_examples=300)
@given(_pool_cases())
def test_maxpool_without_map_pools_the_same_bytes(case):
    # the map-free path stops before the winner search unless a NaN needs it
    x, k, stride = case
    pooled, _ = tensor.maxpool_forward_batch(x, k, stride)
    lean, amap = tensor.maxpool_forward_batch(x, k, stride, need_map=False)
    assert amap is None and lean.tobytes() == pooled.tobytes()


def test_maxpool_rejects_mismatched_map(rng):
    x = rng.normal(size=(1, 1, 4, 4))
    _, amap = tensor.maxpool_forward_batch(x, 2, 2)
    with pytest.raises(ShapeError, match="upstream"):
        tensor.maxpool_backward_batch(np.zeros((1, 1, 3, 3)), amap)


def test_maxpool_rejects_oversized_window():
    with pytest.raises(ShapeError):
        tensor.maxpool_forward_batch(np.zeros((1, 1, 3, 3)), 4, 1)


def test_dense_matches_manual(rng):
    x = rng.normal(size=(3, 4))
    w = rng.normal(size=(5, 4))
    b = rng.normal(size=5)
    np.testing.assert_allclose(tensor.dense_forward_batch(x, w, b), x @ w.T + b)


def test_dense_gradients_match_fd(rng):
    x = rng.normal(size=(3, 4))
    w = rng.normal(size=(5, 4))
    b = rng.normal(size=5)
    probe = rng.normal(size=(3, 5))
    gx, gw, gb = tensor.dense_backward_batch(probe, x, w)

    def obj(which, a):
        parts = {"x": x, "w": w, "b": b, which: a}
        return float((tensor.dense_forward_batch(parts["x"], parts["w"], parts["b"]) * probe).sum())

    assert rel_err(fd_grad(lambda a: obj("x", a), x.copy()), gx) < 1e-6
    assert rel_err(fd_grad(lambda a: obj("w", a), w.copy()), gw) < 1e-6
    assert rel_err(fd_grad(lambda a: obj("b", a), b.copy()), gb) < 1e-6


def test_dense_rejects_width_mismatch():
    with pytest.raises(ShapeError, match="width"):
        tensor.dense_forward_batch(np.zeros((2, 4)), np.zeros((3, 5)), np.zeros(3))


def test_relu_zero_input_has_zero_grad():
    x = np.array([[-1.0, 0.0, 2.0]])
    up = np.ones_like(x)
    np.testing.assert_array_equal(tensor.relu_forward(x), [[0.0, 0.0, 2.0]])
    np.testing.assert_array_equal(tensor.relu_backward(up, x), [[0.0, 0.0, 1.0]])


def test_outputs_are_float64_and_contiguous(rng):
    x = rng.normal(size=(1, 2, 6, 6)).astype(np.float32)
    out = tensor.conv2d_forward_batch(x, rng.normal(size=(2, 2, 3, 3)), np.zeros(2))
    assert out.dtype == np.float64 and out.flags.c_contiguous
    pooled, _ = tensor.maxpool_forward_batch(x, 2, 2)
    assert pooled.dtype == np.float64 and pooled.flags.c_contiguous


def test_determinism(rng):
    x = rng.normal(size=(2, 2, 8, 8))
    k = rng.normal(size=(3, 2, 3, 3))
    b = rng.normal(size=3)
    a = tensor.conv2d_forward_batch(x, k, b)
    bb = tensor.conv2d_forward_batch(x.copy(), k.copy(), b.copy())
    assert (a == bb).all()


def test_op_counters_track_calls():
    before = tensor.op_counts()
    tensor.conv2d_forward_batch(np.zeros((1, 1, 5, 5)), np.zeros((1, 1, 3, 3)), np.zeros(1))
    counts = op_counts_since(before)
    assert counts["conv2d.calls"] == 1 and counts["conv2d.elems"] == 9 * 9


def test_builtin_tensor_suite_is_green():
    for result in tensor_suite(seed=11):
        assert result.ok, f"{result.name}: {result.value} > {result.tol}"
