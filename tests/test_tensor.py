"""Primitives against finite differences and hand-computed cases."""

import numpy as np
import pytest

from tiltnet import tensor
from tiltnet.checks import fd_grad, rel_err, tensor_suite
from tiltnet.errors import ShapeError


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


def test_conv_rejects_channel_mismatch():
    with pytest.raises(ShapeError, match="channels"):
        tensor.conv2d_forward_batch(np.zeros((1, 2, 5, 5)),
                                    np.zeros((1, 3, 3, 3)), np.zeros(1))


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
    tensor.reset_op_counts()
    tensor.conv2d_forward_batch(np.zeros((1, 1, 5, 5)), np.zeros((1, 1, 3, 3)), np.zeros(1))
    counts = tensor.op_counts()
    assert counts["conv2d.calls"] == 1 and counts["conv2d.elems"] == 9 * 9


def test_builtin_tensor_suite_is_green():
    for result in tensor_suite(seed=11):
        assert result.ok, f"{result.name}: {result.value} > {result.tol}"
