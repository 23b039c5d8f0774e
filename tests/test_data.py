"""IDX parsing against hand-built fixtures, the synthetic set's geometry,
and the batch partition property."""

import gzip
import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tiltnet import data
from tiltnet.errors import DataError


def idx_images_bytes(arr: np.ndarray) -> bytes:
    n, h, w = arr.shape
    return struct.pack(">IIII", 0x00000803, n, h, w) + arr.astype(np.uint8).tobytes()


def idx_labels_bytes(labels) -> bytes:
    labels = np.asarray(labels, dtype=np.uint8)
    return struct.pack(">II", 0x00000801, labels.size) + labels.tobytes()


@pytest.fixture
def idx_pair(tmp_path, rng):
    raw = rng.integers(0, 256, (5, 4, 3)).astype(np.uint8)
    labels = np.array([0, 1, 2, 1, 0], dtype=np.uint8)
    ip = tmp_path / "imgs-idx3-ubyte"
    lp = tmp_path / "labs-idx1-ubyte"
    ip.write_bytes(idx_images_bytes(raw))
    lp.write_bytes(idx_labels_bytes(labels))
    return ip, lp, raw, labels


def test_idx_roundtrip(idx_pair):
    ip, lp, raw, labels = idx_pair
    ds = data.read_idx(ip, lp)
    assert len(ds) == 5
    assert ds.images.shape == (5, 1, 4, 3)
    assert ds.images.dtype == np.float64
    np.testing.assert_allclose(ds.images[:, 0], raw / 255.0)
    np.testing.assert_array_equal(ds.labels, labels)
    assert ds.num_classes == 3


def test_idx_gzip_detected_by_magic(idx_pair, tmp_path):
    ip, lp, raw, labels = idx_pair
    gip = tmp_path / "imgs.gz"
    glp = tmp_path / "labs.gz"
    gip.write_bytes(gzip.compress(ip.read_bytes()))
    glp.write_bytes(gzip.compress(lp.read_bytes()))
    ds = data.read_idx(gip, glp)
    np.testing.assert_allclose(ds.images[:, 0], raw / 255.0)
    np.testing.assert_array_equal(ds.labels, labels)


def test_idx_rejects_bad_magic(idx_pair, tmp_path):
    ip, lp, _, _ = idx_pair
    bad = tmp_path / "bad"
    bad.write_bytes(b"\x00\x00\x0a\x03" + ip.read_bytes()[4:])
    with pytest.raises(DataError, match="magic"):
        data.read_idx(bad, lp)


def test_idx_rejects_truncated_payload(idx_pair, tmp_path):
    ip, lp, _, _ = idx_pair
    cut = tmp_path / "cut"
    cut.write_bytes(ip.read_bytes()[:-7])
    with pytest.raises(DataError, match="payload"):
        data.read_idx(cut, lp)


def test_idx_rejects_count_mismatch(idx_pair, tmp_path):
    ip, lp, _, _ = idx_pair
    fewer = tmp_path / "fewer"
    fewer.write_bytes(idx_labels_bytes([0, 1, 2]))
    with pytest.raises(DataError, match="count"):
        data.read_idx(ip, fewer)


def test_idx_pixel_scaling_exact(tmp_path):
    raw = np.arange(4, dtype=np.uint8).reshape(1, 2, 2) * 85  # 0, 85, 170, 255
    ip = tmp_path / "i"
    lp = tmp_path / "l"
    ip.write_bytes(idx_images_bytes(raw))
    lp.write_bytes(idx_labels_bytes([1]))
    ds = data.read_idx(ip, lp)
    np.testing.assert_array_equal(ds.images.ravel(), [0, 85 / 255, 170 / 255, 1.0])


def test_synthetic_is_deterministic():
    a = data.synthetic_dataset(64, 4, 16, seed=9)
    b = data.synthetic_dataset(64, 4, 16, seed=9)
    c = data.synthetic_dataset(64, 4, 16, seed=10)
    assert (a.images == b.images).all() and (a.labels == b.labels).all()
    assert (a.images != c.images).any()


def test_synthetic_geometry_and_balance():
    ds = data.synthetic_dataset(40, 4, 16, seed=1, noise_std=0.0)
    assert ds.images.shape == (40, 1, 16, 16)
    assert ds.images.min() >= 0.0 and ds.images.max() <= 1.0
    counts = np.bincount(ds.labels, minlength=4)
    assert counts.tolist() == [10, 10, 10, 10]
    # noise-free images of different classes put their rectangle elsewhere
    one_per = {int(y): ds.images[i, 0] for i, y in enumerate(ds.labels)}
    masks = {y: img > 0.5 for y, img in one_per.items()}
    for y1 in masks:
        for y2 in masks:
            if y1 < y2:
                assert (masks[y1] != masks[y2]).any()


def test_synthetic_rejects_impossible_geometry():
    with pytest.raises(DataError):
        data.synthetic_dataset(10, 9, 4, seed=0)   # 3x3 rects cannot spread on 4x4
    with pytest.raises(DataError, match="n >= classes"):
        data.synthetic_dataset(3, 4, 28, seed=0)


def test_dataset_pairing_validated():
    with pytest.raises(DataError, match="pair"):
        data.Dataset(np.zeros((3, 1, 4, 4)), np.zeros(2, dtype=np.int64), 2)


@settings(deadline=None, max_examples=40)
@given(n=st.integers(1, 50), batch=st.integers(1, 17), epoch=st.integers(0, 3))
def test_epoch_batches_partition_the_permutation(n, batch, epoch):
    ds = data.synthetic_dataset(max(n, 2), 2, 8, seed=0)
    order = data.epoch_permutation(len(ds), seed=5, epoch=epoch)
    batches = list(data.epoch_batches(ds, batch, seed=5, epoch=epoch))
    seen = np.concatenate([
        np.array([int(np.flatnonzero((ds.images == xb[i]).all(axis=(1, 2, 3)))[0])
                  for i in range(len(yb))])
        for xb, yb in batches]) if batches else np.array([])
    # every example exactly once, in permutation order
    np.testing.assert_array_equal(seen, order)
    sizes = [len(yb) for _, yb in batches]
    assert sum(sizes) == len(ds)
    assert all(s == batch for s in sizes[:-1])
    assert 1 <= sizes[-1] <= batch


def test_epoch_permutations_differ_by_epoch():
    a = data.epoch_permutation(100, seed=3, epoch=0)
    b = data.epoch_permutation(100, seed=3, epoch=1)
    assert (a != b).any()
    np.testing.assert_array_equal(a, data.epoch_permutation(100, seed=3, epoch=0))

