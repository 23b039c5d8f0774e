"""Datasets and batching.

Images live as float64 arrays of shape [N, 1, H, W] scaled to [0, 1]; labels
as int64 vectors. Two sources: the big-endian IDX pair format (optionally
gzip-compressed, detected by magic bytes) and a seeded synthetic set of noisy
class-positioned rectangles for desk-scale runs.
"""

from __future__ import annotations

import gzip
import struct
from dataclasses import dataclass

import numpy as np

from .errors import DataError

IDX_IMAGES_MAGIC = 0x00000803
IDX_LABELS_MAGIC = 0x00000801


@dataclass
class Dataset:
    images: np.ndarray   # [N, 1, H, W] float64 in [0, 1]
    labels: np.ndarray   # [N] int64
    num_classes: int

    def __post_init__(self):
        if self.images.ndim != 4 or self.images.shape[0] != self.labels.shape[0]:
            raise DataError(f"images {self.images.shape} and labels "
                            f"{self.labels.shape} do not pair up")

    def __len__(self) -> int:
        return int(self.images.shape[0])


def _read_maybe_gzip(path) -> bytes:
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:2] == b"\x1f\x8b":
        try:
            blob = gzip.decompress(blob)
        except OSError as exc:
            raise DataError(f"{path}: corrupt gzip stream: {exc}") from exc
    return blob


def _idx_header(blob: bytes, path, magic: int, ndim: int):
    head = 4 + 4 * ndim
    if len(blob) < head:
        raise DataError(f"{path}: truncated IDX header")
    got = struct.unpack(">I", blob[:4])[0]
    if got != magic:
        raise DataError(f"{path}: IDX magic 0x{got:08x}, expected 0x{magic:08x}")
    dims = struct.unpack(f">{ndim}I", blob[4:head])
    return dims, blob[head:]


def read_idx(images_path, labels_path) -> Dataset:
    """Parse an IDX image/label pair; pixels are scaled by 1/255."""
    blob = _read_maybe_gzip(images_path)
    (count, h, w), payload = _idx_header(blob, images_path, IDX_IMAGES_MAGIC, 3)
    if len(payload) != count * h * w:
        raise DataError(f"{images_path}: payload holds {len(payload)} bytes, "
                        f"header implies {count * h * w}")
    images = np.frombuffer(payload, dtype=np.uint8).reshape(count, 1, h, w)
    images = images.astype(np.float64) / 255.0

    blob = _read_maybe_gzip(labels_path)
    (lcount,), payload = _idx_header(blob, labels_path, IDX_LABELS_MAGIC, 1)
    if len(payload) != lcount:
        raise DataError(f"{labels_path}: payload holds {len(payload)} labels, "
                        f"header implies {lcount}")
    if lcount != count:
        raise DataError(f"image count {count} != label count {lcount}")
    labels = np.frombuffer(payload, dtype=np.uint8).astype(np.int64)
    num_classes = int(labels.max()) + 1 if count else 0
    return Dataset(images, labels, num_classes)


def synthetic_dataset(n: int, classes: int, image_size: int = 28, seed: int = 0,
                      noise_std: float = 0.1) -> Dataset:
    """Noisy bright rectangles at class-specific positions; linearly easy.

    Deterministic for a given seed. Class k's rectangle sits on a grid cell;
    geometry that pushes any rectangle outside the image is rejected.
    """
    if n < classes or classes < 2:
        raise DataError(f"need n >= classes >= 2, got n={n}, classes={classes}")
    rect = max(3, image_size // 4)
    avail = image_size - rect
    grid = int(np.ceil(np.sqrt(classes)))
    step = avail // max(grid - 1, 1)
    if avail < 0 or (grid > 1 and step < 1):
        raise DataError(f"image size {image_size} cannot place {classes} distinct "
                        f"{rect}x{rect} rectangles")
    corners = []
    for k in range(classes):
        r, c = (k // grid) * step, (k % grid) * step
        if r + rect > image_size or c + rect > image_size:
            raise DataError(f"class {k} rectangle falls outside the {image_size}"
                            f"x{image_size} image")
        corners.append((r, c))

    rng = np.random.default_rng(seed)
    labels = (np.arange(n) % classes).astype(np.int64)
    images = rng.normal(0.0, noise_std, (n, 1, image_size, image_size))
    for i, y in enumerate(labels):
        r, c = corners[y]
        images[i, 0, r:r + rect, c:c + rect] += 1.0
    np.clip(images, 0.0, 1.0, out=images)
    return Dataset(images, labels, classes)


def epoch_permutation(n: int, seed: int, epoch: int) -> np.ndarray:
    """The shuffle for one epoch; a function of (seed, epoch) only, so an
    interrupted run resumes on the same stream."""
    return np.random.default_rng([seed, epoch]).permutation(n)


def epoch_batches(dataset: Dataset, batch_size: int, seed: int, epoch: int):
    """Yield (images, labels) batches covering the epoch's permutation once;
    the last batch may be short."""
    if batch_size < 1:
        raise DataError(f"batch size must be >= 1, got {batch_size}")
    order = epoch_permutation(len(dataset), seed, epoch)
    for start in range(0, len(order), batch_size):
        pick = order[start:start + batch_size]
        yield dataset.images[pick], dataset.labels[pick]

