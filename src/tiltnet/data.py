"""Datasets and batching.

Images live as float64 arrays of shape [N, C, H, W] scaled to [0, 1]; labels
as int64 vectors. Two sources: the big-endian IDX pair format (optionally
gzip-compressed, detected by magic bytes) and a seeded synthetic set of noisy
class-positioned rectangles for desk-scale runs. DataSpec ([data]) picks one.
"""

from __future__ import annotations

import gzip
import math
import struct
import zlib
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError

IDX_IMAGES_MAGIC = 0x00000803
IDX_LABELS_MAGIC = 0x00000801


@dataclass
class Dataset:
    images: np.ndarray   # [N, C, H, W] float64 in [0, 1]
    labels: np.ndarray   # [N] integers >= 0, int64 from both sources

    def __post_init__(self):
        labels = self.labels   # what no loss can read is refused here, not at a step
        if not (isinstance(labels, np.ndarray) and labels.ndim == 1 and labels.dtype.kind in "iu"):
            got = getattr(labels, "dtype", type(labels).__name__)
            try:   # numpy gives a ragged sequence no shape
                got = f"{got} of shape {np.shape(labels)}"
            except ValueError:
                pass
            raise DataError(f"labels must be a 1-D integer array, got {got}")
        if labels.size and labels.min() < 0:
            raise DataError(f"labels must be >= 0, got {labels.min()}")
        if not (isinstance(self.images, np.ndarray) and self.images.ndim == 4):
            got = getattr(self.images, "shape", type(self.images).__name__)
            raise DataError(f"images must be a 4-D array [N, C, H, W], got {got}")
        if self.images.shape[0] != labels.shape[0]:
            raise DataError(f"images {self.images.shape} and labels {labels.shape} do not pair up")

    def __len__(self) -> int:
        return int(self.images.shape[0])

    @property
    def num_classes(self) -> int:
        """The classes the labels need: the largest label + 1, 0 for an empty set."""
        return int(self.labels.max()) + 1 if len(self.labels) else 0


def _read_maybe_gzip(path) -> bytes:
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:2] == b"\x1f\x8b":
        try:
            blob = gzip.decompress(blob)
        except (OSError, EOFError, zlib.error) as exc:
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
    return Dataset(images, np.frombuffer(payload, dtype=np.uint8).astype(np.int64))


def synthetic_dataset(n: int, classes: int, image_size: int = 28, seed: int = 0,
                      noise_std: float = 0.1) -> Dataset:
    """Noisy bright rectangles at class-specific positions; linearly easy.

    Deterministic for a given seed. Class k's rectangle sits on a grid cell;
    geometry that pushes any rectangle outside the image is rejected, and so
    is a set too large to allocate (DataError).
    """
    if n < classes or classes < 2:
        raise DataError(f"need n >= classes >= 2, got n={n}, classes={classes}")
    rect = max(3, image_size // 4)
    avail = image_size - rect
    grid = int(np.ceil(np.sqrt(classes)))
    step = avail // (grid - 1)   # classes >= 2, so grid >= 2; avail < 0 gives step < 0
    if step < 1:
        raise DataError(f"image size {image_size} cannot place {classes} distinct "
                        f"{rect}x{rect} rectangles")
    corners = [((k // grid) * step, (k % grid) * step) for k in range(classes)]

    rng = np.random.default_rng(seed)
    shape = (n, 1, image_size, image_size)
    try:  # past its size limit numpy raises ValueError, as for a negative noise_std
        if n * image_size ** 2 > np.iinfo(np.intp).max // 8:   # float64 bytes
            raise MemoryError
        labels = (np.arange(n) % classes).astype(np.int64)
        images = rng.normal(0.0, noise_std + 0.0, shape)   # numpy refuses -0.0's sign bit
    except MemoryError:
        raise DataError(f"cannot allocate a synthetic set of shape {shape}") from None
    for i, y in enumerate(labels):
        r, c = corners[y]
        images[i, 0, r:r + rect, c:c + rect] += 1.0
    np.clip(images, 0.0, 1.0, out=images)
    return Dataset(images, labels)


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


@dataclass(frozen=True)
class DataSpec:
    train_images: str = ""       # the IDX paths; given, they select IDX data
    train_labels: str = ""
    test_images: str = ""
    test_labels: str = ""
    n: int = 512                 # without IDX paths: the generator's arguments
    classes: int = 2
    image_size: int = 28
    noise_std: float = 0.1
    eval_n: int = 256

    def __post_init__(self):
        if bool(self.train_images) != bool(self.train_labels):
            raise ConfigError("give train_images and train_labels together")
        if bool(self.test_images) != bool(self.test_labels):
            raise ConfigError("give test_images and test_labels together")
        if self.test_images and not self.train_images:
            raise ConfigError("test_images and test_labels need train_images and train_labels")
        if self.eval_n < 0:
            raise ConfigError(f"eval_n must be >= 0, got {self.eval_n}")
        if not 0 <= self.noise_std < math.inf:
            raise ConfigError(f"noise_std must be finite and >= 0, got {self.noise_std}")

    def train_set(self, seed: int) -> Dataset:
        """The IDX train pair, or n synthetic images drawn from seed."""
        if self.train_images:
            return read_idx(self.train_images, self.train_labels)
        return synthetic_dataset(self.n, self.classes, self.image_size, seed=seed,
                                 noise_std=self.noise_std)

    def eval_set(self, seed: int) -> Dataset | None:
        """The IDX test pair, or eval_n synthetic images drawn from seed + 1, or None."""
        if self.test_images:
            return read_idx(self.test_images, self.test_labels)
        if self.train_images or self.eval_n < 1:
            return None
        return synthetic_dataset(self.eval_n, self.classes, self.image_size, seed=seed + 1,
                                 noise_std=self.noise_std)
