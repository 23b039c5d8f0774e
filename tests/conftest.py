import os
import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

from tiltnet import loss, tensor
from tiltnet.data import epoch_batches
from tiltnet.errors import ConfigError
from tiltnet.net import LayerSpec, NetworkConfig, build_network, forward_batch, parse_layers

_MNIST_FILES = {
    "train_images": "train-images-idx3-ubyte",
    "train_labels": "train-labels-idx1-ubyte",
    "test_images": "t10k-images-idx3-ubyte",
    "test_labels": "t10k-labels-idx1-ubyte",
}


def find_mnist():
    """Locate the four IDX files (raw or .gz); None when unavailable."""
    roots = []
    if os.environ.get("TILTNET_MNIST_DIR"):
        roots.append(Path(os.environ["TILTNET_MNIST_DIR"]))
    roots.append(Path(__file__).resolve().parent.parent / "data" / "mnist")
    for root in roots:
        if not root.is_dir():
            continue
        found = {}
        for key, stem in _MNIST_FILES.items():
            for cand in (root / stem, root / (stem + ".gz")):
                if cand.is_file():
                    found[key] = cand
                    break
        if len(found) == len(_MNIST_FILES):
            return found
    return None


# Every property test draws the same examples on every run, so a failure
# reproduces from the test alone, without a saved example database.
settings.register_profile("tier1", derandomize=True, deadline=None)
settings.load_profile("tier1")


def pytest_configure(config):
    """With --hypothesis-seed N, draw examples from seed N instead: the tier-1
    profile's derandomize would otherwise override the seed."""
    if config.getoption("--hypothesis-seed", None) is not None:
        settings.register_profile("seeded", derandomize=False, database=None, deadline=None)
        settings.load_profile("seeded")


MNIST = find_mnist()
needs_mnist = pytest.mark.skipif(
    MNIST is None,
    reason="MNIST IDX files not found under $TILTNET_MNIST_DIR or ./data/mnist "
           "(this sandbox has no way to download them); place the four "
           "ubyte[.gz] files there to run this criterion")
long_runs_enabled = os.environ.get("TILTNET_RUN_LONG") == "1"
needs_long = pytest.mark.skipif(
    not long_runs_enabled,
    reason="multi-hour reproduction; set TILTNET_RUN_LONG=1 to run")


@pytest.fixture
def rng():
    return np.random.default_rng(0)


def tiny_config(seed=0, classes=3):
    return NetworkConfig(
        input_shape=(1, 6, 6),
        layers=(
            LayerSpec("conv", channels=2, kernel=3),
            LayerSpec("maxpool", kernel=2, stride=2),
            LayerSpec("flatten"),
            LayerSpec("dense", width=classes),
        ),
        seed=seed,
    )


@pytest.fixture
def tiny_net():
    """A small conv-pool-dense stack with symmetry-broken parameters."""
    net = build_network(tiny_config())
    gen = np.random.default_rng(42)
    for p in net.params.values():
        p += gen.normal(0.0, 0.1, p.shape)
    net.bump_version()
    return net


def routed_net(seed=4):
    """LeNet's layer kinds in LeNet's order at 14x14, with parameters large
    enough that ReLU signs and pool winners move along a sampler chain."""
    config = NetworkConfig((1, 14, 14), parse_layers(
        "conv:4@3, pool:2/2, conv:6@3, pool:2/2, flatten, dense:16, relu, dense:3"), seed)
    net = build_network(config)
    gen = np.random.default_rng(seed)
    for p in net.params.values():
        p += gen.normal(0.0, 0.3, p.shape)
    net.bump_version()
    return net


def op_counts_since(before):
    """tensor.op_counts() minus an earlier snapshot of it."""
    return {k: v - before.get(k, 0) for k, v in tensor.op_counts().items()}


def dataset_log_likelihoods(net, dataset, batch_size, seed=0, epoch=0):
    """(disc_ll, gen_ll) summed over the epoch's batch partition, without
    touching the parameters; the partition is the one the trainer uses."""
    total_d = total_g = 0.0
    for xb, yb in epoch_batches(dataset, batch_size, seed, epoch):
        scores, _ = forward_batch(net, xb)
        total_d += loss.disc_loss_and_grad(scores, yb)[0]
        if len(yb) >= 2:
            total_g += loss.gen_loss_and_grad(scores, yb)[0]
    return total_d, total_g


def read_image(path):
    """A binary PGM/PPM as render_image writes it, as a float64 [C, H, W]
    array of 0..255."""
    magic, size, maxval, body = Path(path).read_bytes().split(b"\n", 3)
    assert magic in (b"P5", b"P6") and maxval == b"255", (magic, maxval)
    w, h = (int(t) for t in size.split())
    channels = 1 if magic == b"P5" else 3
    pixels = np.frombuffer(body, dtype=np.uint8).reshape(h, w, channels)
    return pixels.transpose(2, 0, 1).astype(np.float64)


def assert_refused_when_made(cls, rows):
    """Each (fields, message) row: cls(**fields) and replace(cls(), **fields)
    both raise ConfigError whose text is exactly message."""
    for values, message in rows:
        for make in (lambda: cls(**values), lambda: replace(cls(), **values)):
            with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
                make()
