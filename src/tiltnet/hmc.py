"""Hamiltonian Monte Carlo synthesis of images from network nodes.

The target for node (layer, channel) with score f(x) is the tilted density
p(x) proportional to exp(f(x)) * N(x; 0, sigma^2 I), i.e. potential energy

    U(x) = -f(x) + |x|^2 / (2 sigma^2)

with quadratic kinetic energy K(phi) = |phi|^2 / (2 m). Each iteration
refreshes the momentum from N(0, m I), integrates L leapfrog steps of size
eps, and (by default) applies the Metropolis correction; switching the
correction off gives the uncorrected always-accept variant.

The score gradient with respect to the image routes max-pool cells through
the argmax maps recorded on the forward pass of the current image, so the
unpooling pattern tracks the sample as it moves.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import net as net_mod
from .errors import NumericsError, ShapeError


@dataclass(frozen=True)
class HmcConfig:
    sigma: float = 10.0        # std of the reference Gaussian
    mass: float = 1e-4
    step_size: float = 1e-4    # leapfrog eps
    leapfrog_steps: int = 100  # L
    iterations: int = 300      # T; 0 means record the initialization only
    init: str = "gaussian"     # or "zero"
    init_std: float = 10.0
    metropolis: bool = True
    seed: int = 0
    snapshots: tuple = ()      # iteration indices to record; () = default set

    def validate(self) -> None:
        if self.sigma <= 0 or self.mass <= 0 or self.step_size <= 0:
            raise ValueError("sigma, mass, and step_size must be positive")
        if self.leapfrog_steps < 1:
            raise ValueError("leapfrog_steps must be >= 1")
        if self.iterations < 0:
            raise ValueError("iterations must be >= 0")
        if self.init not in ("gaussian", "zero"):
            raise ValueError(f"unknown init {self.init!r}")
        if self.init == "gaussian" and self.init_std <= 0:
            raise ValueError("init_std must be positive")


@dataclass
class ChainState:
    """Position, the momentum it was last paired with, cached potential, and
    the iteration counter."""
    x: np.ndarray
    phi: np.ndarray
    potential: float
    iteration: int = 0


@dataclass(frozen=True)
class SampleRecord:
    iteration: int
    image: np.ndarray
    potential: float
    kinetic: float
    hamiltonian: float
    accepted: object = None  # None for the initialization record


def potential(net: net_mod.Network, node: int, x: np.ndarray, sigma: float) -> float:
    """U(x) = -score + |x|^2 / (2 sigma^2) for one image."""
    scores, _ = net_mod.forward_batch(net, np.asarray(x)[None])
    if not 0 <= node < scores.shape[1]:
        raise ShapeError(f"node {node} out of range for {scores.shape[1]} outputs")
    return float(-scores[0, node] + np.square(x).sum() / (2.0 * sigma * sigma))


def potential_grad(net: net_mod.Network, node: int, x: np.ndarray, sigma: float) -> np.ndarray:
    """dU/dx; exact through the current image's pooling pattern."""
    return _potential_and_grad(net, node, x, sigma)[1]


def _potential_and_grad(net, node, x, sigma):
    # one forward serves both the score and the input-gradient seed
    x = np.ascontiguousarray(x, dtype=np.float64)
    scores, cache = net_mod.forward_batch(net, x[None])
    if not 0 <= node < scores.shape[1]:
        raise ShapeError(f"node {node} out of range for {scores.shape[1]} outputs")
    score_grad = net_mod.backward_input(net, cache, node, 0)
    u = float(-scores[0, node] + np.square(x).sum() / (2.0 * sigma * sigma))
    grad = -score_grad + x / (sigma * sigma)
    return u, grad


def leapfrog(state: ChainState, net: net_mod.Network, node: int,
             config: HmcConfig) -> ChainState:
    """Integrate L steps from (x, phi); time-reversible: running the result
    with negated momentum retraces to the start.

    Raises NumericsError naming the failing step when the trajectory blows
    up, which is the usual symptom of an oversized step size.
    """
    eps, m, steps = config.step_size, config.mass, config.leapfrog_steps
    x = state.x.astype(np.float64, copy=True)
    phi = state.phi.astype(np.float64, copy=True)
    u, grad = _potential_and_grad(net, node, x, config.sigma)
    phi -= 0.5 * eps * grad
    for step in range(steps):
        x += eps * phi / m
        u, grad = _potential_and_grad(net, node, x, config.sigma)
        phi -= (eps if step < steps - 1 else 0.5 * eps) * grad
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(phi)) and np.isfinite(u)):
            raise NumericsError(
                f"leapfrog diverged at step {step + 1}/{steps} "
                f"(iteration {state.iteration}); reduce step_size")
    return ChainState(x, phi, u, state.iteration)


def hmc_iterate(state: ChainState, net: net_mod.Network, node: int,
                config: HmcConfig, rng: np.random.Generator) -> tuple:
    """One momentum refresh + trajectory + accept decision.

    Returns (new ChainState, accepted). With metropolis off every proposal is
    taken. On rejection the state keeps its position and the fresh momentum,
    so (x, phi, potential) stays a consistent triple either way.
    """
    phi = rng.normal(0.0, np.sqrt(config.mass), size=state.x.shape)
    u0 = state.potential
    k0 = float(np.square(phi).sum() / (2.0 * config.mass))
    proposal = leapfrog(replace(state, phi=phi), net, node, config)
    k1 = float(np.square(proposal.phi).sum() / (2.0 * config.mass))
    delta_h = (proposal.potential + k1) - (u0 + k0)
    if config.metropolis:
        accepted = bool(delta_h <= 0 or rng.uniform() < np.exp(-delta_h))
    else:
        accepted = True
    if accepted:
        new = ChainState(proposal.x, proposal.phi, proposal.potential,
                         state.iteration + 1)
    else:
        new = ChainState(state.x, phi, u0, state.iteration + 1)
    return new, accepted


def default_snapshots(iterations: int) -> tuple:
    """0, 10, 50, 100, 500, 1000, ... capped at and including the last
    iteration."""
    marks = {0, iterations}
    scale = 10
    while scale <= iterations:
        marks.add(scale)
        if 5 * scale <= iterations:
            marks.add(5 * scale)
        scale *= 10
    return tuple(sorted(marks))


def init_image(shape, config: HmcConfig, rng: np.random.Generator) -> np.ndarray:
    if config.init == "zero":
        return np.zeros(shape)
    return rng.normal(0.0, config.init_std, size=shape)


def sample_node(net: net_mod.Network, layer: str, channel: int,
                config: HmcConfig) -> list:
    """Synthesize an image from one node; returns SampleRecords at the
    snapshot iterations (always including 0 and the final iteration).

    The sampled image takes the network's configured input shape when the
    node's layer is flat (the final-layer case: sampling a class score),
    otherwise the prefix's required input size; a spatial prefix with no
    valid input size raises that ShapeError.
    """
    config.validate()
    sub = net_mod.truncate_at(net, layer, channel)
    if len(sub.shapes[-1]) == 1:
        shape = tuple(net.config.input_shape)
    else:
        shape = net_mod.required_input_shape(net, layer)
    rng = np.random.default_rng(config.seed)
    x0 = init_image(shape, config, rng)
    u0 = potential(sub, 0, x0, config.sigma)
    state = ChainState(x0, np.zeros(shape), u0, 0)
    marks = set(config.snapshots) if config.snapshots else set(default_snapshots(config.iterations))
    marks |= {0, config.iterations}
    records = [SampleRecord(0, x0.copy(), u0, 0.0, u0, None)]
    for it in range(1, config.iterations + 1):
        state, accepted = hmc_iterate(state, sub, 0, config, rng)
        if it in marks:
            k = float(np.square(state.phi).sum() / (2.0 * config.mass))
            records.append(SampleRecord(it, state.x.copy(), state.potential, k,
                                        state.potential + k, accepted))
    return records


# ---------------------------------------------------------------------------
# image rendering (binary PGM / PPM)

def render_image(x, path) -> None:
    """Write a 1-channel tensor as binary PGM or 3-channel as binary PPM.

    Values map affinely so min -> 0 and max -> 255 (rounded); a constant
    image renders mid-gray 128.
    """
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim != 3 or arr.shape[0] not in (1, 3):
        raise ShapeError(f"renderable images are [1,H,W] or [3,H,W], got {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise NumericsError("non-finite pixel values")
    lo, hi = float(arr.min()), float(arr.max())
    if hi > lo:
        pixels = np.rint((arr - lo) * (255.0 / (hi - lo)))
    else:
        pixels = np.full_like(arr, 128.0)
    pixels = np.clip(pixels, 0, 255).astype(np.uint8)
    c, h, w = arr.shape
    magic = b"P5" if c == 1 else b"P6"
    body = pixels[0].tobytes() if c == 1 else pixels.transpose(1, 2, 0).tobytes()
    with open(path, "wb") as fh:
        fh.write(magic + b"\n%d %d\n255\n" % (w, h))
        fh.write(body)


def read_image(path) -> np.ndarray:
    """Parse binary PGM/PPM back to a float64 [C, H, W] array of 0..255."""
    with open(path, "rb") as fh:
        blob = fh.read()
    tokens = []
    pos = 0
    while len(tokens) < 4:
        while pos < len(blob) and blob[pos:pos + 1].isspace():
            pos += 1
        if blob[pos:pos + 1] == b"#":
            while pos < len(blob) and blob[pos] != 0x0A:
                pos += 1
            continue
        start = pos
        while pos < len(blob) and not blob[pos:pos + 1].isspace():
            pos += 1
        tokens.append(blob[start:pos])
    pos += 1  # single whitespace after maxval
    magic, w, h, maxval = tokens[0], int(tokens[1]), int(tokens[2]), int(tokens[3])
    if magic not in (b"P5", b"P6") or maxval != 255:
        raise ShapeError(f"unsupported image header {magic!r} maxval={maxval}")
    channels = 1 if magic == b"P5" else 3
    payload = np.frombuffer(blob[pos:pos + w * h * channels], dtype=np.uint8)
    if payload.size != w * h * channels:
        raise ShapeError("image payload truncated")
    if channels == 1:
        out = payload.reshape(1, h, w)
    else:
        out = payload.reshape(h, w, 3).transpose(2, 0, 1)
    return out.astype(np.float64)
