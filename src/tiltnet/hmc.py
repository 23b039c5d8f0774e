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

import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import net as net_mod
from .errors import ConfigError, NumericsError, ShapeError


@dataclass(frozen=True)
class HmcConfig:
    sigma: float = 10.0        # std of the reference Gaussian
    mass: float = 1e-4
    step_size: float = 1e-4    # leapfrog eps
    leapfrog_steps: int = 100  # L
    iterations: int = 300      # T; 0 means record the initialization only
    init_std: float = 10.0     # 0 starts at the zero image
    metropolis: bool = True
    seed: int = 0
    snapshots: tuple = ()      # iteration indices to record; () = default set

    def __post_init__(self):
        _check_scales("sigma, mass, and step_size", self.sigma, self.mass, self.step_size)
        if self.leapfrog_steps < 1:
            raise ConfigError("leapfrog_steps must be >= 1")
        if self.iterations < 0:
            raise ConfigError("iterations must be >= 0")
        if not 0 <= self.init_std < math.inf:
            raise ConfigError("init_std must be finite and >= 0")
        outside = [i for i in self.snapshots if not 0 <= i <= self.iterations]
        if outside:
            raise ConfigError(f"snapshots outside [0, iterations = {self.iterations}]: {outside}")


def _check_scales(names: str, *values: float) -> None:
    """The rule HmcConfig and _energy share for scales (ConfigError)."""
    if not all(0 < v < math.inf for v in values):
        raise ConfigError(f"{names} must be positive and finite")


@dataclass
class ChainState:
    """Position, the momentum it was last paired with, the iteration counter,
    and the cached potential and (keyword-only) gradient dU/dx at x."""
    x: np.ndarray
    phi: np.ndarray
    potential: float
    iteration: int = 0
    grad: np.ndarray = field(kw_only=True)


@dataclass(frozen=True)
class SampleRecord:
    iteration: int
    image: np.ndarray
    potential: float
    kinetic: float
    accepted: object = None  # None for the initialization record

    @property
    def hamiltonian(self) -> float:
        return self.potential + self.kinetic


def _energy(scores, node: int, x: np.ndarray, sigma: float) -> float:
    """U for the first image of a forward pass, refusing a node outside it
    and a sigma HmcConfig refuses."""
    _check_scales("sigma", sigma)
    if not 0 <= node < scores.shape[1]:
        raise ShapeError(f"node {node} out of range for {scores.shape[1]} outputs")
    return float(-scores[0, node] + np.square(x).sum() / (2.0 * sigma * sigma))


def potential(net: net_mod.Network, node: int, x: np.ndarray, sigma: float) -> float:
    """U(x) = -score + |x|^2 / (2 sigma^2) for one image; a score-only
    forward pass that keeps no activation cache."""
    scores, _ = net_mod.forward_batch(net, np.asarray(x)[None], keep=False)
    return _energy(scores, node, x, sigma)


def potential_grad(net: net_mod.Network, node: int, x: np.ndarray, sigma: float) -> np.ndarray:
    """dU/dx; exact through the current image's pooling pattern."""
    return _potential_and_grad(net, node, x, sigma)[1]


def _potential_and_grad(net, node, x, sigma, reuse=None):
    # one forward serves U and dU/dx; its cache lends the next call its layers
    x = np.ascontiguousarray(x, dtype=np.float64)
    scores, cache = net_mod.forward_batch(net, x[None])
    u = _energy(scores, node, x, sigma)
    seed = np.zeros(scores.shape)
    seed[0, node] = 1.0
    gin = net_mod.backward_input(net, cache, seed, reuse)[0]
    return u, -gin + x / (sigma * sigma), cache


def leapfrog(state: ChainState, net: net_mod.Network, node: int,
             config: HmcConfig) -> ChainState:
    """Integrate L steps from (x, phi) in L evaluations, each lending the
    next its unchanged layers and the first half-step reusing the state's
    grad; time-reversible: the result, momentum negated, runs back to the start.

    Raises NumericsError naming the failing step when the trajectory blows
    up, which is the usual symptom of an oversized step size.
    """
    eps, m, steps = config.step_size, config.mass, config.leapfrog_steps
    x = state.x.astype(np.float64, copy=True)
    phi = state.phi.astype(np.float64, copy=True)
    u, grad, cache = state.potential, state.grad, None
    with np.errstate(over="ignore", invalid="ignore"):  # divergence is checked below
        phi -= 0.5 * eps * grad
        for step in range(steps):
            x += eps * phi / m
            u, grad, cache = _potential_and_grad(net, node, x, config.sigma, cache)
            phi -= (eps if step < steps - 1 else 0.5 * eps) * grad
            if not (np.all(np.isfinite(x)) and np.all(np.isfinite(phi)) and np.isfinite(u)):
                raise NumericsError(
                    f"leapfrog diverged at step {step + 1}/{steps} "
                    f"(iteration {state.iteration}); reduce step_size")
    return ChainState(x, phi, u, state.iteration, grad=grad)


def hmc_iterate(state: ChainState, net: net_mod.Network, node: int,
                config: HmcConfig, rng: np.random.Generator) -> tuple:
    """One momentum refresh + trajectory + accept decision.

    Returns (new ChainState, accepted). With metropolis off every proposal is
    taken. On rejection the state keeps its position, potential and grad and
    takes the fresh momentum, so the four stay consistent either way.
    """
    start = replace(state, phi=rng.normal(0.0, np.sqrt(config.mass), size=state.x.shape))
    k0 = float(np.square(start.phi).sum() / (2.0 * config.mass))
    proposal = leapfrog(start, net, node, config)
    k1 = float(np.square(proposal.phi).sum() / (2.0 * config.mass))
    delta_h = (proposal.potential + k1) - (state.potential + k0)
    accepted = not config.metropolis or bool(delta_h <= 0 or rng.uniform() < np.exp(-delta_h))
    return replace(proposal if accepted else start, iteration=state.iteration + 1), accepted


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


def sample_node(net: net_mod.Network, layer: str, channel: int,
                config: HmcConfig) -> list:
    """Synthesize an image from one node; returns SampleRecords at the
    snapshot iterations (always including 0 and the final iteration).

    The sampled image takes the truncation's input shape
    (``truncate_at(net, layer, channel).config.input_shape``): the network's
    own when the layer is flat, the node's receptive field when it is spatial.
    Raises MemoryError when that image cannot be allocated.
    """
    sub = net_mod.truncate_at(net, layer, channel)
    shape = sub.config.input_shape
    rng = np.random.default_rng(config.seed)
    try:  # numpy refuses an absurd shape (MemoryError, or ValueError "array is too big")
        x0 = rng.normal(0.0, config.init_std, size=shape) if config.init_std else np.zeros(shape)
    except (MemoryError, ValueError):
        raise MemoryError(f"cannot allocate a start image of shape {shape}") from None
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        u0, grad, _ = _potential_and_grad(sub, 0, x0, config.sigma)
        if not (np.isfinite(u0) and np.all(np.isfinite(grad))):
            if not np.isfinite(np.square(x0).sum() / (2.0 * config.sigma ** 2)):
                raise NumericsError(f"the start image (init_std = {config.init_std:g}) "
                                    f"made the energy non-finite")
            raise NumericsError("the network's score or gradient is not finite at the start "
                                "image; its parameters may be non-finite or overflowing")
    state = ChainState(x0, np.zeros(shape), u0, 0, grad=grad)
    marks = set(config.snapshots) if config.snapshots else set(default_snapshots(config.iterations))
    marks |= {0, config.iterations}
    records = [SampleRecord(0, x0.copy(), u0, 0.0)]
    for it in range(1, config.iterations + 1):
        state, accepted = hmc_iterate(state, sub, 0, config, rng)
        if it in marks:
            k = float(np.square(state.phi).sum() / (2.0 * config.mass))
            records.append(SampleRecord(it, state.x.copy(), state.potential, k, accepted))
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
