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
from dataclasses import dataclass, replace

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
    init: str = "gaussian"     # or "zero"
    init_std: float = 10.0
    metropolis: bool = True
    seed: int = 0
    snapshots: tuple = ()      # iteration indices to record; () = default set

    def validate(self) -> None:
        if not all(0 < v < math.inf for v in (self.sigma, self.mass, self.step_size)):
            raise ConfigError("sigma, mass, and step_size must be positive and finite")
        if self.leapfrog_steps < 1:
            raise ConfigError("leapfrog_steps must be >= 1")
        if self.iterations < 0:
            raise ConfigError("iterations must be >= 0")
        if self.init not in ("gaussian", "zero"):
            raise ConfigError(f"unknown init {self.init!r}")
        # a zero start ignores init_std, so 0 is accepted there
        if not (0 < self.init_std < math.inf or (self.init == "zero" and self.init_std == 0)):
            raise ConfigError("init_std must be positive and finite")
        outside = [i for i in self.snapshots if not 0 <= i <= self.iterations]
        if outside:
            raise ConfigError(f"snapshots outside [0, iterations = {self.iterations}]: {outside}")


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


def _energy(scores, node: int, x: np.ndarray, sigma: float) -> float:
    """U for the first image of a forward pass, refusing a node outside it."""
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


def _potential_and_grad(net, node, x, sigma):
    # one forward serves both the score and the input-gradient seed
    x = np.ascontiguousarray(x, dtype=np.float64)
    scores, cache = net_mod.forward_batch(net, x[None])
    u = _energy(scores, node, x, sigma)
    seed = np.zeros(scores.shape)
    seed[0, node] = 1.0
    gin = net_mod.backward_input(net, cache, seed)[0]
    return u, -gin + x / (sigma * sigma)


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

    The sampled image takes the truncation's input shape
    (``truncate_at(net, layer, channel).config.input_shape``): the network's
    own when the layer is flat, the node's receptive field when it is spatial.
    """
    config.validate()
    sub = net_mod.truncate_at(net, layer, channel)
    shape = sub.config.input_shape
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
