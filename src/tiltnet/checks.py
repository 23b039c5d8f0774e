"""Self-contained correctness suites behind the gradcheck command.

Every suite pits the production code against an independent reference:
finite differences of the actual objective, or a literal per-example
triple-loop restatement of the losses that shares no code with the
vectorized versions. Tests reuse these so the CLI and the test suite cannot
drift apart.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import hmc as hmc_mod
from . import loss as loss_mod
from . import net as net_mod
from . import tensor
from . import train as train_mod


@dataclass(frozen=True)
class CheckResult:
    name: str
    value: float   # measured error (or ratio, for the band checks)
    tol: float     # bound it must stay under (band checks store the half-width)
    ok: bool
    note: str = ""


def fd_grad(func, x: np.ndarray, h: float = 1e-5) -> np.ndarray:
    """Central finite differences of a scalar function, entry by entry."""
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    flat = x.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        keep = flat[i]
        flat[i] = keep + h
        up = func(x)
        flat[i] = keep - h
        down = func(x)
        flat[i] = keep
        gflat[i] = (up - down) / (2.0 * h)
    return grad


def rel_err(approx: np.ndarray, exact: np.ndarray, floor: float = 1e-3) -> float:
    """Normwise relative error.

    The denominator is the larger of the two norms, floored so that an
    identically-zero exact gradient (the generative loss produces those:
    column sums vanish, so pure shift directions like the final bias get
    gradient zero) is compared against finite-difference noise on an
    absolute scale instead of dividing by zero.
    """
    approx = np.asarray(approx, dtype=np.float64)
    exact = np.asarray(exact, dtype=np.float64)
    denom = max(float(np.linalg.norm(exact)), float(np.linalg.norm(approx)), floor)
    return float(np.linalg.norm(approx - exact)) / denom


# ---------------------------------------------------------------------------
# literal restatements of the two losses (the oracles)

def disc_loss_loops(scores, labels) -> float:
    """Per-example log posterior, written out longhand."""
    f = np.asarray(scores, dtype=np.float64)
    total = 0.0
    for j in range(f.shape[0]):
        total += f[j, labels[j]] - _lse(f[j, :])
    return total


def gen_loss_loops(scores, labels) -> float:
    """Per-example log likelihood against the in-batch reference, longhand."""
    f = np.asarray(scores, dtype=np.float64)
    n = f.shape[0]
    total = 0.0
    for i in range(n):
        total += f[i, labels[i]] - (_lse(f[:, labels[i]]) - np.log(n))
    return total


def gen_grad_loops(scores, labels) -> np.ndarray:
    """The three-case per-example gradient, summed over examples.

    For example i with class y_i, the derivative with respect to F[j, y]:
    zero unless y == y_i; 1 - W[i] when j == i; -W[j] otherwise, where W is
    the batch softmax of column y_i.
    """
    f = np.asarray(scores, dtype=np.float64)
    n, c = f.shape
    grad = np.zeros((n, c))
    for i in range(n):
        y = labels[i]
        col = f[:, y]
        w = np.exp(col - col.max())
        w = w / w.sum()
        for j in range(n):
            if j == i:
                grad[j, y] += 1.0 - w[j]
            else:
                grad[j, y] += -w[j]
    return grad


def _lse(v: np.ndarray) -> float:
    m = float(v.max())
    return m + float(np.log(np.exp(v - m).sum()))


# ---------------------------------------------------------------------------
# suites

def loss_suite(seed: int = 0, instances: int = 40) -> list:
    """Losses against finite differences and the longhand restatements."""
    rng = np.random.default_rng(seed)
    results = []
    max_fd_d = max_fd_g = 0.0
    max_loop_l = max_loop_g = 0.0
    max_rowsum = max_colsum = 0.0
    for _ in range(instances):
        n = int(rng.integers(2, 17))
        c = int(rng.integers(2, 11))
        f = rng.normal(0.0, 3.0, (n, c))
        y = rng.integers(0, c, n)

        ld, gd = loss_mod.disc_loss_and_grad(f, y)
        lg, gg = loss_mod.gen_loss_and_grad(f, y)

        fd_d = fd_grad(lambda a: loss_mod.disc_loss_and_grad(a, y)[0], f.copy())
        fd_g = fd_grad(lambda a: loss_mod.gen_loss_and_grad(a, y)[0], f.copy())
        max_fd_d = max(max_fd_d, rel_err(fd_d, gd))
        max_fd_g = max(max_fd_g, rel_err(fd_g, gg))

        max_loop_l = max(max_loop_l, abs(lg - gen_loss_loops(f, y)),
                         abs(ld - disc_loss_loops(f, y)))
        max_loop_g = max(max_loop_g, float(np.abs(gg - gen_grad_loops(f, y)).max()))

        max_rowsum = max(max_rowsum, float(np.abs(gd.sum(axis=1)).max()))
        max_colsum = max(max_colsum, float(np.abs(gg.sum(axis=0)).max()))
    results.append(_res("disc-grad-vs-fd", max_fd_d, 1e-8))
    results.append(_res("gen-grad-vs-fd", max_fd_g, 1e-8))
    results.append(_res("loss-vs-longhand", max_loop_l, 1e-12))
    results.append(_res("gen-grad-vs-threecase", max_loop_g, 1e-12))
    results.append(_res("disc-grad-rowsums", max_rowsum, 1e-10))
    results.append(_res("gen-grad-colsums", max_colsum, 1e-10))
    results.append(_res("gen-grad-vs-closed-form", gen_grad_closed_form_error(seed), 0.05,
                        note="linear scorer, n=512, 156 batches"))
    return results


def gen_grad_closed_form_error(seed: int, n: int = 512, batches: int = 156) -> float:
    """Max error of a linear scorer's generative gradient per class-y example,
    (G^T X)[y] / n_y for F = X W^T on a mixture of N(mu_c, s^2 I) with weights
    pi_c, against mu_y - sum_c rho_c (mu_c + s^2 w_y), rho_c ∝ pi_c exp(w_y . mu_c)."""
    rng = np.random.default_rng(seed)
    pi, s = np.array([0.5, 0.3, 0.2]), 0.5
    mu, w = rng.normal(0.0, 1.0, (3, 4)), rng.normal(0.0, 0.5, (3, 4))
    total, done = np.zeros((3, 4)), 0
    while done < batches:
        y = rng.choice(3, n, p=pi)
        counts = np.bincount(y, minlength=3)
        if counts.min() > 0:   # a batch that misses a class is drawn again
            x = mu[y] + s * rng.normal(0.0, 1.0, (n, 4))
            total += (loss_mod.gen_loss_and_grad(x @ w.T, y)[1].T @ x) / counts[:, None]
            done += 1
    rho = pi * np.exp(w @ mu.T)   # rho[y, c], unnormalized
    exact = mu - (rho @ mu) / rho.sum(axis=1, keepdims=True) - s * s * w
    return float(np.abs(total / batches - exact).max())


def tensor_suite(seed: int = 0) -> list:
    """Primitive adjoints against finite differences of scalar probes."""
    rng = np.random.default_rng(seed)
    results = []

    x = rng.normal(0.0, 1.0, (2, 3, 7, 7))
    k = rng.normal(0.0, 1.0, (4, 3, 3, 3))
    b = rng.normal(0.0, 1.0, 4)
    probe = rng.normal(0.0, 1.0, (2, 4, 3, 3))  # stride 2, pad 0 output shape

    results += _adjoint_checks(("conv-input-grad", "conv-kernel-grad", "conv-bias-grad"),
                               lambda *a: tensor.conv2d_forward_batch(*a, 2, 0), (x, k, b),
                               tensor.conv2d_backward_batch(probe, x, k, 2, 0), probe)

    xp = rng.normal(0.0, 1.0, (2, 2, 6, 6))
    pooled, amap = tensor.maxpool_forward_batch(xp, 2, 2)
    pprobe = rng.normal(0.0, 1.0, pooled.shape)

    results += _adjoint_checks(("pool-routed-grad",),
                               lambda a: tensor.maxpool_forward_batch(a, 2, 2)[0], (xp,),
                               (tensor.maxpool_backward_batch(pprobe, amap),), pprobe,
                               note="continuous inputs, no ties")

    xd = rng.normal(0.0, 1.0, (3, 5))
    wd = rng.normal(0.0, 1.0, (4, 5))
    bd = rng.normal(0.0, 1.0, 4)
    dprobe = rng.normal(0.0, 1.0, (3, 4))

    results += _adjoint_checks(("dense-input-grad", "dense-weight-grad", "dense-bias-grad"),
                               tensor.dense_forward_batch, (xd, wd, bd),
                               tensor.dense_backward_batch(dprobe, xd, wd), dprobe)

    xr = rng.normal(0.0, 1.0, (4, 6))
    xr[np.abs(xr) < 1e-3] += 0.1  # keep clear of the kink
    rprobe = rng.normal(0.0, 1.0, xr.shape)
    results += _adjoint_checks(("relu-grad",), tensor.relu_forward, (xr,),
                               (tensor.relu_backward(rprobe, xr),), rprobe)

    # the two-way split changes no byte: LeNet's conv2 (forward, gradients),
    # conv1's gradients (blocks 18+18+18+10), pool1 and dense1's gradients at
    # n=64, and one optimizer step on LeNet (velocity = gradient), worker on/off
    xc, kc, upc, xq, x1, xd, upd = (rng.normal(0.0, 1.0, s) for s in (
        (64, 20, 12, 12), (50, 20, 5, 5), (64, 50, 8, 8), (64, 20, 24, 24), (64, 1, 28, 28),
        (64, 800), (64, 500)))
    lenet = net_mod.lenet_config(seed=seed)
    grads = {k: rng.normal(0.0, 1.0, s) for k, s in net_mod.Network(lenet, {}).param_shapes.items()}
    runs, forced = [], tensor._WORKER
    try:
        for on in (True, False):
            tensor._WORKER = on
            pooled, pmap = tensor.maxpool_forward_batch(xq, 2, 2)
            stepped, state = net_mod.build_network(lenet), {k: g.copy() for k, g in grads.items()}
            train_mod.sgd_step(stepped, grads, state, 0.01, 0.0005, 0.9)
            runs.append([pooled, pmap.indices, tensor.conv2d_forward_batch(xc, kc, kc[:, 0, 0, 0]),
                         *tensor.conv2d_backward_batch(upc, xc, kc),
                         *tensor.conv2d_backward_batch(xq, x1, kc[:20, :1]),
                         *tensor.dense_backward_batch(upd, xd, grads["dense1.weight"]),
                         *stepped.params.values(), *state.values()])
    finally:
        tensor._WORKER = forced
    results.append(_res("split-bytes-differ", sum(np.count_nonzero(
        a.view(np.uint8) != b.view(np.uint8)) for a, b in zip(*runs)), 0.0))
    return results


def network_suite(seed: int = 0) -> list:
    """End-to-end parameter and input gradients of a small stack under both
    losses, against finite differences."""
    rng = np.random.default_rng(seed)
    config = net_mod.NetworkConfig(
        input_shape=(1, 6, 6),
        layers=(
            net_mod.LayerSpec("conv", channels=2, kernel=3),
            net_mod.LayerSpec("maxpool", kernel=2, stride=2),
            net_mod.LayerSpec("flatten"),
            net_mod.LayerSpec("dense", width=3),
        ),
        seed=seed,
    )
    network = net_mod.build_network(config)
    # break symmetry beyond the tiny init so gradients are well-scaled
    for p in network.params.values():
        p += rng.normal(0.0, 0.1, p.shape)
    xb = rng.normal(0.5, 0.25, (4, 1, 6, 6))
    yb = rng.integers(0, 3, 4)

    results = []
    for tag, loss_fn in (("disc", loss_mod.disc_loss_and_grad),
                         ("gen", loss_mod.gen_loss_and_grad)):
        scores, cache = net_mod.forward_batch(network, xb)
        _, gmat = loss_fn(scores, yb)
        grads = net_mod.backward_params(network, cache, gmat)
        worst = 0.0
        for name in network.params:
            def obj(a, _name=name):
                keep = network.params[_name]
                network.params[_name] = a
                try:
                    s, _ = net_mod.forward_batch(network, xb)
                    return loss_fn(s, yb)[0]
                finally:
                    network.params[_name] = keep
            worst = max(worst, rel_err(fd_grad(obj, network.params[name].copy()),
                                       grads[name]))
        results.append(_res(f"net-{tag}-param-grads", worst, 1e-6))

    # the input gradient of sum(probe * scores), every image and node at once
    scores, cache = net_mod.forward_batch(network, xb)
    probe = rng.normal(0.0, 1.0, scores.shape)
    results += _adjoint_checks(("net-input-grad",), lambda a: net_mod.forward_batch(network, a)[0],
                               (xb,), (net_mod.backward_input(network, cache, probe),), probe)
    return results


def hmc_suite(seed: int = 0) -> list:
    """Integrator reversibility, the energy error's order, reused input gradients."""
    rng = np.random.default_rng(seed)
    # zero network: scores vanish, so U is exactly quadratic
    config = net_mod.NetworkConfig(
        input_shape=(1, 2, 2),
        layers=(net_mod.LayerSpec("flatten"), net_mod.LayerSpec("dense", width=2)), seed=0)
    quad = net_mod.build_network(config)
    for p in quad.params.values():
        p[...] = 0.0

    results = []
    hconf = hmc_mod.HmcConfig(sigma=1.0, mass=1.0, step_size=0.05,
                              leapfrog_steps=40, iterations=1)
    x0 = rng.normal(0.0, 1.0, (1, 2, 2))
    phi0 = rng.normal(0.0, 1.0, (1, 2, 2))
    u0, grad0, _ = hmc_mod._potential_and_grad(quad, 0, x0, hconf.sigma)
    state = hmc_mod.ChainState(x0.copy(), phi0.copy(), u0, 0, grad=grad0)
    fwd = hmc_mod.leapfrog(state, quad, 0, hconf)
    back = hmc_mod.leapfrog(hmc_mod.ChainState(fwd.x, -fwd.phi, fwd.potential, 0, grad=fwd.grad),
                            quad, 0, hconf)
    rev_err = max(float(np.abs(back.x - x0).max()), float(np.abs(back.phi + phi0).max()))
    results.append(_res("leapfrog-reversibility", rev_err, 1e-8))

    # |dH| should scale as eps^2 at fixed trajectory length: halving eps
    # while doubling L divides the error by ~4 (leapfrog copies `state`)
    h0 = state.potential + float(np.square(state.phi).sum()) / 2.0
    def dh(eps, steps):
        end = hmc_mod.leapfrog(state, quad, 0, replace(hconf, step_size=eps, leapfrog_steps=steps))
        return abs(end.potential + float(np.square(end.phi).sum()) / 2.0 - h0)

    ratio = dh(0.1, 30) / dh(0.05, 60)
    ok = 3.5 <= ratio <= 4.5
    results.append(CheckResult("leapfrog-energy-order", ratio, 0.5, ok,
                               note="|dH(eps)| / |dH(eps/2)|, band 3.5..4.5"))
    # the sampler's path, each pass reusing the last one's cache, against fresh passes
    routed = net_mod.build_network(net_mod.NetworkConfig((1, 6, 6), net_mod.parse_layers(
        "conv:3@3, pool:2/2, flatten, dense:8, relu, dense:2"), seed))
    (x, phi), cache, differ = rng.normal(0.0, 1.0, (2, 1, 6, 6)), None, 0
    for _ in range(20):
        _, grad, cache = hmc_mod._potential_and_grad(routed, 0, x, 1.0, cache)
        fresh = hmc_mod.potential_grad(routed, 0, x, 1.0)
        differ += np.count_nonzero(grad.view(np.uint8) != fresh.view(np.uint8))
        phi -= 0.1 * grad
        x += 0.1 * phi
    results.append(_res("reuse-bytes-differ", differ, 0.0, note="20 steps of a trajectory"))
    return results


def _res(name: str, value: float, tol: float, note: str = "") -> CheckResult:
    return CheckResult(name, float(value), tol, bool(value <= tol), note)


def _adjoint_checks(names, forward, args, grads, probe, note: str = "") -> list:
    """One check per argument slot i: the backward's grads[i] against finite
    differences of sum(forward(*args) * probe) in args[i], tolerance 1e-6."""
    def objective(i):
        return lambda a: float((forward(*args[:i], a, *args[i + 1:]) * probe).sum())
    return [_res(name, rel_err(fd_grad(objective(i), args[i].copy()), grad), 1e-6, note)
            for i, (name, grad) in enumerate(zip(names, grads))]


def all_suites(seed: int = 0) -> list:
    return tensor_suite(seed) + loss_suite(seed) + network_suite(seed) + hmc_suite(seed)
