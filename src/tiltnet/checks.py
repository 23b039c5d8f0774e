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
    return results


def tensor_suite(seed: int = 0) -> list:
    """Primitive adjoints against finite differences of scalar probes."""
    rng = np.random.default_rng(seed)
    results = []

    x = rng.normal(0.0, 1.0, (2, 3, 7, 7))
    k = rng.normal(0.0, 1.0, (4, 3, 3, 3))
    b = rng.normal(0.0, 1.0, 4)
    probe = rng.normal(0.0, 1.0, (2, 4, 3, 3))  # stride 2, pad 0 output shape

    def conv_obj(which):
        def f(a):
            args = {"x": x, "k": k, "b": b}
            args[which] = a
            out = tensor.conv2d_forward_batch(args["x"], args["k"], args["b"], 2, 0)
            return float((out * probe).sum())
        return f

    gx, gk, gb = tensor.conv2d_backward_batch(probe, x, k, 2, 0)
    results.append(_res("conv-input-grad", rel_err(fd_grad(conv_obj("x"), x.copy()), gx), 1e-6))
    results.append(_res("conv-kernel-grad", rel_err(fd_grad(conv_obj("k"), k.copy()), gk), 1e-6))
    results.append(_res("conv-bias-grad", rel_err(fd_grad(conv_obj("b"), b.copy()), gb), 1e-6))

    xp = rng.normal(0.0, 1.0, (2, 2, 6, 6))
    pooled, amap = tensor.maxpool_forward_batch(xp, 2, 2)
    pprobe = rng.normal(0.0, 1.0, pooled.shape)

    def pool_obj(a):
        out, _ = tensor.maxpool_forward_batch(a, 2, 2)
        return float((out * pprobe).sum())

    gpool = tensor.maxpool_backward_batch(pprobe, amap)
    results.append(_res("pool-routed-grad",
                        rel_err(fd_grad(pool_obj, xp.copy()), gpool), 1e-6,
                        note="continuous inputs, no ties"))

    xd = rng.normal(0.0, 1.0, (3, 5))
    wd = rng.normal(0.0, 1.0, (4, 5))
    bd = rng.normal(0.0, 1.0, 4)
    dprobe = rng.normal(0.0, 1.0, (3, 4))

    def dense_obj(which):
        def f(a):
            args = {"x": xd, "w": wd, "b": bd}
            args[which] = a
            return float((tensor.dense_forward_batch(args["x"], args["w"], args["b"]) * dprobe).sum())
        return f

    gxd, gwd, gbd = tensor.dense_backward_batch(dprobe, xd, wd)
    results.append(_res("dense-input-grad", rel_err(fd_grad(dense_obj("x"), xd.copy()), gxd), 1e-6))
    results.append(_res("dense-weight-grad", rel_err(fd_grad(dense_obj("w"), wd.copy()), gwd), 1e-6))
    results.append(_res("dense-bias-grad", rel_err(fd_grad(dense_obj("b"), bd.copy()), gbd), 1e-6))

    xr = rng.normal(0.0, 1.0, (4, 6))
    xr[np.abs(xr) < 1e-3] += 0.1  # keep clear of the kink
    rprobe = rng.normal(0.0, 1.0, xr.shape)
    gr = tensor.relu_backward(rprobe, xr)
    gr_fd = fd_grad(lambda a: float((tensor.relu_forward(a) * rprobe).sum()), xr.copy())
    results.append(_res("relu-grad", rel_err(gr_fd, gr), 1e-6))

    # the two-way split changes no byte: LeNet's conv2 (forward, both
    # gradients) and pool1 at batch 64, with the worker forced on, then off
    xc, kc, upc, xq = (rng.normal(0.0, 1.0, s) for s in (
        (64, 20, 12, 12), (50, 20, 5, 5), (64, 50, 8, 8), (64, 20, 24, 24)))
    runs, forced = [], tensor._WORKER
    try:
        for on in (True, False):
            tensor._WORKER = on
            pooled, pmap = tensor.maxpool_forward_batch(xq, 2, 2)
            runs.append([pooled, pmap.indices, tensor.conv2d_forward_batch(xc, kc, kc[:, 0, 0, 0]),
                         *tensor.conv2d_backward_batch(upc, xc, kc)])
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
        num_classes=3,
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
    gin = net_mod.backward_input(network, cache, probe)
    def obj_x(a):
        return float((net_mod.forward_batch(network, a)[0] * probe).sum())
    results.append(_res("net-input-grad", rel_err(fd_grad(obj_x, xb.copy()), gin), 1e-6))
    return results


def hmc_suite(seed: int = 0) -> list:
    """Integrator reversibility and the step-size order of the energy error."""
    rng = np.random.default_rng(seed)
    # zero network: scores vanish, so U is exactly quadratic
    config = net_mod.NetworkConfig(
        input_shape=(1, 2, 2),
        layers=(net_mod.LayerSpec("flatten"), net_mod.LayerSpec("dense", width=2)),
        num_classes=2, seed=0)
    quad = net_mod.build_network(config)
    for p in quad.params.values():
        p[...] = 0.0

    results = []
    hconf = hmc_mod.HmcConfig(sigma=1.0, mass=1.0, step_size=0.05,
                              leapfrog_steps=40, iterations=1)
    x0 = rng.normal(0.0, 1.0, (1, 2, 2))
    phi0 = rng.normal(0.0, 1.0, (1, 2, 2))
    state = hmc_mod.ChainState(x0.copy(), phi0.copy(),
                               hmc_mod.potential(quad, 0, x0, hconf.sigma), 0)
    fwd = hmc_mod.leapfrog(state, quad, 0, hconf)
    back = hmc_mod.leapfrog(hmc_mod.ChainState(fwd.x, -fwd.phi, fwd.potential, 0),
                            quad, 0, hconf)
    rev_err = max(float(np.abs(back.x - x0).max()), float(np.abs(back.phi + phi0).max()))
    results.append(_res("leapfrog-reversibility", rev_err, 1e-8))

    # |dH| should scale as eps^2 at fixed trajectory length: halving eps
    # while doubling L divides the error by ~4
    def dh(eps, steps):
        cfg = replace(hconf, step_size=eps, leapfrog_steps=steps)
        st = hmc_mod.ChainState(x0.copy(), phi0.copy(),
                                hmc_mod.potential(quad, 0, x0, cfg.sigma), 0)
        end = hmc_mod.leapfrog(st, quad, 0, cfg)
        h0 = st.potential + float(np.square(st.phi).sum()) / 2.0
        h1 = end.potential + float(np.square(end.phi).sum()) / 2.0
        return abs(h1 - h0)

    ratio = dh(0.1, 30) / dh(0.05, 60)
    ok = 3.5 <= ratio <= 4.5
    results.append(CheckResult("leapfrog-energy-order", ratio, 0.5, ok,
                               note="|dH(eps)| / |dH(eps/2)|, band 3.5..4.5"))
    return results


def _res(name: str, value: float, tol: float, note: str = "") -> CheckResult:
    return CheckResult(name, float(value), tol, bool(value <= tol), note)


def all_suites(seed: int = 0) -> list:
    results = []
    results += tensor_suite(seed)
    results += loss_suite(seed)
    results += network_suite(seed)
    results += hmc_suite(seed)
    return results
