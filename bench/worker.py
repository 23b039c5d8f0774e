"""Run one benchmark workload in this process and print its result as JSON.

``run.py`` launches this file in a fresh interpreter, with ``src`` on the
path and BLAS pinned to one thread, once per setup probe and once per
measured run. Every input is generated here from ``--seed``; the program
under test only ever sees the generated arrays.

Each workload is a closed loop of units (a training run, an ``evaluate``
pass, an HMC chain) made of ops (a train step, an eval batch, an HMC
iteration); the next op starts when the previous one has finished. Units
repeat until ``--seconds`` have passed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from tiltnet import data, hmc, loss, net, tensor, train

import probes

MODULES = {"tensor": tensor, "net": net, "loss": loss, "train": train,
           "data": data, "hmc": hmc}
CLASSES = 10
IMAGE = (1, 28, 28)

# Workload sizes. TOY keeps the same code paths at a size the self-test can
# afford; the gates' bounds are part of the size because a toy run trains on
# too little data to learn.
FULL = {
    "train_ggdg": {"n": 1280, "batch": 64, "epochs_per_phase": 1, "max_train_err": 0.5},
    "eval_fwd": {"n": 2560, "batch": 256, "check_n": 256, "check_batch": 96},
    "sample_class": {"iterations": 5, "leapfrog_steps": 100},
}
TOY = {
    "train_ggdg": {"n": 160, "batch": 16, "epochs_per_phase": 1, "max_train_err": 1.0},
    "eval_fwd": {"n": 96, "batch": 32, "check_n": 40, "check_batch": 7},
    "sample_class": {"iterations": 3, "leapfrog_steps": 4},
}


def _seed_from(rng) -> int:
    return int(rng.integers(2 ** 31))


def _lenet(seed: int):
    return net.build_network(net.lenet_config(CLASSES, IMAGE, seed=seed))


def _quantile(values, q: float) -> float:
    return float(np.percentile(values, q)) if len(values) else float("nan")


class TrainGGDG:
    """LeNet trained GG then DG (switch half way), checkpointing every epoch."""

    def __init__(self, seed: int, size: dict, scratch: Path):
        self.size = size
        self.rng = np.random.default_rng(seed)
        self.dataset = data.synthetic_dataset(size["n"], CLASSES, IMAGE[1], seed=seed)
        self.net_seed = _seed_from(self.rng)
        self.network = _lenet(self.net_seed)
        self.out_dir = scratch
        self.nominal_batch = size["batch"]
        self.ops = probes.OpLog()
        self.epochs: list = []
        self.logs: list = []

    def install(self, patches, tracer):
        patches.wrap(train, "epoch_batches",
                     probes.timed_epoch_batches(self.ops, self.epochs, tensor, tracer))

    def unit(self, tracer) -> int:
        """One GG+DG training run of a fresh seeded LeNet; returns images."""
        half = self.size["epochs_per_phase"]
        config = train.TrainConfig(mode="GG+DG", batch_size=self.size["batch"],
                                   epochs=2 * half, pretrain_epochs=half,
                                   seed=self.net_seed)
        first = len(self.epochs)
        try:
            _, log = train.run_training(self.network, self.dataset, config,
                                        out_dir=self.out_dir)
            self.logs.append(log.records)
        except Exception as exc:  # a failed step is counted, not fatal
            self.ops.fail(exc)
            if tracer is not None:
                tracer.unwind()
        self.net_seed = _seed_from(self.rng)
        self.network = _lenet(self.net_seed)
        return sum(e.images for e in self.epochs[first:])

    def _phase(self, phase: str):
        half = self.size["epochs_per_phase"]
        done = [e for e in self.epochs if e.done and (e.epoch < half) == (phase == "GG")]
        images = sum(e.images for e in done)
        wall = sum(e.last - e.first for e in done)
        return images, wall, sum(e.elems for e in done)

    def gg_dg_elems_ratio(self) -> float:
        gi, _, ge = self._phase("GG")
        di, _, de = self._phase("DG")
        return (ge / gi) / (de / di) if gi and di and de else 0.0

    def named(self, items: int, wall: float) -> dict:
        gi, gw, _ = self._phase("GG")
        di, dw, _ = self._phase("DG")
        return {
            "train_img_s": (items / wall, "img/s"),
            "train_gg_img_s": (gi / gw if gw else 0.0, "img/s"),
            "train_dg_img_s": (di / dw if dw else 0.0, "img/s"),
            "train_step_ms_p50": (_quantile(self.ops.ms, 50), "ms"),
            "train_step_ms_p90": (_quantile(self.ops.ms, 90), "ms"),
        }

    def counters(self) -> dict:
        return {"gg_dg_elems_ratio": self.gg_dg_elems_ratio()}

    def gates(self) -> dict:
        records = [r for recs in self.logs for r in recs if "epoch" in r and "mode" in r]
        finals = [recs[-1]["train_err"] for recs in self.logs]
        mean_final = sum(finals) / len(finals) if finals else float("nan")
        ratio = self.gg_dg_elems_ratio()
        return {
            "completed_runs": (len(self.logs) > 0, f"{len(self.logs)} training runs"),
            "finite_ll": (all(math.isfinite(r["disc_ll"]) and math.isfinite(r["gen_ll"])
                              for r in records), f"{len(records)} epoch records"),
            "final_train_err": (bool(finals) and mean_final < self.size["max_train_err"],
                                f"mean {mean_final:.4f} < {self.size['max_train_err']}"),
            "gg_dg_elems_ratio": (ratio == 1.0, repr(ratio)),
        }


class EvalFwd:
    """``evaluate`` of a seeded LeNet over a synthetic set, repeated."""

    def __init__(self, seed: int, size: dict, scratch: Path):
        self.size = size
        self.rng = np.random.default_rng(seed)
        self.dataset = data.synthetic_dataset(size["n"], CLASSES, IMAGE[1], seed=seed)
        self.network = _lenet(_seed_from(self.rng))
        self.nominal_batch = size["batch"]
        self.ops = probes.OpLog()
        self.stamps: list = []
        self.first_pass: list = []  # scores of the first evaluate call
        self.errors: list = []

    def install(self, patches, tracer):
        def keep_scores(out):
            if not self.errors:
                self.first_pass.append(out[0])
        patches.wrap(net, "forward_batch", probes.stamp_calls(self.stamps, keep_scores))

    def unit(self, tracer) -> int:
        """One ``evaluate`` pass over the set; returns images."""
        self.stamps.clear()
        items = 0
        try:
            self.errors.append(train.evaluate(self.network, self.dataset,
                                              self.size["batch"]))
            items = len(self.dataset)
        except Exception as exc:
            self.ops.fail(exc)
            if tracer is not None:
                tracer.unwind()
            if not self.errors:
                self.first_pass.clear()
        marks = self.stamps + [probes.now()]
        self.ops.attempted += len(self.stamps)
        self.ops.ms.extend((b - a) * 1e3 for a, b in zip(marks, marks[1:]))
        return items

    def named(self, items: int, wall: float) -> dict:
        return {
            "eval_img_s": (items / wall, "img/s"),
            "eval_batch_ms_p50": (_quantile(self.ops.ms, 50), "ms"),
        }

    def counters(self) -> dict:
        return {}

    def gates(self) -> dict:
        """Predictions must not depend on the batch they were computed in.

        The oracle is a recomputation of a seeded subset, gathered out of
        order and at another batch size. Near-ties (top-two margin under
        1e-9) are skipped, since a reordered float64 sum may flip them.
        """
        if not self.errors or not self.first_pass:
            return {"completed_passes": (False, "no evaluate call finished")}
        scores = np.concatenate(self.first_pass)
        labels = self.dataset.labels
        pick = self.rng.choice(len(labels), self.size["check_n"], replace=False)
        step = self.size["check_batch"]
        again = np.concatenate([net.forward_batch(self.network,
                                                  self.dataset.images[pick[i:i + step]])[0]
                                for i in range(0, len(pick), step)])
        top2 = np.sort(scores[pick], axis=1)[:, -2:]
        clear = (top2[:, 1] - top2[:, 0]) > 1e-9
        agree = scores[pick].argmax(axis=1) == again.argmax(axis=1)
        first_err = float((scores.argmax(axis=1) != labels).mean())
        return {
            "completed_passes": (True, f"{len(self.errors)} passes"),
            "batch_invariant_argmax": (bool(agree[clear].all()),
                                       f"{int(agree[clear].sum())}/{int(clear.sum())} agree"),
            "error_rate_consistent": (len(set(self.errors)) == 1
                                      and self.errors[0] == first_err,
                                      f"{self.errors[0]!r} vs {first_err!r}"),
        }


class SampleClass:
    """HMC chains on a class score of a seeded LeNet (full 28x28 image, n=1)."""

    def __init__(self, seed: int, size: dict, scratch: Path):
        self.size = size
        self.rng = np.random.default_rng(seed)
        self.network = _lenet(_seed_from(self.rng))
        self.nominal_batch = 1
        self.ops = probes.OpLog()
        self.potentials: list = []
        self.accepts: list = []
        self.chains: list = []  # (channel, config, records) of finished chains

    def install(self, patches, tracer):
        patches.wrap(hmc, "hmc_iterate",
                     probes.timed_iterations(self.ops, self.potentials, self.accepts))

    def unit(self, tracer) -> int:
        """One chain on a seeded class; returns potential+gradient
        evaluations: iterations x (L+1), plus 1 for a finished chain."""
        channel = int(self.rng.integers(CLASSES))
        config = hmc.HmcConfig(iterations=self.size["iterations"],
                               leapfrog_steps=self.size["leapfrog_steps"],
                               seed=_seed_from(self.rng))
        failed, done = self.ops.failed, len(self.ops.ms)
        try:
            records = hmc.sample_node(self.network, "dense2", channel, config)
            self.chains.append((channel, config, records))
        except Exception as exc:
            if self.ops.failed == failed:  # raised outside an iteration
                self.ops.fail(exc)
            if tracer is not None:
                tracer.unwind()
        iterations = len(self.ops.ms) - done
        finished = iterations == self.size["iterations"]
        return iterations * (self.size["leapfrog_steps"] + 1) + finished

    def _accept_rate(self) -> float:
        return sum(self.accepts) / len(self.accepts) if self.accepts else 0.0

    def named(self, items: int, wall: float) -> dict:
        return {
            "hmc_grad_evals_s": (items / wall, "1/s"),
            "hmc_iter_ms_p50": (_quantile(self.ops.ms, 50), "ms"),
            "hmc_accept_rate": (self._accept_rate(), "ratio"),
        }

    def counters(self) -> dict:
        return {"accept_rate": self._accept_rate()}

    def gates(self) -> dict:
        """Energies stay finite; dU/dx matches a central difference.

        U is quadratic between ReLU kinks and pooling switches, so a central
        difference is exact up to rounding as long as no switch lies between
        x - h*d and x + h*d. The step starts at 1e-3 and shrinks until the
        ReLU signs and pooling winners at both ends equal those at x, so a
        kink near the checked image cannot fail a correct gradient. Every
        finished chain is checked, each along a direction seeded by its
        chain seed.
        """
        if not self.chains:
            return {"completed_chains": (False, "no chain finished")}
        energies = list(self.potentials)
        worst = (0.0, "")
        ok = True
        for channel, config, records in self.chains:
            energies += [v for r in records for v in (r.potential, r.kinetic, r.hamiltonian)]
            sub = net.truncate_at(self.network, "dense2", channel)
            agree, excess, detail = _fd_check(sub, records[-1].image, config,
                                              np.random.default_rng([config.seed, 1]))
            ok = ok and agree
            if excess >= worst[0]:
                worst = (excess, detail)
        return {
            "completed_chains": (True, f"{len(self.chains)} chains"),
            "finite_energies": (all(map(math.isfinite, energies)),
                                f"{len(energies)} energies"),
            "potential_grad_fd": (ok, f"{len(self.chains)} chains; worst {worst[1]}"),
        }


def _switch_pattern(sub, x) -> list:
    """ReLU input signs and pooling winners of one image."""
    _, cache = net.forward_batch(sub, x[None])
    pattern = [cache.layer_inputs[i] > 0 for i, spec in enumerate(sub.layers)
               if spec.kind == "relu"]
    return pattern + [a.indices for _, a in sorted(cache.argmax.items())]


def _fd_check(sub, x, config, rng) -> tuple:
    """Central difference of U along a random direction against dU/dx.

    Returns (agree, error over tolerance, detail). Directions and steps are
    tried until the segment holds no ReLU or pooling switch.
    """
    analytic_grad = hmc.potential_grad(sub, 0, x, config.sigma)
    here = _switch_pattern(sub, x)
    for _ in range(4):
        direction = rng.normal(size=x.shape)
        direction /= np.linalg.norm(direction)
        for h in (1e-3, 1e-4, 1e-5, 1e-6):
            ends = [_switch_pattern(sub, x + s * h * direction) for s in (1, -1)]
            if all(np.array_equal(a, b) for end in ends for a, b in zip(here, end)):
                break
        else:
            continue
        fd = (hmc.potential(sub, 0, x + h * direction, config.sigma)
              - hmc.potential(sub, 0, x - h * direction, config.sigma)) / (2 * h)
        analytic = float((analytic_grad * direction).sum())
        tol = 1e-6 * max(1.0, abs(analytic))
        return (abs(fd - analytic) <= tol, abs(fd - analytic) / tol,
                f"fd {fd:.12g} vs analytic {analytic:.12g} (step {h:g})")
    return False, math.inf, "no switch-free segment found"


WORKLOADS = {"train_ggdg": TrainGGDG, "eval_fwd": EvalFwd, "sample_class": SampleClass}


def run_workload(name: str, seed: int, seconds: float, trace: bool, sizes: dict,
                 scratch: Path, spawned_at: float = None) -> dict:
    """Set up, measure for ``seconds``, check outputs; returns the result.

    ``spawned_at`` is the monotonic time at which the parent launched this
    process, so set-up includes interpreter start and imports.
    """
    patches = probes.Patches()
    tracer = probes.Tracer() if trace else None
    t_setup = time.monotonic()
    units = []  # (items, wall s)
    try:
        if tracer is not None:
            probes.install_spans(patches, tracer, MODULES)
        work = WORKLOADS[name](seed, sizes[name], scratch)
        setup_s = time.monotonic() - (t_setup if spawned_at is None else spawned_at)
        work.install(patches, tracer)
        elems_before = tensor.op_counts()
        deadline = probes.now() + seconds
        while probes.now() < deadline or not units:
            t = probes.now()
            items = work.unit(tracer)
            units.append((items, probes.now() - t))
        t_end = probes.now()
        elems_after = tensor.op_counts()
    finally:
        patches.restore()
    items = sum(u[0] for u in units)
    wall = sum(u[1] for u in units)
    gates = {k: {"pass": bool(ok), "detail": detail}
             for k, (ok, detail) in work.gates().items()}
    correct = all(g["pass"] for g in gates.values())
    ops = work.ops
    failed = ops.failed if correct else ops.attempted
    out = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "items_per_s": _quantile([i / w for i, w in units if i], 90),
        "op_ms_p10": _quantile(ops.ms, 10),
        "op_ms_p50": _quantile(ops.ms, 50),
        "op_ms_p90": _quantile(ops.ms, 90),
        "op_samples": len(ops.ms),
        "units": len(units),
        "named": work.named(items, wall),
        "attempted": ops.attempted, "failed": failed,
        "ops_failed_frac": failed / ops.attempted if ops.attempted else 1.0,
        "errors": ops.errors, "gates": gates, "correct": correct,
        "env": {
            "numpy": np.__version__,
            "blas": _blas(),
            "blas_threads": {k: os.environ.get(k) for k in
                             ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
            "python": sys.version.split()[0],
        },
    }
    if tracer is not None:
        delta = {k: v - elems_before.get(k, 0) for k, v in elems_after.items()}
        counters = dict(work.counters(), ckpt_bytes=tracer.ckpt_bytes)
        reduced = probes.span_metrics(tracer, work.nominal_batch, t_end)
        out["per_layer"] = probes.per_layer(reduced, delta, counters)
    return out


def _blas() -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        return "unknown"


def setup_only(name: str, seed: int, sizes: dict, scratch: Path, spawned_at: float) -> dict:
    WORKLOADS[name](seed, sizes[name], scratch)
    return {"setup_s": time.monotonic() - spawned_at}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spawned-at", type=float, required=True)
    ap.add_argument("--scratch", required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)
    scratch = Path(tempfile.mkdtemp(dir=args.scratch))
    try:
        if args.setup_only:
            out = setup_only(args.workload, args.seed, FULL, scratch, args.spawned_at)
        else:
            out = run_workload(args.workload, args.seed, args.seconds, bool(args.trace),
                               FULL, scratch, args.spawned_at)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
