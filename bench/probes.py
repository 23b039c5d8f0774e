"""Op timers and layer spans, attached to tiltnet from outside.

Nothing under ``src/`` changes. Each probe replaces a module attribute that
callers look up at call time (``net.py`` calls ``tensor.conv2d_forward_batch``,
``train.py`` calls ``net_mod.forward_batch``, ``sgd_step`` and
``epoch_batches``, ``hmc.py`` calls ``leapfrog`` and ``hmc_iterate``) with a
wrapper, and ``Patches.restore`` puts the originals back.

Untraced runs install only the op timer of their workload: one timestamp per
train step, eval batch or HMC iteration at its outermost call. Traced runs
add a span around every function listed in ``SPANNED``; spans stay in memory
as ``[name, start, end, parent, extra]`` and are reduced to per-layer metrics
once the run ends.
"""

from __future__ import annotations

import functools
import os
import time
from dataclasses import dataclass

now = time.perf_counter

# tensor primitive -> (key prefix in tensor.op_counts(), layer kind it serves)
PRIMITIVES = {
    "conv2d_forward_batch": ("conv2d", "conv"),
    "conv2d_backward_batch": ("conv2d_bwd", "conv"),
    "maxpool_forward_batch": ("maxpool", "maxpool"),
    "maxpool_backward_batch": ("maxpool_bwd", "maxpool"),
    "dense_forward_batch": ("dense", "dense"),
    "dense_backward_batch": ("dense_bwd", "dense"),
    "relu_forward": ("relu", "relu"),
    "relu_backward": ("relu_bwd", "relu"),
}
LENET_LAYERS = ("conv1", "pool1", "conv2", "pool2", "dense1", "relu1", "dense2")
NET_PASSES = ("forward_batch", "backward_params", "backward_input")

# (module, function) pairs that get a span in traced runs
SPANNED = ([("tensor", fn) for fn in PRIMITIVES]
           + [("net", fn) for fn in NET_PASSES]
           + [("net", "save_checkpoint"), ("net", "write_tensor_file"),
              ("loss", "disc_loss_and_grad"), ("loss", "gen_loss_and_grad"),
              ("loss", "per_class_ess"), ("train", "sgd_step"),
              ("train", "evaluate"), ("data", "synthetic_dataset"),
              ("hmc", "hmc_iterate"), ("hmc", "leapfrog")])


class Patches:
    """Module attributes replaced by wrappers, restorable in reverse order."""

    def __init__(self):
        self._undo = []

    def wrap(self, module, attr: str, make_wrapper) -> None:
        orig = getattr(module, attr)
        setattr(module, attr, functools.wraps(orig)(make_wrapper(orig)))
        self._undo.append((module, attr, orig))

    def restore(self) -> None:
        while self._undo:
            module, attr, orig = self._undo.pop()
            setattr(module, attr, orig)


class Tracer:
    """In-memory spans of one process; single-threaded, strictly nested."""

    def __init__(self):
        self.spans: list = []
        self.stack: list = []
        self.t0 = now()
        self.ckpt_bytes = 0

    def open(self, name: str, extra=None, start: float = None) -> int:
        sid = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, now() if start is None else start, None, parent, extra])
        self.stack.append(sid)
        return sid

    def close(self, sid: int) -> None:
        """End span sid, and any span still open above it."""
        if self.spans[sid][2] is not None:
            return
        t = now()
        while self.stack:
            top = self.stack.pop()
            self.spans[top][2] = t
            if top == sid:
                break

    def add(self, name: str, start: float, end: float) -> None:
        """Record an already finished span under the innermost open one."""
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, start, end, parent, None])

    def unwind(self) -> None:
        """Close everything left open by an op that raised."""
        if self.stack:
            self.close(self.stack[0])


def _layer_extra(fn: str):
    """Span payload for a net pass: (layer (name, kind) list, batch size)."""
    def extra(args):
        net = args[0]
        n = len(args[1]) if fn == "forward_batch" else args[1].scores.shape[0]
        return tuple(zip(net.names, (s.kind for s in net.layers))), n
    return extra


def install_spans(patches: Patches, tracer: Tracer, modules: dict) -> None:
    """Wrap every SPANNED function of ``modules`` (short name -> module).

    A function the package no longer has is skipped, and its metrics read 0.
    """
    for mod_name, fn in SPANNED:
        if not hasattr(modules[mod_name], fn):
            continue
        extra = _layer_extra(fn) if fn in NET_PASSES else None

        def make(orig, name=f"{mod_name}.{fn}", extra=extra):
            def wrapper(*args, **kwargs):
                sid = tracer.open(name, extra(args) if extra else None)
                try:
                    return orig(*args, **kwargs)
                finally:
                    tracer.close(sid)
            return wrapper
        patches.wrap(modules[mod_name], fn, make)

    def count_bytes(orig):
        def wrapper(path, *args, **kwargs):
            orig(path, *args, **kwargs)
            tracer.ckpt_bytes += os.path.getsize(path)
        return wrapper
    # outside the span, so write_tensor_file.ms excludes the size lookup
    if hasattr(modules["net"], "write_tensor_file"):
        patches.wrap(modules["net"], "write_tensor_file", count_bytes)


class OpLog:
    """Per-op wall times and outcomes of one run."""

    def __init__(self):
        self.ms: list = []
        self.attempted = 0
        self.failed = 0
        self.errors: list = []

    def fail(self, exc: BaseException) -> None:
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(f"{type(exc).__name__}: {exc}")


def total_elems(tensor_mod) -> int:
    return sum(v for k, v in tensor_mod.op_counts().items() if k.endswith(".elems"))


@dataclass
class EpochRecord:
    """Images, request times and tensor elems of one epoch's batches."""
    epoch: int
    images: int = 0
    first: float = None   # time of the first batch request
    last: float = None    # time of the latest batch request
    elems: int = 0
    done: bool = False    # the generator ran to its end


def timed_epoch_batches(ops: OpLog, epochs: list, tensor_mod, tracer=None):
    """Wrapper factory for train.epoch_batches.

    A train step is the interval between successive batch requests, so it
    covers the batch wait, forward, losses, backward and the optimizer. The
    tensor work of each finished epoch is recorded for the GG/DG parity gate.
    """
    def make(orig):
        def epoch_batches(dataset, batch_size, seed, epoch):
            rec = EpochRecord(epoch)
            epochs.append(rec)
            elems0 = total_elems(tensor_mod)
            gen = orig(dataset, batch_size, seed, epoch)
            step = None
            try:
                while True:
                    t = now()
                    if rec.first is None:
                        rec.first = t
                    else:
                        ops.ms.append((t - rec.last) * 1e3)
                        if step is not None:
                            tracer.close(step)
                            step = None
                    rec.last = t
                    try:
                        xb, yb = next(gen)
                    except StopIteration:
                        break
                    if tracer is not None:
                        step = tracer.open("train.step", start=t)
                        tracer.add("data.batch_wait", t, now())
                    ops.attempted += 1
                    rec.images += len(yb)
                    yield xb, yb
                rec.elems = total_elems(tensor_mod) - elems0
                rec.done = True
            finally:
                if step is not None:
                    tracer.close(step)
        return epoch_batches
    return make


def stamp_calls(stamps: list, on_result):
    """Wrapper factory that timestamps each call's start (eval batches) and
    hands each result to ``on_result``."""
    def make(orig):
        def wrapper(*args, **kwargs):
            stamps.append(now())
            out = orig(*args, **kwargs)
            on_result(out)
            return out
        return wrapper
    return make


def timed_iterations(ops: OpLog, potentials: list, accepts: list):
    """Wrapper factory for hmc.hmc_iterate: one op per HMC iteration."""
    def make(orig):
        def hmc_iterate(*args, **kwargs):
            ops.attempted += 1
            t = now()
            try:
                state, accepted = orig(*args, **kwargs)
            except Exception as exc:
                ops.fail(exc)
                raise
            ops.ms.append((now() - t) * 1e3)
            potentials.append(state.potential)
            accepts.append(accepted)
            return state, accepted
        return hmc_iterate
    return make


# ---------------------------------------------------------------------------
# reduction of spans to per-layer metrics

def span_metrics(tracer: Tracer, nominal_batch: int, end: float) -> dict:
    """Busy time, self time and calls per span name, plus the per-LeNet-layer
    forward/backward mean at the workload's nominal batch size, over the
    traced window that closes at ``end``."""
    spans = tracer.spans
    children: dict = {}
    for sid, (_, _, _, parent, _) in enumerate(spans):
        if parent >= 0:
            children.setdefault(parent, []).append(sid)

    def dur(sid):
        s = spans[sid]
        return (end if s[2] is None else s[2]) - s[1]

    by_name: dict = {}
    for sid, span in enumerate(spans):
        d = dur(sid)
        kids = sum(dur(c) for c in children.get(sid, ()))
        calls, busy, self_t = by_name.get(span[0], (0, 0.0, 0.0))
        by_name[span[0]] = (calls + 1, busy + d, self_t + d - kids)

    layer_t: dict = {}
    for sid, (name, _, _, _, extra) in enumerate(spans):
        if extra is None or extra[1] != nominal_batch:
            continue
        layers, _ = extra
        backward = not name.endswith("forward_batch")
        prims = sorted((c for c in children.get(sid, ())
                        if spans[c][0].startswith("tensor.")), key=lambda c: spans[c][1])
        queue = list(reversed(layers) if backward else layers)
        for c in prims:
            kind = PRIMITIVES[spans[c][0][len("tensor."):]][1]
            while queue and queue[0][1] != kind:
                queue.pop(0)
            if not queue:
                break
            key = (queue.pop(0)[0], "bwd" if backward else "fwd")
            n, t = layer_t.get(key, (0, 0.0))
            layer_t[key] = (n + 1, t + dur(c))
    return {"by_name": by_name, "layers": layer_t, "wall": end - tracer.t0}


def per_layer(reduced: dict, elems_delta: dict, counters: dict) -> dict:
    """Flat ``<module>.<function>.<stat>`` metrics of one traced run."""
    by_name, layers = reduced["by_name"], reduced["layers"]
    out = {"trace.wall.ms": (reduced["wall"] * 1e3, "ms")}

    def get(name):
        return by_name.get(name, (0, 0.0, 0.0))

    for fn, (key, _) in PRIMITIVES.items():
        calls, busy, _ = get("tensor." + fn)
        elems_calls = elems_delta.get(key + ".calls", 0)
        out[f"tensor.{fn}.calls"] = (calls, "count")
        out[f"tensor.{fn}.ms"] = (busy * 1e3, "ms")
        out[f"tensor.{fn}.elems"] = (
            elems_delta.get(key + ".elems", 0) / elems_calls if elems_calls else 0.0,
            "count")
    for layer in LENET_LAYERS:
        for direction in ("fwd", "bwd"):
            n, t = layers.get((layer, direction), (0, 0.0))
            out[f"net.{layer}.{direction}_ms"] = (t * 1e3 / n if n else 0.0, "ms")
    for fn in NET_PASSES:
        _, busy, self_t = get("net." + fn)
        out[f"net.{fn}.ms"] = (busy * 1e3, "ms")
        out[f"net.{fn}.self_ms"] = (self_t * 1e3, "ms")
    for name in ("net.save_checkpoint", "net.write_tensor_file",
                 "loss.disc_loss_and_grad", "loss.gen_loss_and_grad",
                 "loss.per_class_ess", "train.sgd_step", "train.evaluate",
                 "data.synthetic_dataset", "hmc.hmc_iterate", "hmc.leapfrog"):
        out[name + ".ms"] = (get(name)[1] * 1e3, "ms")
    out["hmc.leapfrog.self_ms"] = (get("hmc.leapfrog")[2] * 1e3, "ms")
    out["train.step.self_ms"] = (get("train.step")[2] * 1e3, "ms")
    out["data.batch_wait_ms"] = (get("data.batch_wait")[1] * 1e3, "ms")
    saves = get("net.save_checkpoint")[0]
    out["net.ckpt_bytes"] = (counters["ckpt_bytes"] / saves if saves else 0.0, "bytes")
    out["hmc.grad_evals"] = (get("net.backward_input")[0], "count")
    out["hmc.accept_rate"] = (counters.get("accept_rate", 0.0), "ratio")
    out["train.gg_dg_elems_ratio"] = (counters.get("gg_dg_elems_ratio", 0.0), "ratio")
    return out
