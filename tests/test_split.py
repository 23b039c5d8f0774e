"""The two-way split inside the conv and pool primitives, the dense backward
and the optimizer step: the same bytes with the worker thread on or off, and
invisible to every caller."""

import hashlib
import multiprocessing
import os
import subprocess
import sys
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tiltnet import cli, data, hmc, loss, net, tensor, train

SRC = str(Path(__file__).resolve().parent.parent / "src")
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
# (input [C, H, W], kernels) of LeNet's convs; inputs [C, H, W] of its pools
LENET_CONVS = [((1, 28, 28), (20, 1, 5, 5)), ((20, 12, 12), (50, 20, 5, 5))]
LENET_POOLS = [(20, 24, 24), (50, 8, 8)]
LENET_DENSES = [(800, 500), (500, 10)]  # (input width, output width)


def _primitive_calls(rng, n, conv_geometries, pool_shapes, stride=1, pad=0, pool=(2, 2),
                     dense_shapes=LENET_DENSES):
    """Closures, each returning the arrays of one primitive call."""
    calls = []
    for shape, kshape in conv_geometries:
        x = rng.normal(size=(n,) + shape)
        k = rng.normal(size=kshape)
        b = rng.normal(size=kshape[0])
        out = tensor.conv2d_forward_batch(x, k, b, stride, pad)
        up = rng.normal(size=out.shape)
        calls.append(lambda x=x, k=k, b=b: [tensor.conv2d_forward_batch(x, k, b, stride, pad)])
        for need_input in (True, False):
            for need_params in (True, False):
                calls.append(lambda x=x, k=k, up=up, i=need_input, p=need_params: [
                    a for a in tensor.conv2d_backward_batch(up, x, k, stride, pad, i, p)
                    if a is not None])
    for shape in pool_shapes:
        x = rng.normal(size=(n,) + shape)
        for need_map in (True, False):
            calls.append(lambda x=x, m=need_map: [
                a.indices if isinstance(a, tensor.ArgmaxMap) else a
                for a in tensor.maxpool_forward_batch(x, *pool, need_map=m) if a is not None])
    for d_in, d_out in dense_shapes:
        x, w = rng.normal(size=(n, d_in)), rng.normal(size=(d_out, d_in))
        up = rng.normal(size=(n, d_out))
        for need_params in (True, False):
            calls.append(lambda x=x, w=w, up=up, p=need_params: [
                a for a in tensor.dense_backward_batch(up, x, w, p) if a is not None])
    return calls


def _on_and_off(mp, calls):
    """Bytes of every call with the worker forced on, then forced off."""
    runs = []
    for on in (True, False):
        mp.setattr(tensor, "_WORKER", on)
        runs.append([[a.tobytes() for a in call()] for call in calls])
    return runs


@pytest.mark.parametrize("n", [1, 7, 9, 16, 64, 257])
def test_worker_on_and_off_are_byte_equal_at_lenet_shapes(monkeypatch, rng, n):
    on, off = _on_and_off(monkeypatch, _primitive_calls(rng, n, LENET_CONVS, LENET_POOLS))
    assert on == off


@pytest.mark.parametrize("config", [
    net.lenet_config(seed=5),
    # odd row counts, and a one-row bias whose second half is empty
    net.NetworkConfig((1, 8, 8), net.parse_layers("conv:1@3, pool:2, flatten, dense:7, "
                                                  "relu, dense:3"), seed=5)],
    ids=["lenet", "odd-rows"])
def test_sgd_step_with_the_worker_on_and_off_is_byte_equal(monkeypatch, rng, config):
    # five steps, so the momentum term is live
    shapes = net.build_network(config).param_shapes
    grads = [{k: rng.normal(size=s) for k, s in shapes.items()} for _ in range(5)]
    runs = []
    for on in (True, False):
        monkeypatch.setattr(tensor, "_WORKER", on)
        network = net.build_network(config)
        state = {k: np.zeros_like(v) for k, v in network.params.items()}
        for g in grads:
            train.sgd_step(network, g, state, 0.01, 0.0005, 0.9)
        runs.append({k: (v.tobytes(), state[k].tobytes()) for k, v in network.params.items()})
    assert runs[0] == runs[1]


@st.composite
def _geometries(draw):
    c_in, c_out = draw(st.integers(1, 3)), draw(st.integers(1, 4))
    k, stride, pad = draw(st.integers(1, 4)), draw(st.integers(1, 3)), draw(st.integers(0, 2))
    h_out, w_out = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    h, w = (k + stride * (e - 1) - 2 * pad for e in (h_out, w_out))
    if h < 1 or w < 1:
        pad = 0
        h, w = (k + stride * (e - 1) for e in (h_out, w_out))
    pool_k = draw(st.integers(1, 3))
    pool_stride = draw(st.integers(1, 3))
    return (draw(st.integers(1, 9)), draw(st.integers(1, 3)), draw(st.integers(0, 2 ** 31)),
            ((c_in, h, w), (c_out, c_in, k, k)), stride, pad,
            (c_in, pool_k + pool_stride * (h_out - 1), pool_k + pool_stride * (w_out - 1)),
            (pool_k, pool_stride))


@settings(max_examples=60)
@given(_geometries())
def test_worker_on_and_off_are_byte_equal_on_any_geometry(case):
    # a budget of a few images' columns splits even these small batches into
    # blocks, so the worker gets some of them
    n, images, seed, conv, stride, pad, pool_shape, pool = case
    (c_in, _, _), (_, _, k, _) = conv
    h_out = tensor.output_extent(conv[0][1], k, stride, pad)
    w_out = tensor.output_extent(conv[0][2], k, stride, pad)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(tensor, "_BLOCK_BYTES", 16 * c_in * k * k * h_out * w_out * images)
        calls = _primitive_calls(np.random.default_rng(seed), n, [conv], [pool_shape],
                                 stride, pad, pool, [(c_in * k, images)])
        on, off = _on_and_off(mp, calls)
    assert on == off


def _record_index_builds(mp, log):
    """Log (thread is main, bytes, cached) for every scatter index asked for."""
    for name, cached in (("_scatter_index", False), ("_cached_index", True)):
        def build(*geometry, _build=getattr(tensor, name), _cached=cached):
            index = _build(*geometry)
            log.append((threading.current_thread() is threading.main_thread(),
                        index.nbytes, _cached))
            return index

        mp.setattr(tensor, name, build)


def test_the_worker_reads_scatter_indices_and_never_builds_one(monkeypatch, rng):
    # a dispatch that leaves every block to the worker: it scatters each one
    # through an index that only the calling thread built
    dispatch, builds, scatters = tensor._dispatch, [], []
    monkeypatch.setattr(tensor, "_WORKER", True)
    monkeypatch.setattr(tensor, "_dispatch", lambda part: dispatch(lambda t: t and part(t)))
    bincount = np.bincount
    monkeypatch.setattr(np, "bincount", lambda *a, **kw: (
        scatters.append(threading.current_thread() is threading.main_thread()),
        bincount(*a, **kw))[1])
    tensor._cached_index.cache_clear()
    _record_index_builds(monkeypatch, builds)
    for n in (64, 257):  # 8 blocks of 8 images; 32 and a short one
        x = rng.normal(size=(n, 20, 12, 12))
        k, up = rng.normal(size=(50, 20, 5, 5)), rng.normal(size=(n, 50, 8, 8))
        got = tensor.conv2d_backward_batch(up, x, k, need_param_grad=False)[0]
        monkeypatch.setattr(tensor, "_WORKER", False)
        assert got.tobytes() == tensor.conv2d_backward_batch(up, x, k)[0].tobytes()
        monkeypatch.setattr(tensor, "_WORKER", True)
    assert scatters.count(False) == 8 + 33 and scatters.count(True) == 8 + 33
    assert builds and all(main for main, _, _ in builds)


@settings(max_examples=60, deadline=None)
@given(_geometries())
def test_index_cache_stays_within_its_entry_bound(case):
    # budgets from below one image's contributions to a few images: only an
    # index of at most half the budget enters the cache, which keeps 8 at most
    n, images, seed, ((c_in, h, w), kshape), stride, pad, _, _ = case
    c_out, k = kshape[0], kshape[2]
    h_out, w_out = (tensor.output_extent(e, k, stride, pad) for e in (h, w))
    per_image = c_in * k * k * h_out * w_out
    rng = np.random.default_rng(seed)
    x, kernels = rng.normal(size=(n, c_in, h, w)), rng.normal(size=kshape)
    up = rng.normal(size=(n, c_out, h_out, w_out))
    builds = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(tensor, "_BLOCK_BYTES", 16 * per_image * (images - 1) + 8)
        _record_index_builds(mp, builds)
        tensor.conv2d_backward_batch(up, x, kernels, stride, pad, need_param_grad=False)
        budget = tensor._BLOCK_BYTES
    assert all(nbytes <= budget // 2 for _, nbytes, cached in builds if cached)
    assert any(cached for _, _, cached in builds) == (images > 1)
    info = tensor._cached_index.cache_info()
    assert info.maxsize == 8 and info.currsize <= 8


def test_a_batch_of_one_never_dispatches(monkeypatch, rng):
    def refuse(part):
        raise AssertionError("dispatched")

    monkeypatch.setattr(tensor, "_WORKER", True)
    monkeypatch.setattr(tensor, "_dispatch", refuse)
    network = net.build_network(net.lenet_config(seed=3))
    for layer in ("dense2", "conv2"):
        sub = net.truncate_at(network, layer, 1)
        grad = hmc.potential_grad(sub, 0, rng.random(sub.config.input_shape), 1.0)
        assert grad.shape == sub.config.input_shape
    with pytest.raises(AssertionError, match="dispatched"):  # the patch is live
        net.forward_batch(network, rng.random((64, 1, 28, 28)), keep=False)


def test_every_wrapped_function_runs_on_the_main_thread(monkeypatch):
    # a profiler wraps public module attributes and assumes one thread; the
    # worker must never call one of them
    monkeypatch.setattr(tensor, "_WORKER", True)
    calls, dispatched = [], []
    for mod in (tensor, net, loss, train):
        for name, fn in list(vars(mod).items()):
            if (name.startswith("_") or isinstance(fn, type) or not callable(fn)
                    or getattr(fn, "__module__", None) != mod.__name__):
                continue

            def wrapper(*args, _fn=fn, _name=f"{mod.__name__.rpartition('.')[2]}.{name}", **kwargs):
                calls.append((_name, threading.current_thread() is threading.main_thread()))
                return _fn(*args, **kwargs)

            monkeypatch.setattr(mod, name, wrapper)
    dispatch = tensor._dispatch
    monkeypatch.setattr(tensor, "_dispatch",
                        lambda part: (dispatched.append(1), dispatch(part)))
    dataset = data.synthetic_dataset(128, 10, 28, seed=1)
    network = net.build_network(net.lenet_config(seed=2))
    config = train.TrainConfig(mode="GG+DG", batch_size=64, epochs=2, pretrain_epochs=1)
    train.run_training(network, dataset, config)
    train.evaluate(network, dataset, 128)
    names = {name for name, _ in calls}
    assert {"tensor.conv2d_forward_batch", "tensor.conv2d_backward_batch",
            "tensor.maxpool_forward_batch", "net.forward_batch", "net.backward_params",
            "loss.gen_loss_and_grad", "train.sgd_step", "train.evaluate"} <= names
    assert dispatched and all(main for _, main in calls)


def test_worker_error_is_raised_by_the_primitive_after_both_halves(monkeypatch, rng):
    monkeypatch.setattr(tensor, "_WORKER", True)
    x = rng.normal(size=(64, 20, 12, 12))
    k, b = rng.normal(size=(50, 20, 5, 5)), rng.normal(size=50)
    want = tensor.conv2d_forward_batch(x, k, b)
    dispatch, log = tensor._dispatch, []

    def faulty(part):
        def half(t):
            if t == 1:
                log.append(threading.current_thread() is threading.main_thread())
                raise RuntimeError("injected")
            part(t)
            log.append("caller done")
        dispatch(half)

    monkeypatch.setattr(tensor, "_dispatch", faulty)
    with pytest.raises(RuntimeError, match="injected"):
        tensor.conv2d_forward_batch(x, k, b)
    assert sorted(log, key=str) == [False, "caller done"]
    monkeypatch.setattr(tensor, "_dispatch", dispatch)
    assert tensor.conv2d_forward_batch(x, k, b).tobytes() == want.tobytes()


def _invalid_conv_calls():
    """LeNet's conv2 at batch 64, each call computing inf·0 in every block:
    the forward, the kernel gradient and the input gradient."""
    x, k, up = np.zeros((64, 20, 12, 12)), np.ones((50, 20, 5, 5)), np.zeros((64, 50, 8, 8))
    x[:, 0, 0, 0] = k[0, 0, 0, 0] = np.inf
    return [lambda: tensor.conv2d_forward_batch(x, k, np.zeros(50)),
            lambda: tensor.conv2d_backward_batch(up, x, k, need_input_grad=False),
            lambda: tensor.conv2d_backward_batch(up, x, k, need_param_grad=False)]


@pytest.mark.parametrize("thread", [0, 1], ids=["caller", "worker"])
def test_blocks_keep_the_callers_error_state(monkeypatch, thread):
    # numpy keeps np.errstate per context, and the worker runs in the caller's;
    # a dispatch that leaves every block to the worker (1) or the caller (0)
    dispatch = tensor._dispatch
    monkeypatch.setattr(tensor, "_WORKER", True)
    monkeypatch.setattr(tensor, "_dispatch",
                        lambda part: dispatch(lambda t: t == thread and part(t)))
    for call in _invalid_conv_calls():
        with np.errstate(all="ignore"), warnings.catch_warnings():
            warnings.simplefilter("error")
            call()
        with np.errstate(invalid="raise"), pytest.raises(FloatingPointError):
            call()


def test_concurrent_callers_share_the_worker(monkeypatch, rng):
    # more calling threads than cores, switching often: each call still gets
    # its own bytes, and every thread finishes
    x = rng.normal(size=(6, 64, 20, 12, 12))
    k, b = rng.normal(size=(50, 20, 5, 5)), rng.normal(size=50)
    monkeypatch.setattr(tensor, "_WORKER", False)
    want = [tensor.conv2d_forward_batch(xi, k, b).tobytes() for xi in x]
    monkeypatch.setattr(tensor, "_WORKER", True)
    got = [None] * len(x)

    def run(i):
        for _ in range(5):
            got[i] = tensor.conv2d_forward_batch(x[i], k, b).tobytes()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=run, args=(i,)) for i in range(len(x))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert got == want


def _conv_in_child(results):
    rng = np.random.default_rng(0)
    x = rng.normal(size=(64, 20, 12, 12))
    results.put(tensor.conv2d_forward_batch(x, np.ones((50, 20, 5, 5)), np.zeros(50)).sum())


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                    reason="no fork start method on this platform")
def test_a_forked_child_starts_its_own_worker(monkeypatch):
    # the parent's worker thread does not survive the fork; a child that
    # queued its half for it would wait forever
    monkeypatch.setattr(tensor, "_WORKER", True)
    x = np.random.default_rng(0).normal(size=(64, 20, 12, 12))
    want = tensor.conv2d_forward_batch(x, np.ones((50, 20, 5, 5)), np.zeros(50)).sum()
    ctx = multiprocessing.get_context("fork")
    results = ctx.SimpleQueue()
    child = ctx.Process(target=_conv_in_child, args=(results,))
    with warnings.catch_warnings():  # newer Pythons warn on forking a threaded process
        warnings.filterwarnings("ignore", "This process .* is multi-threaded",
                                DeprecationWarning)
        child.start()
    try:
        child.join(60)
        assert child.exitcode == 0, "forked child hung or failed"
        assert results.get() == want
    finally:
        if child.is_alive():
            child.kill()
            child.join()


def _python(code: str, **blas) -> list:
    return _run("-c", code, **blas)


def _run(*args: str, **blas) -> list:
    """stdout words of ``python *args`` with only the given BLAS variables set."""
    env = {k: v for k, v in os.environ.items() if k not in BLAS_VARS}
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run([sys.executable, *args], env=dict(env, **blas), check=True,
                          capture_output=True, text=True, timeout=120).stdout.split()


SPLIT_PROBE = ("import threading, numpy as np\n"
               "from tiltnet import tensor\n"
               "tensor.conv2d_forward_batch(np.zeros((64, 20, 12, 12)), np.zeros((50, 20, 5, 5)),"
               " np.zeros(50))\n"
               "print(tensor._WORKER, threading.active_count())")


def test_unpinned_blas_keeps_the_serial_path():
    # OpenBLAS then runs its own threads; a second caller would compete
    assert _python(SPLIT_PROBE) == ["False", "1"]
    assert _python(SPLIT_PROBE, OPENBLAS_NUM_THREADS="2", OMP_NUM_THREADS="1") == ["False", "1"]


@pytest.mark.skipif(len(getattr(os, "sched_getaffinity", lambda _: ())(0)) < 2,
                    reason="needs at least 2 usable CPUs")
def test_pinned_blas_engages_the_worker():
    assert _python(SPLIT_PROBE, OMP_NUM_THREADS="1") == ["True", "2"]


def test_import_starts_no_thread_and_no_heavy_modules():
    assert _python("import sys, threading, tiltnet\n"
                   "print(threading.active_count(), 'concurrent.futures' in sys.modules,"
                   " 'logging' in sys.modules)") == ["1", "False", "False"]


def test_the_cli_pins_one_blas_thread_and_engages_the_worker():
    # entry() sets the layout itself, with every BLAS variable unset
    cpus = len(getattr(os, "sched_getaffinity", lambda _: ())(0))
    assert _python("from tiltnet import cli, tensor\n"
                   "try:\n    cli.entry()\nexcept SystemExit:\n    pass\n"
                   "print(tensor._blas_threads(), tensor._WORKER)") == ["1", str(cpus >= 2)]


def test_without_a_blas_getter_the_split_stays_off_and_nothing_is_pinned(monkeypatch):
    asked = []

    class Library:   # loads, but holds none of OpenBLAS's thread symbols
        def __init__(self, path):
            pass

        def __getattr__(self, name):
            asked.append(name)
            raise AttributeError(name)

    monkeypatch.setattr(tensor.ctypes, "CDLL", Library)
    monkeypatch.setattr(tensor, "_WORKER", True)
    monkeypatch.setattr(sys, "argv", ["tiltnet", "--help"])
    assert tensor._blas_threads(pin=True) == 0
    with pytest.raises(SystemExit):
        cli.entry()
    assert tensor._WORKER is False
    assert "scipy_openblas_get_num_threads64_" in asked
    assert not [name for name in asked if "_set_" in name]


def test_a_blas_library_that_will_not_load_reads_zero_threads(monkeypatch):
    def refuse(path):
        raise OSError(path)

    monkeypatch.setattr(tensor.ctypes, "CDLL", refuse)
    assert tensor._blas_threads(pin=True) == 0
    assert tensor._split_engages(pin=True) is False


CROSS_RUN = """\
[network]
layers = conv:20@5, pool:2/2, conv:50@5, pool:2/2, flatten, dense:500, relu, dense:10
[train]
mode = GG
batch_size = 32
epochs = 1
[data]
n = 64
classes = 10
image_size = 28
[hmc]
iterations = 20
leapfrog_steps = 10
[run]
out_dir = {out}
seed = 5
"""


def test_cli_bytes_do_not_depend_on_the_blas_setting(tmp_path):
    # OpenBLAS's own threads and the worker split sum a GEMM in different
    # orders; the CLI runs one layout, so the environment cannot choose
    runs = {}
    for setting, blas in [("one", {"OPENBLAS_NUM_THREADS": "1"}),
                          ("two", {"OPENBLAS_NUM_THREADS": "2"}), ("unset", {})]:
        base = tmp_path / setting
        base.mkdir()
        ckpt = ["--checkpoint", str(base / "train" / "final.ckpt")]
        for step, args in [("train", ["train"]),
                           ("conv2", ["sample", *ckpt, "--layer", "conv2", "--channel", "7"]),
                           ("dense2", ["sample", *ckpt, "--layer", "dense2", "--channel", "3"])]:
            ini = base / f"{step}.ini"
            ini.write_text(CROSS_RUN.format(out=base / step))
            _run("-m", "tiltnet.cli", *args, "--config", str(ini), **blas)
        runs[setting] = {p.relative_to(base).as_posix(): hashlib.md5(p.read_bytes()).hexdigest()
                         for p in base.rglob("*") if p.suffix in (".ckpt", ".opt", ".pgm", ".txt")}
    assert {"train/000.ckpt", "train/000.opt", "train/final.ckpt", "conv2/manifest.txt",
            "dense2/manifest.txt"} <= set(runs["one"])
    assert runs["two"] == runs["one"]
    assert runs["unset"] == runs["one"]
