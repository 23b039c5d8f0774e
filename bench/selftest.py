"""Self-test of the benchmark at toy size (about ten seconds).

    python3 bench/selftest.py

Runs every workload in this process at the TOY sizes of worker.py, untraced
and traced, and checks that:

* every end-to-end metric of BENCHMARK.json, and every workload-specific
  metric, is emitted and finite;
* the traced run emits exactly the per-layer metrics BENCHMARK.json lists
  (the ``trace.overhead.*`` ones are added by run.py from two processes);
* all names match ``[A-Za-z0-9_.-]+``;
* no per-layer busy time exceeds the traced wall time;
* the gates pass, no op fails, and GG and DG cost the same tensor work.

Exits 0 when all checks pass, 1 otherwise.
"""

from __future__ import annotations

import json
import math
import re
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import probes  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")
NAMED = {
    "train_ggdg": {"train_img_s", "train_gg_img_s", "train_dg_img_s",
                   "train_step_ms_p50", "train_step_ms_p90"},
    "eval_fwd": {"eval_img_s", "eval_batch_ms_p50"},
    "sample_class": {"hmc_grad_evals_s", "hmc_iter_ms_p50", "hmc_accept_rate"},
}
# LeNet layers each workload must attribute time to (forward, backward)
LAYER_PASSES = {"train_ggdg": ("fwd", "bwd"), "eval_fwd": ("fwd",),
                "sample_class": ("fwd", "bwd")}


def check(failures: list, ok: bool, what: str) -> None:
    if not ok:
        failures.append(what)


def check_run(name: str, res: dict, spec: dict, failures: list) -> None:
    tag = f"{name} trace={res['trace']}"
    for metric in spec["end_to_end"]:
        value = res.get(metric["name"])
        check(failures, isinstance(value, float) and math.isfinite(value),
              f"{tag}: end-to-end {metric['name']} missing or not finite: {value!r}")
    check(failures, set(res["named"]) == NAMED[name],
          f"{tag}: workload metrics {sorted(res['named'])}")
    check(failures, all(math.isfinite(v) for v, _ in res["named"].values()),
          f"{tag}: non-finite workload metric")
    check(failures, res["correct"], f"{tag}: gates failed: {res['gates']}")
    check(failures, res["attempted"] >= 1 and res["failed"] == 0,
          f"{tag}: ops attempted={res['attempted']} failed={res['failed']} {res['errors']}")
    if not res["trace"]:
        return
    layer = res["per_layer"]
    listed = {m["name"] for m in spec["per_layer"]}
    emitted = set(layer) | {f"trace.overhead.{m}" for m in run.END_TO_END}
    check(failures, emitted == listed,
          f"{tag}: per-layer names differ from BENCHMARK.json: {sorted(emitted ^ listed)}")
    wall = layer["trace.wall.ms"][0]
    for metric, (value, unit) in layer.items():
        check(failures, NAME.fullmatch(metric) is not None, f"{tag}: bad name {metric!r}")
        check(failures, math.isfinite(value) and value >= 0, f"{tag}: {metric}={value}")
        if unit == "ms":
            check(failures, value <= wall, f"{tag}: {metric}={value} ms exceeds wall {wall} ms")
    for lay in probes.LENET_LAYERS:
        for direction in LAYER_PASSES[name]:
            check(failures, layer[f"net.{lay}.{direction}_ms"][0] > 0,
                  f"{tag}: no time attributed to {lay} {direction}")
    if name == "train_ggdg":
        check(failures, layer["train.gg_dg_elems_ratio"][0] == 1.0,
              f"{tag}: gg_dg_elems_ratio {layer['train.gg_dg_elems_ratio'][0]!r}")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    failures: list = []
    check(failures, set(run.END_TO_END) == {m["name"] for m in spec["end_to_end"]},
          "run.END_TO_END differs from BENCHMARK.json end_to_end")
    check(failures, set(run.WORKLOADS) == set(worker.WORKLOADS)
          == {w["name"] for w in spec["workloads"]}, "workload lists differ")
    for metric in spec["end_to_end"] + spec["per_layer"]:
        check(failures, NAME.fullmatch(metric["name"]) is not None,
              f"bad metric name {metric['name']!r}")
    (ROOT / ".bench_tmp").mkdir(exist_ok=True)
    for name in worker.WORKLOADS:
        for trace in (False, True):
            scratch = Path(tempfile.mkdtemp(dir=ROOT / ".bench_tmp"))
            try:
                res = worker.run_workload(name, seed=7, seconds=0.01, trace=trace,
                                          sizes=worker.TOY, scratch=scratch)
            finally:
                shutil.rmtree(scratch, ignore_errors=True)
            check_run(name, json.loads(json.dumps(res)), spec, failures)
    try:
        (ROOT / ".bench_tmp").rmdir()
    except OSError:
        pass
    for line in failures:
        print("FAIL " + line)
    print(f"selftest: {'FAIL' if failures else 'PASS'} ({len(failures)} failures)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
