"""tiltnet benchmark: run one workload and print its metrics.

    python3 bench/run.py --workload train_ggdg --seed 1 --seconds 30 --trace 0

Workloads are ``train_ggdg``, ``eval_fwd`` and ``sample_class`` (see
bench/README.md). Each runs in a fresh interpreter with BLAS pinned to one
thread. With ``--trace 0`` the metrics are the end-to-end ones; set-up time
is the median of several fresh processes. With ``--trace 1`` the run is split
into an untraced half and a traced half, and the metrics are the per-layer
ones plus the tracing overhead (traced minus untraced end-to-end values).

Human-readable lines come first, then ``result <json>`` with the whole
record (environment, gates, workload-specific metrics), and last one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``. Exits 2
without a result when the checkout holds no tiltnet sources, 1 when a
workload process fails.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("train_ggdg", "eval_fwd", "sample_class")
SETUP_PROBES = 4     # extra processes that only set up, for the setup_s median
TIME_LIMIT_S = 170   # whole invocation, children included
BLAS_PIN = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
END_TO_END = {"setup_s": "s", "peak_rss_mb": "MB", "items_per_s": "1/s", "op_ms_p10": "ms"}


class WorkerFailed(RuntimeError):
    pass


def child_env() -> dict:
    env = dict(os.environ, **BLAS_PIN)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_worker(args, deadline: float, *, trace: int = 0, seconds: float = None,
               setup_only: bool = False) -> dict:
    cmd = [sys.executable, str(ROOT / "bench" / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds if seconds is None else seconds),
           "--trace", str(trace), "--scratch", str(args.scratch)]
    if setup_only:
        cmd.append("--setup-only")
    cmd += ["--spawned-at", repr(time.monotonic())]
    try:
        proc = subprocess.run(cmd, env=child_env(), cwd=ROOT, capture_output=True,
                              text=True, timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as exc:
        raise WorkerFailed(f"worker exceeded the {TIME_LIMIT_S} s limit") from exc
    if proc.returncode != 0:
        raise WorkerFailed(f"worker exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError) as exc:
        raise WorkerFailed(f"worker printed no result:\n{proc.stdout[-2000:]}") from exc


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit() -> str:
    """HEAD of the checkout, or 'unknown' when it is not a git work tree."""
    try:
        proc = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    lines = proc.stdout.split()
    if proc.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return "unknown"
    return lines[1]


def environment(args) -> dict:
    return {
        "seed": args.seed,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": cpu_model(),
        "git_commit": git_commit(),
    }


def untraced(args, deadline: float) -> tuple:
    setups = [run_worker(args, deadline, setup_only=True)["setup_s"]
              for _ in range(SETUP_PROBES)]
    res = run_worker(args, deadline)
    setups.append(res["setup_s"])
    res["setup_samples_s"] = setups
    values = {name: res[name] for name in END_TO_END}
    values["setup_s"] = statistics.median(setups)
    metrics = {name: (values[name], unit) for name, unit in END_TO_END.items()}
    return res, metrics, res["correct"], res["attempted"], res["failed"]


def traced(args, deadline: float) -> tuple:
    half = args.seconds / 2
    base = run_worker(args, deadline, seconds=half)
    res = run_worker(args, deadline, trace=1, seconds=half)
    metrics = {name: tuple(v) for name, v in res["per_layer"].items()}
    for name, unit in END_TO_END.items():
        metrics[f"trace.overhead.{name}"] = (res[name] - base[name], unit)
    res["untraced_half"] = {k: base[k] for k in END_TO_END}
    return (res, metrics, res["correct"] and base["correct"],
            res["attempted"] + base["attempted"], res["failed"] + base["failed"])


def report(res: dict, metrics: dict) -> None:
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    for name, (value, unit) in res["named"].items():
        print(f"  {res['workload']}.{name} {value:.6g} {unit}")
    print(f"  ops attempted={res['attempted']} failed={res['failed']} "
          f"ops_failed_frac={res['ops_failed_frac']:.6g} op_samples={res['op_samples']} "
          f"units={res['units']} op_ms_p50={res['op_ms_p50']:.6g} op_ms_p90={res['op_ms_p90']:.6g}")
    for name, gate in res["gates"].items():
        print(f"  gate {name}: {'PASS' if gate['pass'] else 'FAIL'} ({gate['detail']})")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="tiltnet benchmark (one workload per call)")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "tiltnet" / "__init__.py").is_file():
        print(f"bench: no tiltnet package under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    deadline = time.monotonic() + TIME_LIMIT_S
    args.scratch = ROOT / ".bench_tmp"
    args.scratch.mkdir(exist_ok=True)
    try:
        res, metrics, correct, attempted, failed = (traced if args.trace else untraced)(
            args, deadline)
    except WorkerFailed as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    finally:
        try:
            args.scratch.rmdir()
        except OSError:
            pass
    bad = [name for name, (value, _) in metrics.items() if not math.isfinite(value)]
    if bad:
        print(f"bench: no measurement for {', '.join(bad)}", file=sys.stderr)
        return 1
    res["env"].update(environment(args))
    report(res, metrics)
    print("result " + json.dumps(res, sort_keys=True))
    print(json.dumps({"correct": bool(correct), "attempted": int(attempted),
                      "failed": int(failed),
                      "metrics": {name: {"value": value, "unit": unit}
                                  for name, (value, unit) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
