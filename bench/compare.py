"""Summarise saved benchmark runs, and compare two commits.

Each file holds the standard output of one ``bench/run.py`` call; only its
last line (the result object) is read.

    python3 bench/compare.py base/*.out                 # spread of one commit
    python3 bench/compare.py base/*.out --change new/*.out

For one set, every metric gets its median, quartiles and spread: the
distance between the quartiles (``statistics.quantiles(values, n=4)``) as a
share of the median. With ``--change``, runs are paired in the order given
(run them alternately: base, change, base, change, ...) and each metric also
gets the change's median as a share of the base's and the share of pairs in
which the change was better. BENCHMARK.json supplies which direction is
better; metrics it does not list are compared as "lower is better".
"""

from __future__ import annotations

import argparse
import json
import statistics
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(paths) -> list:
    runs = []
    for path in paths:
        lines = Path(path).read_text().strip().splitlines()
        if not lines:
            raise SystemExit(f"{path}: empty")
        runs.append(json.loads(lines[-1]))
    return runs


def directions() -> dict:
    if not BENCHMARK.is_file():
        return {}
    spec = json.loads(BENCHMARK.read_text())
    return {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}


def summary(values: list) -> tuple:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return med, q1, q3, (q3 - q1) / abs(med) if med else float("inf")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("base", nargs="+", help="saved outputs of the base commit")
    ap.add_argument("--change", nargs="*", default=[], help="saved outputs of the change")
    args = ap.parse_args(argv)
    base, change = load(args.base), load(args.change)
    better = directions()
    runs = base + change
    print(f"runs: base {len(base)}, change {len(change)}; "
          f"correct {sum(r['correct'] for r in runs)}/{len(runs)}; "
          f"failed ops {sum(r['failed'] for r in runs)}/{sum(r['attempted'] for r in runs)}")
    for name in base[0]["metrics"]:
        unit = base[0]["metrics"][name]["unit"]
        b = [r["metrics"][name]["value"] for r in base]
        med, q1, q3, spread = summary(b)
        line = (f"{name:40s} median {med:12.6g} {unit:6s} q1 {q1:12.6g} q3 {q3:12.6g} "
                f"spread {spread:7.2%}")
        if change:
            c = [r["metrics"][name]["value"] for r in change]
            cmed = summary(c)[0]
            sign = 1 if better.get(name, "lower") == "higher" else -1
            wins = sum(sign * (y - x) > 0 for x, y in zip(b, c))
            line += (f" | change {cmed:12.6g} ({cmed / med - 1:+.2%})"
                     f" wins {wins}/{min(len(b), len(c))}")
        print(line)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
