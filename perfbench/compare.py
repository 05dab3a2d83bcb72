"""Compare two result files written by series.py: parent first, change second.

Usage: python3 perfbench/compare.py PARENT.json CHANGE.json

For each workload and end-to-end metric this prints both medians and
quartiles, the pairs the change won (runs paired by seed; ties count for
neither side) and a verdict:

  improved    the change wins at least 9/10 of the pairs and its median is
              better than the parent's by more than the parent's
              inter-quartile distance;
  worse       the same rule with the sides swapped, or the change's median is
              worse than the parent's by more than the metric's bound;
  unresolved  the parent's own spread (inter-quartile distance over median) is
              wider than the bound, unless every run of the change reads
              better than every run of the parent;
  unchanged   otherwise.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def verdict(parent: list[float], change: list[float], pairs: list[tuple[float, float]],
            better: str, bound: float) -> tuple[str, int]:
    sign = 1 if better == "lower" else -1  # sign * (x - y) > 0: y better than x
    won = sum(sign * (p - c) > 0 for p, c in pairs)
    lost = sum(sign * (c - p) > 0 for p, c in pairs)
    q1, med_p, q3 = statistics.quantiles(parent, n=4)
    med_c = statistics.median(change)
    iqr = q3 - q1
    gain = sign * (med_p - med_c)
    if pairs and won >= 0.9 * len(pairs) and gain > iqr:
        return "improved", won
    if (pairs and lost >= 0.9 * len(pairs) and -gain > iqr) or -gain > bound * med_p:
        return "worse", won
    every_better = all(sign * (p - c) > 0 for p in parent for c in change)
    if iqr > bound * med_p and not every_better:
        return "unresolved", won
    return "unchanged", won


def values(runs: list[dict], name: str) -> dict[int, float]:
    return {r["seed"]: r["result"]["metrics"][name]["value"] for r in runs}


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    parent, change = (json.loads(Path(p).read_text(encoding="utf-8")) for p in argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    print(f"parent: {parent['meta']}\nchange: {change['meta']}")
    for workload, p_runs in parent["runs"].items():
        c_runs = change["runs"].get(workload)
        if not c_runs:
            print(f"{workload}: missing from the change's file")
            continue
        print(workload)
        for metric in bench["end_to_end"]:
            pv, cv = values(p_runs, metric["name"]), values(c_runs, metric["name"])
            if len(pv) < 2 or len(cv) < 2:
                print(f"  {metric['name']:<16} too few runs")
                continue
            pairs = [(pv[s], cv[s]) for s in sorted(pv.keys() & cv.keys())]
            v, won = verdict(list(pv.values()), list(cv.values()), pairs,
                             metric["better"], metric["bound"])
            pq, cq = (statistics.quantiles(list(x.values()), n=4) for x in (pv, cv))
            print(f"  {metric['name']:<16} parent {pq[1]:.6g} [{pq[0]:.6g}, {pq[2]:.6g}]  "
                  f"change {cq[1]:.6g} [{cq[0]:.6g}, {cq[2]:.6g}] {metric['unit']}  "
                  f"won {won}/{len(pairs)}  {v}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
