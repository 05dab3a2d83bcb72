"""Run the benchmark over consecutive seeds and write one result file.

Usage (from the repository root):

    python3 perfbench/series.py --runs 10 --out results.json

For every workload of BENCHMARK.json and seeds 1 to --runs, each run is
`<command> --workload W --seed S --seconds <run_seconds> --trace 0` as
BENCHMARK.json states it, one at a time.  The result file records the
machine (nproc, Python), the net source LOC of src/anomcancel, and every
run's result line.  For each workload and end-to-end metric this prints the
median, the quartiles and the spread (inter-quartile distance over the
median) next to the metric's bound; compare two files with compare.py.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def source_loc() -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines())
               for p in sorted((ROOT / "src" / "anomcancel").glob("*.py")))


def report(bench: dict, runs: dict[str, list[dict]]) -> None:
    for workload, results in runs.items():
        print(f"{workload} ({len(results)} runs, "
              f"{sum(r['result']['failed'] for r in results)} failed cases)")
        for metric in bench["end_to_end"]:
            values = [r["result"]["metrics"][metric["name"]]["value"] for r in results]
            if len(values) < 2:
                print(f"  {metric['name']:<16} {values[0]:.6g} {metric['unit']}")
                continue
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            flag = "over bound" if spread > metric["bound"] else (
                "over bound/3" if spread > metric["bound"] / 3 else "ok")
            print(f"  {metric['name']:<16} median {med:.6g} {metric['unit']} "
                  f"[{q1:.6g}, {q3:.6g}] spread {spread:.3f} bound {metric['bound']} {flag}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    out = {"meta": {"nproc": os.cpu_count(), "python": platform.python_version(),
                    "machine": platform.machine(), "source_loc": source_loc(),
                    "run_seconds": bench["run_seconds"]},
           "runs": {}}
    for workload in (w["name"] for w in bench["workloads"]):
        results = out["runs"][workload] = []
        for seed in range(1, args.runs + 1):
            cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                                      "--seconds", str(bench["run_seconds"]), "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                sys.stderr.write(proc.stderr)
                print(f"{workload} seed {seed}: exit {proc.returncode}", file=sys.stderr)
                return 1
            results.append({"seed": seed, "result": json.loads(lines[-1])})
            print(f"{workload} seed {seed}: done", file=sys.stderr)
        Path(args.out).write_text(json.dumps(out, indent=1) + "\n", encoding="utf-8")
    report(bench, out["runs"])
    return 0


if __name__ == "__main__":
    sys.exit(main())
