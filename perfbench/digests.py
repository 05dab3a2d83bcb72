"""Record the canonical-report digests that the benchmark's correctness gate checks.

Usage (from the repository root): python3 perfbench/digests.py

Runs the grid once and every case of ladder and qdeep, each cold, and writes
perfbench/digests.json.  Run it only when
a change to the program is meant to change its reports; review the diff.
"""

from __future__ import annotations

import json
import sys

import run


def main() -> int:
    grid: dict[str, str] = {}
    cold: dict[str, str] = {}
    _, res = run.spawn({"argv": run.GRID_ARGV})
    if res is None:
        print("grid run failed", file=sys.stderr)
        return 1
    for c in res["cases"]:
        if c["verdict"] != "pass":
            print(f"case {c['label']} does not pass", file=sys.stderr)
            return 1
        grid[c["label"]] = c["digest"]
    if len(grid) != len(res["cases"]):
        print("grid labels are not unique", file=sys.stderr)
        return 1

    argvs = [run.case_argv(*slot) for slots in run.SLOTS.values() for slot in slots]
    for i, argv in enumerate(argvs, 1):
        _, res = run.spawn({"argv": argv})
        if res is None or len(res["cases"]) != 1:
            print(f"case {argv} failed to run", file=sys.stderr)
            return 1
        c = res["cases"][0]
        if c["verdict"] != "pass":
            print(f"case {c['label']} does not pass", file=sys.stderr)
            return 1
        cold[c["label"]] = c["digest"]
        print(f"[{i}/{len(argvs)}] {c['label']} {c['digest']} {c['case_s']:.2f} s",
              file=sys.stderr)

    with open(run.HERE / "digests.json", "w", encoding="utf-8") as fh:
        json.dump({"grid": grid, "cold": cold}, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"recorded {len(grid)} grid and {len(cold)} cold digests", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
