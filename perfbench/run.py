"""Benchmark of anomcancel: exact ring and q-series verification, end to end.

Usage (from the repository root):

    python3 perfbench/run.py --workload grid|ladder|qdeep --seed N --seconds S --trace 0|1

Workloads (this process runs at most one child process at a time):

  grid    the default 338-case grid, `anomcancel verify --all --format json`,
          in one fresh process per pass.  Module caches are shared across the
          cases of a pass, as a user's `verify --all` sees them.  The seed is
          ignored: the grid is fixed.
  ladder  THM31, THM34, THM41, DOUBLE_ROUTE and EQ318_TRANSFER at k = 3 and
          k = 4, l = 3, default q-order: 2k+l Chern-root generators with
          degree cap 4k, so GradedPoly arithmetic dominates.
  qdeep   small k at deep q-order, plus JACOBI_QSERIES at N = 80: q-series
          multiply / inverse / power kernels dominate, ring elements stay tiny.

In ladder and qdeep every case runs cold, in its own fresh process, so its
time does not depend on which earlier case warmed the module caches.  Each
AB and AB_XI case has its own fixed twist pair (a, b) from {-1,0,1,2}x{0,1,2}
(TWIST); TWO_LINE cases keep (1, 0).  The seed shuffles the order of the
processes in every pass.  It does not deal the pairs: the cost of a case
depends on its pair by up to 2x, so runs with pairs dealt by the seed spread
past the bounds of the per-case metrics.

A run repeats passes while one more, as long as the last, still ends within
--seconds (at least one pass).  A case's time is the median of its times over
the run's passes; percentiles, the slowest case and k_growth are taken over
those per-case medians.  Pass totals (wall, CPU) are medians over passes,
set-up the median over all processes.  Times are scaled to a nominal host
speed by a calibration kernel timed while they run (see CAL_NOMINAL_S); the
readable table also shows unscaled wall times.

Every case must pass and its canonical report must match the digest recorded
in perfbench/digests.json; any mismatch, exception or wrong verdict counts as
failed.  Before timing, one negative control per workload (a case run with
`perturb`) must come out `fail`, or the run aborts.

With --trace 0 the last line of standard output holds the end-to-end
metrics; with --trace 1 it holds the per-layer metrics of one traced pass,
and trace.overhead_s, its wall time minus that of an untraced pass of the
same cases.  A readable table goes to standard error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CHILD = HERE / "child.py"
CHILD_TIMEOUT_S = 150
# Children compile the package from source on every start, whatever the
# caller's environment, so set-up time is the same everywhere and the
# benchmark writes no bytecode into the checkout.  They all use one hash seed:
# string hashing orders the program's sets and dicts, and a random seed moves
# the time of one case by up to 25 % from process to process.
CHILD_ENV = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1", "PYTHONHASHSEED": "0"}

# The host is shared, and its speed drifts by up to ~1.7x, within a second as
# well as over minutes (CPU time drifts with it).  Each child therefore times
# a fixed calibration kernel (child.calibrate) from a timer signal every 20 ms
# while the program runs, and every time is scaled by CAL_NOMINAL_S / (mean
# kernel time over the same interval): a case by the samples taken from
# 0.1 s before it starts to 0.1 s after it ends, a process's wall and CPU time
# by all of its timer samples, its set-up by samples taken just before its
# first case.  The result is seconds at the
# speed where the kernel takes CAL_NOMINAL_S, its typical uncontended time on
# the 2-vCPU machine of the baseline (perfbench/BASELINE.md).
CAL_NOMINAL_S = 0.0005

# The twist pair of each AB / AB_XI case: every a from -1 to 2 once, b cycling
# through 0, 1, 2, so the four cases together span the twist grid.
TWIST = {"DOUBLE_ROUTE": (-1, 0), "EQ318_TRANSFER": (0, 1), "THM31": (1, 2), "THM34": (2, 0)}

# A slot is (case, CLI family or None, k, l, q-order or None).
LADDER_SLOTS = [(case, family, k, 3, None)
                for k in (3, 4)
                for case, family in (("THM31", "ab"), ("THM34", "ab-xi"), ("THM41", "two-line"),
                                     ("DOUBLE_ROUTE", "ab"), ("EQ318_TRANSFER", "ab"))]
QDEEP_SLOTS = [
    ("DOUBLE_ROUTE", "ab", 1, 1, 24),
    ("DOUBLE_ROUTE", "two-line", 1, 2, 16),
    ("EQ318_TRANSFER", "ab", 1, 2, 24),
    ("EQ318_TRANSFER", "ab", 2, 2, 16),
    ("THM31", "ab", 2, 2, 16),
    ("THM34", "ab-xi", 2, 1, 16),
    ("THM41", "two-line", 2, 1, 16),
    ("JACOBI_QSERIES", None, None, None, 80),
]
SLOTS = {"ladder": LADDER_SLOTS, "qdeep": QDEEP_SLOTS}
GRID_ARGV = ["verify", "--all", "--format", "json"]

# One perturbed case per workload; it must fail for the run to go on.
CONTROLS = {
    "grid": {"case": "THM31", "family": "ab", "k": 1, "l": 1, "a": 1, "b": 0},
    "ladder": {"case": "DOUBLE_ROUTE", "family": "ab", "k": 3, "l": 3, "a": 1, "b": 0},
    "qdeep": {"case": "JACOBI_QSERIES", "qOrder": 80},
}

END_TO_END = [
    ("setup_s", "s"), ("wall_s", "s"), ("cpu_s", "s"), ("case_p50_ms", "ms"),
    ("case_p95_ms", "ms"), ("slowest_case_s", "s"), ("k_growth", "ratio"),
    ("peak_rss_mb", "MB"),
]


_NUMERIC = re.compile(r"^(\S+) \(tol (\S+)\)$")


def canonical(report: dict) -> dict:
    """The documented JSON report without `millis`.

    Double-precision residuals (NUMERIC_MODULARITY) are replaced by whether
    they meet their stated tolerance, because their trailing digits depend on
    the platform's libm, not on this program.
    """
    out = {k: v for k, v in report.items() if k != "millis"}
    quantities = []
    for q in out["quantities"]:
        m = _NUMERIC.match(q["pontryagin"])
        if m:
            q = {"name": q["name"],
                 "pontryagin": "below tol" if float(m[1]) < float(m[2]) else "above tol"}
        quantities.append(q)
    out["quantities"] = quantities
    return out


def label(report: dict) -> str:
    """Stable identifier of one case request, from its report."""
    spec = report["spec"]
    if spec is None:
        return f"{report['case']}/N{report['qOrder']}"
    return (f"{report['case']}/{spec['family']}/k{spec['k']}/l{spec['l']}"
            f"/a{spec['a']}/b{spec['b']}/N{report['qOrder']}")


def digest(report: dict) -> str:
    text = json.dumps(canonical(report), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


class BenchError(Exception):
    """The benchmark cannot produce a result (missing program, failed control)."""


def case_argv(case, family, k, l, q) -> list[str]:
    argv = ["verify", "--case", case, "--format", "json"]
    if family is not None:
        a, b = (1, 0) if family == "two-line" else TWIST[case]
        argv += ["--family", family, "--k", str(k), "--l", str(l), "--a", str(a), "--b", str(b)]
    if q is not None:
        argv += ["--q-order", str(q)]
    return argv


def pass_jobs(workload: str, rng: random.Random) -> list[list[str]]:
    """The argv of each process of one pass: every slot once, in seeded order."""
    if workload == "grid":
        return [GRID_ARGV]
    jobs = [case_argv(*slot) for slot in SLOTS[workload]]
    rng.shuffle(jobs)
    return jobs


def spawn(job: dict) -> tuple[float, dict | None]:
    """Run one child process; return its start time and its result, or None.

    For a command-line job the result gets `cases`: each report the child
    printed, by label, verdict and digest, next to its measured time.
    """
    t_spawn = time.monotonic()
    try:
        proc = subprocess.run([sys.executable, str(CHILD), str(SRC), json.dumps(job)],
                              cwd=ROOT, env=CHILD_ENV, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return t_spawn, None
    reports_text, _, last = proc.stdout.rstrip("\n").rpartition("\n")
    if proc.returncode != 0 or not last:
        sys.stderr.write(proc.stderr[-2000:])
        return t_spawn, None
    res = json.loads(last)
    if "argv" in job:
        try:
            reports = json.loads(reports_text) if res["status"] in (0, 1) else []
        except ValueError:
            sys.stderr.write(f"unreadable reports from {job['argv']}\n")
            return t_spawn, None
        res["cases"] = [{"label": label(r), "verdict": r["verdict"], "digest": digest(r),
                         "case": r["case"], "k": (r["spec"] or {}).get("k"),
                         "millis": r["millis"], **t}
                        for r, t in zip(reports, res.pop("case_times"))]
    return t_spawn, res


def load_digests() -> dict:
    with open(HERE / "digests.json", encoding="utf-8") as fh:
        return json.load(fh)


def run_control(workload: str, digests: dict) -> None:
    _, res = spawn({"control": CONTROLS[workload]})
    if res is None:
        raise BenchError(f"negative control of {workload} did not run")
    report = res["report"]
    name, value = label(report), digest(report)
    if report["verdict"] != "fail" or digests["cold"].get(name) == value \
            or digests["grid"].get(name) == value:
        raise BenchError(f"negative control {name} with perturb did not fail")


def run_pass(workload: str, jobs: list[list[str]], digests: dict, trace: bool) -> dict:
    """Run every process of one pass, one at a time, and check its reports."""
    results = []
    cases: list[dict] = []
    attempted = failed = 0
    expected = digests["grid"] if workload == "grid" else digests["cold"]
    for argv in jobs:
        t_spawn, res = spawn({"argv": argv, "trace": trace})
        n_expected = len(expected) if workload == "grid" else 1
        if res is None or res["status"] not in (0, 1):
            attempted += n_expected
            failed += n_expected
            continue
        res["setup_s"] = ((res["t_first"] - t_spawn - res["setup_cal_spent_s"])
                          * CAL_NOMINAL_S / res["cal_setup"])
        results.append(res)
        seen = set()
        for c in res["cases"]:
            seen.add(c["label"])
            ok = c["verdict"] == "pass" and expected.get(c["label"]) == c["digest"]
            if not ok:
                sys.stderr.write(f"case {c['label']}: verdict {c['verdict']}, "
                                 f"digest {c['digest']} (recorded {expected.get(c['label'])})\n")
            failed += not ok
            cases.append(c)
        attempted += max(n_expected, len(res["cases"]))
        if workload == "grid":
            failed += len(set(expected) - seen)
        elif not res["cases"]:
            failed += 1
    for c in cases:
        c["raw_s"] = c["case_s"]
        c["case_s"] *= CAL_NOMINAL_S / c["cal"]
    return {"setups": [r["setup_s"] for r in results],
            "wall_s": sum(r["wall_s"] * CAL_NOMINAL_S / r["cal_run"] for r in results),
            "cpu_s": sum(r["cpu_s"] * CAL_NOMINAL_S / r["cal_run"] for r in results),
            "raw_wall_s": sum(r["wall_s"] for r in results),
            "scale": (statistics.median(CAL_NOMINAL_S / r["cal_run"] for r in results)
                      if results else 1.0),
            "rss_kb": max((r["rss_kb"] for r in results), default=0),
            "cases": cases, "attempted": attempted, "failed": failed,
            "traces": [spans.scaled(r["trace"], CAL_NOMINAL_S / r["cal_run"])
                       for r in results if trace]}


def case_medians(passes: list[dict]) -> list[dict]:
    """Each case of the run once, its time the median over the passes."""
    by_label: dict[str, list[dict]] = {}
    for p in passes:
        for c in p["cases"]:
            by_label.setdefault(c["label"], []).append(c)
    return [{"k": cs[0]["k"], "case_s": statistics.median(c["case_s"] for c in cs)}
            for cs in by_label.values()]


def k_growth(cases: list[dict]) -> float:
    """Summed case time at the largest k over that at the next smaller k."""
    by_k: dict[int, float] = {}
    for c in cases:
        if c["k"] is not None:
            by_k[c["k"]] = by_k.get(c["k"], 0.0) + c["case_s"]
    ks = sorted(by_k)
    return by_k[ks[-1]] / by_k[ks[-2]] if len(ks) >= 2 and by_k[ks[-2]] else 0.0


def end_to_end(passes: list[dict]) -> dict[str, float]:
    """Pass totals as medians over passes; per-case figures over the run's
    per-case medians; set-up over every process of the run."""
    cases = case_medians(passes)
    times = [c["case_s"] for c in cases]
    med = statistics.median
    return {
        "setup_s": med(s for p in passes for s in p["setups"]),
        "wall_s": med(p["wall_s"] for p in passes),
        "cpu_s": med(p["cpu_s"] for p in passes),
        "case_p50_ms": 1000 * med(times),
        "case_p95_ms": 1000 * (statistics.quantiles(times, n=20, method="inclusive")[18]
                               if len(times) > 1 else times[0]),
        "slowest_case_s": max(times),
        "k_growth": k_growth(cases),
        "peak_rss_mb": med(p["rss_kb"] for p in passes) / 1024,
    }


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """One benchmark run; returns the result object."""
    if not (SRC / "anomcancel" / "__init__.py").is_file():
        raise BenchError(f"program source not found under {SRC}")
    digests = load_digests()
    run_control(workload, digests)
    rng = random.Random(seed)

    if trace:
        jobs = pass_jobs(workload, rng)
        plain = run_pass(workload, jobs, digests, trace=False)
        traced = run_pass(workload, jobs, digests, trace=True)
        overhead = traced["wall_s"] - plain["wall_s"]
        layers = spans.layer_metrics(spans.merge(traced["traces"]), overhead)
        units = {name: unit for name, unit, _ in spans.LAYER_METRICS}
        metrics = {name: {"value": value, "unit": units[name]} for name, value in layers.items()}
        passes = [plain, traced]
    else:
        # Start a pass only if one as long as the last still ends in time.
        passes = []
        t_start = t_pass = time.monotonic()
        while not passes or 2 * time.monotonic() - t_pass - t_start <= seconds:
            t_pass = time.monotonic()
            passes.append(run_pass(workload, pass_jobs(workload, rng), digests, trace=False))
        units = dict(END_TO_END)
        metrics = {name: {"value": value, "unit": units[name]}
                   for name, value in end_to_end(passes).items()}

    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    if not any(p["cases"] for p in passes):
        raise BenchError(f"no case of {workload} ran")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics, "passes": passes}


def print_table(workload: str, result: dict) -> None:
    """Readable summary on standard error; cold cases are listed one by one."""
    err = sys.stderr
    passes = result["passes"]
    err.write(f"workload {workload}: {len(passes)} passes, {result['attempted']} cases "
              f"attempted, {result['failed']} failed, failed_frac "
              f"{result['failed'] / result['attempted']:.4f}, unscaled median pass wall "
              f"{statistics.median(p['raw_wall_s'] for p in passes):.3f} s, median scale "
              f"{statistics.median(p['scale'] for p in passes):.3f}\n")
    for name, m in result["metrics"].items():
        err.write(f"  {name:<42} {m['value']:>14.6g} {m['unit']}\n")
    if workload != "grid":
        err.write(f"  {'case (first pass)':<42} {'millis':>8} {'measured_ms':>12} {'scaled_ms':>10}\n")
        for c in passes[0]["cases"]:
            err.write(f"  {c['label']:<42} {c['millis']:>8} {1000 * c['raw_s']:>12.1f} "
                      f"{1000 * c['case_s']:>10.1f}\n")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=["grid", "ladder", "qdeep"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchError, OSError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    print_table(args.workload, result)
    del result["passes"]
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
