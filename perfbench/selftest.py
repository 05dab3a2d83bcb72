"""Self-test of the benchmark's tracing: every span records where it is predicted to.

Usage (from the repository root): python3 perfbench/selftest.py

Runs one traced pass of each workload (seed 1) and asserts that each named
span records at least one call on every workload where it is predicted to,
and none where it is predicted not to, so that no wrapper silently goes
unreached.  It also checks that BENCHMARK.json names exactly the metrics the
benchmark reports, and prints the two layer-shape predictions the baseline
rests on.
"""

from __future__ import annotations

import json
import random
import sys

import run
import spans

ALL = {"grid", "ladder", "qdeep"}
LADDER_CASES = {"THM31", "THM34", "THM41", "DOUBLE_ROUTE", "EQ318_TRANSFER"}
QDEEP_CASES = LADDER_CASES | {"JACOBI_QSERIES"}

# Workloads on which a span is predicted to record; every other span: ALL.
REACH = {
    "theta.jacobi_identity_check": {"grid", "qdeep"},
    "theta.transformation_residuals": {"grid"},
}


def predicted(span: str) -> set[str]:
    if span in REACH:
        return REACH[span]
    head, _, case = span.partition(".")
    if head == "verifier" and case != "verify_case":
        return {"grid"} | {w for w, cases in (("ladder", LADDER_CASES), ("qdeep", QDEEP_CASES))
                           if case in cases}
    return ALL


def main() -> int:
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems = []
    if [m["name"] for m in bench["end_to_end"]] != [n for n, _ in run.END_TO_END]:
        problems.append("BENCHMARK.json end_to_end differs from run.END_TO_END")
    if [m["name"] for m in bench["per_layer"]] != [n for n, _, _ in spans.LAYER_METRICS]:
        problems.append("BENCHMARK.json per_layer differs from spans.LAYER_METRICS")

    span_names = sorted({name.rsplit(".", 1)[0] for name, _, _ in spans.LAYER_METRICS
                         if name != "trace.overhead_s"})
    digests = run.load_digests()
    layer = {}
    for workload in sorted(ALL):
        jobs = run.pass_jobs(workload, random.Random(1))
        traced = run.run_pass(workload, jobs, digests, trace=True)
        if traced["failed"]:
            problems.append(f"{workload}: {traced['failed']} cases failed the gate")
        merged = spans.merge(traced["traces"])
        layer[workload] = spans.layer_metrics(merged, 0.0)
        for span in span_names:
            s = merged["spans"].get(span, {"calls": 0, "total_s": 0.0})
            recorded = s["calls"] > 0 or s["total_s"] > 0
            if recorded != (workload in predicted(span)):
                problems.append(f"{workload}: span {span} "
                                f"{'recorded' if recorded else 'did not record'}, "
                                f"predicted {'to' if workload in predicted(span) else 'not to'}")
        print(f"{workload}: {len(span_names)} spans checked", file=sys.stderr)

    algebra_self = {n: v for n, v in layer["ladder"].items()
                    if n.startswith("algebra.") and n.endswith(".self_s")}
    top = max(algebra_self, key=algebra_self.get)
    ratio = (layer["qdeep"]["algebra.series_mul.self_s"]
             / max(layer["qdeep"]["algebra.pontryagin_all.self_s"], 1e-9))
    print(f"shape: ladder's largest algebra self time is {top}")
    print(f"shape: qdeep series_mul.self_s / pontryagin_all.self_s = {ratio:.1f}")

    for p in problems:
        print("FAIL", p)
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
