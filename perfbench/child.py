"""One benchmark process: run one job through anomcancel's command line.

Usage: python3 child.py SRC_DIR JOB_JSON

JOB_JSON is {"argv": [...], "trace": bool} to run `anomcancel.cli.main(argv)`,
or {"control": {...}} to run one case with `perturb` set (a negative control).
The command line writes its reports to standard output as it would for a
user; the parent parses and checks them, so the harness keeps no copy of
them in this process.
The last line of standard output is a JSON object with the process's
timings, its peak RSS, read as soon as the command line returns, each case's
time and, when traced, the span aggregates.  A control prints its report.
Timestamps use CLOCK_MONOTONIC, which the parent shares, so the parent can
measure set-up from the moment it started this process.
"""

from __future__ import annotations

import json
import resource
import signal
import sys
import time


_CAL_KEYS = {i * 7919 + (i * i % 613) * 104729: (i + 1) * 1000003 for i in range(50)}


def calibrate() -> float:
    """Seconds for one fixed sparse-dict product (about 0.5 ms).

    The kernel has the shape of the ring multiply (dict get/set over ~1300
    distinct int keys, multi-word int products), so the host's changing speed
    affects it much as it affects the program; it shares no code with the
    program under test.
    """
    a = _CAL_KEYS
    t0 = time.perf_counter()
    out: dict[int, int] = {}
    get = out.get
    for k1, v1 in a.items():
        for k2, v2 in a.items():
            k = k1 + k2
            out[k] = get(k, 0) + v1 * v2
    return time.perf_counter() - t0


class Clock:
    """Calibration samples: SETUP_SAMPLES before the first case, then one
    every CAL_EVERY_S from a timer signal while the command line runs.

    The host's speed changes within a second, so samples taken while a case
    runs track the speed that case saw far better than samples before and
    after it.  (Samples from a second thread track it far worse: they wait
    for the interpreter lock.)  Time spent in the samples is kept, so that
    callers can take it out of every time they measure, and is hidden from
    the tracer's spans.
    """

    CAL_EVERY_S = 0.02
    CAL_WINDOW_S = 0.1   # a case is scaled by the samples from this long before it to after it
    SETUP_SAMPLES = 9

    def __init__(self, tracer=None) -> None:
        self.samples: list[tuple[float, float]] = []  # timer samples: (monotonic time, seconds)
        self.spent = 0.0       # wall time spent calibrating
        self.spent_cpu = 0.0   # CPU time spent calibrating
        self.tracer = tracer

    def sample(self) -> float:
        t0, c0 = time.monotonic(), time.process_time()
        value = calibrate()
        t1 = time.monotonic()
        self.spent += t1 - t0
        self.spent_cpu += time.process_time() - c0
        if self.tracer is not None:
            self.tracer.hide(t1 - t0)
        return value

    def setup(self) -> float:
        """Median of SETUP_SAMPLES samples taken now."""
        return sorted(self.sample() for _ in range(self.SETUP_SAMPLES))[self.SETUP_SAMPLES // 2]

    def _tick(self, *_signal) -> None:
        value = self.sample()
        self.samples.append((time.monotonic(), value))

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.CAL_EVERY_S, self.CAL_EVERY_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)

    def mean(self, t0: float, t1: float) -> float | None:
        """Mean of the timer samples taken between t0 and t1, if any."""
        picks = [v for t, v in self.samples if t0 <= t <= t1]
        return sum(picks) / len(picks) if picks else None


class Unsignalled:
    """A text stream whose writes the calibration timer cannot interrupt: a
    signal that arrives while a write waits on a full pipe can lose output."""

    def __init__(self, stream) -> None:
        self.stream = stream

    def write(self, text: str) -> int:
        mask = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGALRM})
        try:
            return self.stream.write(text)
        finally:
            signal.pthread_sigmask(signal.SIG_SETMASK, mask)

    def flush(self) -> None:
        mask = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGALRM})
        try:
            self.stream.flush()
        finally:
            signal.pthread_sigmask(signal.SIG_SETMASK, mask)

    def __getattr__(self, name):
        return getattr(self.stream, name)


def main() -> int:
    src, job = sys.argv[1], json.loads(sys.argv[2])
    sys.path.insert(0, src)
    from anomcancel import cli, verifier
    from anomcancel.bundles import Family, GeometrySpec

    tracer = None
    if job.get("trace"):
        import spans
        tracer = spans.Tracer()
        spans.install(tracer)

    if "control" in job:
        c = job["control"]
        spec = None if c.get("family") is None else GeometrySpec(
            k=c["k"], l=c["l"], a=c["a"], b=c["b"], family=Family(c["family"]))
        report = verifier.verify_case(verifier.CaseId(c["case"]), spec, c.get("qOrder"),
                                      perturb=True)
        print(json.dumps({"report": cli.report_to_dict(report)}))
        return 0

    clock = Clock(tracer)
    cal_setup = clock.setup()

    # Time each case from outside the verifier, on every binding callers use,
    # less the calibration done while it ran.  `first` keeps the clocks, and
    # the calibration spent so far, at the first case.
    case_times: list[tuple[float, float, float]] = []
    first: list[tuple[float, float, float, float]] = []
    inner = verifier.verify_case

    def timed_verify_case(*args, **kwargs):
        t0, spent0 = time.monotonic(), clock.spent
        if not first:
            first.append((t0, time.process_time(), clock.spent, clock.spent_cpu))
        try:
            return inner(*args, **kwargs)
        finally:
            case_times.append((t0, time.monotonic(), clock.spent - spent0))

    for mod in (cli, verifier):
        mod.verify_case = timed_verify_case

    stdout, sys.stdout = sys.stdout, Unsignalled(sys.stdout)
    clock.start()
    try:
        status = cli.main(job["argv"])
    finally:
        clock.stop()
        sys.stdout = stdout
    t_end, cpu_end = time.monotonic(), time.process_time()
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    sys.stdout.flush()
    if not first:
        first.append((t_end, cpu_end, clock.spent, clock.spent_cpu))
    t_first, cpu_first, spent_setup, spent_cpu_setup = first[0]
    wall = t_end - t_first - (clock.spent - spent_setup)
    cpu = cpu_end - cpu_first - (clock.spent_cpu - spent_cpu_setup)
    cal_run = clock.mean(t_first, t_end) or cal_setup
    result = {
        "status": status,
        "t_first": t_first,
        "setup_cal_spent_s": spent_setup,
        "cal_setup": cal_setup,
        "cal_run": cal_run,
        "wall_s": wall,
        "cpu_s": cpu,
        "rss_kb": rss_kb,
        "case_times": [{"case_s": t1 - t0 - spent,
                        "cal": clock.mean(t0 - clock.CAL_WINDOW_S, t1 + clock.CAL_WINDOW_S)
                        or cal_run}
                       for t0, t1, spent in case_times],
    }
    if tracer is not None:
        result["trace"] = spans.dump(tracer)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
