"""Span tracer installed from outside the program, one layer per module.

Each traced function or method is replaced, on every binding a caller looks
up (module globals, package re-exports, class attributes and their operator
aliases), by a wrapper that records a span.  Spans are folded into per-name
aggregates in memory as they close and handed back once, at the end of the
process.  A span's self time is its duration minus the time covered by the
spans it caused.  Work the tracer does for its own counters, and calibration
the benchmark does between cases, is charged to no span: it is taken out of
the duration of every span open while it runs.

Term counts go through the public API only (`iter_terms`, `coeffs`,
`is_zero`), so the counters keep their meaning if the ring representation
changes.
"""

from __future__ import annotations

import sys
import time

_clock = time.perf_counter


class _Stat:
    __slots__ = ("calls", "total", "self_time", "depth", "seen", "repeats")

    def __init__(self) -> None:
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0
        self.depth = 0          # open spans of this name; total counts the outermost only
        self.seen: set = set()  # argument keys met so far in this process
        self.repeats = 0


class Tracer:
    def __init__(self) -> None:
        self.stats: dict[str, _Stat] = {}
        self.counts: dict[str, float] = {}
        self._stack: list[list[float]] = []  # per open span: [time covered by children]
        self._hidden = 0.0  # seconds charged to no span so far
        self._term_memo: dict[int, tuple[object, int]] = {}

    def stat(self, name: str) -> _Stat:
        st = self.stats.get(name)
        if st is None:
            st = self.stats[name] = _Stat()
        return st

    def add(self, name: str, value: float) -> None:
        self.counts[name] = self.counts.get(name, 0) + value

    def peak(self, name: str, value: float) -> None:
        if value > self.counts.get(name, 0):
            self.counts[name] = value

    def hide(self, seconds: float) -> None:
        """Charge work done inside the open spans to none of them (tracer
        bookkeeping, benchmark calibration).  Bookkeeping hides its time less
        what was hidden while it ran, so that a calibration sample taken from
        a signal inside it is not hidden twice."""
        self._hidden += seconds

    def wrap(self, fn, name_of, *, key=None, after=None, extra_total=None):
        """Wrap `fn` in a span.

        name_of(args) gives the span name; key(args) gives a hashable argument
        key for the repeat ratio; after(args, result) updates counters;
        extra_total(args) names a second aggregate that receives the span's
        total time (used to split one function's time by an argument).
        """
        stack = self._stack
        stat = self.stat

        def traced(*args, **kwargs):
            st = stat(name_of(args))
            if key is not None:
                t, h = _clock(), self._hidden
                k = key(args)
                if k in st.seen:
                    st.repeats += 1
                else:
                    st.seen.add(k)
                self.hide(_clock() - t - (self._hidden - h))
            frame = [0.0]
            stack.append(frame)
            st.depth += 1
            hidden0 = self._hidden
            t0 = _clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = _clock() - t0 - (self._hidden - hidden0)
                stack.pop()
                st.depth -= 1
                st.calls += 1
                st.self_time += dt - frame[0]
                if st.depth == 0:
                    st.total += dt
                if extra_total is not None:
                    stat(extra_total(args)).total += dt
                if stack:
                    stack[-1][0] += dt
            if after is not None:
                t, h = _clock(), self._hidden
                after(args, result)
                self.hide(_clock() - t - (self._hidden - h))
            return result

        traced.__wrapped__ = fn
        return traced

    # -- public-API term counters ------------------------------------------

    def terms(self, poly) -> int:
        """Number of monomials of a ring element (1 for a scalar)."""
        if not hasattr(poly, "iter_terms"):
            return 1
        hit = self._term_memo.get(id(poly))
        if hit is not None and hit[0] is poly:
            return hit[1]
        n = sum(1 for _ in poly.iter_terms())
        if len(self._term_memo) >= 4096:
            self._term_memo.clear()
        self._term_memo[id(poly)] = (poly, n)
        return n


def _args_key(args):
    key = []
    for a in args:
        try:
            hash(a)
        except TypeError:
            a = repr(a)
        key.append(a)
    return tuple(key)


def install(tracer: Tracer) -> None:
    """Wrap the public layer functions of anomcancel on every binding."""
    modules = {name: mod for name, mod in sys.modules.items()
               if name == "anomcancel" or name.startswith("anomcancel.")}
    algebra = modules["anomcancel.algebra"]
    GradedPoly, QSeries = algebra.GradedPoly, algebra.QSeries

    def patch_functions(module_name, fn_name, wrapper_for):
        original = getattr(modules[module_name], fn_name)
        wrapper = wrapper_for(original)
        for mod in modules.values():
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)

    def patch_method(cls, method_name, wrapper_for):
        original = cls.__dict__[method_name]
        wrapper = wrapper_for(original)
        for attr, value in list(cls.__dict__.items()):
            if value is original:  # e.g. __rmul__ = __mul__
                setattr(cls, attr, wrapper)

    def fixed(name):
        return lambda args: name

    def span(name, **kw):
        return lambda fn: tracer.wrap(fn, fixed(name), **kw)

    # -- algebra -------------------------------------------------------------

    def poly_mul_after(args, result):
        a, b = args
        if isinstance(result, GradedPoly):
            tracer.add("algebra.poly_mul.term_pairs", tracer.terms(a) * tracer.terms(b))
            tracer.peak("algebra.poly_mul.peak_terms", tracer.terms(result))

    def is_zero(c) -> bool:
        return c.is_zero if isinstance(c, GradedPoly) else c == 0

    def series_mul_after(args, result):
        a, b = args
        if not isinstance(b, QSeries):
            return
        ca, cb = a.coeffs, b.coeffs
        width = len(ca)
        # For each nonzero a_i the product loop visits the index pairs
        # i + j < width, and multiplies only where b_j is nonzero too.
        prefix = [0]  # prefix[m]: nonzero coefficients among cb[:m]
        for c in cb:
            prefix.append(prefix[-1] + (not is_zero(c)))
        rows = [i for i, c in enumerate(ca) if not is_zero(c)]
        tracer.add("algebra.series_mul.coeff_pairs", sum(prefix[width - i] for i in rows))
        tracer.add("algebra.series_mul.index_pairs", sum(width - i for i in rows))

    def pontryagin_after(args, result):
        tracer.add("algebra.pontryagin_all.in_terms", tracer.terms(args[0]))
        tracer.add("algebra.pontryagin_all.out_terms", tracer.terms(result.poly))

    patch_method(GradedPoly, "__mul__", span("algebra.poly_mul", after=poly_mul_after))
    patch_method(GradedPoly, "__add__", span("algebra.poly_add"))
    patch_method(GradedPoly, "inv", span("algebra.poly_inv"))
    patch_method(QSeries, "__mul__", span("algebra.series_mul", after=series_mul_after))
    patch_method(QSeries, "inv", span("algebra.series_inv"))
    patch_method(QSeries, "powi", span("algebra.series_powi"))
    patch_functions("anomcancel.algebra", "pontryagin_all",
                    span("algebra.pontryagin_all", after=pontryagin_after))
    patch_functions("anomcancel.algebra", "ideal_reduce", span("algebra.ideal_reduce"))

    # -- theta ---------------------------------------------------------------

    theta = "anomcancel.theta"
    patch_functions(theta, "theta_ratio", span("theta.theta_ratio", key=_args_key))
    patch_functions(theta, "modular_form", span("theta.modular_form", key=_args_key))
    patch_functions(theta, "jacobi_identity_check", span("theta.jacobi_identity_check"))
    patch_functions(theta, "transformation_residuals", span("theta.transformation_residuals"))

    # -- bundles -------------------------------------------------------------

    bundles = "anomcancel.bundles"
    patch_functions(bundles, "q_form", lambda fn: tracer.wrap(
        fn, lambda args: "bundles.q_form." + args[1].value, key=_args_key))
    patch_functions(bundles, "ch_theta_bundle", span("bundles.ch_theta_bundle", key=_args_key))
    patch_functions(bundles, "genus_form", span("bundles.genus_form"))
    patch_functions(bundles, "ch_spinor_pow", span("bundles.ch_spinor_pow"))

    # -- decomp --------------------------------------------------------------

    decomp = "anomcancel.decomp"
    patch_functions(decomp, "decompose", span("decomp.decompose"))
    patch_functions(decomp, "extract_br_betar", span("decomp.extract_br_betar"))
    patch_functions(decomp, "basis_series", span("decomp.basis_series"))

    # -- verifier and cli ----------------------------------------------------

    patch_functions("anomcancel.verifier", "verify_case", lambda fn: tracer.wrap(
        fn, fixed("verifier.verify_case"),
        extra_total=lambda args: "verifier." + args[0].value))
    patch_functions("anomcancel.cli", "main", span("cli.main"))


def dump(tracer: Tracer) -> dict:
    """Plain-data snapshot of the aggregates, for the parent process."""
    return {
        "spans": {name: {"calls": st.calls, "total_s": st.total, "self_s": st.self_time,
                         "repeats": st.repeats}
                  for name, st in tracer.stats.items()},
        "counts": dict(tracer.counts),
    }


def scaled(d: dict, factor: float) -> dict:
    """A dump with every span time multiplied by `factor`."""
    return {"spans": {name: {**s, "total_s": s["total_s"] * factor, "self_s": s["self_s"] * factor}
                      for name, s in d["spans"].items()},
            "counts": d["counts"]}


def merge(dumps: list[dict]) -> dict:
    """Sum span aggregates and counters over processes (peaks take the max)."""
    spans: dict[str, dict] = {}
    counts: dict[str, float] = {}
    for d in dumps:
        for name, s in d["spans"].items():
            acc = spans.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "repeats": 0})
            for field, value in s.items():
                acc[field] += value
        for name, value in d["counts"].items():
            if name.endswith("peak_terms"):
                counts[name] = max(counts.get(name, 0), value)
            else:
                counts[name] = counts.get(name, 0) + value
    return {"spans": spans, "counts": counts}


# (name, unit, better) of every per-layer metric, in report order.
LAYER_METRICS = [
    ("algebra.poly_mul.calls", "count", "lower"),
    ("algebra.poly_mul.self_s", "s", "lower"),
    ("algebra.poly_mul.term_pairs", "count", "lower"),
    ("algebra.poly_mul.peak_terms", "count", "lower"),
    ("algebra.poly_add.calls", "count", "lower"),
    ("algebra.poly_add.self_s", "s", "lower"),
    ("algebra.poly_inv.calls", "count", "lower"),
    ("algebra.poly_inv.self_s", "s", "lower"),
    ("algebra.series_mul.calls", "count", "lower"),
    ("algebra.series_mul.self_s", "s", "lower"),
    ("algebra.series_mul.coeff_pairs", "count", "lower"),
    ("algebra.series_mul.useful_ratio", "ratio", "higher"),
    ("algebra.series_inv.calls", "count", "lower"),
    ("algebra.series_inv.self_s", "s", "lower"),
    ("algebra.series_powi.calls", "count", "lower"),
    ("algebra.series_powi.self_s", "s", "lower"),
    ("algebra.pontryagin_all.calls", "count", "lower"),
    ("algebra.pontryagin_all.self_s", "s", "lower"),
    ("algebra.pontryagin_all.in_terms", "count", "lower"),
    ("algebra.pontryagin_all.out_terms", "count", "lower"),
    ("algebra.ideal_reduce.calls", "count", "lower"),
    ("algebra.ideal_reduce.self_s", "s", "lower"),
    ("theta.theta_ratio.calls", "count", "lower"),
    ("theta.theta_ratio.total_s", "s", "lower"),
    ("theta.theta_ratio.repeat_ratio", "ratio", "lower"),
    ("theta.modular_form.calls", "count", "lower"),
    ("theta.modular_form.total_s", "s", "lower"),
    ("theta.modular_form.repeat_ratio", "ratio", "lower"),
    ("theta.jacobi_identity_check.total_s", "s", "lower"),
    ("theta.transformation_residuals.total_s", "s", "lower"),
    ("bundles.q_form.bundle.calls", "count", "lower"),
    ("bundles.q_form.bundle.total_s", "s", "lower"),
    ("bundles.q_form.bundle.repeat_ratio", "ratio", "lower"),
    ("bundles.q_form.theta.calls", "count", "lower"),
    ("bundles.q_form.theta.total_s", "s", "lower"),
    ("bundles.q_form.theta.repeat_ratio", "ratio", "lower"),
    ("bundles.ch_theta_bundle.calls", "count", "lower"),
    ("bundles.ch_theta_bundle.total_s", "s", "lower"),
    ("bundles.ch_theta_bundle.repeat_ratio", "ratio", "lower"),
    ("bundles.genus_form.calls", "count", "lower"),
    ("bundles.genus_form.total_s", "s", "lower"),
    ("bundles.ch_spinor_pow.calls", "count", "lower"),
    ("bundles.ch_spinor_pow.total_s", "s", "lower"),
    ("decomp.decompose.calls", "count", "lower"),
    ("decomp.decompose.self_s", "s", "lower"),
    ("decomp.extract_br_betar.calls", "count", "lower"),
    ("decomp.extract_br_betar.total_s", "s", "lower"),
    ("decomp.basis_series.calls", "count", "lower"),
    ("decomp.basis_series.total_s", "s", "lower"),
    ("verifier.verify_case.self_s", "s", "lower"),
] + [(f"verifier.{case}.total_s", "s", "lower") for case in (
    "THM31", "COR32", "COR33", "THM34", "THM41", "COR42", "COR43", "EQ318_TRANSFER",
    "DOUBLE_ROUTE", "BR_BETAR_CLOSED_FORMS", "HLZ_SPECIAL", "NUMERIC_MODULARITY",
    "JACOBI_QSERIES")] + [
    ("cli.main.self_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
]

def layer_metrics(merged: dict, overhead_s: float) -> dict[str, float]:
    """Every LAYER_METRICS value from merged aggregates; unreached spans read 0."""
    spans, counts = merged["spans"], merged["counts"]
    out: dict[str, float] = {}
    for name, _, _ in LAYER_METRICS:
        if name == "trace.overhead_s":
            out[name] = overhead_s
            continue
        span_name, field = name.rsplit(".", 1)
        span = spans.get(span_name)
        if name == "algebra.series_mul.useful_ratio":
            den = counts.get("algebra.series_mul.index_pairs", 0)
            out[name] = counts.get("algebra.series_mul.coeff_pairs", 0) / den if den else 0.0
        elif field == "repeat_ratio":
            out[name] = span["repeats"] / span["calls"] if span and span["calls"] else 0.0
        elif field in ("calls", "self_s", "total_s"):
            out[name] = span[field] if span else 0
        else:
            out[name] = counts.get(name, 0)
    return out
