"""Command-line front end: run verification cases and print q-expansions.

Exit status: 0 when every requested check passes, 1 when any verdict is
"fail", 2 for usage errors, 3 for internal failures, 141 (128 + SIGPIPE)
when the reader of standard output closes it early.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
from fractions import Fraction

from .algebra import half_q_label
from .bundles import Family, GeometrySpec, ch_theta_bundle
from .decomp import BrBetarKind, closed_form_checks, extract_br_betar
from .errors import UsageError
from .theta import ModularFormId, modular_form
from .verifier import (CASES, MAX_Q_ORDER, CaseId, CaseRequest, Report, check_tolerance,
                       default_grid, run_suite)

_FAMILIES = sorted(f.value for f in Family)

_MODULAR_OBJECTS = {form.value: form for form in ModularFormId}

# Suite-file keys and the JSON type each must have.
_TYPE_NAMES = {list: "an array", str: "a string", int: "an integer",
               bool: "true or false", (int, float): "a number"}
_SUITE_KEYS = {"cases": list, "format": str, "tolerance": (int, float)}
_ENTRY_KEYS = {"case": str, "family": str, "k": int, "l": int, "a": int, "b": int,
               "qOrder": int, "perturb": bool}
# Geometry keys and flags, with the defaults of those that have one.
_GEOMETRY_DEFAULTS = {"k": 1, "l": 1, "a": 1, "b": 0}
_GEOMETRY_KEYS = ("family", *_GEOMETRY_DEFAULTS)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="anomcancel",
        description="Exact verification of twisted elliptic-genus anomaly "
                    "cancellation identities.")
    sub = parser.add_subparsers(dest="command", required=True)

    v = sub.add_parser("verify", help="run verification cases")
    v.add_argument("--case", help="case identifier, e.g. THM31 or COR32")
    v.add_argument("--family", choices=_FAMILIES,
                   help="bundle family (defaults to the case's natural family)")
    v.add_argument("--q-order", type=int, dest="q_order",
                   help="truncation order in integer q units (default k+2)")
    v.add_argument("--format", choices=["text", "json"],
                   help="report format (default text, or the suite file's)")
    v.add_argument("--suite", help="path to a JSON suite configuration")
    v.add_argument("--all", action="store_true", help="run the default grid")
    v.add_argument("--tolerance", type=float,
                   help="override the numeric tolerances (--case NUMERIC_MODULARITY only)")

    e = sub.add_parser("expand", help="print q-expansions of named objects")
    e.add_argument("--object", required=True,
                   choices=sorted(_MODULAR_OBJECTS) + ["theta-bundle", "br", "betar"])
    e.add_argument("--family", choices=_FAMILIES, help="bundle family (default ab)")
    e.add_argument("--which", type=int, choices=[1, 2],
                   help="which twisted bundle (theta-bundle object only; default 2)")
    e.add_argument("--q-order", type=int, dest="q_order", default=3)
    e.add_argument("--format", choices=["text", "json"], default="text")
    for p in (v, e):
        p.add_argument("--k", type=int, help="manifold dimension is 4k (default 1)")
        p.add_argument("--l", type=int, help="auxiliary bundle rank is 2l (default 1)")
        p.add_argument("--a", type=int, help="first twist integer (default 1)")
        p.add_argument("--b", type=int, help="second twist integer (default 0)")
        p.add_argument("--debug", action="store_true",
                       help="print the traceback of an internal error (exit 3)")
    return parser


# ---------------------------------------------------------------------------
# report serialization


def _half_index_str(n: int | None) -> str | None:
    return None if n is None else str(Fraction(n, 2))


def report_to_dict(report: Report) -> dict:
    spec = report.spec
    return {
        "case": report.case.value,
        "spec": None if spec is None else {
            "family": spec.family.value,
            "k": spec.k, "l": spec.l, "a": spec.a, "b": spec.b,
        },
        "qOrder": report.q_order,
        "verdict": report.verdict,
        "residual": {
            "firstNonzeroQOrder": _half_index_str(report.residual_q),
            "degree": report.residual_degree,
        },
        "quantities": [{"name": n, "pontryagin": v} for n, v in report.quantities],
        "notes": list(report.notes),
        "millis": report.millis,
    }


def dumps_reports(reports: list[Report]) -> str:
    return json.dumps([report_to_dict(r) for r in reports], indent=2)


def format_report_text(report: Report) -> str:
    tag = "PASS" if report.passed else "FAIL"
    spec = report.spec
    head = f"[{tag}] {report.case.value}"
    if spec is not None:
        head += (f" family={spec.family.value}"
                 f" k={spec.k} l={spec.l} a={spec.a} b={spec.b}")
    head += f" N={report.q_order}"
    if report.residual_q is None and report.residual_degree is None:
        head += " residual=0"
    else:
        where = []
        if report.residual_q is not None:
            where.append(f"q^({Fraction(report.residual_q, 2)})")
        if report.residual_degree is not None:
            where.append(f"degree {report.residual_degree}")
        head += " residual at " + ", ".join(where)
    head += f" ({report.millis} ms)"
    lines = [head]
    lines += [f"    {name} = {value}" for name, value in report.quantities]
    lines += [f"    note: {note}" for note in report.notes]
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# verify command


def _request(entry: dict, where: str, tolerance: float | None) -> CaseRequest:
    """The one builder of a case request, from a suite entry or from the --case
    flags gathered into the same keys, defaults filled in.

    GeometrySpec and CaseRequest reject invalid combinations (e.g. twists other
    than (1, 0) for the two-line family) before any case executes; every
    refusal starts with `where`, the suite entry or the command line.
    """
    try:
        case = CaseId(entry.get("case"))
    except ValueError:
        raise UsageError(f"{where}: unknown case {entry.get('case')!r}; choose from "
                         + ", ".join(c.value for c in CaseId))
    given = {key: entry[key] for key in _GEOMETRY_KEYS if key in entry}
    families = CASES[case].families
    if given and not families:
        raise UsageError(f"{where}: {case.value} takes no geometry")
    try:
        # the suite-wide tolerance is the numeric case's; no other case reads one
        return CaseRequest(case, _geometry(given, families[0]) if families else None,
                           entry.get("qOrder"), perturb=entry.get("perturb", False),
                           tolerance=tolerance if case is CaseId.NUMERIC_MODULARITY else None)
    except UsageError as exc:
        raise UsageError(f"{where}: {exc}") from None


def _geometry(given: dict, family: Family) -> GeometrySpec:
    """A geometry from the keys a user gave; `family` and _GEOMETRY_DEFAULTS fill the rest."""
    try:
        family = Family(given.get("family", family.value))
    except ValueError:
        raise UsageError(f"unknown family {given['family']!r}")
    return GeometrySpec(family=family, **{key: given.get(key, default)
                                          for key, default in _GEOMETRY_DEFAULTS.items()})


def _given_geometry(args: argparse.Namespace) -> dict:
    """The geometry flags a user gave on the command line."""
    return {key: getattr(args, key) for key in _GEOMETRY_KEYS if getattr(args, key) is not None}


def _check_object(obj, types: dict, where: str) -> None:
    """Reject anything but a JSON object whose keys and value types `types` allows."""
    if not isinstance(obj, dict):
        raise UsageError(f"{where} must be a JSON object")
    for key, value in obj.items():
        if key not in types:
            raise UsageError(f"{where}: unknown key {key!r}")
        want = types[key]
        # JSON true/false arrive as bool, which Python counts as an int
        if not isinstance(value, want) or isinstance(value, bool) is not (want is bool):
            raise UsageError(f"{where}: {key!r} must be {_TYPE_NAMES[want]}")


def _requests_from_suite_file(path: str) -> tuple[list[CaseRequest], str | None]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            config = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise UsageError(f"cannot read suite config {path!r}: {exc}")
    _check_object(config, _SUITE_KEYS, "suite config")
    if not config.get("cases"):
        raise UsageError("suite config must be an object with a nonempty 'cases' array")
    if config.get("format", "text") not in ("text", "json"):
        raise UsageError("suite config: 'format' must be \"text\" or \"json\"")
    if "tolerance" in config:
        check_tolerance(config["tolerance"], "suite config")
    requests = []
    for n, entry in enumerate(config["cases"]):
        _check_object(entry, _ENTRY_KEYS, f"suite entry {n}")
        requests.append(_request(entry, f"suite entry {n}", config.get("tolerance")))
    return requests, config.get("format")


def cmd_verify(args: argparse.Namespace) -> int:
    out_format = args.format
    if args.tolerance is not None:
        # a suite sets its own tolerance and no other case reads one; CaseRequest checks it
        if args.suite or args.all or args.case != CaseId.NUMERIC_MODULARITY.value:
            raise UsageError("--tolerance applies to --case NUMERIC_MODULARITY only")
    if args.suite or args.all:
        # a suite file or the grid chooses its own cases, geometries and q-orders
        given = {"--all": args.suite and args.all, "--case": args.case is not None,
                 "--q-order": args.q_order is not None,
                 **{f"--{key}": True for key in _given_geometry(args)}}
        extra = [flag for flag, on in given.items() if on]
        if extra:
            raise UsageError(f"{'--suite' if args.suite else '--all'} cannot be combined "
                             f"with {', '.join(extra)}")
    if args.suite:
        requests, fmt = _requests_from_suite_file(args.suite)
        if fmt is not None and out_format is not None:
            raise UsageError("--format cannot be combined with a suite file that sets 'format'")
        out_format = out_format or fmt
    elif args.all:
        requests = default_grid()
    elif args.case:
        entry = {"case": args.case, "qOrder": args.q_order, **_given_geometry(args)}
        requests = [_request(entry, "command line", args.tolerance)]
    else:
        raise UsageError("choose one of --case, --all or --suite")

    # text reports stream as each case finishes; JSON is one array at the end
    reports = []
    for report in run_suite(requests):
        reports.append(report)
        if out_format != "json":
            print(format_report_text(report), flush=True)
    if out_format == "json":
        print(dumps_reports(reports))
    else:
        print(f"{sum(r.passed for r in reports)}/{len(reports)} cases passed")
    return 0 if all(r.passed for r in reports) else 1


# ---------------------------------------------------------------------------
# expand command


def _expand_rows(args: argparse.Namespace) -> tuple[list[tuple[str, str]], int]:
    """The rows to print and the q-order to report with them."""
    n = args.q_order
    if n < 0:
        raise UsageError("--q-order must be >= 0")
    if n > MAX_Q_ORDER:
        raise UsageError(f"--q-order must be at most {MAX_Q_ORDER}, not {n}")
    given = _given_geometry(args)
    if args.which is not None and args.object != "theta-bundle":
        raise UsageError("--which applies to --object theta-bundle only")
    if args.object in _MODULAR_OBJECTS:
        if given:
            raise UsageError(f"{args.object} takes no geometry")
        series = modular_form(_MODULAR_OBJECTS[args.object], n)
    elif args.object == "theta-bundle":
        series = ch_theta_bundle(args.which or 2, _geometry(given, Family.AB), n)
    else:
        spec = _geometry(given, Family.AB)
        kind = BrBetarKind(args.object)
        h = extract_br_betar(spec, kind)
        prefix = "b" if kind is BrBetarKind.B_R else "beta"
        rows = [(f"{prefix}_{r}", str(hr)) for r, hr in enumerate(h)]
        for check in closed_form_checks(spec, kind, h):
            rows.append((f"{check.name} readings", ",".join(check.matches) or "none"))
        # the h_r do not depend on the q-order; report at least the verify default k + 2
        return rows, max(n, spec.k + 2)
    return [(half_q_label(i), str(c)) for i, c in enumerate(series.coeffs)], n


def cmd_expand(args: argparse.Namespace) -> int:
    rows, order = _expand_rows(args)
    if args.format == "json":
        payload = {"object": args.object, "qOrder": order,
                   "rows": [{"power": p, "value": v} for p, v in rows]}
        print(json.dumps(payload, indent=2))
    else:
        width = max(len(p) for p, _ in rows)
        for power, value in rows:
            print(f"{power:<{width}}  {value}")
    return 0


def main(argv: list[str] | None = None) -> int:
    # the heap so far (site, the stdlib, this package) outlives the run: frozen, no
    # collection walks it again; a caller that froze nothing gets it back unfrozen
    thaw = gc.get_freeze_count() == 0
    gc.freeze()
    try:
        return _main(argv)
    finally:
        if thaw:
            gc.unfreeze()


def _main(argv: list[str] | None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        status = cmd_verify(args) if args.command == "verify" else cmd_expand(args)
        sys.stdout.flush()  # a reader gone away shows here, not at interpreter exit
        return status
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # the reader left (`| head`): exit as SIGPIPE would; devnull takes the last flush
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except Exception as exc:  # internal failure: distinct exit status
        if args.debug:
            import traceback  # only here: no start-up cost for every run
            traceback.print_exc()
        print(f"internal error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
