"""Command-line interface: flags, exit codes, JSON round-trip."""

import gc
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from anomcancel import bundles, cli, verifier
from anomcancel.cli import _MODULAR_OBJECTS, main
from anomcancel.errors import SymmetryError
from anomcancel.verifier import CaseId


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestVerifyCommand:
    def test_single_case_text(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--case", "COR32",
                               "--k", "1", "--l", "1", "--a", "1", "--b", "0")
        assert code == 0
        assert "[PASS] COR32" in out
        assert "p1(TM) - p1(V)" in out

    def test_json_round_trip_is_byte_identical(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--case", "COR32",
                               "--format", "json")
        assert code == 0
        parsed = json.loads(out)
        assert json.dumps(parsed, indent=2) == out.rstrip("\n")

    def test_json_schema_fields(self, capsys):
        _, out, _ = run_cli(capsys, "verify", "--case", "THM31",
                            "--k", "1", "--l", "1", "--a", "1", "--b", "0",
                            "--format", "json")
        (report,) = json.loads(out)
        assert list(report) == ["case", "spec", "qOrder", "verdict",
                                "residual", "quantities", "notes", "millis"]
        assert report["verdict"] == "pass"
        assert report["residual"] == {"firstNonzeroQOrder": None, "degree": None}
        assert report["spec"] == {"family": "ab", "k": 1, "l": 1, "a": 1, "b": 0}
        for q in report["quantities"]:
            assert set(q) == {"name", "pontryagin"}

    def test_numeric_case(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--case", "NUMERIC_MODULARITY")
        assert code == 0
        assert "e2_S" in out and "delta2_S" in out

    def test_unknown_case_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--case", "THM99")
        assert code == 2
        assert "unknown case" in err

    def test_q_order_past_the_bound_is_usage_error(self, capsys, tmp_path):
        past = str(verifier.MAX_Q_ORDER + 1)
        suite = tmp_path / "deep.json"
        suite.write_text(json.dumps({"cases": [{"case": "JACOBI_QSERIES", "qOrder": int(past)}]}))
        for argv in (("--case", "JACOBI_QSERIES", "--q-order", past),
                     ("--case", "THM31", "--k", "2", "--q-order", past),
                     ("--suite", str(suite))):
            code, out, err = run_cli(capsys, "verify", *argv)
            assert code == 2 and out == ""
            assert f"q-order must be at most {verifier.MAX_Q_ORDER}, not {past}" in err

    def test_no_selector_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "verify")
        assert code == 2
        assert "choose one of" in err

    # every per-root factor lives on one_root_ring(4k), whose degree-2 root
    # packs at most 63 powers: GeometrySpec refuses k = 32 when it is built
    @pytest.mark.parametrize("argv", [
        ("verify", "--case", "THM31", "--family", "ab"),
        ("verify", "--case", "THM34", "--family", "ab-xi"),
        ("verify", "--case", "THM41", "--family", "two-line"),
        ("verify", "--case", "EQ318_TRANSFER", "--family", "ab"),
        ("expand", "--object", "br"),
    ])
    def test_packing_limit_is_usage_error(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv, "--k", "32", "--l", "3")
        assert code == 2 and out == ""
        where = "command line: " if argv[0] == "verify" else ""
        assert (f"error: {where}k must be at most 31, not 32: "
                "the degree cap 4k is too large for packed exponents") in err

    def test_packing_limit_refused_before_the_first_case(self, capsys, tmp_path):
        # every suite entry is checked before any case runs, so COR32 prints no report
        suite = tmp_path / "past-k.json"
        suite.write_text(json.dumps({"cases": [{"case": "COR32"}, {"case": "THM31", "k": 32}]}))
        code, out, err = run_cli(capsys, "verify", "--suite", str(suite))
        assert code == 2 and out == ""
        assert "error: suite entry 1: k must be at most 31, not 32" in err

    # max(|a|, |b|) * l > 4096 is refused before any arithmetic; at 4096 the cases pass
    @pytest.mark.parametrize("case", ["THM31", "THM34", "EQ318_TRANSFER", "DOUBLE_ROUTE"])
    def test_twist_bound(self, capsys, case):
        code, out, err = run_cli(capsys, "verify", "--case", case,
                                 "--k", "2", "--l", "256", "--a", "256", "--b", "1")
        assert code == 2 and out == ""
        assert "max(|a|, |b|) * l must be at most 4096, not 65536" in err
        for geometry in (("--l", "1", "--a", "4096", "--b", "-4096"),
                         ("--l", "4096", "--a", "1", "--b", "-1")):
            assert run_cli(capsys, "verify", "--case", case, "--k", "2", *geometry)[0] == 0

    def test_failing_case_exit_code(self, capsys, tmp_path):
        config = {
            "cases": [
                {"case": "COR32", "k": 1, "l": 1, "a": 1, "b": 0},
                {"case": "JACOBI_QSERIES", "qOrder": 6, "perturb": True},
            ],
            "format": "json",
        }
        path = tmp_path / "suite.json"
        path.write_text(json.dumps(config))
        code, out, _ = run_cli(capsys, "verify", "--suite", str(path))
        assert code == 1
        reports = json.loads(out)
        verdicts = {r["case"]: r["verdict"] for r in reports}
        assert verdicts["COR32"] == "pass"
        assert verdicts["JACOBI_QSERIES"] == "fail"

    def test_bad_suite_file(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        code, _, err = run_cli(capsys, "verify", "--suite", str(path))
        assert code == 2

    def test_symmetry_error_is_internal_error(self, capsys, monkeypatch, cold_caches):
        # a per-root series that is not symmetric is a bug, not a usage error
        def broken(*args, **kwargs):
            raise SymmetryError("back-substitution mismatch")
        monkeypatch.setattr(bundles, "symmetrise", broken)
        code, _, err = run_cli(capsys, "verify", "--case", "THM31")
        assert code == 3
        assert "back-substitution mismatch" in err
        assert "Traceback" not in err

    def test_debug_prints_internal_traceback(self, capsys, monkeypatch, cold_caches):
        def broken(*args, **kwargs):
            raise SymmetryError("back-substitution mismatch")
        monkeypatch.setattr(bundles, "symmetrise", broken)
        code, _, err = run_cli(capsys, "verify", "--case", "THM31", "--debug")
        assert code == 3
        assert "Traceback (most recent call last)" in err
        assert "in broken" in err
        assert err.rstrip().endswith("internal error: back-substitution mismatch")

    @pytest.mark.parametrize("fmt, first", [("text", "[PASS] "), ("json", "")])
    def test_text_reports_stream(self, capsys, monkeypatch, fmt, first):
        # a text report is out before the next case starts; JSON waits for the last case
        printed = []
        inner = verifier.verify_case

        def spy(case, *args, **kwargs):
            printed.append(capsys.readouterr().out)
            if len(printed) == 2:
                raise RuntimeError("stop at the second case")
            return inner(case, *args, **kwargs)
        monkeypatch.setattr(verifier, "verify_case", spy)
        assert main(["verify", "--all", "--format", fmt]) == 3
        assert printed[0] == "" and printed[1].startswith(first)
        assert printed[1].count("\n[") == 0 and "cases passed" not in printed[1]

    def test_two_line_case_via_flags(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--case", "THM41",
                               "--k", "1", "--l", "2")
        assert code == 0
        assert "family=two-line" in out

    @pytest.mark.parametrize("case", ["NUMERIC_MODULARITY", "JACOBI_QSERIES"])
    @pytest.mark.parametrize("flag, value", [("--family", "ab"), ("--k", "5"), ("--l", "1"),
                                             ("--a", "1"), ("--b", "0")])
    def test_geometry_flags_on_a_case_without_one(self, capsys, case, flag, value):
        code, out, err = run_cli(capsys, "verify", "--case", case, flag, value)
        assert code == 2 and out == ""
        assert f"{case} takes no geometry" in err

    def test_pinned_twists_are_usage_error(self, capsys):
        # HLZ_SPECIAL is the (a, b) = (1, 0) instance; it never swaps in other twists
        code, out, err = run_cli(capsys, "verify", "--case", "HLZ_SPECIAL", "--a", "2")
        assert code == 2 and out == ""
        assert "HLZ_SPECIAL fixes a = 1" in err

    def test_family_mismatch_names_the_accepted_flag_value(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--case", "THM34", "--family", "ab")
        assert code == 2
        assert "needs family ab-xi" in err
        assert run_cli(capsys, "verify", "--case", "THM34", "--family", "ab-xi")[0] == 0


def canonical(out: str) -> list:
    """JSON reports without their `millis`, as sorted-key text."""
    reports = json.loads(out)
    for report in reports:
        del report["millis"]
    return [json.dumps(report, sort_keys=True) for report in reports]


class TestOneRequestBuilder:
    """The --case flags and a one-entry suite reach one builder of a case
    request: the same reports, exit codes and refusals."""

    # one request per case, each away from some default it could ignore
    ENTRIES = {
        CaseId.THM31: {"k": 1, "l": 2, "a": 2, "b": 1},
        CaseId.COR32: {"l": 2, "a": 0, "b": 1},
        CaseId.COR33: {"k": 2, "a": -1},
        CaseId.THM34: {"family": "ab-xi", "b": 1},
        CaseId.THM41: {"l": 2},
        CaseId.COR42: {"l": 2},
        CaseId.COR43: {"k": 2},
        CaseId.EQ318_TRANSFER: {"a": 2, "qOrder": 4},
        CaseId.DOUBLE_ROUTE: {"family": "two-line", "l": 2, "qOrder": 4},
        CaseId.BR_BETAR_CLOSED_FORMS: {"family": "ab-xi", "k": 2},
        CaseId.HLZ_SPECIAL: {"k": 2, "l": 2},
        CaseId.NUMERIC_MODULARITY: {},
        CaseId.JACOBI_QSERIES: {"qOrder": 6},
    }

    @staticmethod
    def both(capsys, tmp_path, entry):
        """(code, out, err) of the entry as --case flags, then as a one-entry suite."""
        argv = ["verify", "--format", "json"]
        for key, value in entry.items():
            argv += ["--q-order" if key == "qOrder" else f"--{key}", str(value)]
        path = tmp_path / "suite.json"
        path.write_text(json.dumps({"cases": [entry], "format": "json"}))
        return run_cli(capsys, *argv), run_cli(capsys, "verify", "--suite", str(path))

    @pytest.mark.parametrize("case", list(CaseId), ids=lambda case: case.value)
    def test_flags_and_suite_give_one_report(self, capsys, tmp_path, case):
        (code, out, _), (suite_code, suite_out, _) = self.both(
            capsys, tmp_path, {"case": case.value, **self.ENTRIES[case]})
        assert code == suite_code == 0
        assert canonical(out) == canonical(suite_out)

    @pytest.mark.parametrize("entry", [
        pytest.param({"case": "THM99"}, id="unknown case"),
        pytest.param({"case": "JACOBI_QSERIES", "k": 2}, id="geometry on JACOBI_QSERIES"),
        pytest.param({"case": "COR33", "k": 1}, id="COR33 at k = 1"),
        pytest.param({"case": "HLZ_SPECIAL", "a": 2}, id="HLZ_SPECIAL at a = 2"),
        pytest.param({"case": "THM34", "family": "ab"}, id="THM34 on ab"),
        pytest.param({"case": "JACOBI_QSERIES", "qOrder": 2001}, id="q-order 2001"),
    ])
    def test_flags_and_suite_refuse_alike(self, capsys, tmp_path, entry):
        (code, out, err), (suite_code, suite_out, suite_err) = self.both(capsys, tmp_path, entry)
        assert code == suite_code == 2 and out == suite_out == ""
        assert err.startswith("error: command line: ")
        assert suite_err == err.replace("command line", "suite entry 0", 1)
        if entry["case"] == "THM99":
            assert err.startswith("error: command line: unknown case 'THM99'; "
                                  "choose from THM31, COR32")


class TestFrozenHeap:
    """`main` freezes the heap it starts with for the length of a run, and
    gives an in-process caller its collector state back on every way out."""

    def test_frozen_while_a_case_runs(self, capsys, monkeypatch):
        counts, inner = [], verifier.verify_case

        def spy(*args, **kwargs):
            counts.append(gc.get_freeze_count())
            return inner(*args, **kwargs)
        monkeypatch.setattr(verifier, "verify_case", spy)
        assert gc.get_freeze_count() == 0
        assert run_cli(capsys, "verify", "--case", "COR32")[0] == 0
        assert len(counts) == 1 and counts[0] > 0

    @staticmethod
    def broken(*args, **kwargs):
        raise RuntimeError("a handler failed")

    @pytest.mark.parametrize("argv, code", [
        (["verify", "--case", "COR32"], 0),
        (["verify", "--suite", "control.json"], 1),
        (["verify", "--case", "COR33", "--k", "1"], 2),
        (["verify", "--case", "THM31"], 3),
    ])
    def test_unfrozen_on_every_exit(self, capsys, monkeypatch, tmp_path, argv, code):
        monkeypatch.chdir(tmp_path)
        Path("control.json").write_text(json.dumps(
            {"cases": [{"case": "JACOBI_QSERIES", "qOrder": 6, "perturb": True}]}))
        if code == 3:
            monkeypatch.setattr(verifier, "verify_case", self.broken)
        before = gc.get_freeze_count()
        assert run_cli(capsys, *argv)[0] == code
        assert gc.get_freeze_count() == before == 0

    def test_unfrozen_when_the_parser_exits(self, capsys):
        with pytest.raises(SystemExit):
            main(["verify", "--no-such-flag"])
        capsys.readouterr()
        assert gc.get_freeze_count() == 0

    def test_a_callers_freeze_stays(self, capsys):
        gc.freeze()
        try:
            before = gc.get_freeze_count()
            assert run_cli(capsys, "verify", "--case", "COR32")[0] == 0
            assert gc.get_freeze_count() >= before > 0
        finally:
            gc.unfreeze()


class TestTolerance:
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "0", "-1"])
    def test_not_finite_and_positive_is_usage_error(self, capsys, value):
        code, out, err = run_cli(capsys, "verify", "--case", "NUMERIC_MODULARITY",
                                 f"--tolerance={value}")
        assert code == 2 and out == ""
        assert "tolerance must be finite and positive" in err

    @pytest.mark.parametrize("selector", [("--all",), ("--case", "THM31"),
                                          ("--case", "JACOBI_QSERIES"),
                                          ("--suite", "suite.json"),
                                          ("--all", "--case", "NUMERIC_MODULARITY")])
    def test_where_it_would_be_ignored_is_usage_error(self, capsys, selector):
        code, out, err = run_cli(capsys, "verify", *selector, "--tolerance", "1e-6")
        assert code == 2 and out == ""
        assert "--tolerance applies to --case NUMERIC_MODULARITY only" in err

    @pytest.mark.parametrize("value, code", [("1e-6", 0), ("1e-30", 1)])
    def test_numeric_case_reads_it(self, capsys, value, code):
        got, out, _ = run_cli(capsys, "verify", "--case", "NUMERIC_MODULARITY",
                              "--tolerance", value)
        assert got == code
        assert f"(tol {float(value):.0e})" in out


class TestSelectorConflicts:
    """--suite and --all choose their own cases, geometries and q-orders."""

    @pytest.mark.parametrize("selector", [("--all",), ("--suite", "suite.json")])
    @pytest.mark.parametrize("extra, flag", [
        (("--case", "THM41"), "--case"), (("--q-order", "2"), "--q-order"),
        (("--family", "ab"), "--family"), (("--k", "3"), "--k"), (("--l", "2"), "--l"),
        (("--a", "1"), "--a"), (("--b", "0"), "--b"),
    ])
    def test_ignored_flag_is_usage_error(self, capsys, selector, extra, flag):
        code, out, err = run_cli(capsys, "verify", *selector, *extra)
        assert code == 2 and out == ""
        assert f"{selector[0]} cannot be combined with {flag}" in err

    def test_suite_with_all_is_usage_error(self, capsys, tmp_path):
        path = tmp_path / "suite.json"
        path.write_text(json.dumps({"cases": [{"case": "JACOBI_QSERIES", "qOrder": 2}]}))
        code, out, err = run_cli(capsys, "verify", "--suite", str(path), "--all")
        assert code == 2 and out == ""
        assert "--suite cannot be combined with --all" in err
        assert run_cli(capsys, "verify", "--suite", str(path))[0] == 0

    @pytest.mark.parametrize("value", ["-3", "0", "5"])
    def test_q_order_on_numeric_case_is_usage_error(self, capsys, value):
        code, out, err = run_cli(capsys, "verify", "--case", "NUMERIC_MODULARITY",
                                 "--q-order", value)
        assert code == 2 and out == ""
        assert "NUMERIC_MODULARITY reads no q-series and takes no q-order" in err


class TestSuiteValidation:
    def run_suite_file(self, capsys, tmp_path, config):
        path = tmp_path / "suite.json"
        path.write_text(json.dumps(config))
        return run_cli(capsys, "verify", "--suite", str(path))

    @pytest.mark.parametrize("config", [
        pytest.param([{"case": "THM31"}], id="not an object"),
        pytest.param({"cases": "THM31"}, id="cases not an array"),
        pytest.param({"cases": [{"case": "THM31"}], "seed": 0}, id="unknown top-level key"),
        pytest.param({"cases": [{"case": "THM31"}], "format": "xml"}, id="unknown format"),
        pytest.param({"cases": [{"case": "THM31"}], "tolerance": "1e-8"},
                     id="tolerance not a number"),
        pytest.param({"cases": [{"case": "NUMERIC_MODULARITY"}], "tolerance": float("nan")},
                     id="tolerance NaN"),
        pytest.param({"cases": [{"case": "NUMERIC_MODULARITY"}], "tolerance": float("inf")},
                     id="tolerance Infinity"),
        pytest.param({"cases": [{"case": "NUMERIC_MODULARITY"}], "tolerance": 0},
                     id="tolerance zero"),
        pytest.param({"cases": [{"case": "NUMERIC_MODULARITY"}], "tolerance": -1e-8},
                     id="tolerance negative"),
        pytest.param({"cases": [{"case": "COR32"}], "tolerance": float("nan")},
                     id="tolerance NaN without a numeric entry"),
        pytest.param({"cases": []}, id="no cases"),
        pytest.param({"cases": ["THM31"]}, id="entry not an object"),
        pytest.param({"cases": [{"k": 1}]}, id="entry without a case"),
        pytest.param({"cases": [{"case": "THM31", "k": "2"}]}, id="k as a string"),
        pytest.param({"cases": [{"case": "THM31", "k": True}]}, id="k as a boolean"),
        pytest.param({"cases": [{"case": "THM31", "qOrder": "4"}]}, id="qOrder as a string"),
        pytest.param({"cases": [{"case": "THM31", "qOrder": 4.0}]}, id="qOrder as a float"),
        pytest.param({"cases": [{"case": "THM31", "kk": 2}]}, id="unknown entry key"),
        pytest.param({"cases": [{"case": "THM31", "perturb": "no"}]}, id="perturb as a string"),
        pytest.param({"cases": [{"case": "THM31", "family": "xi"}]}, id="unknown family"),
        pytest.param({"cases": [{"case": "JACOBI_QSERIES", "k": 2}]},
                     id="geometry on a case without one"),
        pytest.param({"cases": [{"case": "NUMERIC_MODULARITY", "qOrder": -3}]},
                     id="qOrder on the numeric case"),
        pytest.param({"cases": [{"case": "COR32"}, {"case": "NUMERIC_MODULARITY", "qOrder": 0}]},
                     id="qOrder 0 on the numeric case"),
    ])
    def test_malformed_suite_is_usage_error(self, capsys, tmp_path, config):
        code, out, err = self.run_suite_file(capsys, tmp_path, config)
        assert code == 2
        assert err.startswith("error: ") and out == ""

    # each bad entry sorts after the good one, so a suite that ran its cases
    # before checking them would reach verify_case first
    @pytest.mark.parametrize("bad", [
        pytest.param({"case": "NUMERIC_MODULARITY", "qOrder": 2}, id="qOrder on the numeric case"),
        pytest.param({"case": "THM31", "qOrder": 1}, id="qOrder below the guard"),
        pytest.param({"case": "JACOBI_QSERIES", "qOrder": -1}, id="negative qOrder"),
        pytest.param({"case": "COR33", "k": 1}, id="COR33 at k = 1"),
        pytest.param({"case": "HLZ_SPECIAL", "b": 1}, id="HLZ_SPECIAL at b = 1"),
        pytest.param({"case": "DOUBLE_ROUTE", "family": "ab-xi"}, id="DOUBLE_ROUTE on ab-xi"),
        pytest.param({"case": "THM34", "family": "ab"}, id="THM34 on ab"),
        pytest.param({"case": "THM31", "k": 2, "l": 256, "a": 256, "b": 1},
                     id="twist past the bound"),
    ])
    def test_refused_before_any_case_runs(self, capsys, tmp_path, monkeypatch, bad):
        calls = []
        monkeypatch.setattr(verifier, "verify_case", lambda *args, **kwargs: calls.append(args))
        code, out, err = self.run_suite_file(capsys, tmp_path, {"cases": [{"case": "COR32"}, bad]})
        assert code == 2
        assert err.startswith("error: ") and out == ""
        assert calls == []

    def test_every_key_accepted(self, capsys, tmp_path):
        config = {"cases": [{"case": "COR32", "family": "ab", "k": 1, "l": 2, "a": 2,
                             "b": 1, "qOrder": 3, "perturb": False},
                            {"case": "NUMERIC_MODULARITY"}],
                  "format": "json", "tolerance": 1e-8}
        code, out, _ = self.run_suite_file(capsys, tmp_path, config)
        assert code == 0
        reports = json.loads(out)
        assert reports[0]["spec"] == {"family": "ab", "k": 1, "l": 2, "a": 2, "b": 1}
        assert reports[0]["qOrder"] == 3
        # the suite-wide tolerance reaches the numeric case only
        assert all("(tol 1e-08)" in q["pontryagin"] for q in reports[1]["quantities"])

    def test_format_flag_and_suite_format_conflict(self, capsys, tmp_path):
        path = tmp_path / "suite.json"
        path.write_text(json.dumps({"cases": [{"case": "COR32"}], "format": "text"}))
        code, out, err = run_cli(capsys, "verify", "--suite", str(path), "--format", "json")
        assert code == 2 and out == ""
        assert "--format cannot be combined with a suite file that sets 'format'" in err
        assert run_cli(capsys, "verify", "--suite", str(path))[1].endswith("1/1 cases passed\n")
        # a suite without 'format' takes the flag's
        path.write_text(json.dumps({"cases": [{"case": "COR32"}]}))
        code, out, _ = run_cli(capsys, "verify", "--suite", str(path), "--format", "json")
        assert code == 0 and json.loads(out)[0]["case"] == "COR32"


class TestExpandCommand:
    def test_delta2(self, capsys):
        code, out, _ = run_cli(capsys, "expand", "--object", "delta2",
                               "--q-order", "2")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].split() == ["1", "-1/8"]
        assert lines[1].split() == ["q^(1/2)", "-3"]

    def test_e2(self, capsys):
        code, out, _ = run_cli(capsys, "expand", "--object", "e2",
                               "--q-order", "3")
        values = [line.split()[-1] for line in out.strip().splitlines()]
        assert code == 0
        assert values[0::2] == ["1", "-24", "-72", "-96"]

    def test_br_at_k1(self, capsys):
        code, out, _ = run_cli(capsys, "expand", "--object", "br",
                               "--k", "1", "--a", "1", "--b", "0")
        assert code == 0
        assert "b_0" in out and "-1" in out

    def test_theta_bundle_json(self, capsys):
        code, out, _ = run_cli(capsys, "expand", "--object", "theta-bundle",
                               "--k", "1", "--l", "1", "--a", "1", "--b", "0",
                               "--which", "2", "--q-order", "2",
                               "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["rows"][0]["value"] == "1"

    def test_unknown_object_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["expand", "--object", "nonsense"])
        assert exc.value.code == 2


class TestExpandValidation:
    @pytest.mark.parametrize("obj", ["e2", "delta2"])
    @pytest.mark.parametrize("flag, value", [("--family", "two-line"), ("--k", "9"), ("--l", "1"),
                                             ("--a", "7"), ("--b", "0")])
    def test_geometry_flags_on_a_modular_object(self, capsys, obj, flag, value):
        code, out, err = run_cli(capsys, "expand", "--object", obj, flag, value)
        assert code == 2 and out == ""
        assert f"{obj} takes no geometry" in err

    def test_invalid_geometry_on_a_modular_object(self, capsys):
        code, out, err = run_cli(capsys, "expand", "--object", "e2", "--family", "two-line",
                                 "--k", "9", "--a", "7")
        assert code == 2 and out == ""

    @pytest.mark.parametrize("obj", ["e2", "delta2", "br", "betar"])
    def test_which_on_another_object(self, capsys, obj):
        code, out, err = run_cli(capsys, "expand", "--object", obj, "--which", "1")
        assert code == 2 and out == ""
        assert "--which applies to --object theta-bundle only" in err

    @pytest.mark.parametrize("obj", sorted(_MODULAR_OBJECTS) + ["theta-bundle", "br", "betar"])
    def test_negative_q_order(self, capsys, obj):
        for value in ("-1", "-5"):
            code, out, err = run_cli(capsys, "expand", "--object", obj, "--q-order", value,
                                     "--format", "json")
            assert code == 2 and out == ""
            assert "--q-order must be >= 0" in err
        assert run_cli(capsys, "expand", "--object", obj, "--q-order", "0")[0] == 0

    @pytest.mark.parametrize("obj", sorted(_MODULAR_OBJECTS) + ["theta-bundle", "br", "betar"])
    def test_q_order_past_the_bound(self, capsys, obj, monkeypatch):
        # refused before any arithmetic: no series is built
        monkeypatch.setattr(cli, "modular_form", None)
        monkeypatch.setattr(cli, "ch_theta_bundle", None)
        monkeypatch.setattr(cli, "extract_br_betar", None)
        code, out, err = run_cli(capsys, "expand", "--object", obj,
                                 "--q-order", str(verifier.MAX_Q_ORDER + 1))
        assert code == 2 and out == ""
        assert f"--q-order must be at most {verifier.MAX_Q_ORDER}" in err

    def test_theta_bundle_defaults_to_the_second_bundle(self, capsys):
        argv = ("expand", "--object", "theta-bundle", "--q-order", "1")
        default = run_cli(capsys, *argv)
        assert default[0] == 0
        assert default == run_cli(capsys, *argv, "--which", "2")
        assert default != run_cli(capsys, *argv, "--which", "1")

    def test_reported_order_is_the_decomposition_order(self, capsys):
        # br/betar report q-order k + 2 at least; their h_r do not depend on it
        for obj in ("br", "betar"):
            code, out, _ = run_cli(capsys, "expand", "--object", obj, "--k", "3",
                                   "--q-order", "1", "--format", "json")
            assert code == 0 and json.loads(out)["qOrder"] == 5
        code, out, _ = run_cli(capsys, "expand", "--object", "br", "--k", "1",
                               "--q-order", "4", "--format", "json")
        assert code == 0 and json.loads(out)["qOrder"] == 4
        code, out, _ = run_cli(capsys, "expand", "--object", "theta-bundle", "--k", "2",
                               "--q-order", "1", "--format", "json")
        assert code == 0 and json.loads(out)["qOrder"] == 1


# COR32's one report meets the closed pipe at main's flush; 64 kB of E2 rows meet it in a print
@pytest.mark.parametrize("argv", [["verify", "--case", "COR32"],
                                  ["expand", "--object", "e2", "--q-order", "2000"]])
def test_closed_stdout_pipe_exits_141_quietly(argv):
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.Popen([sys.executable, "-m", "anomcancel.cli", *argv], env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    proc.stdout.close()  # the reader is gone before the first write
    err = proc.stderr.read()
    assert proc.wait() == 141
    assert err == b""
