"""Verification cases: positive runs, negative controls, invariants."""

import hashlib
from collections import Counter
from fractions import Fraction as F
from pathlib import Path

import pytest

from anomcancel import bundles, decomp, verifier
from anomcancel.algebra import GradedPoly
from anomcancel.bundles import FAMILY_FORMS, Family, GeometrySpec
from anomcancel.cli import report_to_dict
from anomcancel.errors import UsageError
from anomcancel.verifier import (
    CASES,
    MAX_Q_ORDER,
    CaseId,
    CaseRequest,
    default_grid,
    run_suite,
    verify_case,
)
from anomcancel.verifier import _theorem_sides

from conftest import _clear_caches, reference_theorem_sides, scale_gens


AB = lambda k, l, a, b: GeometrySpec(k=k, l=l, a=a, b=b, family=Family.AB)
XI = lambda k, l, a, b: GeometrySpec(k=k, l=l, a=a, b=b, family=Family.AB_XI)
TWO = lambda k, l: GeometrySpec(k=k, l=l, a=1, b=0, family=Family.TWO_LINE)


class TestSingleCases:
    def test_cor32_documented_instance(self):
        report = verify_case(CaseId.COR32, AB(1, 1, 1, 0))
        assert report.passed
        names = dict(report.quantities)
        assert "-1/4" in names["constant"]
        assert names["p1_combo"] == "p1(TM) - p1(V)"

    def test_thm31_untwisted_diagonal(self):
        # a = b makes the two spinor powers coincide and 2^((a-b)l) = 1
        assert verify_case(CaseId.THM31, AB(1, 1, 0, 0)).passed
        assert verify_case(CaseId.THM31, AB(1, 2, 1, 1)).passed

    def test_thm31_generic_instance(self):
        report = verify_case(CaseId.THM31, AB(2, 2, 2, 1), 4)
        assert report.passed
        assert report.residual_q is None and report.residual_degree is None

    def test_thm34_instance(self):
        assert verify_case(CaseId.THM34, XI(2, 2, 2, 1)).passed

    def test_thm41_and_corollaries(self):
        assert verify_case(CaseId.THM41, TWO(1, 1)).passed
        assert verify_case(CaseId.THM41, TWO(2, 2)).passed
        assert verify_case(CaseId.COR42, TWO(1, 2)).passed
        assert verify_case(CaseId.COR43, TWO(2, 1)).passed

    def test_cor33_instance(self):
        assert verify_case(CaseId.COR33, AB(2, 3, -1, 2)).passed

    def test_transfer(self):
        assert verify_case(CaseId.EQ318_TRANSFER, AB(2, 1, -1, 2)).passed

    def test_double_route(self):
        assert verify_case(CaseId.DOUBLE_ROUTE, AB(1, 2, 2, 1), 4).passed
        assert verify_case(CaseId.DOUBLE_ROUTE, TWO(1, 1), 4).passed

    def test_closed_forms_and_hlz(self):
        assert verify_case(CaseId.BR_BETAR_CLOSED_FORMS, AB(2, 1, 2, 1)).passed
        assert verify_case(CaseId.HLZ_SPECIAL, AB(2, 2, 1, 0)).passed

    def test_numeric_and_jacobi(self):
        assert verify_case(CaseId.NUMERIC_MODULARITY).passed
        assert verify_case(CaseId.JACOBI_QSERIES, q_order=20).passed


class TestNegativeControls:
    def test_perturbed_cases_fail(self):
        assert not verify_case(CaseId.THM31, AB(1, 1, 1, 0), perturb=True).passed
        assert not verify_case(CaseId.COR32, AB(1, 1, 1, 0), perturb=True).passed
        assert not verify_case(CaseId.EQ318_TRANSFER, AB(1, 1, 1, 0), perturb=True).passed
        assert not verify_case(CaseId.DOUBLE_ROUTE, AB(1, 1, 1, 0), 3, perturb=True).passed
        assert not verify_case(CaseId.JACOBI_QSERIES, q_order=8, perturb=True).passed

    def test_perturbed_report_localizes_residual(self):
        report = verify_case(CaseId.THM31, AB(1, 1, 1, 0), perturb=True)
        assert report.residual_degree == 4

    # (residual_q, residual_degree) of each damaged identity: the ring-level
    # identities fail in their top degree, EQ318 at the first transferred
    # q-order, DOUBLE_ROUTE at q^0 and the Jacobi product at q^1.
    @pytest.mark.parametrize("case, spec, q_order, where", [
        (CaseId.THM31, AB(1, 1, 1, 0), None, (None, 4)),
        (CaseId.THM31, AB(2, 2, 2, 1), None, (None, 8)),
        (CaseId.THM34, XI(1, 1, 1, 0), None, (None, 4)),
        (CaseId.THM34, XI(2, 1, 2, 1), None, (None, 8)),
        (CaseId.THM41, TWO(1, 1), None, (None, 4)),
        (CaseId.THM41, TWO(2, 1), None, (None, 8)),
        (CaseId.COR32, AB(1, 1, 1, 0), None, (None, 4)),
        (CaseId.COR33, AB(2, 1, 1, 0), None, (None, 8)),
        (CaseId.COR33, AB(2, 3, -1, 2), None, (None, 8)),
        (CaseId.COR42, TWO(1, 1), None, (None, 4)),
        (CaseId.COR43, TWO(2, 1), None, (None, 8)),
        (CaseId.EQ318_TRANSFER, AB(1, 1, 1, 0), None, (1, 4)),
        (CaseId.EQ318_TRANSFER, AB(2, 1, -1, 2), None, (2, 8)),
        (CaseId.DOUBLE_ROUTE, AB(1, 1, 1, 0), 3, (0, 0)),
        (CaseId.DOUBLE_ROUTE, TWO(1, 1), 3, (0, 0)),
        (CaseId.HLZ_SPECIAL, AB(1, 1, 1, 0), None, (None, 4)),
        (CaseId.HLZ_SPECIAL, AB(2, 2, 1, 0), None, (None, 8)),
        (CaseId.JACOBI_QSERIES, None, 20, (2, None)),
        (CaseId.JACOBI_QSERIES, None, 80, (2, None)),
        (CaseId.BR_BETAR_CLOSED_FORMS, AB(1, 1, 1, 0), None, (None, 0)),
        (CaseId.BR_BETAR_CLOSED_FORMS, AB(2, 1, 2, 1), None, (None, 0)),
        (CaseId.NUMERIC_MODULARITY, None, None, (None, None)),
    ])
    def test_perturb_fails_at_expected_location(self, case, spec, q_order, where):
        report = verify_case(case, spec, q_order, perturb=True)
        assert report.verdict == "fail"
        assert (report.residual_q, report.residual_degree) == where

    # a damaged Gamma_0(2) basis leaves the Gamma^0(2) decomposition exact, so
    # EQ318 reports where the transferred series misses the top of Q1
    @pytest.mark.parametrize("spec, where", [
        (AB(1, 1, 1, 0), (0, 4)),
        (AB(2, 1, 1, 0), (0, 8)),
        (AB(3, 2, 2, 1), (0, 12)),
    ])
    def test_transfer_failure_with_exact_decomposition(self, spec, where, cold_caches,
                                                       monkeypatch):
        from anomcancel import decomp

        intact = verify_case(CaseId.EQ318_TRANSFER, spec)
        basis_series = decomp.basis_series

        def doubled_gamma0(k, r, group, order):
            series = basis_series(k, r, group, order)
            return series.scale(2) if group is decomp.Group.GAMMA0 else series

        monkeypatch.setattr(decomp, "basis_series", doubled_gamma0)
        report = verify_case(CaseId.EQ318_TRANSFER, spec)
        assert report.verdict == "fail"
        assert (report.residual_q, report.residual_degree) == where
        assert intact.passed and report.quantities == intact.quantities

    def test_perturbed_numeric_breaks_the_e2_law_only(self):
        # the control drops the 6 i tau / pi term of the E2 S law
        quantities = dict(verify_case(CaseId.NUMERIC_MODULARITY, perturb=True).quantities)
        above = {name for name, text in quantities.items()
                 if float(text.split()[0]) >= float(text.split("tol ")[1].rstrip(")"))}
        assert above == {"e2_S"}

    @pytest.mark.parametrize("spec", [AB(1, 1, 1, 0), AB(2, 1, 2, 1), XI(2, 1, 0, 1),
                                      TWO(2, 1)])
    def test_perturbed_closed_forms_match_no_reading(self, spec):
        report = verify_case(CaseId.BR_BETAR_CLOSED_FORMS, spec, perturb=True)
        readings = [v for name, v in report.quantities if name.endswith(".readings")]
        assert readings and set(readings) == {"none"}
        assert report.notes == ()


class TestValidation:
    def test_family_mismatch(self):
        with pytest.raises(UsageError):
            verify_case(CaseId.THM31, TWO(1, 1))
        with pytest.raises(UsageError):
            verify_case(CaseId.THM41, AB(1, 1, 1, 0))

    def test_wrong_dimension_for_corollaries(self):
        with pytest.raises(UsageError):
            verify_case(CaseId.COR32, AB(2, 1, 1, 0))
        with pytest.raises(UsageError):
            verify_case(CaseId.COR33, AB(1, 1, 1, 0))
        with pytest.raises(UsageError, match="COR42 fixes k = 1"):
            verify_case(CaseId.COR42, TWO(2, 1))
        with pytest.raises(UsageError, match="COR43 fixes k = 2"):
            verify_case(CaseId.COR43, TWO(1, 1))

    def test_hlz_fixes_the_twists(self):
        with pytest.raises(UsageError, match="HLZ_SPECIAL fixes a = 1"):
            verify_case(CaseId.HLZ_SPECIAL, AB(2, 2, 2, 1))
        with pytest.raises(UsageError, match="HLZ_SPECIAL fixes b = 0"):
            verify_case(CaseId.HLZ_SPECIAL, AB(1, 1, 1, 1))

    def test_spec_on_a_case_without_geometry(self):
        with pytest.raises(UsageError, match="JACOBI_QSERIES takes no geometry"):
            verify_case(CaseId.JACOBI_QSERIES, AB(3, 2, 2, 1), q_order=5)

    def test_double_route_takes_the_families_with_a_theta_recipe(self):
        with_theta = {family for family, row in FAMILY_FORMS.items() if row.theta is not None}
        assert set(CASES[CaseId.DOUBLE_ROUTE].families) == with_theta
        assert with_theta == {Family.AB, Family.TWO_LINE}
        with pytest.raises(UsageError, match="DOUBLE_ROUTE needs family ab or two-line"):
            verify_case(CaseId.DOUBLE_ROUTE, XI(1, 1, 1, 0))

    def test_missing_spec(self):
        with pytest.raises(UsageError):
            verify_case(CaseId.THM31)

    def test_boolean_dimension_refused_before_the_case_runs(self):
        # True == 1, so a bool k would run THM31 at k = 1 and report "k": true
        with pytest.raises(UsageError, match="k must be an integer, not True"):
            verify_case(CaseId.THM31, GeometrySpec(k=True, l=1))

    @pytest.mark.parametrize("tolerance", [-5.0, 1e-6, float("nan")])
    def test_tolerance_on_a_case_that_reads_none(self, tolerance):
        with pytest.raises(UsageError, match="COR32 takes no tolerance"):
            verify_case(CaseId.COR32, AB(1, 1, 1, 0), tolerance=tolerance)

    @pytest.mark.parametrize("tolerance", [float("nan"), float("inf"), 0.0, -1e-8, "1e-6", True])
    def test_numeric_tolerance_must_be_finite_and_positive(self, tolerance):
        with pytest.raises(UsageError, match="tolerance must be finite and positive"):
            verify_case(CaseId.NUMERIC_MODULARITY, tolerance=tolerance)
        assert verify_case(CaseId.NUMERIC_MODULARITY, tolerance=1e-6).passed

    def test_insufficient_order(self):
        with pytest.raises(UsageError):
            verify_case(CaseId.THM31, AB(2, 1, 1, 0), q_order=0)
        for q_order in (True, "4", 2.5, 4.0):
            with pytest.raises(UsageError, match="q-order must be an integer >= 0"):
                verify_case(CaseId.JACOBI_QSERIES, q_order=q_order)
            with pytest.raises(UsageError, match="q-order must be an integer >= 0"):
                verify_case(CaseId.THM31, AB(2, 1, 1, 0), q_order=q_order)

    @pytest.mark.parametrize("case, spec", [(CaseId.JACOBI_QSERIES, None),
                                            (CaseId.DOUBLE_ROUTE, AB(1, 1, 1, 0)),
                                            (CaseId.THM41, GeometrySpec(k=2, l=1, family=Family.TWO_LINE))])
    def test_q_order_bound(self, case, spec):
        # refused past the bound before any arithmetic; at the bound the request
        # is only built, since running it is a long case
        with pytest.raises(UsageError, match=f"q-order must be at most {MAX_Q_ORDER}, "
                                             f"not {MAX_Q_ORDER + 1}"):
            CaseRequest(case, spec, MAX_Q_ORDER + 1)
        assert CaseRequest(case, spec, MAX_Q_ORDER).order == MAX_Q_ORDER
        assert MAX_Q_ORDER >= 400   # CI runs JACOBI_QSERIES at q-order 400

    @pytest.mark.parametrize("k", range(1, 65))
    def test_q_order_guard_matches_half_index_bound(self, k):
        # rejected exactly when q < (k//2)/2 + 2, i.e. below coefficient_order(k) + 2;
        # COR32 refuses k != 1 only after the guard, so every k is cheap to probe.
        # Past the packing bound, k >= 32, the geometry itself is refused first
        if k >= 32:
            with pytest.raises(UsageError, match=f"k must be at most 31, not {k}"):
                AB(k, 1, 1, 0)
            return
        for q in range(41):
            try:
                verify_case(CaseId.COR32, AB(k, 1, 1, 0), q_order=q)
                rejected = False
            except UsageError as exc:
                rejected = "q-order too small" in str(exc)
            assert rejected == (q < (k // 2) / 2 + 2)


class TestInvariants:
    def test_homogeneous_scaling(self):
        # scaling every Chern root by t (a degree-d generator by t^(d/2))
        # multiplies both degree-4k sides by t^(2k)
        spec = AB(1, 1, 2, 1)
        lhs, rhs, _ = _theorem_sides(spec)
        t = F(3)
        scales = {name: t ** (deg // 2) for name, deg in spec.ring().gens}
        lhs_scaled = scale_gens(lhs, scales)
        rhs_scaled = scale_gens(rhs, scales)
        assert lhs_scaled == lhs * t ** (2 * spec.k)
        assert rhs_scaled == rhs * t ** (2 * spec.k)
        assert (lhs_scaled - rhs_scaled).is_zero

    @pytest.mark.parametrize("make", [lambda k: AB(k, 3, 2, 1), lambda k: XI(k, 2, 1, 1),
                                      lambda k: TWO(k, 3)], ids=["ab", "ab-xi", "two-line"])
    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
    def test_theorem_sides_against_the_per_r_loop(self, make, k):
        spec = make(k)
        for perturb in (False, True):
            lhs, rhs, _ = _theorem_sides(spec, perturb)
            assert (lhs, rhs) == reference_theorem_sides(spec, perturb)

    def test_specialization_coherence_k1(self):
        # the k = 1 theorem instance implies the dimension-4 corollary:
        # ch(b_0) = -1 and the correction form is the constant -2^(al-3)
        from anomcancel.decomp import BrBetarKind, extract_br_betar
        spec = AB(1, 2, 2, 1)
        b = extract_br_betar(spec, BrBetarKind.B_R)
        assert b[0] == GradedPoly.constant(spec.ring(), -1)
        _, _, data = _theorem_sides(spec)
        expect = GradedPoly.constant(
            spec.ring(), -F(2) ** (spec.a * spec.l - 3))
        assert data["correction"] == expect

    def test_reports_are_deterministic(self):
        reqs = [CaseRequest(CaseId.COR32, AB(1, 1, 1, 0)),
                CaseRequest(CaseId.JACOBI_QSERIES, q_order=6),
                CaseRequest(CaseId.COR32, AB(1, 2, 0, 1))]
        first = run_suite(reqs)
        second = run_suite(list(reversed(reqs)))
        strip = lambda rep: (rep.case, rep.spec, rep.verdict, rep.quantities)
        assert [strip(r) for r in first] == [strip(r) for r in second]

    def test_reports_do_not_depend_on_case_order(self, cold_caches):
        # the k = 1 ab cases of the grid share rings and twists, so forms one
        # case caches are read by others; each order runs from cold
        reqs = [r for r in default_grid()
                if r.spec is not None and r.spec.k == 1 and r.spec.family is Family.AB]

        def reports(order):
            _clear_caches()
            out = {}
            for r in order:
                rep = report_to_dict(verify_case(r.case, r.spec, r.q_order, r.perturb))
                del rep["millis"]
                out[r.case, r.spec, r.q_order] = rep
            return out

        forward = reports(reqs)
        assert len(forward) == len(reqs) > 100
        assert reports(reversed(reqs)) == forward


class TestBuildCounts:
    """How often a cold case symmetrises a genus-times-spinor form: COR32 reads
    the lead and the weight `_theorem_sides` built, so only the beta_r build the
    weight again; DOUBLE_ROUTE and EQ318_TRANSFER build the weight once, for JOINT."""

    @pytest.mark.parametrize("case, spec, calls", [
        (CaseId.COR32, AB(1, 2, 2, 1), 3),
        (CaseId.DOUBLE_ROUTE, AB(2, 2, 2, 1), 1),
        (CaseId.DOUBLE_ROUTE, TWO(2, 2), 1),
        (CaseId.EQ318_TRANSFER, AB(2, 2, 2, 1), 1),
    ], ids=["COR32", "DOUBLE_ROUTE-ab", "DOUBLE_ROUTE-two-line", "EQ318_TRANSFER"])
    def test_lead_weight_calls(self, case, spec, calls, cold_caches, monkeypatch):
        lead_weight = bundles.lead_weight
        seen = []

        def counted(spec, which):
            seen.append(which)
            return lead_weight(spec, which)

        for module in (bundles, decomp, verifier):
            monkeypatch.setattr(module, "lead_weight", counted)
        assert verify_case(case, spec).passed
        assert len(seen) == calls


class TestSuite:
    def test_empty_suite_passes(self):
        reports = list(run_suite([]))
        assert reports == [] and all(r.passed for r in reports)

    def test_failing_entry_fails_suite(self):
        reqs = [CaseRequest(CaseId.COR32, AB(1, 1, 1, 0)),
                CaseRequest(CaseId.JACOBI_QSERIES, q_order=6, perturb=True)]
        reports = list(run_suite(reqs))
        assert not all(r.passed for r in reports)
        assert sum(not r.passed for r in reports) == 1

    def test_a_run_keeps_no_state_on_its_geometries(self, cold_caches):
        # a spec is a plain value: a run may keep its hash, nothing else
        plain = set(GeometrySpec.__record_fields__) | {"_record_hash"}
        grid = default_grid()
        assert all(r.passed for r in run_suite(grid))
        runs = [(CaseId.EQ318_TRANSFER, AB(2, 2, 2, 1)), (CaseId.THM34, XI(2, 2, 2, 1)),
                (CaseId.DOUBLE_ROUTE, TWO(2, 2))]
        for case, spec in runs:
            assert verify_case(case, spec).passed
        for spec in [spec for _, spec in runs] + [req.spec for req in grid if req.spec is not None]:
            assert set(GeometrySpec.__record_fields__) <= set(vars(spec)) <= plain, vars(spec)

    def test_default_grid_shape(self):
        grid = default_grid()
        counts = Counter(req.case.value for req in grid)
        assert counts == {
            "THM31": 72, "EQ318_TRANSFER": 72, "COR32": 36, "COR33": 36, "THM34": 48,
            "DOUBLE_ROUTE": 52, "THM41": 4, "COR42": 2, "COR43": 2,
            "BR_BETAR_CLOSED_FORMS": 8, "HLZ_SPECIAL": 4, "NUMERIC_MODULARITY": 1,
            "JACOBI_QSERIES": 1}
        assert set(counts) == {case.value for case in CaseId}   # every case runs somewhere

        def key(req):
            spec = req.spec and (req.spec.family.value, req.spec.k, req.spec.l, req.spec.a, req.spec.b)
            return repr((req.case.value, spec, req.order, req.perturb, req.tolerance))

        # the grid as written out case by case, loop by loop, before it was read off CASES
        text = "\n".join(sorted(map(key, grid)))
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "00b101767ac302b78a9816c6e0a02756c9123a1f76cfa9c8661d25b1eca0fd35")

    def test_readme_grid_table_is_the_case_table(self):
        text = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
        assert grid_table() in text


def grid_table() -> str:
    """The README's table of `default_grid`, one line per `CaseRow` grid block."""
    lines = ["| case | family | k | l | (a, b) | q-order | requests |",
             "| --- | --- | --- | --- | --- | --- | --- |"]
    for case, row in CASES.items():
        if not row.families:
            q = row.default_q_order or "none"
            lines.append(f"| `{case.value}` | — | — | — | — | {q} | 1 |")
        pins = dict(row.pins)
        for family, ls, twists, q_order in row.grid:
            ks = (pins["k"],) if "k" in pins else (1, 2)
            if not twists:   # the row's pinned (a, b), else the default, as default_grid reads it
                spec = GeometrySpec(**{**pins, "k": 1, "l": 1}, family=family)
                twists = ((spec.a, spec.b),)
            a_s, b_s = sorted({a for a, _ in twists}), sorted({b for _, b in twists})
            if len(twists) > 2:
                assert sorted(twists) == [(a, b) for a in a_s for b in b_s]
                pairs = f"a ∈ {{{', '.join(map(str, a_s))}}} × b ∈ {{{', '.join(map(str, b_s))}}}"
            else:
                pairs = ", ".join(f"({a}, {b})" for a, b in twists)
            lines.append(f"| `{case.value}` | {family.value} | {', '.join(map(str, ks))} "
                         f"| {', '.join(map(str, ls))} | {pairs} | {q_order or 'k + 2'} "
                         f"| {len(ks) * len(ls) * len(twists)} |")
    return "\n".join(lines)


def test_every_export_resolves():
    import anomcancel

    for name in anomcancel.__all__:
        assert hasattr(anomcancel, name), name
    namespace: dict = {}
    exec("from anomcancel import *", namespace)
    assert set(anomcancel.__all__) <= set(namespace)
