"""Verification cases: every cancellation identity checked as an exact equality.

Each case assembles the two sides of one identity from independent data
(genus forms and spinor characters on one side, decomposition coefficients
and the explicit correction forms on the other), subtracts them in the
truncated ring and passes only on a literal zero (for the two-line family:
zero after reduction modulo the relation p1(TM) = p1(V)).  The numeric case
evaluates the theta and Eisenstein transformation laws in double precision
against stated tolerances.
"""

from __future__ import annotations

import itertools
import math
import time
from enum import Enum
from fractions import Fraction
from numbers import Real
from typing import Callable, Iterable, Iterator

from .algebra import (
    GradedPoly,
    QSeries,
    _log_parts,
    apply_series,
    ideal_reduce,
    one_root_ring,
    sum_of_products,
    symmetrise,
    taylor_exp,
)
from .bundles import (
    FAMILY_FORMS,
    Family,
    GeometrySpec,
    QFormId,
    Route,
    ch_tilde_roots,
    e2_expm1_over_z,
    genus_form,
    lead_weight,
    p1_combo,
    q_form,
    twist_bundle,
)
from .decomp import (
    BrBetarKind,
    Group,
    basis_combination,
    closed_form_checks,
    coefficient_order,
    decompose,
    extract_br_betar,
)
from .errors import UsageError
from .records import record, replace
from .theta import jacobi_identity_check, transformation_residuals


class CaseId(Enum):
    THM31 = "THM31"
    COR32 = "COR32"
    COR33 = "COR33"
    THM34 = "THM34"
    THM41 = "THM41"
    COR42 = "COR42"
    COR43 = "COR43"
    EQ318_TRANSFER = "EQ318_TRANSFER"
    DOUBLE_ROUTE = "DOUBLE_ROUTE"
    BR_BETAR_CLOSED_FORMS = "BR_BETAR_CLOSED_FORMS"
    HLZ_SPECIAL = "HLZ_SPECIAL"
    NUMERIC_MODULARITY = "NUMERIC_MODULARITY"
    JACOBI_QSERIES = "JACOBI_QSERIES"


NUMERIC_TAU = 0.25 + 1.1j
NUMERIC_V = 0.13 + 0.07j
THETA_LAW_TOL = 1e-9
QUASIMODULAR_TOL = 1e-8
# q-series work grows with the q-order without limit: a fixed bound, like k <= 31
# and the twist bound, refuses a runaway order before any arithmetic
MAX_Q_ORDER = 2000


@record
class Report:
    """Structured outcome of one verification case."""

    case: CaseId
    spec: GeometrySpec | None
    q_order: int
    verdict: str                       # "pass" | "fail"
    residual_q: int | None = None      # half-index of the first nonzero residual
    residual_degree: int | None = None
    quantities: tuple[tuple[str, str], ...] = ()
    notes: tuple[str, ...] = ()
    millis: int = 0

    @property
    def passed(self) -> bool:
        return self.verdict == "pass"


@record
class CaseRequest:
    """One case to run; building it checks everything its `CASES` row demands."""

    case: CaseId
    spec: GeometrySpec | None = None
    q_order: int | None = None         # as the caller gave it; `order` fills in the default
    perturb: bool = False
    tolerance: float | None = None

    def __post_init__(self) -> None:
        case, spec = self.case, self.spec
        row = CASES.get(case)
        if row is None:
            raise UsageError(f"unknown case {case!r}")
        if row.families and spec is None:
            raise UsageError(f"{case.value} needs a geometry")
        if not row.families and spec is not None:
            raise UsageError(f"{case.value} takes no geometry")
        if spec is not None and spec.family not in row.families:
            raise UsageError(f"{case.value} needs family "
                             + " or ".join(f.value for f in row.families))
        q = self.q_order
        if q is not None and row.default_q_order == 0:
            raise UsageError(f"{case.value} reads no q-series and takes no q-order")
        if q is not None and (not isinstance(q, int) or isinstance(q, bool) or q < 0):
            raise UsageError(f"q-order must be an integer >= 0, not {q!r}")
        if q is not None and q > MAX_Q_ORDER:
            raise UsageError(f"q-order must be at most {MAX_Q_ORDER}, not {q}")
        # b_r / beta_r are built at coefficient_order(k), whatever q is given; the floor keeps
        # two integer q-orders past it for EQ318_TRANSFER and DOUBLE_ROUTE, which compare series.
        if spec is not None and self.order < coefficient_order(spec.k) + 2:
            raise UsageError(f"q-order too small: k = {spec.k} needs q-order >= "
                             f"{coefficient_order(spec.k) + 2}")
        for name, value in row.pins:
            if getattr(spec, name) != value:
                raise UsageError(f"{case.value} fixes {name} = {value}")
        if self.tolerance is not None:
            if case is not CaseId.NUMERIC_MODULARITY:
                raise UsageError(f"{case.value} takes no tolerance")
            check_tolerance(self.tolerance, case.value)

    @property
    def order(self) -> int:
        """The q-order the case reports: the one given, else its row's default."""
        if self.q_order is not None:
            return self.q_order
        default = CASES[self.case].default_q_order
        return self.spec.k + 2 if default is None else default


def check_tolerance(value: float, where: str) -> None:
    """Refuse a numeric tolerance that is not a finite, positive real number."""
    if isinstance(value, bool) or not isinstance(value, Real) or not 0 < value < math.inf:
        raise UsageError(f"{where}: tolerance must be finite and positive, not {value!r}")


# What a case handler returns: verdict, (residual half-index, residual
# degree), reported quantities, notes.
Outcome = tuple[bool, tuple, tuple, tuple]


def _series_residual(series: QSeries) -> tuple[int | None, int | None]:
    n = series.first_nonzero()
    if n is None:
        return None, None
    c = series.coeffs[n]
    deg = c.min_degree() if isinstance(c, GradedPoly) else None
    return n, deg


def _poly_residual(poly: GradedPoly) -> tuple[int | None, int | None]:
    if poly.is_zero:
        return None, None
    return None, poly.min_degree()


def _two_pow(e: int) -> Fraction:
    return Fraction(2) ** e


# ---------------------------------------------------------------------------
# Theorem assemblies


def _theorem_sides(spec: GeometrySpec,
                   perturb: bool = False) -> tuple[GradedPoly, GradedPoly, dict]:
    """Left and right side of the main cancellation identity for any family.

    The left side combines the genus/spinor data with the bundle coefficients
    b_r; the right side multiplies the degree-4 class z by the correction form
    built from the beta_r.  The two decompositions are independent.
    """
    k = spec.k
    cap = 4 * k
    z = p1_combo(spec)
    lead, weight = lead_weight(spec, 1), lead_weight(spec, 2)
    b = extract_br_betar(spec, BrBetarKind.B_R)
    beta = extract_br_betar(spec, BrBetarKind.BETA_R)

    # (a - b) l is l in the two-line family, whose twists are fixed at (1, 0)
    coef = [_two_pow((spec.a - spec.b) * spec.l + k - 6 * r) for r in range(k // 2 + 1)]
    if perturb:
        coef[0] = coef[0] * 2

    # sum_r coef_r (weight * b_r) is one product: weight times the summed b_r
    ring = spec.ring()
    b_sum = sum_of_products(ring, zip(b, coef))
    lhs = lead.degree_part(cap) - weight.mul_part(b_sum, cap)

    pref = e2_expm1_over_z(spec, 0).coeffs[0]
    correction = sum_of_products(ring, zip(beta, coef)) - pref.mul_part(lead, cap - 4)
    rhs = z * correction

    data = {"b": b, "beta": beta, "correction": correction, "lead": lead, "weight": weight}
    return lhs, rhs, data


def _reduced(spec: GeometrySpec, diff: GradedPoly) -> tuple[GradedPoly, tuple[str, ...]]:
    """`diff` reduced modulo the two-line relation p1(TM) = p1(V), with the note that says so."""
    if spec.family is Family.TWO_LINE:
        return ideal_reduce(diff, "p1(TM)", "p1(V)"), ("difference reduced modulo p1(TM) - p1(V)",)
    return diff, ()


def _case_theorem(req: CaseRequest) -> Outcome:
    spec = req.spec
    lhs, rhs, data = _theorem_sides(spec, req.perturb)
    diff, notes = _reduced(spec, lhs - rhs)
    quantities = [(f"ch(b_{r})", str(br)) for r, br in enumerate(data["b"])]
    quantities += [(f"beta_{r}", str(betar)) for r, betar in enumerate(data["beta"])]
    quantities.append(("correction_form", str(data["correction"])))
    return diff.is_zero, _poly_residual(diff), tuple(quantities), notes


# ---------------------------------------------------------------------------
# Corollaries (dimension 4 and dimension 8 specializations)


def _dimension4(spec: GeometrySpec, lead: GradedPoly, weight: GradedPoly,
                const: Fraction) -> tuple[GradedPoly, tuple[str, ...]]:
    """k = 1: lead + 2^((a-b)l+1) weight = -const z in degree 4; `_reduced` of the difference."""
    lhs = lead.degree_part(4) + weight.degree_part(4) * _two_pow((spec.a - spec.b) * spec.l + 1)
    return _reduced(spec, lhs - p1_combo(spec) * (-const))


def _dimension8(spec: GeometrySpec, lead: GradedPoly, weight: GradedPoly, w: GradedPoly,
                c0: Fraction, c1: Fraction, note: str) -> tuple[GradedPoly, tuple[str, ...]]:
    """k = 2: lead - c0 weight - c1 weight w = z pref (c0 weight + c1 weight w - lead) in degree 8,
    pref = (e^(c z) - 1) / z; the reduced difference, and `_reduced`'s note joined to `note`."""
    pref = e2_expm1_over_z(spec, 0).coeffs[0]
    lhs = lead.degree_part(8) - weight.degree_part(8) * c0 - weight.mul_part(w, 8) * c1
    # pref * bracket in degree 4 reads the bracket in degrees 0 and 4; weight * w is 0 in degree 0
    bracket = weight * c0 + weight.mul_part(w, 4) * c1 - lead
    diff, notes = _reduced(spec, lhs - p1_combo(spec) * pref.mul_part(bracket, 4))
    return diff, ("; ".join(notes + (note,)),)


def _case_cor32(req: CaseRequest) -> Outcome:
    spec = req.spec
    a, l = spec.a, spec.l
    # coherence: the k = 1 theorem data imply exactly this statement (b_0 = -1, constant correction)
    _, _, data = _theorem_sides(spec)
    const = _two_pow(a * l - 3)
    if req.perturb:
        const = const * 2
    diff, notes = _dimension4(spec, data["lead"], data["weight"], const)
    coherent = data["b"][0] == -1 and data["correction"] == -_two_pow(a * l - 3)
    quantities = (("constant", f"-2^({a}*{l}-3) = {-const}"),
                  ("p1_combo", str(p1_combo(spec))),
                  ("coherent_with_main_theorem", "yes" if coherent else "no"))
    return diff.is_zero and coherent, _poly_residual(diff), quantities, notes


def _case_cor33(req: CaseRequest) -> Outcome:
    spec = req.spec
    a, b, l = spec.a, spec.b, spec.l
    c0 = _two_pow((a - b) * l)
    c1 = _two_pow((a - b) * l - 4) * (b - a)
    if req.perturb:
        c0 = c0 * 2
    diff, notes = _dimension8(
        spec, lead_weight(spec, 1), lead_weight(spec, 2), ch_tilde_roots(spec, "V"), c0, c1,
        "identity checked with the coefficient 2^((a-b)l-4)(b-a) on the ch(V~) term on both "
        "sides; the b = 0, (a-b)l = 4 instance reproduces the plain -a coefficient")
    quantities = (("coeff_r0", str(c0)), ("coeff_r1_chV", str(c1)))
    return diff.is_zero, _poly_residual(diff), quantities, notes


def _case_cor42(req: CaseRequest) -> Outcome:
    spec = req.spec
    const = _two_pow(spec.l - 2)
    if req.perturb:
        const = const * 2
    diff, notes = _dimension4(spec, lead_weight(spec, 1), lead_weight(spec, 2), const)
    quantities = (("constant", f"-2^({spec.l}-2) = {-const}"), ("p1_combo", str(p1_combo(spec))))
    return diff.is_zero, _poly_residual(diff), quantities, notes


def _case_cor43(req: CaseRequest) -> Outcome:
    spec = req.spec
    c1 = _two_pow(spec.l - 4)
    if req.perturb:
        c1 = c1 * 2
    diff, notes = _dimension8(
        spec, lead_weight(spec, 1), lead_weight(spec, 2), twist_bundle(spec), _two_pow(spec.l), c1,
        "the Euler-square of xi' is used for its first Pontryagin class; the bracket "
        "carries the ch(2xi~+xi'~-V~) term with coefficient +2^(l-4)")
    return diff.is_zero, _poly_residual(diff), (("coeff_chW", str(c1)),), notes


# ---------------------------------------------------------------------------
# Transfer, double route, closed forms, specialization


def _case_transfer(req: CaseRequest) -> Outcome:
    spec, order = req.spec, req.order
    k = spec.k
    # perturbed: MAIN alone, without its E2 correction, is not modular
    form = QFormId.MAIN if req.perturb else QFormId.JOINT
    side = q_form(form, Route.BUNDLE, spec, order).degree_slice(4 * k)
    h = decompose(side, k)
    witness = side - basis_combination(k, h, Group.GAMMA_UPPER0, order)
    recon = basis_combination(k, h, Group.GAMMA0, order).scale(
        _two_pow((spec.a - spec.b) * spec.l))
    q1_top = q_form(QFormId.LEAD, Route.BUNDLE, spec, order).degree_slice(4 * k)
    transfer_diff = recon - q1_top
    exact = witness.is_zero()
    ok = exact and transfer_diff.is_zero()
    resid = transfer_diff if exact else witness
    quantities = tuple((f"h_{r}", str(hr)) for r, hr in enumerate(h))
    notes = ("decomposition residual zero and weight-transfer series equality",)
    return ok, _series_residual(resid), quantities, notes


def _case_double_route(req: CaseRequest) -> Outcome:
    spec, order = req.spec, req.order
    lead, main, _, _ = FAMILY_FORMS[spec.family].names
    ok = True
    first = (None, None)
    quantities = []
    for name, form in ((lead, QFormId.LEAD), (f"{main}_joint", QFormId.JOINT)):
        bundle_side = q_form(form, Route.BUNDLE, spec, order)
        theta_side = q_form(form, Route.THETA, spec, order)
        if req.perturb:
            theta_side = theta_side.scale(2)
        diff = bundle_side - theta_side
        zero = diff.is_zero()
        quantities.append((name, "equal" if zero else "MISMATCH"))
        if not zero and ok:
            ok = False
            first = _series_residual(diff)
    return ok, first, tuple(quantities), ()


def _case_closed_forms(req: CaseRequest) -> Outcome:
    spec = req.spec
    ok = True
    first = (None, None)
    quantities = []
    notes = []
    for kind, label in zip(BrBetarKind, FAMILY_FORMS[spec.family].names[2:]):
        for c in closed_form_checks(spec, kind, extract_br_betar(spec, kind)):
            if req.perturb:
                # negative control: a damaged coefficient matches no candidate
                c = replace(c, computed=c.computed + 1)
            if ok and not c.passed:
                ok = False
                first = _poly_residual(c.computed - dict(c.candidates)[c.expected])
            quantities.append((f"{label}.{c.name}", str(c.computed)))
            quantities.append((f"{label}.{c.name}.readings", ",".join(c.matches) or "none"))
            if c.name in ("h1", "beta1") and "printed-literal" not in c.matches and c.passed:
                notes.append(
                    f"{label}.{c.name}: printed closed form holds only at b = 0; "
                    f"computed value carries (b-a) ch(V~) with the (-1)^k prefactor distributed")
    return ok, first, tuple(quantities), tuple(notes)


def _case_hlz(req: CaseRequest) -> Outcome:
    spec = req.spec
    lhs, rhs, data = _theorem_sides(spec)
    # Independent assembly hard-wired to the single-twist shape: the spinor
    # character symmetrised from a per-root sum of exponentials, the untwisted
    # weight side, and literal 2^(l + k - 6r) constants.
    k, l = spec.k, spec.l
    cap = 4 * k
    ring = spec.ring()
    nterms = ring.cap // 2 + 1
    ahat = genus_form(spec)
    w_half = GradedPoly.generator(one_root_ring(cap), "w") * Fraction(1, 2)
    per_root = (apply_series(taylor_exp(nterms), w_half)
                + apply_series(taylor_exp(nterms), -w_half)) * Fraction(1, 2)
    spinor = symmetrise([(_log_parts(per_root), spec.power_sums("V"), 1)], 0).coeffs[0] * _two_pow(l)
    ahat_spinor = ahat * spinor
    lhs_special = ahat_spinor.degree_part(cap)
    for r, br in enumerate(data["b"]):
        lhs_special = lhs_special - ahat.mul_part(br, cap) * _two_pow(l + k - 6 * r)
    pref = e2_expm1_over_z(spec, 0).coeffs[0]
    corr = GradedPoly.zero(ring)
    for r, betar in enumerate(data["beta"]):
        corr = corr + betar * _two_pow(l + k - 6 * r)
    corr = corr - pref.mul_part(ahat_spinor, cap - 4)
    rhs_special = p1_combo(spec) * corr
    if req.perturb:
        rhs_special = rhs_special * 2
    same = lhs == lhs_special and rhs == rhs_special
    identity = (lhs - rhs).is_zero
    ok = same and identity
    quantities = (("sides_match_general_formula", "yes" if same else "no"),
                  ("identity_residual_zero", "yes" if identity else "no"))
    diff = lhs - rhs if same else (lhs - lhs_special) + (rhs - rhs_special)
    return ok, _poly_residual(diff), quantities, ()


def _case_numeric(req: CaseRequest) -> Outcome:
    res = transformation_residuals(NUMERIC_TAU, NUMERIC_V, perturb=req.perturb)
    ok = True
    quantities = []
    for name, value in res.items():
        if req.tolerance is not None:
            tol = req.tolerance
        elif name.startswith(("theta", "jacobi")):
            tol = THETA_LAW_TOL
        else:
            tol = QUASIMODULAR_TOL
        good = value < tol
        ok = ok and good
        quantities.append((name, f"{value:.3e} (tol {tol:.0e})"))
    notes = (f"sample point tau = {NUMERIC_TAU}, v = {NUMERIC_V}; "
             "weight checks use the trivial character, confirmed numerically",)
    return ok, (None, None), tuple(quantities), notes


def _case_jacobi(req: CaseRequest) -> Outcome:
    residual = jacobi_identity_check(req.order, req.perturb)
    ok = residual.is_zero()
    return ok, _series_residual(residual), (("q_order", str(req.order)),), ()


# ---------------------------------------------------------------------------
# Dispatch


@record
class CaseRow:
    """How verify_case runs one case, what the case accepts and where `verify --all` runs it."""

    handler: Callable[[CaseRequest], Outcome]
    families: tuple[Family, ...]          # accepted, the first by default; (): no geometry
    pins: tuple[tuple[str, int], ...] = ()  # geometry values the case fixes
    default_q_order: int | None = None    # None: k + 2; 0: reads no q-series, takes none
    # where `default_grid` runs it: blocks (family, l values, twist pairs, q-order) at k = 1
    # and 2, with the row's pins filled in (so no twist pairs: the pinned or default (a, b))
    grid: tuple = ()


_AB_TWISTS = tuple((a, b) for a in (-1, 0, 1, 2) for b in (0, 1, 2))
_AB_GRID = ((Family.AB, (1, 2, 3), _AB_TWISTS, None),)
_TWO_LINE_GRID = ((Family.TWO_LINE, (1, 2), (), None),)

CASES: dict[CaseId, CaseRow] = {
    CaseId.THM31: CaseRow(_case_theorem, (Family.AB,), grid=_AB_GRID),
    CaseId.COR32: CaseRow(_case_cor32, (Family.AB,), (("k", 1),), grid=_AB_GRID),
    CaseId.COR33: CaseRow(_case_cor33, (Family.AB,), (("k", 2),), grid=_AB_GRID),
    CaseId.THM34: CaseRow(_case_theorem, (Family.AB_XI,),
                          grid=((Family.AB_XI, (1, 2), _AB_TWISTS, None),)),
    CaseId.THM41: CaseRow(_case_theorem, (Family.TWO_LINE,), grid=_TWO_LINE_GRID),
    CaseId.COR42: CaseRow(_case_cor42, (Family.TWO_LINE,), (("k", 1),), grid=_TWO_LINE_GRID),
    CaseId.COR43: CaseRow(_case_cor43, (Family.TWO_LINE,), (("k", 2),), grid=_TWO_LINE_GRID),
    CaseId.EQ318_TRANSFER: CaseRow(_case_transfer, (Family.AB,), grid=_AB_GRID),
    CaseId.DOUBLE_ROUTE: CaseRow(_case_double_route, tuple(
        family for family, row in FAMILY_FORMS.items() if row.theta is not None),
        grid=((Family.AB, (1, 2), _AB_TWISTS, 4), (Family.TWO_LINE, (1, 2), (), 4))),
    CaseId.BR_BETAR_CLOSED_FORMS: CaseRow(_case_closed_forms, tuple(Family),
                                          grid=((Family.AB, (1, 2), ((1, 0), (2, 1)), None),)),
    CaseId.HLZ_SPECIAL: CaseRow(_case_hlz, (Family.AB,), (("a", 1), ("b", 0)),
                                grid=((Family.AB, (1, 2), (), None),)),
    CaseId.NUMERIC_MODULARITY: CaseRow(_case_numeric, (), default_q_order=0),
    CaseId.JACOBI_QSERIES: CaseRow(_case_jacobi, (), default_q_order=20),
}


def verify_case(case: CaseId, spec: GeometrySpec | None = None,
                q_order: int | None = None, perturb: bool = False,
                tolerance: float | None = None) -> Report:
    """Run one verification case and return its structured report."""
    start = time.perf_counter()
    req = CaseRequest(case, spec, q_order, perturb, tolerance)
    ok, resid, quantities, notes = CASES[case].handler(req)
    millis = int((time.perf_counter() - start) * 1000)
    return Report(case=case, spec=spec, q_order=req.order,
                  verdict="pass" if ok else "fail",
                  residual_q=resid[0], residual_degree=resid[1],
                  quantities=quantities, notes=notes, millis=millis)


def default_grid() -> list[CaseRequest]:
    """The standard verification grid: each `CASES` row's blocks; a case without a geometry once."""
    requests: list[CaseRequest] = []
    for case, row in CASES.items():
        if not row.families:
            requests.append(CaseRequest(case))
        pins = dict(row.pins)
        ks = (pins["k"],) if "k" in pins else (1, 2)
        for family, ls, twists, q_order in row.grid:
            for k, l, twist in itertools.product(ks, ls, twists or ((),)):
                spec = GeometrySpec(**{**pins, "k": k, "l": l, **dict(zip("ab", twist))},
                                    family=family)
                requests.append(CaseRequest(case, spec, q_order))
    return requests


def _request_sort_key(req: CaseRequest):
    spec = req.spec
    if spec is None:
        return (req.case.value, "", 0, 0, 0, 0)
    return (req.case.value, spec.family.value, spec.k, spec.l, spec.a, spec.b)


def run_suite(requests: Iterable[CaseRequest] | None = None) -> Iterator[Report]:
    """Run case requests (default grid if None) in a fixed order, yielding each
    report as its case finishes; every request is collected before the first runs."""
    ordered = sorted(default_grid() if requests is None else requests, key=_request_sort_key)
    for req in ordered:
        yield verify_case(req.case, req.spec, req.q_order, req.perturb, req.tolerance)
