"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
Every symbolic criterion demands a literal zero residual in the truncated
ring; numeric criteria use the stated double-precision tolerances.
"""

import random
import time
from fractions import Fraction as F

import pytest

from anomcancel.algebra import (
    GradedPoly,
    QSeries,
    RingSpec,
    apply_series,
    pontryagin_all,
    taylor_exp,
)
from anomcancel.bundles import (
    Family,
    GeometrySpec,
    QFormId,
    Route,
    ch_theta_bundle,
    p1_combo,
    q_form,
)
from anomcancel.decomp import (
    BrBetarKind,
    Group,
    basis_series,
    closed_form_checks,
    decompose,
    extract_br_betar,
)
from anomcancel.theta import (
    ModularFormId,
    jacobi_identity_check,
    modular_form,
    transformation_residuals,
)
from anomcancel.verifier import CaseId, verify_case

from conftest import (
    in_pontryagin,
    modularity_residual,
    permute_gens,
    random_poly,
    random_rational_series,
    root_ch_theta_bundle,
    roots_of,
    scale_gens,
    truncate,
)

AB_PAIRS = [(a, b) for a in (-1, 0, 1, 2) for b in (0, 1, 2)]


def report(num: int, label: str, ok: bool, elapsed: float) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num:2d}: {label} "
          f"({elapsed:.2f}s)")
    assert ok, f"criterion {num} failed: {label}"


def timed(fn):
    start = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - start


def gamma_upper_side(spec: GeometrySpec, order: int) -> QSeries:
    cap = 4 * spec.k
    z = p1_combo(spec)
    top = q_form(QFormId.MAIN, Route.BUNDLE, spec, order).degree_slice(cap)
    low = q_form(QFormId.CORRECTION, Route.BUNDLE, spec, order).degree_slice(cap - 4)
    return top + low * z


def test_criterion_01_printed_fourier_expansions():
    def run():
        d1 = modular_form(ModularFormId.DELTA1, 2)
        e1 = modular_form(ModularFormId.EPS1, 2)
        d2 = modular_form(ModularFormId.DELTA2, 2)
        e2 = modular_form(ModularFormId.EPS2, 2)
        return (d1.coeffs[0] == F(1, 4) and d1.coeffs[1] == 0 and d1.coeffs[2] == 6
                and e1.coeffs[0] == F(1, 16) and e1.coeffs[1] == 0 and e1.coeffs[2] == -1
                and d2.coeffs[0] == F(-1, 8) and d2.coeffs[1] == -3
                and e2.coeffs[0] == 0 and e2.coeffs[1] == 1)

    ok, elapsed = timed(run)
    report(1, "printed Fourier expansions of delta/eps reproduced",
           ok and elapsed < 1.0, elapsed)


def test_criterion_02_jacobi_identity_q20():
    ok, elapsed = timed(lambda: jacobi_identity_check(20).is_zero())
    report(2, "Jacobi derivative identity exact to q^20", ok and elapsed < 1.0,
           elapsed)


def test_criterion_03_numeric_transformation_laws():
    def run():
        res = transformation_residuals(0.25 + 1.1j, 0.13 + 0.07j)
        for name, value in res.items():
            tol = 1e-9 if name.startswith(("theta", "jacobi")) else 1e-8
            if value >= tol:
                return False
        return True

    ok, elapsed = timed(run)
    report(3, "theta/E2/delta-eps transformation laws within tolerance",
           ok and elapsed < 1.0, elapsed)


def test_criterion_04_double_route_equality():
    def run():
        for k in (1, 2):
            for l in (1, 2):
                for a, b in AB_PAIRS:
                    spec = GeometrySpec(k=k, l=l, a=a, b=b, family=Family.AB)
                    if not verify_case(CaseId.DOUBLE_ROUTE, spec, 4).passed:
                        return False
                two = GeometrySpec(k=k, l=l, a=1, b=0, family=Family.TWO_LINE)
                if not verify_case(CaseId.DOUBLE_ROUTE, two, 4).passed:
                    return False
        return True

    ok, elapsed = timed(run)
    report(4, "bundle and theta-quotient routes agree exactly to q^4",
           ok and elapsed < 120.0, elapsed)


def test_criterion_05_decomposition_modularity_witness():
    def run():
        for k in (1, 2):
            for l in (1, 2):
                for a, b in AB_PAIRS:
                    spec = GeometrySpec(k=k, l=l, a=a, b=b, family=Family.AB)
                    order = k + 2
                    # the modular combination built on the second twisted
                    # bundle decomposes with zero residual through q^(k+2)
                    joint = modularity_residual(gamma_upper_side(spec, order), k)
                    if not joint.is_zero():
                        return False
                    # its bundle character alone reproduces the basis through
                    # the determination order (the defining congruence) ...
                    raw = modularity_residual(ch_theta_bundle(2, spec, order), k)
                    for m in range(k // 2 + 1):
                        if not raw.coeffs[m].is_zero:
                            return False
                    # ... and the negative control (no E2 correction, z != 0)
                    # leaves a nonzero residual
                    top = q_form(QFormId.MAIN, Route.BUNDLE, spec, order) \
                        .degree_slice(4 * k)
                    control = modularity_residual(top, k)
                    if control.is_zero():
                        return False
        return True

    ok, elapsed = timed(run)
    report(5, "zero-residual decomposition witness plus negative control",
           ok, elapsed)


def test_criterion_06_closed_form_coefficients():
    def run():
        specs = []
        for k in (1, 2):
            for l in (1, 2):
                for a, b in ((1, 0), (2, 1)):
                    specs.append(GeometrySpec(k=k, l=l, a=a, b=b, family=Family.AB))
                    specs.append(GeometrySpec(k=k, l=l, a=a, b=b, family=Family.AB_XI))
                specs.append(GeometrySpec(k=k, l=l, a=1, b=0, family=Family.TWO_LINE))
        for spec in specs:
            for kind in BrBetarKind:
                checks = closed_form_checks(spec, kind,
                                            extract_br_betar(spec, kind))
                for check in checks:
                    if not check.passed:
                        return False
                    # the report must resolve the printed-form ambiguity
                    if not check.matches:
                        return False
                    if spec.k == 2 and spec.b == 0 and spec.family is Family.AB:
                        if check.name == "h1" and "printed-distributed" not in check.matches:
                            return False
        return True

    ok, elapsed = timed(run)
    report(6, "h0/h1 and beta0/beta1 match their closed forms (readings resolved)",
           ok, elapsed)


def test_criterion_07_main_theorems():
    def run():
        worst = 0.0
        for k in (1, 2):
            for l in (1, 2, 3):
                for a, b in AB_PAIRS:
                    spec = GeometrySpec(k=k, l=l, a=a, b=b, family=Family.AB)
                    rep = verify_case(CaseId.THM31, spec)
                    worst = max(worst, rep.millis / 1000)
                    if not rep.passed or rep.millis > 10_000:
                        return False, worst
        for k in (1, 2):
            for l in (1, 2):
                for a, b in AB_PAIRS:
                    spec = GeometrySpec(k=k, l=l, a=a, b=b, family=Family.AB_XI)
                    rep = verify_case(CaseId.THM34, spec)
                    worst = max(worst, rep.millis / 1000)
                    if not rep.passed or rep.millis > 10_000:
                        return False, worst
        return True, worst

    (ok, worst), elapsed = timed(run)
    report(7, f"main cancellation identities exact on the full grid "
              f"(worst case {worst:.2f}s)", ok, elapsed)


def test_criterion_08_corollaries_with_constants():
    def run():
        for l in (1, 2, 3):
            for a, b in AB_PAIRS:
                c32 = verify_case(CaseId.COR32,
                                  GeometrySpec(k=1, l=l, a=a, b=b, family=Family.AB))
                c33 = verify_case(CaseId.COR33,
                                  GeometrySpec(k=2, l=l, a=a, b=b, family=Family.AB))
                if not (c32.passed and c33.passed):
                    return False
                if c32.millis > 5000 or c33.millis > 5000:
                    return False
                constants = dict(c32.quantities)
                if str(-F(2) ** (a * l - 3)) not in constants["constant"]:
                    return False
                coeffs = dict(c33.quantities)
                if coeffs["coeff_r0"] != str(F(2) ** ((a - b) * l)):
                    return False
                if coeffs["coeff_r1_chV"] != str(F(2) ** ((a - b) * l - 4) * (b - a)):
                    return False
        for l in (1, 2):
            c42 = verify_case(CaseId.COR42,
                              GeometrySpec(k=1, l=l, a=1, b=0, family=Family.TWO_LINE))
            c43 = verify_case(CaseId.COR43,
                              GeometrySpec(k=2, l=l, a=1, b=0, family=Family.TWO_LINE))
            if not (c42.passed and c43.passed):
                return False
            if str(-F(2) ** (l - 2)) not in dict(c42.quantities)["constant"]:
                return False
        return True

    ok, elapsed = timed(run)
    report(8, "dimension-4/8 corollaries exact including the power-of-two constants",
           ok, elapsed)


def test_criterion_09_two_line_theorem_modulo_ideal():
    def run():
        for k in (1, 2):
            for l in (1, 2):
                spec = GeometrySpec(k=k, l=l, a=1, b=0, family=Family.TWO_LINE)
                rep = verify_case(CaseId.THM41, spec)
                if not rep.passed or rep.millis > 30_000:
                    return False
        return True

    ok, elapsed = timed(run)
    report(9, "two-line identity reduces to zero modulo p1(TM) - p1(V)", ok,
           elapsed)


def test_criterion_10_single_twist_specialization():
    def run():
        for k in (1, 2):
            for l in (1, 2, 3):
                spec = GeometrySpec(k=k, l=l, a=1, b=0, family=Family.AB)
                if not verify_case(CaseId.HLZ_SPECIAL, spec).passed:
                    return False
        return True

    ok, elapsed = timed(run)
    report(10, "single-twist instance coincides term-by-term with the general formula",
           ok, elapsed)


def test_criterion_11_transfer_law():
    def run():
        for k in (1, 2):
            for l in (1, 2, 3):
                for a, b in AB_PAIRS:
                    spec = GeometrySpec(k=k, l=l, a=a, b=b, family=Family.AB)
                    if not verify_case(CaseId.EQ318_TRANSFER, spec).passed:
                        return False
        return True

    ok, elapsed = timed(run)
    report(11, "weight transfer from the b-even to the c-even basis", ok, elapsed)


def test_criterion_12_property_suites():
    def run():
        n_cases = 200
        rng = random.Random(777)
        spec = RingSpec(gens=(("w1", 2), ("w2", 2), ("v1", 2)), cap=8)
        one = GradedPoly.one(spec)

        for _ in range(n_cases):  # ring axioms
            a, b, c = (random_poly(rng, spec) for _ in range(3))
            if (a + b) + c != a + (b + c) or (a * b) * c != a * (b * c):
                return False
            if a * (b + c) != a * b + a * c or a * b != b * a:
                return False

        for _ in range(n_cases):  # truncation coherence
            n = rng.randint(2, 4)
            m = rng.randint(1, n)
            s = random_rational_series(rng, n)
            t = random_rational_series(rng, n)
            if truncate(s * t, m) != truncate(s, m) * truncate(t, m):
                return False

        for _ in range(n_cases):  # exponential inversion
            x = random_poly(rng, spec)
            x = x - x.constant_term()
            if apply_series(taylor_exp(5), x) * apply_series(taylor_exp(5), -x) != one:
                return False

        # on the root-ring oracle, whose image is the engine's series
        geom = GeometrySpec(k=1, l=2, a=1, b=1, family=Family.AB)
        base = root_ch_theta_bundle(2, geom, 2)
        if in_pontryagin(base, geom) != ch_theta_bundle(2, geom, 2):
            return False
        tm = list(roots_of(geom, "TM"))
        for _ in range(n_cases):  # symmetry invariance
            perm = tm[:]
            rng.shuffle(perm)
            mapping = dict(zip(tm, perm))
            flips = {name: -1 for name in tm + list(roots_of(geom, "V"))
                     if rng.random() < 0.5}
            moved = base.map(lambda p: scale_gens(permute_gens(p, mapping), flips))
            if moved != base:
                return False

        w1 = GradedPoly.generator(spec, "w1")
        w2 = GradedPoly.generator(spec, "w2")
        e1, e2 = w1 ** 2 + w2 ** 2, w1 ** 2 * w2 ** 2
        for _ in range(n_cases):  # Pontryagin round trip
            c1 = F(rng.randint(-5, 5), rng.randint(1, 4))
            c2 = F(rng.randint(-5, 5), rng.randint(1, 4))
            p = e1 * c1 + e2 * c2 + e1 * e1 * c2
            if pontryagin_all(p, [("TM", ("w1", "w2"))]).expand() != p:
                return False

        ring = GeometrySpec(k=2, l=1, a=1, b=0, family=Family.AB).ring()
        for _ in range(n_cases):  # decomposition round trip
            coeffs = [random_poly(rng, ring) for _ in range(2)]
            series = None
            for r, c in enumerate(coeffs):
                term = basis_series(2, r, Group.GAMMA_UPPER0, 3) * c
                series = term if series is None else series + term
            if (decompose(series, 2) != tuple(coeffs)
                    or not modularity_residual(series, 2).is_zero()):
                return False
        return True

    ok, elapsed = timed(run)
    report(12, "randomized property suites (>= 200 instances each)",
           ok and elapsed < 60.0, elapsed)
