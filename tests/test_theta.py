"""Theta quotients, modular forms, and the numeric transformation laws."""

import cmath
import math
import random
from fractions import Fraction as F

import pytest

from anomcancel.algebra import (
    GradedPoly,
    QSeries,
    RingSpec,
    apply_series,
    taylor_cosh_half,
    taylor_sinh_half_over_half,
)
from anomcancel import theta
from anomcancel.bundles import Family, GeometrySpec
from anomcancel.errors import DomainError, UsageError
from anomcancel.theta import (
    GAMMA0_2_GENERATORS,
    GAMMA_UPPER0_2_GENERATORS,
    ModularFormId,
    ThetaKind,
    e2_eval,
    jacobi_identity_check,
    modular_form,
    modular_form_eval,
    moebius,
    sigma1,
    theta_eval,
    theta_prime_eval,
    theta_ratio,
    transformation_residuals,
)
from anomcancel.verifier import QUASIMODULAR_TOL, THETA_LAW_TOL, CaseId, verify_case

from conftest import reference_theta_ratio, scale_gens, set_gens_zero, theta_logderiv_ratio

SPEC = RingSpec(gens=(("w", 2),), cap=8)
W = GradedPoly.generator(SPEC, "w")

TAU = 0.25 + 1.1j
V = 0.13 + 0.07j


class TestThetaRatios:
    def test_w_zero_gives_constant_one(self):
        for kind in ThetaKind:
            series = theta_ratio(kind, SPEC.cap, 3)
            at_zero = series.map(lambda p: set_gens_zero(p, ["w"]))
            assert at_zero == QSeries.one(3, SPEC)

    def test_theta_q0_is_genus_factor(self):
        got = theta_ratio(ThetaKind.THETA, SPEC.cap, 2).coeffs[0]
        want = apply_series(taylor_sinh_half_over_half(5), W).inv()
        assert got == want

    def test_theta1_q0_is_cosh(self):
        got = theta_ratio(ThetaKind.THETA1, SPEC.cap, 2).coeffs[0]
        assert got == apply_series(taylor_cosh_half(5), W)

    def test_half_grid_kinds_start_at_one(self):
        for kind in (ThetaKind.THETA2, ThetaKind.THETA3):
            got = theta_ratio(kind, SPEC.cap, 2)
            assert got.coeffs[0] == GradedPoly.one(SPEC)
            assert not got.coeffs[1].is_zero  # genuine q^(1/2) content

    # every even cap 2..16 and both ends of the order range 0..24; the sympy
    # oracle stops at cap 8, order 4
    @pytest.mark.parametrize("cap, order", [(2, 0), (2, 24), (4, 1), (6, 2), (8, 3), (10, 5),
                                            (12, 8), (14, 13), (16, 0), (16, 24)])
    @pytest.mark.parametrize("kind", list(ThetaKind), ids=lambda kind: kind.name)
    def test_equals_the_factor_by_factor_reference(self, kind, cap, order):
        assert theta_ratio(kind, cap, order) == reference_theta_ratio(kind, cap, order)

    def test_argument_validation(self):
        # the cap of a one-root ring is even and positive; the order is >= 0
        for cap, order in [(7, 2), (0, 2), (-8, 2), (8, -1)]:
            with pytest.raises(UsageError):
                theta_ratio(ThetaKind.THETA, cap, order)


class TestLogDerivative:
    def test_theta1_q0_is_half_tanh(self):
        # (1/2) tanh(w/2) computed independently as sinh/(2 cosh)
        nterms = 5
        sinh_half = apply_series(taylor_sinh_half_over_half(nterms), W) * W * F(1, 2)
        cosh_half = apply_series(taylor_cosh_half(nterms), W)
        want = sinh_half * cosh_half.inv() * F(1, 2)
        got = theta_logderiv_ratio(ThetaKind.THETA1, W, 2).coeffs[0]
        assert got == want

    def test_odd_in_w(self):
        for kind in (ThetaKind.THETA1, ThetaKind.THETA2, ThetaKind.THETA3):
            series = theta_logderiv_ratio(kind, W, 2)
            flipped = series.map(lambda p: scale_gens(p, {"w": -1}))
            assert flipped == -series

    def test_vanishes_at_w_zero(self):
        series = theta_logderiv_ratio(ThetaKind.THETA1, W, 3)
        assert series.map(lambda p: set_gens_zero(p, ["w"])).is_zero()

    def test_transgression_combination_vanishes_at_zero(self):
        combo = (theta_logderiv_ratio(ThetaKind.THETA2, W, 2)
                 + theta_logderiv_ratio(ThetaKind.THETA3, W, 2)
                 - theta_logderiv_ratio(ThetaKind.THETA1, W, 2).scale(2))
        assert combo.map(lambda p: set_gens_zero(p, ["w"])).is_zero()

    def test_theta_kind_rejected(self):
        with pytest.raises(UsageError):
            theta_logderiv_ratio(ThetaKind.THETA, W, 2)


class TestModularForms:
    def test_printed_leading_terms(self):
        d1 = modular_form(ModularFormId.DELTA1, 2)
        assert d1.coeffs[0] == F(1, 4)
        assert d1.coeffs[1] == 0
        assert d1.coeffs[2] == 6
        e1 = modular_form(ModularFormId.EPS1, 2)
        assert e1.coeffs[0] == F(1, 16)
        assert e1.coeffs[1] == 0
        assert e1.coeffs[2] == -1
        d2 = modular_form(ModularFormId.DELTA2, 2)
        assert d2.coeffs[0] == F(-1, 8)
        assert d2.coeffs[1] == -3
        e2 = modular_form(ModularFormId.EPS2, 2)
        assert e2.coeffs[0] == 0
        assert e2.coeffs[1] == 1

    def test_integral_higher_coefficients(self):
        # beyond the stated leading terms all coefficients are integers
        n = 8
        d1 = modular_form(ModularFormId.DELTA1, n)
        e1 = modular_form(ModularFormId.EPS1, n)
        d2 = modular_form(ModularFormId.DELTA2, n)
        e2 = modular_form(ModularFormId.EPS2, n)
        for series in (d1, e1, d2, e2):
            for c in series.coeffs[1:]:
                assert c.denominator == 1

    def test_e2_against_divisor_sum_oracle(self):
        def sigma_brute(n):
            return sum(d for d in range(1, n + 1) if n % d == 0)

        series = modular_form(ModularFormId.E2, 6)
        assert series.coeffs[0] == 1
        for n in range(1, 7):
            assert sigma1(n) == sigma_brute(n)
            assert series.coeffs[2 * n] == -24 * sigma_brute(n)
            assert series.coeffs[2 * n - 1] == 0
        assert [series.coeffs[2 * n] for n in range(4)] == [1, -24, -72, -96]


class TestJacobiQSeries:
    def test_identity_to_order_20(self):
        assert jacobi_identity_check(20).is_zero()

    def test_order_zero(self):
        assert jacobi_identity_check(0).is_zero()

    def test_perturbed_exponent_breaks_identity(self):
        # replacing the cube by a square must surface at low order
        residual = jacobi_identity_check(6, perturb=True)
        assert not residual.is_zero()
        assert residual.first_nonzero() <= 4


def triple_product_sum(kind: ThetaKind, order: int) -> QSeries:
    """Jacobi's product at x = 1 as its triple-product sum, half-index h for q^(h/2)."""
    width = 2 * order + 1
    nums = [0] * width
    for n in range(-width, width):
        if kind is ThetaKind.THETA and n >= 0 and n * (n + 1) < width:
            nums[n * (n + 1)] += (-1) ** n * (2 * n + 1)
        elif kind is ThetaKind.THETA1 and n >= 0 and n * (n + 1) < width:
            nums[n * (n + 1)] += 1
        elif kind in (ThetaKind.THETA2, ThetaKind.THETA3) and n * n < width:
            nums[n * n] += (-1) ** abs(n) if kind is ThetaKind.THETA2 else 1
    return QSeries(nums, order)


class TestThetaConstantsOracle:
    """The products at x = 1 against their triple-product sums, a second algorithm."""

    @pytest.mark.parametrize("order", [0, 1, 2, 80])
    @pytest.mark.parametrize("kind", list(ThetaKind), ids=lambda kind: kind.name)
    def test_product_equals_its_sum(self, kind, order):
        assert theta._theta_product(kind, order) == triple_product_sum(kind, order)

    def test_sums_read_as_printed(self):
        # theta2(0) = 1 - 2 q^(1/2) + 2 q^2 - ..., theta1(0) / 2 q^(1/8) = 1 + q + q^3 + ...
        assert triple_product_sum(ThetaKind.THETA2, 2).coeffs == (1, -2, 0, 0, 2)
        assert triple_product_sum(ThetaKind.THETA1, 3).coeffs == (1, 0, 1, 0, 0, 0, 1)
        assert triple_product_sum(ThetaKind.THETA, 3).coeffs == (1, 0, -3, 0, 0, 0, 5)

    @pytest.mark.parametrize("kind", list(ThetaKind), ids=lambda kind: kind.name)
    def test_negative_order_refused(self, kind):
        with pytest.raises(UsageError):
            theta._theta_product(kind, -1)


class TestNumeric:
    def test_theta_vanishes_at_origin(self):
        assert theta_eval(ThetaKind.THETA, 0, TAU, 40) == 0

    def test_theta_odd(self):
        a = theta_eval(ThetaKind.THETA, V, TAU, 40)
        b = theta_eval(ThetaKind.THETA, -V, TAU, 40)
        assert abs(a + b) < 1e-12

    def test_domain_error(self):
        with pytest.raises(DomainError):
            theta_eval(ThetaKind.THETA, V, 0.5 - 0.1j, 10)
        with pytest.raises(UsageError):
            theta_eval(ThetaKind.THETA, V, TAU, 0)

    def test_half_period_shift_law(self):
        # theta2(v, -1/tau) = (tau/i)^(1/2) exp(pi i tau v^2) theta1(tau v, tau)
        lhs = theta_eval(ThetaKind.THETA2, V, -1 / TAU, 60)
        rhs = (cmath.sqrt(TAU / 1j) * cmath.exp(1j * cmath.pi * TAU * V * V)
               * theta_eval(ThetaKind.THETA1, TAU * V, TAU, 60))
        assert abs(lhs - rhs) < 1e-9

    def test_transformation_law_table(self):
        res = transformation_residuals(TAU, V)
        for name, value in res.items():
            tol = 1e-9 if name.startswith(("theta", "jacobi")) else 1e-8
            assert value < tol, f"{name}: {value}"

    def test_transformation_laws_at_seeded_points(self):
        # NUMERIC_MODULARITY reports one pinned point; the laws hold at random
        # points of the fundamental domain up to Im tau = 1.5 as well
        rng = random.Random(20261019)
        for _ in range(6):
            x = rng.uniform(-0.5, 0.5)
            tau = complex(x, rng.uniform(math.sqrt(1 - x * x), 1.5))
            v = complex(rng.uniform(-0.25, 0.25), rng.uniform(-0.25, 0.25))
            assert abs(tau.real) <= 0.5 and abs(tau) >= 1 and tau.imag <= 1.5
            for name, value in transformation_residuals(tau, v).items():
                tol = THETA_LAW_TOL if name.startswith(("theta", "jacobi")) else QUASIMODULAR_TOL
                assert value < tol, (tau, v, name, value)

    def test_weight_checks_have_trivial_character(self):
        # the ratio f(g tau) / ((c tau + d)^k f(tau)) is 1 at two sample points
        samples = [0.25 + 1.1j, -0.35 + 0.8j]
        cases = [(ModularFormId.DELTA1, 2, GAMMA0_2_GENERATORS),
                 (ModularFormId.EPS1, 4, GAMMA0_2_GENERATORS),
                 (ModularFormId.DELTA2, 2, GAMMA_UPPER0_2_GENERATORS),
                 (ModularFormId.EPS2, 4, GAMMA_UPPER0_2_GENERATORS)]
        for form, weight, gens in cases:
            for mat in gens.values():
                _, _, c, d = mat
                for tau in samples:
                    num = modular_form_eval(form, moebius(mat, tau), 60)
                    den = (c * tau + d) ** weight * modular_form_eval(form, tau, 60)
                    assert abs(num / den - 1) < 1e-10

    def test_e2_anomaly_term(self):
        lhs = e2_eval(-1 / TAU, 40)
        rhs = TAU ** 2 * e2_eval(TAU, 40) - 6j * TAU / cmath.pi
        assert abs(lhs - rhs) < 1e-8

    def test_theta_prime_zero_matches_difference_quotient(self):
        h = 1e-6
        numeric = (theta_eval(ThetaKind.THETA, h, TAU, 60)
                   - theta_eval(ThetaKind.THETA, -h, TAU, 60)) / (2 * h)
        assert abs(theta_prime_eval(0, TAU, 60) - numeric) < 1e-6


class TestSharedProductTable:
    """theta_ratio, the theta constants and theta_eval all read `_THETA_GRIDS`,
    so one damaged entry must fail both the numeric laws and the route comparison."""

    @pytest.fixture
    def theta2_sign_flipped(self, cold_caches, monkeypatch):
        grid, sign = theta._THETA_GRIDS[ThetaKind.THETA2]
        monkeypatch.setitem(theta._THETA_GRIDS, ThetaKind.THETA2, (grid, -sign))

    def test_numeric_modularity_fails(self, theta2_sign_flipped):
        assert not verify_case(CaseId.NUMERIC_MODULARITY).passed

    @pytest.mark.parametrize("spec", [GeometrySpec(k=1, l=2, a=2, b=1, family=Family.AB),
                                      GeometrySpec(k=1, l=2, a=1, b=0, family=Family.TWO_LINE)],
                             ids=lambda spec: spec.family.value)
    def test_double_route_mismatch(self, theta2_sign_flipped, spec):
        report = verify_case(CaseId.DOUBLE_ROUTE, spec, q_order=2)
        assert not report.passed and "MISMATCH" in dict(report.quantities).values()
