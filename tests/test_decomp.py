"""Basis decomposition, coefficient extraction, closed-form comparisons."""

from fractions import Fraction as F

import pytest

from anomcancel import decomp
from anomcancel.algebra import GradedPoly, QSeries
from anomcancel.bundles import (
    Family,
    GeometrySpec,
    QFormId,
    Route,
    ch_theta_bundle,
    ch_tilde_roots,
    p1_combo,
    q_form,
)
from anomcancel.decomp import (
    BrBetarKind,
    Group,
    basis_series,
    closed_form_checks,
    coefficient_order,
    decompose,
    extract_br_betar,
)
from anomcancel.errors import UsageError

from conftest import modularity_residual, random_poly, reference_decompose


def gamma_upper_side(spec, order):
    cap = 4 * spec.k
    z = p1_combo(spec)
    top = q_form(QFormId.MAIN, Route.BUNDLE, spec, order).degree_slice(cap)
    low = q_form(QFormId.CORRECTION, Route.BUNDLE, spec, order).degree_slice(cap - 4)
    return top + low * z


class TestBasis:
    def test_eight_delta2_expansion(self):
        series = basis_series(1, 0, Group.GAMMA_UPPER0, 2)
        assert series.coeffs[0] == -1
        assert series.coeffs[1] == -24

    def test_leading_term_sign_and_order(self):
        for k in (1, 2, 3, 4):
            for r in range(k // 2 + 1):
                series = basis_series(k, r, Group.GAMMA_UPPER0, 3)
                lead = series.first_nonzero()
                assert lead == r
                assert series.coeffs[r] == F(-1) ** k

    def test_gamma0_eps1_case(self):
        series = basis_series(2, 1, Group.GAMMA0, 2)
        assert series.coeffs[0] == F(1, 16)
        assert series.coeffs[2] == -1

    def test_r_out_of_range(self):
        with pytest.raises(UsageError):
            basis_series(2, 2, Group.GAMMA_UPPER0, 3)


class TestDecompose:
    def test_basis_reproduces_itself(self):
        for k, r0 in [(1, 0), (2, 1), (4, 2)]:
            series = basis_series(k, r0, Group.GAMMA_UPPER0, 4)
            for r, h in enumerate(decompose(series, k)):
                assert h == (1 if r == r0 else 0)
            assert modularity_residual(series, k).is_zero()

    def test_round_trip_with_ring_coefficients(self, rng):
        spec = GeometrySpec(k=2, l=1, a=1, b=0, family=Family.AB)
        ring = spec.ring()
        order = 4
        for _ in range(200):
            coeffs = [random_poly(rng, ring) for _ in range(2)]
            series = None
            for r, c in enumerate(coeffs):
                term = basis_series(2, r, Group.GAMMA_UPPER0, order) * c
                series = term if series is None else series + term
            assert decompose(series, 2) == tuple(coeffs)
            assert modularity_residual(series, 2).is_zero()

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_fused_solve_equals_the_loop(self, k, rng):
        # any series, modular or not, on a ring and rationally; a rational
        # series gives Fraction coefficients, as the loop does
        ring = GeometrySpec(k=k, l=2, a=2, b=1, family=Family.AB_XI).ring()
        for _ in range(10):
            order = coefficient_order(k) + rng.randint(0, 1)
            width = 2 * order + 1
            ring_series = QSeries([random_poly(rng, ring) for _ in range(width)], order, ring)
            rational = QSeries([F(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(width)], order)
            for series in (ring_series, rational):
                h = decompose(series, k)
                assert h == reference_decompose(series, k)
                assert all(isinstance(c, GradedPoly if series.ring else F) for c in h)

    def test_order_too_small(self):
        with pytest.raises(UsageError):
            decompose(QSeries([1], 0), 2)

    @pytest.mark.parametrize("order", [1, 3, 5])
    def test_order_is_the_series_order(self, order):
        # the residual runs through the series' own truncation order
        series = basis_series(2, 1, Group.GAMMA_UPPER0, order) \
            + QSeries([0] * (2 * order) + [1], order)
        assert decompose(series, 2) == (0, 1)
        residual = modularity_residual(series, 2)
        assert residual.order == order
        assert residual.first_nonzero() == 2 * order


def br_betar_series(spec, which, order):
    """The series extract_br_betar decomposes, built at a chosen order."""
    if which is BrBetarKind.B_R:
        return ch_theta_bundle(2, spec, order)
    return q_form(QFormId.CORRECTION, Route.BUNDLE, spec, order).degree_slice(4 * spec.k - 4)


class TestCoefficientOrder:
    @pytest.mark.parametrize("family", list(Family))
    @pytest.mark.parametrize("k", range(1, 6))
    def test_h_do_not_depend_on_the_order(self, family, k, monkeypatch):
        # extract_br_betar builds at coefficient_order(k), the least N with 2N >= k//2,
        # one order below which decompose refuses; a deeper truncation gives the same h_r
        built = []

        def recording_decompose(series, k):
            built.append(series.order)
            return decompose(series, k)

        monkeypatch.setattr(decomp, "decompose", recording_decompose)
        low = coefficient_order(k)
        assert 2 * (low - 1) < k // 2 <= 2 * low
        a, b = (1, 0) if family is Family.TWO_LINE else (2, 1)
        for l in (1, 2, 3):
            spec = GeometrySpec(k=k, l=l, a=a, b=b, family=family)
            for which in BrBetarKind:
                built.clear()
                h = extract_br_betar(spec, which)
                assert built == [low]
                for order in (k + 2, k + 4):
                    assert decompose(br_betar_series(spec, which, order), k) == h
                if low > 0:
                    with pytest.raises(UsageError, match="truncation order too small"):
                        decompose(br_betar_series(spec, which, low - 1), k)


class TestClosedForms:
    def test_b0_at_k1(self):
        spec = GeometrySpec(k=1, l=1, a=1, b=0, family=Family.AB)
        h = extract_br_betar(spec, BrBetarKind.B_R)
        checks = closed_form_checks(spec, BrBetarKind.B_R, h)
        assert h[0] == GradedPoly.constant(spec.ring(), -1)
        assert checks[0].passed and "printed" in checks[0].matches

    def test_b1_at_k2_single_twist(self):
        spec = GeometrySpec(k=2, l=1, a=1, b=0, family=Family.AB)
        h = extract_br_betar(spec, BrBetarKind.B_R)
        checks = closed_form_checks(spec, BrBetarKind.B_R, h)
        want = ch_tilde_roots(spec, "V") * (-1) - 48
        assert h[1] == want
        h1 = checks[1]
        assert {"printed-literal", "printed-distributed", "generalized"} <= set(h1.matches)

    def test_b1_general_twist_needs_b_term(self):
        spec = GeometrySpec(k=2, l=1, a=2, b=1, family=Family.AB)
        h = extract_br_betar(spec, BrBetarKind.B_R)
        checks = closed_form_checks(spec, BrBetarKind.B_R, h)
        h1 = checks[1]
        assert h1.matches == ("generalized",)
        assert h[1] == ch_tilde_roots(spec, "V") * (1 - 2) - 48

    def test_beta_closed_forms(self):
        spec = GeometrySpec(k=2, l=2, a=1, b=1, family=Family.AB)
        checks = closed_form_checks(spec, BrBetarKind.BETA_R,
                                    extract_br_betar(spec, BrBetarKind.BETA_R))
        assert all(c.passed for c in checks)

    def test_two_line_bar_coefficients(self):
        spec = GeometrySpec(k=2, l=2, a=1, b=0, family=Family.TWO_LINE)
        checks = closed_form_checks(spec, BrBetarKind.B_R,
                                    extract_br_betar(spec, BrBetarKind.B_R))
        assert all(c.passed for c in checks)
        bchecks = closed_form_checks(spec, BrBetarKind.BETA_R,
                                     extract_br_betar(spec, BrBetarKind.BETA_R))
        assert all(c.passed for c in bchecks)

    def test_xi_family_coefficients(self):
        spec = GeometrySpec(k=2, l=2, a=2, b=1, family=Family.AB_XI)
        checks = closed_form_checks(spec, BrBetarKind.B_R,
                                    extract_br_betar(spec, BrBetarKind.B_R))
        assert all(c.passed for c in checks)

    @pytest.mark.parametrize("which", ["br", "B_R", None])
    def test_non_member_kind_is_usage_error(self, which):
        spec = GeometrySpec(k=1, l=1, a=1, b=0, family=Family.AB)
        with pytest.raises(UsageError, match="unknown coefficient kind"):
            extract_br_betar(spec, which)
        h = extract_br_betar(spec, BrBetarKind.BETA_R)
        with pytest.raises(UsageError, match="unknown coefficient kind"):
            closed_form_checks(spec, which, h)


class TestModularityWitness:
    def test_joint_combination_has_zero_residual(self):
        for (k, l, a, b) in [(1, 1, 1, 0), (2, 1, 1, 0), (2, 2, -1, 2), (1, 3, 2, 1)]:
            spec = GeometrySpec(k=k, l=l, a=a, b=b, family=Family.AB)
            assert modularity_residual(gamma_upper_side(spec, k + 2), k).is_zero(), (k, l, a, b)

    def test_negative_control_without_correction(self):
        for (k, l, a, b) in [(1, 1, 1, 0), (2, 2, 2, 1), (1, 1, 0, 0)]:
            spec = GeometrySpec(k=k, l=l, a=a, b=b, family=Family.AB)
            top = q_form(QFormId.MAIN, Route.BUNDLE, spec, k + 2).degree_slice(4 * k)
            assert not modularity_residual(top, k).is_zero(), (k, l, a, b)

    def test_xi_family_combination_has_zero_residual(self):
        for (k, l, a, b) in [(1, 1, 1, 0), (2, 2, 2, 1)]:
            spec = GeometrySpec(k=k, l=l, a=a, b=b, family=Family.AB_XI)
            assert modularity_residual(gamma_upper_side(spec, k + 2), k).is_zero(), (k, l, a, b)

    def test_two_line_combination_needs_the_ideal(self):
        from anomcancel.algebra import ideal_reduce

        for (k, l) in [(1, 1), (2, 2)]:
            spec = GeometrySpec(k=k, l=l, a=1, b=0, family=Family.TWO_LINE)
            series = gamma_upper_side(spec, k + 2)
            assert not modularity_residual(series, k).is_zero(), (k, l)
            reduced = series.map(lambda p: ideal_reduce(p, "p1(TM)", "p1(V)"))
            assert modularity_residual(reduced, k).is_zero(), (k, l)

    def test_raw_bundle_character_is_not_modular(self):
        # the full character itself satisfies the defining congruence only up
        # to the determination order; beyond it the residual is nonzero
        spec = GeometrySpec(k=1, l=1, a=1, b=0, family=Family.AB)
        residual = modularity_residual(ch_theta_bundle(2, spec, 3), 1)
        for m in range(spec.k // 2 + 1):
            assert residual.coeffs[m].is_zero
        assert not residual.is_zero()
        assert residual.first_nonzero() == 1

    def test_transfer_to_gamma0_basis(self):
        for (k, l, a, b) in [(1, 1, 1, 0), (2, 2, 2, 1)]:
            spec = GeometrySpec(k=k, l=l, a=a, b=b, family=Family.AB)
            order = k + 2
            recon = None
            for r, h in enumerate(decompose(gamma_upper_side(spec, order), k)):
                term = basis_series(k, r, Group.GAMMA0, order) * h
                recon = term if recon is None else recon + term
            recon = recon.scale(F(2) ** ((a - b) * l))
            q1_top = q_form(QFormId.LEAD, Route.BUNDLE, spec, order).degree_slice(4 * k)
            assert recon == q1_top
