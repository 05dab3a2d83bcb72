"""Genus forms, spinor powers, twisted bundle characters, double-route forms."""

import importlib
import pkgutil
import random
from fractions import Fraction as F

import pytest

import anomcancel
from anomcancel import algebra, bundles, theta
from anomcancel.algebra import (
    GradedPoly,
    LogParts,
    QSeries,
    _log_parts,
    apply_series,
    cosh_half_root,
    half_over_sinh_half_root,
    one_root_ring,
    sum_of_products,
    symmetrise,
    taylor_exp,
)
from anomcancel.bundles import (
    FAMILY_FORMS,
    Family,
    GeometrySpec,
    QFormId,
    Route,
    ch_spinor_pow,
    ch_theta_bundle,
    ch_tilde_roots,
    e2_expm1_over_z,
    genus_form,
    lead_weight,
    p1_combo,
    q_form,
)
from anomcancel.bundles import _exterior_log
from anomcancel.errors import UsageError
from anomcancel.records import replace
from anomcancel.theta import ThetaKind, theta_ratio
from anomcancel.verifier import CaseId, default_grid, verify_case

from conftest import (
    exterior_block,
    fraction_rows,
    in_pontryagin,
    paper_form,
    permute_gens,
    reference_e2_expm1_over_z,
    root_ch_theta_bundle,
    roots_of,
    scale_gens,
    set_gens_zero,
    symmetric_block,
)


AB11 = GeometrySpec(k=1, l=1, a=1, b=0, family=Family.AB)


class TestGeometrySpec:
    def test_two_line_fixes_twists(self):
        with pytest.raises(UsageError):
            GeometrySpec(k=1, l=1, a=2, b=0, family=Family.TWO_LINE)
        spec = GeometrySpec(k=1, l=1, a=1, b=0, family=Family.TWO_LINE)
        assert FAMILY_FORMS[spec.family].euler_roots == ("u", "u'")

    def test_ring_layout(self):
        spec = GeometrySpec(k=2, l=3, a=0, b=0, family=Family.AB_XI)
        ring = spec.ring()
        assert ring.cap == 8
        assert ring.names == ("u", "p1(TM)", "p2(TM)", "p1(V)", "p2(V)")

    @pytest.mark.parametrize("family", list(Family), ids=lambda family: family.value)
    def test_ring_refuses_a_k_the_one_root_ring_cannot_pack(self, family):
        # the AB ring alone, of degree-4 generators, would pack k = 32; its
        # per-root factors, of degree 2, cannot, so the spec refuses it when built
        assert GeometrySpec(k=31, l=3, family=family).ring().cap == 124
        with pytest.raises(UsageError, match="k must be at most 31, not 32: "
                                             "the degree cap 4k is too large for packed exponents"):
            GeometrySpec(k=32, l=3, family=family)

    # coefficients grow like 2^(|twist| * l); each family takes max(|a|, |b|) * l
    # up to 4096 and refuses one more
    @pytest.mark.parametrize("family, at_bound, past_bound", [
        pytest.param(Family.AB, dict(l=1, a=4096, b=-4096), dict(l=1, a=4097, b=0), id="ab"),
        pytest.param(Family.AB_XI, dict(l=2048, a=0, b=-2), dict(l=4097, a=1, b=-1), id="ab-xi"),
        pytest.param(Family.TWO_LINE, dict(l=4096), dict(l=4097), id="two-line"),
    ])
    def test_twist_bound(self, family, at_bound, past_bound):
        assert GeometrySpec(k=2, family=family, **at_bound).ring().cap == 8
        with pytest.raises(UsageError, match="must be at most 4096, not 4097"):
            GeometrySpec(k=2, family=family, **past_bound)

    def test_positivity_validation(self):
        with pytest.raises(UsageError):
            GeometrySpec(k=0, l=1)

    @pytest.mark.parametrize("name, value", [("k", True), ("k", 1.5), ("l", False), ("l", 2.0),
                                             ("a", 1.5), ("a", True), ("b", "x"), ("b", None)])
    def test_geometry_integers_must_be_ints(self, name, value):
        with pytest.raises(UsageError, match=f"{name} must be an integer, not {value!r}"):
            GeometrySpec(**{"k": 1, "l": 1, name: value})

    @pytest.mark.parametrize("value", ["ab", "two-line", None, 1])
    def test_family_must_be_a_family(self, value):
        with pytest.raises(UsageError, match=f"family must be a Family, not {value!r}"):
            GeometrySpec(k=1, l=1, family=value)


class TestGenusForms:
    def test_all_roots_zero_gives_one(self):
        a_hat = genus_form(AB11)
        assert set_gens_zero(a_hat, AB11.ring().names) == GradedPoly.one(AB11.ring())

    def test_degree4_is_minus_p1_over_24(self):
        a_hat = genus_form(AB11)
        ring = AB11.ring()
        exps = [0] * len(ring.gens)
        exps[ring.index("p1(TM)")] = 1
        assert a_hat.degree_part(4).coefficient(exps) == F(-1, 24)

    def test_degree8_pontryagin(self):
        spec = GeometrySpec(k=2, l=1, a=1, b=0, family=Family.AB)
        a_hat = genus_form(spec).degree_part(8)
        ring = spec.ring()
        e_p1sq = [0] * len(ring.gens)
        e_p1sq[ring.index("p1(TM)")] = 2
        e_p2 = [0] * len(ring.gens)
        e_p2[ring.index("p2(TM)")] = 1
        assert a_hat.coefficient(e_p1sq) == F(7, 5760)
        assert a_hat.coefficient(e_p2) == F(-4, 5760)

    def test_lead_and_weight(self):
        # in the ab family each is A-hat times a spinor power: a for the lead, b for the weight
        spec = GeometrySpec(k=2, l=2, a=2, b=-1, family=Family.AB)
        assert lead_weight(spec, 1) == genus_form(spec) * ch_spinor_pow(spec, 2)
        assert lead_weight(spec, 2) == genus_form(spec) * ch_spinor_pow(spec, -1)
        for which in (0, 3):
            with pytest.raises(UsageError, match="which must be 1 or 2"):
                lead_weight(spec, which)


class TestSpinorPowers:
    def test_zero_power_is_one(self):
        assert ch_spinor_pow(AB11, 0) == GradedPoly.one(AB11.ring())

    def test_rank_one_family_expansion(self):
        # degree cap 8 keeps the v^4 term; the one root's v^2 is p1(V)
        spec = GeometrySpec(k=2, l=1, a=1, b=0, family=Family.AB)
        p = ch_spinor_pow(spec, 1)
        assert spec.ring().names == ("p1(TM)", "p2(TM)", "p1(V)")
        assert p.coefficient((0, 0, 0)) == 2
        assert p.coefficient((0, 0, 1)) == F(1, 4)
        assert p.coefficient((0, 0, 2)) == F(1, 192)

    def test_inverse_pair(self):
        prod = ch_spinor_pow(AB11, -2) * ch_spinor_pow(AB11, 2)
        assert prod == GradedPoly.one(AB11.ring())

    def test_power_additivity(self, rng):
        spec = GeometrySpec(k=1, l=2, a=0, b=0, family=Family.AB)
        for _ in range(25):
            a = rng.randint(-2, 3)
            b = rng.randint(-2, 3)
            assert (ch_spinor_pow(spec, a + b)
                    == ch_spinor_pow(spec, a) * ch_spinor_pow(spec, b))


class TestThetaBundles:
    def test_constant_coefficient_is_one(self):
        for family in Family:
            spec = GeometrySpec(k=1, l=1, a=1, b=0, family=family)
            for which in (1, 2):
                series = ch_theta_bundle(which, spec, 2)
                assert series.coeffs[0] == GradedPoly.one(spec.ring())

    def test_zero_twists_leave_only_tangent_block(self):
        spec = GeometrySpec(k=1, l=2, a=0, b=0, family=Family.AB)
        expect = symmetrise([(_log_parts(symmetric_block(4, 3)), spec.power_sums("TM"), 1)], 3)
        assert ch_theta_bundle(1, spec, 3) == expect
        assert ch_theta_bundle(2, spec, 3) == expect

    def test_half_order_coefficient(self):
        for (a, b, l) in [(1, 0, 1), (2, 1, 2), (-1, 2, 3), (0, 0, 2)]:
            spec = GeometrySpec(k=1, l=l, a=a, b=b, family=Family.AB)
            got = ch_theta_bundle(2, spec, 2).coeffs[1]
            assert got == ch_tilde_roots(spec, "V") * (b - a)

    def test_rank_consistency(self):
        # all generators to zero: every q-coefficient is an integer rank
        for family in Family:
            spec = GeometrySpec(k=1, l=2, a=1, b=0, family=family)
            names = spec.ring().names
            for which in (1, 2):
                series = ch_theta_bundle(which, spec, 3)
                for c in series.coeffs:
                    rank = set_gens_zero(c, names).constant_term()
                    assert rank.denominator == 1

    def test_symmetry_invariance(self, rng):
        # on the root-ring oracle, whose image is the engine's series
        spec = GeometrySpec(k=2, l=2, a=1, b=1, family=Family.AB)
        series = root_ch_theta_bundle(2, spec, 3)
        assert in_pontryagin(series, spec) == ch_theta_bundle(2, spec, 3)
        tm = list(roots_of(spec, "TM"))
        for _ in range(10):
            perm = tm[:]
            rng.shuffle(perm)
            mapping = dict(zip(tm, perm))
            flips = {name: -1 for name in tm if rng.random() < 0.5}
            flips.update({name: -1 for name in roots_of(spec, "V") if rng.random() < 0.5})
            transformed = series.map(
                lambda p: scale_gens(permute_gens(p, mapping), flips))
            assert transformed == series

    def test_invalid_which(self):
        with pytest.raises(UsageError):
            ch_theta_bundle(3, AB11, 2)

    def test_symmetric_exterior_duality(self):
        # ch S_t(E~) * ch Lambda_(-t)(E~) = 1 grid point by grid point, so the
        # product of one root's blocks over the whole integer grid is 1, and
        # the engine's tangent row, the closed-form exterior log at t = -q^n
        # taken with exponent -1, is the symmetric block's log
        ring = one_root_ring(4)
        s_block = symmetric_block(4, 3)
        lam_block = exterior_block(4, "int", -1, 3)
        assert s_block * lam_block == QSeries.one(3, ring)
        assert fraction_rows(_log_parts(s_block)) == tuple(
            tuple(-c for c in part) for part in fraction_rows(_exterior_log(4, "int", -1, 3)))


class TestP1Combo:
    def test_standard_combination(self):
        z = p1_combo(AB11)
        assert str(z) == "p1(TM) - p1(V)"

    def test_vanishing_v_coefficient(self):
        spec = GeometrySpec(k=1, l=1, a=-2, b=1, family=Family.AB)
        z = p1_combo(spec)
        assert str(z) == "p1(TM)"

    def test_two_line_euler_squares(self):
        spec = GeometrySpec(k=1, l=1, a=1, b=0, family=Family.TWO_LINE)
        ring = spec.ring()
        u = GradedPoly.generator(ring, "u")
        up = GradedPoly.generator(ring, "u'")
        assert p1_combo(spec) == u * u - up * up

    @staticmethod
    def two_branch(spec):
        if spec.family is Family.TWO_LINE:
            return spec.power_sums("u")[0] - spec.power_sums("u'")[0]
        return spec.power_sums("TM")[0] - spec.power_sums("V")[0] * (spec.a + 2 * spec.b)

    def test_equals_the_two_branch_formula_on_the_grid(self):
        # BUNDLE's z terms are written once, in `_z_terms`; each family's formula on every
        # grid geometry
        for spec in {req.spec for req in default_grid() if req.spec is not None}:
            assert p1_combo(spec) == self.two_branch(spec), spec

    def test_theta_route_z_equals_the_two_branch_formula_on_the_grid(self):
        # THETA writes its own z, `FamilyForms.theta_z`, as scale * exponent * s_1(roots) terms
        for spec in {req.spec for req in default_grid() if req.spec is not None}:
            terms = FAMILY_FORMS[spec.family].theta_z
            assert (terms is None) == (FAMILY_FORMS[spec.family].theta is None)
            if terms is not None:
                z = sum_of_products(spec.ring(), [(spec.power_sums(roots)[0], scale * spec.twist(e))
                                                  for roots, scale, e in terms])
                assert z == self.two_branch(spec), spec


class TestQForms:
    def test_q0_coefficient_of_q1(self):
        # at q^0 the E2 factor is exp(z/24) and the bundle character is 1
        spec = GeometrySpec(k=1, l=1, a=2, b=1, family=Family.AB)
        got = q_form(QFormId.LEAD, Route.BUNDLE, spec, 2).coeffs[0]
        z = p1_combo(spec)
        want = (apply_series(taylor_exp(5), z * F(1, 24))
                * genus_form(spec) * ch_spinor_pow(spec, 2))
        assert got == want

    @pytest.mark.parametrize("family", list(Family))
    def test_e2_expm1_over_z_against_the_per_power_loop(self, family):
        for k in range(1, 5):
            spec = GeometrySpec(k=k, l=2, a=1, b=0, family=family)
            for order in (0, 2):
                assert e2_expm1_over_z(spec, order) == reference_e2_expm1_over_z(spec, order)

    def test_double_route_documented_case(self):
        spec = GeometrySpec(k=1, l=1, a=1, b=0, family=Family.AB)
        assert (q_form(QFormId.LEAD, Route.BUNDLE, spec, 4)
                == q_form(QFormId.LEAD, Route.THETA, spec, 4))

    def test_two_line_joint_documented_case(self):
        spec = GeometrySpec(k=1, l=1, a=1, b=0, family=Family.TWO_LINE)
        z = p1_combo(spec)
        bundle = (q_form(QFormId.MAIN, Route.BUNDLE, spec, 3)
                  + q_form(QFormId.CORRECTION, Route.BUNDLE, spec, 3) * z)
        assert bundle == q_form(QFormId.JOINT, Route.THETA, spec, 3)

    @pytest.mark.parametrize("family", list(Family))
    def test_joint_is_main_plus_z_correction(self, family):
        a, b = (1, 0) if family is Family.TWO_LINE else (2, 1)
        for k in (1, 2, 3):
            spec = GeometrySpec(k=k, l=2, a=a, b=b, family=family)
            z = p1_combo(spec)
            for order in (0, 3):
                main = q_form(QFormId.MAIN, Route.BUNDLE, spec, order)
                correction = q_form(QFormId.CORRECTION, Route.BUNDLE, spec, order)
                assert q_form(QFormId.JOINT, Route.BUNDLE, spec, order) == main + correction * z

    @pytest.mark.parametrize("family", list(Family))
    def test_windowed_form_is_the_slice_of_the_whole(self, family):
        # q_form(..., degree=d) builds degree d alone; it must equal the whole form's slice
        a, b = (1, 0) if family is Family.TWO_LINE else (2, 1)
        routes = [Route.BUNDLE] + [Route.THETA] * (FAMILY_FORMS[family].theta is not None)
        for k in range(1, 5):
            spec = GeometrySpec(k=k, l=3, a=a, b=b, family=family)
            for route in routes:
                for form in (QFormId if route is Route.BUNDLE else (QFormId.LEAD, QFormId.JOINT)):
                    whole = q_form(form, route, spec, 2)
                    for d in (4 * k, 4 * k - 4, 4 * k - 2, 4 * k + 4):
                        part = q_form(form, route, spec, 2, degree=d)
                        assert part == whole.degree_slice(d), (form, route, k, d)

    def test_theta_route_rejects_unsupported_ids(self):
        # the theta quotients express LEAD and JOINT only
        two = GeometrySpec(k=1, l=1, a=1, b=0, family=Family.TWO_LINE)
        for spec in (AB11, two):
            for form in (QFormId.MAIN, QFormId.CORRECTION):
                with pytest.raises(UsageError, match=f"expression for {form.name} in"):
                    q_form(form, Route.THETA, spec, 2)
        xi = GeometrySpec(k=1, l=1, a=1, b=0, family=Family.AB_XI)
        with pytest.raises(UsageError):
            q_form(QFormId.LEAD, Route.THETA, xi, 2)

    @pytest.mark.parametrize("route", list(Route))
    @pytest.mark.parametrize("form", ["q1", "LEAD", None])
    def test_non_member_form_is_usage_error(self, form, route):
        with pytest.raises(UsageError, match="unknown form"):
            q_form(form, route, AB11, 2)

    def test_every_family_names_its_forms_and_coefficients(self):
        names = [row.names for row in FAMILY_FORMS.values()]
        assert all(len(row) == 4 and all(isinstance(n, str) for n in row) for row in names)
        assert len({n for row in names for n in row}) == 4 * len(Family)

    def test_e2_factor_times_inverse(self):
        # the lead forms' E2 rows, ("E2", c) over z's roots, against the BUNDLE
        # joint form's independent factor
        for spec in [GeometrySpec(k=k, l=1, a=1, b=0, family=f) for k in (1, 2) for f in Family]:
            e2 = ("E2", FAMILY_FORMS[spec.family].e2_coefficient)
            rows = tuple((roots, e2, e) for roots, e in bundles._z_terms(spec))
            fwd = bundles._form_exp(spec.ring(), rows, 3)
            # exp(c E2 z) * exp(-c E2 z) = 1; realize the inverse via series inv
            assert fwd * fwd.inv() == QSeries.one(3, spec.ring())
            assert fwd == e2_expm1_over_z(spec, 3) * p1_combo(spec) + QSeries.one(3, spec.ring())

    def test_static_expm1_over_reproduces_exponential(self):
        spec = GeometrySpec(k=2, l=1, a=2, b=0, family=Family.AB)
        z = p1_combo(spec)
        pref = e2_expm1_over_z(spec, 0).coeffs[0]
        assert pref.constant_term() == F(1, 24)
        assert pref * z + 1 == apply_series(taylor_exp(5), z * F(1, 24))

    def test_xi_family_cosh_weighting(self):
        spec = GeometrySpec(k=1, l=1, a=1, b=0, family=Family.AB_XI)
        q2 = q_form(QFormId.MAIN, Route.BUNDLE, spec, 2)
        cosh_u = symmetrise([(_log_parts(cosh_half_root(4)), spec.power_sums("u"), 1)], 0).coeffs[0]
        expect = (genus_form(spec) * cosh_u
                  * ch_spinor_pow(spec, 0)) * ch_theta_bundle(2, spec, 2)
        assert q2 == expect


def shape_faults(row):
    """The rows and terms of a `FAMILY_FORMS` row that name a root label its family
    lacks, a factor its route does not read (THETA only a `ThetaKind`, BUNDLE never
    one), or an exponent that is not an int, "a" or "b"."""
    def exponent(e):
        return e in ("a", "b") or (isinstance(e, int) and not isinstance(e, bool))

    labels = {"TM", "V", *row.euler_roots}
    blocks = {(grid, sign) for grid in ("int", "half") for sign in (1, -1)}
    bundle = [*bundles._GENUS_ROWS[0], *bundles._GENUS_ROWS[1], bundles._TANGENT_ROW,
              *row.euler_cosh[0], *row.euler_cosh[1], *row.blocks[0], *row.blocks[1]]
    theta = [bundles._THETA_TANGENT_ROW] + [r for recipe, _ in row.theta or () for r in recipe]
    terms = [*(row.theta_z or ()), *row.twist]   # (roots, scale, exponent)
    allowed = [(bundle, lambda f: f in ("ahat", "cosh") or f in blocks),
               (theta, lambda f: isinstance(f, ThetaKind)),
               (terms, lambda s: isinstance(s, int) and not isinstance(s, bool))]
    faults = [r for rows, ok in allowed for r in rows
              if r[0] not in labels or not ok(r[1]) or not exponent(r[2])]
    return faults + [two for _, two in row.theta or () if not exponent(two)]


class TestFamilyFormsShape:
    """Every row of `FAMILY_FORMS` names a root of its family, a factor of its route
    and an int or twist exponent; a misspelt label would otherwise fail deep inside
    `algebra.power_sums`."""

    @pytest.mark.parametrize("family", list(Family), ids=lambda family: family.value)
    def test_every_row_has_the_shape_its_route_reads(self, family):
        assert shape_faults(FAMILY_FORMS[family]) == []

    def test_each_kind_of_fault_is_found(self):
        two = FAMILY_FORMS[Family.TWO_LINE]
        (roots, factor, e), *rest = two.blocks[0]
        recipe, power = two.theta[0]
        bad = [("W", factor, e), (roots, ThetaKind.THETA1, e), (roots, factor, "c"),
               (roots, factor, True), (roots, ("int", 2), e)]
        for fault in bad:
            row = replace(two, blocks=((fault, *rest), two.blocks[1]))
            assert shape_faults(row) == [fault], fault
        row = replace(two, theta=((((roots, "cosh", 1), *recipe), power), two.theta[1]))
        assert shape_faults(row) == [(roots, "cosh", 1)]
        for term in (("W", 1, 1), (roots, "a", 1), (roots, 1, "W")):
            assert shape_faults(replace(two, twist=(term,))) == [term], term
        row = replace(two, theta=(two.theta[0], (two.theta[1][0], "c")))
        assert shape_faults(row) == ["c"]


class TestRouteIndependence:
    """DOUBLE_ROUTE compares two constructions; neither may be built from the other."""

    AB = GeometrySpec(k=1, l=2, a=2, b=1, family=Family.AB)
    TWO = GeometrySpec(k=1, l=2, a=1, b=0, family=Family.TWO_LINE)
    CASES = [pytest.param(form, spec, id=f"QFormId.{paper_form(spec, form)}-spec{i}")
             for i, (form, spec) in enumerate([(QFormId.LEAD, AB), (QFormId.JOINT, AB),
                                               (QFormId.LEAD, TWO), (QFormId.JOINT, TWO)])]

    @staticmethod
    def refuse(*args, **kwargs):
        raise AssertionError("the other route was called")

    @pytest.mark.parametrize("form, spec", CASES)
    def test_bundle_route_uses_no_theta_quotient(self, form, spec, cold_caches, monkeypatch):
        monkeypatch.setattr(theta, "theta_ratio", self.refuse)
        assert not q_form(form, Route.BUNDLE, spec, 2).is_zero()

    @pytest.mark.parametrize("form, spec", CASES)
    def test_theta_route_uses_no_bundle_block(self, form, spec, cold_caches, monkeypatch):
        monkeypatch.setattr(bundles, "_exterior_log", self.refuse)
        assert not q_form(form, Route.THETA, spec, 2).is_zero()

    @pytest.mark.parametrize("form, spec", CASES)
    def test_theta_route_maps_its_own_rows(self, form, spec, cold_caches, monkeypatch):
        # THETA maps its rows to tables itself: were it to share BUNDLE's map, a
        # fault in that map's q-order rule would reach both routes alike
        for name in ("_symmetrise_rows", "_form_exp", "_bundle_rows"):
            monkeypatch.setattr(bundles, name, self.refuse)
        assert not q_form(form, Route.THETA, spec, 2).is_zero()

    @pytest.mark.parametrize("form, spec", CASES)
    def test_bundle_route_uses_no_literal_genus_series(self, form, spec, cold_caches,
                                                        monkeypatch):
        # BUNDLE reads A-hat and cosh off closed forms; THETA multiplies in these series
        monkeypatch.setattr(algebra, "half_over_sinh_half_root", self.refuse)
        monkeypatch.setattr(algebra, "cosh_half_root", self.refuse)
        assert not q_form(form, Route.BUNDLE, spec, 2).is_zero()

    @staticmethod
    def tables_cached(keys):
        """Whether the per-root table cache holds exactly `keys`: as many
        entries as keys, and reading each key again is a hit."""
        before = bundles._root_log.cache_info()
        for key in keys:
            bundles._root_log(*key)
        after = bundles._root_log.cache_info()
        return before.currsize == len(set(keys)) and after.misses == before.misses

    @pytest.mark.parametrize("form, spec", CASES)
    def test_theta_route_caches_theta_quotient_tables_only(self, form, spec, cold_caches):
        # the theta quotients and the E2 table, the one entry the routes share
        q_form(form, Route.THETA, spec, 2)
        recipe, _ = FAMILY_FORMS[spec.family].theta[0 if form is QFormId.LEAD else 1]
        kinds = {ThetaKind.THETA} | {kind for _, kind, _ in recipe}
        e2 = ("E2", FAMILY_FORMS[spec.family].e2_coefficient)
        assert self.tables_cached([(kind, 4 * spec.k, 2) for kind in kinds] + [(e2, 4 * spec.k, 2)])

    @pytest.mark.parametrize("form, spec", CASES)
    def test_bundle_route_caches_genus_tables_only(self, form, spec, cold_caches):
        # the genus tables at order 0, and the tangent row's and the bundle's
        # exterior blocks at the order, with the lead's E2 table, the one entry
        # the routes share (the joint form's E2 factor is `e2_expm1_over_z`); no
        # key is a theta quotient's
        q_form(form, Route.BUNDLE, spec, 2)
        blocks = FAMILY_FORMS[spec.family].blocks[0 if form is QFormId.LEAD else 1]
        factors = {("int", -1)} | {factor for _, factor, _ in blocks}
        if form is QFormId.LEAD:
            factors.add(("E2", FAMILY_FORMS[spec.family].e2_coefficient))
        assert self.tables_cached([("ahat", 4 * spec.k, 0), ("cosh", 4 * spec.k, 0)]
                                  + [(factor, 4 * spec.k, 2) for factor in factors])


class TestRouteMutations:
    """One changed exponent in either route's recipe makes DOUBLE_ROUTE report
    MISMATCH on the form it builds: the routes share `symmetrise`, and their
    lead forms share the per-root c * E2 table, so only their recipes keep
    those apart.
    The joint form's E2 factor is `e2_expm1_over_z` on the BUNDLE route and
    the exp of those rows on the THETA route."""

    SPECS = [GeometrySpec(k=1, l=2, a=2, b=1, family=Family.AB),
             GeometrySpec(k=1, l=2, a=1, b=0, family=Family.TWO_LINE)]

    @staticmethod
    def verdicts(spec):
        report = verify_case(CaseId.DOUBLE_ROUTE, spec, q_order=2)
        return report.passed, dict(report.quantities)

    @staticmethod
    def expect(row, which):
        lead, joint = row.names[0], f"{row.names[1]}_joint"
        return (False, {lead: "MISMATCH", joint: "equal"} if which == 0
                else {lead: "equal", joint: "MISMATCH"})

    @pytest.mark.parametrize("which", [0, 1])
    @pytest.mark.parametrize("spec", SPECS, ids=lambda spec: spec.family.value)
    def test_bundle_block_exponent(self, spec, which, cold_caches, monkeypatch):
        row = FAMILY_FORMS[spec.family]
        (roots, factor, e), *rest = row.blocks[which]
        blocks = list(row.blocks)
        blocks[which] = ((roots, factor, spec.twist(e) + 1), *rest)
        monkeypatch.setitem(FAMILY_FORMS, spec.family, replace(row, blocks=tuple(blocks)))
        assert self.verdicts(spec) == self.expect(row, which)

    @pytest.mark.parametrize("which", [0, 1])
    @pytest.mark.parametrize("spec", SPECS, ids=lambda spec: spec.family.value)
    def test_theta_recipe_exponent(self, spec, which, cold_caches, monkeypatch):
        row = FAMILY_FORMS[spec.family]
        recipe, two = row.theta[which]
        (roots, kind, e), *rest = recipe
        theta = list(row.theta)
        theta[which] = (((roots, kind, spec.twist(e) + 1), *rest), two)
        monkeypatch.setitem(FAMILY_FORMS, spec.family, replace(row, theta=tuple(theta)))
        assert self.verdicts(spec) == self.expect(row, which)

    # AB at (a, b) = (1, 0): the int grid at t = +q^n feeds only the lead
    # bundle, the half grid at t = -q^(n-1/2) only the second, and the tangent
    # row, the int grid at t = -q^n, both
    @pytest.mark.parametrize("grid, sign, which", [("int", +1, (0,)), ("half", -1, (1,)),
                                                   ("int", -1, (0, 1))])
    def test_closed_form_coefficient(self, grid, sign, which, cold_caches, monkeypatch):
        # one Adams coefficient off by one in the BUNDLE route's closed form
        # is caught by THETA's literal Jacobi products
        exterior_log = bundles._exterior_log

        def off_by_one(cap, g, s, order):
            parts = exterior_log(cap, g, s, order)
            if (g, s) != (grid, sign):
                return parts
            h = 2 if grid == "int" else 1
            first = parts.nums[1]
            return LogParts(parts.den, (parts.nums[0], first[:h] + (first[h] + parts.den,)
                                        + first[h + 1:], *parts.nums[2:]))

        monkeypatch.setattr(bundles, "_exterior_log", off_by_one)
        spec = GeometrySpec(k=1, l=2, a=1, b=0, family=Family.AB)
        row = FAMILY_FORMS[spec.family]
        names = (row.names[0], f"{row.names[1]}_joint")
        assert self.verdicts(spec) == (False, {name: "MISMATCH" if i in which else "equal"
                                               for i, name in enumerate(names)})

    @pytest.mark.parametrize("spec", SPECS, ids=lambda spec: spec.family.value)
    def test_bundle_joint_e2_factor(self, spec, cold_caches, monkeypatch):
        # the BUNDLE route's joint form reads its E2 factor from e2_expm1_over_z
        # alone, so scaling it leaves the lead forms equal
        expm1_over_z = bundles.e2_expm1_over_z
        monkeypatch.setattr(bundles, "e2_expm1_over_z",
                            lambda spec, order: expm1_over_z(spec, order).scale(F(25, 24)))
        row = FAMILY_FORMS[spec.family]
        assert self.verdicts(spec) == self.expect(row, 1)

    @pytest.mark.parametrize("spec", SPECS, ids=lambda spec: spec.family.value)
    def test_unchanged_recipes_agree(self, spec, cold_caches):
        row = FAMILY_FORMS[spec.family]
        assert self.verdicts(spec) == (True, {row.names[0]: "equal",
                                              f"{row.names[1]}_joint": "equal"})


# Specs that share a ring: p_i(V) stops at min(l, k), so k = 1 at l = 1..3 and
# k = 2 at l = 2, 3 each read one ring.  Each twist pair shares an exponent
# with another: a = 1, b = 0, a = 2; (0, 1) leads with the weight's exponent
# of (1, 0) and (2, 2) leads with its own weight's.
SHARED_TWISTS = ((1, 0), (1, 2), (2, 0), (0, 1), (2, 2))
SHARED_RINGS = ((1, (1, 2, 3)), (2, (2, 3)))
SHARED_RING_SPECS = [GeometrySpec(k=k, l=l, a=a, b=b, family=family)
                     for family in (Family.AB, Family.AB_XI)
                     for k, ls in SHARED_RINGS for l in ls for a, b in SHARED_TWISTS] + [
                    GeometrySpec(k=k, l=l, family=Family.TWO_LINE)
                    for k, ls in SHARED_RINGS for l in ls]


class TestFormCaches:
    """The genus, bundle and E2 forms are cached on the ring and what they
    read, the rows at the spec's twists, not on the spec: specs that share
    those share one build, and every cached form equals an uncached build
    from its rows."""

    @staticmethod
    def rows(spec, which, bundle):
        """The resolved rows of spec's lead or weight form (bundle=False) or of
        its first or second bundle's character (bundle=True), each "a" and "b"
        read off the spec here, not by the engine's `_bundle_rows`."""
        row = FAMILY_FORMS[spec.family]
        recipe = ((bundles._TANGENT_ROW,) + row.blocks[which - 1] if bundle
                  else bundles._GENUS_ROWS[which - 1] + row.euler_cosh[which - 1])
        twists = {"a": spec.a, "b": spec.b}
        return tuple((roots, factor, twists.get(e, e)) for roots, factor, e in recipe)

    @staticmethod
    def uncached(ring, rows, order):
        return symmetrise(bundles._symmetrise_rows(ring, rows, order), order)

    @pytest.mark.parametrize("family", list(Family), ids=lambda family: family.value)
    def test_specs_past_k_share_one_ring(self, family):
        for k, ls in SHARED_RINGS:
            rings = [GeometrySpec(k=k, l=l, family=family).ring() for l in ls]
            assert all(ring is rings[0] for ring in rings)
            assert [n for n in rings[0].names if n.endswith("(V)")] == [
                f"p{i}(V)" for i in range(1, k + 1)]
        assert GeometrySpec(k=2, l=1, family=family).ring() != GeometrySpec(
            k=2, l=2, family=family).ring()

    def test_cached_forms_equal_uncached_builds(self, cold_caches):
        # one pass from cold: each spec after the first of its ring reads
        # entries that the specs before it built
        for spec in SHARED_RING_SPECS:
            ring = spec.ring()
            for which, e in ((1, spec.a), (2, spec.b)):
                rows = self.rows(spec, which, bundle=False)
                want = self.uncached(ring, rows, 0).coeffs[0] * F(2) ** (e * spec.l)
                assert lead_weight(spec, which) == want, spec
                for order in (0, 2):
                    rows = self.rows(spec, which, bundle=True)
                    assert ch_theta_bundle(which, spec, order) == self.uncached(
                        ring, rows, order), spec
            for order in (0, 2):
                assert e2_expm1_over_z(spec, order) == reference_e2_expm1_over_z(spec, order), spec

    def test_the_key_names_the_family(self, cold_caches):
        # a spec's ring names its family's Euler roots, but the key holds the
        # family's rows: over the two-line ring every family's recipe reads
        # roots it has, each family's rows build their own form, and rows two
        # families share (the ab-xi and two-line leads) build one
        ring = GeometrySpec(k=2, l=2, family=Family.TWO_LINE).ring()
        keys = {(self.rows(GeometrySpec(k=2, l=2, family=family), which, bundle), order)
                for family in Family for which in (1, 2)
                for bundle, order in ((False, 0), (True, 1))}
        assert len(keys) == 11
        for rows, order in keys:
            assert bundles._form_exp(ring, rows, order) == self.uncached(ring, rows, order)
        assert bundles._form_exp.cache_info().currsize == len(keys)

    def test_the_e2_key_holds_the_coefficient(self, cold_caches):
        # AB and AB_XI share c = 1/24, so no spec sets c apart from z; the
        # scaling (exp(2c E2 z) - 1) / z = 2 (exp(c E2 2z) - 1) / (2z) does
        for spec in (GeometrySpec(k=2, l=2, a=2, b=1), GeometrySpec(k=2, l=1, family=Family.TWO_LINE)):
            z, c = p1_combo(spec), FAMILY_FORMS[spec.family].e2_coefficient
            assert bundles._e2_expm1(z, c, 2) == reference_e2_expm1_over_z(spec, 2)
            assert bundles._e2_expm1(z, 2 * c, 2) == bundles._e2_expm1(z * 2, c, 2).scale(2)

    def test_weight_symmetrised_once_per_twist(self, cold_caches, monkeypatch):
        # THM31 at k = 1 over l = 1..3 and b = 0..2 reads three rings that are
        # one ring, so `_form_exp` misses once per form: the weight and the
        # second bundle's character once per b, and the lead at a = 1 is the
        # weight's rows at b = 1
        symmetrise_rows = bundles._symmetrise_rows
        built = []

        def counted(ring, rows, order):
            built.append(rows)
            return symmetrise_rows(ring, rows, order)

        monkeypatch.setattr(bundles, "_symmetrise_rows", counted)
        specs = [GeometrySpec(k=1, l=l, a=1, b=b) for l in (1, 2, 3) for b in (0, 1, 2)]
        for spec in specs:
            assert verify_case(CaseId.THM31, spec).passed
        want = {self.rows(spec, which, bundle) for spec in specs
                for which, bundle in ((1, False), (2, False), (2, True))}
        assert len(built) == len(want) == 6 and set(built) == want
        assert bundles._form_exp.cache_info().misses == len(built)

    def test_rows_resolved_once_per_family_row_and_twists(self, cold_caches, monkeypatch):
        # k and l do not reach the rows, and the key is the twists as given, so
        # the AB lead at a = 2 and weight at b = 2, one `_form_exp` build, are two
        # resolutions; a row patched in with equal fields is the same key, and one
        # with other fields is resolved afresh
        specs = [GeometrySpec(k=k, l=l, a=a, b=b, family=family)
                 for family in (Family.AB, Family.AB_XI) for k in (1, 2) for l in (1, 3)
                 for a, b in ((1, 0), (2, 0), (0, 2), (2, 1))] + [
                GeometrySpec(k=k, l=l, family=Family.TWO_LINE) for k in (1, 2) for l in (1, 3)]
        for spec in specs:
            for which in (1, 2):
                lead_weight(spec, which)
                ch_theta_bundle(which, spec, 1)
        info = bundles._bundle_rows.cache_info()
        assert info.misses == info.currsize == 2 * 4 + 1
        assert info.hits == 4 * len(specs) - info.misses
        spec = GeometrySpec(k=2, l=2, a=2, b=1)
        row = FAMILY_FORMS[spec.family]
        monkeypatch.setitem(FAMILY_FORMS, spec.family, replace(row))
        ch_theta_bundle(1, spec, 1)
        assert bundles._bundle_rows.cache_info().misses == info.misses
        (roots, factor, e), *rest = row.blocks[0]
        patched = replace(row, blocks=(((roots, factor, 3), *rest), row.blocks[1]))
        monkeypatch.setitem(FAMILY_FORMS, spec.family, patched)
        ch_theta_bundle(1, spec, 1)
        assert bundles._bundle_rows.cache_info().misses == info.misses + 1
        assert bundles._bundle_rows(patched, 2, 1)[2][1] == (roots, factor, 3)

    def test_twists_resolving_to_equal_rows_share_one_build(self, cold_caches):
        # the AB lead at a = 2 and the AB weight at b = 2 are one form on one ring
        lead, weight = GeometrySpec(k=2, l=2, a=2, b=0), GeometrySpec(k=2, l=2, a=0, b=2)
        assert lead.ring() is weight.ring()
        assert lead_weight(lead, 1) == lead_weight(weight, 2)
        info = bundles._form_exp.cache_info()
        assert (info.misses, info.hits, info.currsize) == (1, 1, 1)


class TestPerRootTables:
    """Every per-root log table is cached on the factor it names and its small
    arguments, never on a ring value."""

    def test_theta_tables_by_kind_cap_and_order(self, cold_caches):
        # each key is its own table, equal to the log of its theta quotient
        keys = [(kind, cap, order) for kind in ThetaKind for cap in (8, 12) for order in (4, 5)]
        tables = [bundles._root_log(*key) for key in keys]
        assert len(set(tables)) == len(keys)
        for key, table in zip(keys, tables):
            assert table == _log_parts(theta_ratio(*key)), key

    def test_genus_tables_by_factor_and_cap(self, cold_caches):
        # the closed forms against the series they sum, at every cap of k = 1..16
        for cap in range(4, 65, 4):
            assert bundles._root_log("ahat", cap, 0) == _log_parts(half_over_sinh_half_root(cap))
            assert bundles._root_log("cosh", cap, 0) == _log_parts(cosh_half_root(cap))
        assert bundles._root_log("ahat", 8, 0) != bundles._root_log("cosh", 8, 0)

    def test_block_tables_by_grid_sign_cap_and_order(self, cold_caches):
        # the cache serves `_exterior_log`'s table for every block the recipes name
        for grid, sign in (("int", +1), ("int", -1), ("half", +1), ("half", -1)):
            for cap in range(4, 17, 4):
                for order in range(4):
                    assert bundles._root_log((grid, sign), cap, order) == _exterior_log(
                        cap, grid, sign, order), (grid, sign, cap, order)

    def test_every_module_level_cache_by_name(self):
        # a new cache, or one gone, changes this list by name
        found = set()
        for info in pkgutil.iter_modules(anomcancel.__path__):
            module = importlib.import_module(f"anomcancel.{info.name}")
            found |= {f"{module.__name__}.{obj.__qualname__}" for obj in vars(module).values()
                      if hasattr(obj, "cache_clear") and obj.__module__ == module.__name__}
        assert found == {
            "anomcancel.algebra.one_root_ring",
            "anomcancel.bundles._ring_for",
            "anomcancel.bundles._power_sums",
            "anomcancel.bundles._root_log",
            "anomcancel.bundles._bundle_rows",
            "anomcancel.bundles._form_exp",
            "anomcancel.bundles._e2_expm1",
            "anomcancel.bundles._q_form_bundle",
            "anomcancel.decomp.basis_series",
            "anomcancel.theta._theta_const_fourth",
            "anomcancel.theta.modular_form",
        }
