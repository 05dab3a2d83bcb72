"""The Pontryagin-ring engine against the root-ring oracle (k <= 3).

Every per-root factor, symmetrised over a root family, must equal the
product over the individual Chern roots rewritten by pontryagin_all; so must
every assembled q-form on both routes.
"""

import pytest

from anomcancel.algebra import (
    GradedPoly,
    QSeries,
    _log_parts,
    cosh_half_root,
    exp_root,
    half_over_sinh_half_root,
    one_root_ring,
    power_sums,
    symmetrise,
)
from anomcancel.bundles import (
    FAMILY_FORMS,
    Family,
    GeometrySpec,
    QFormId,
    Route,
    _exterior_log,
    ch_tilde_roots,
    q_form,
)
from anomcancel.errors import SymmetryError, UsageError
from anomcancel.theta import ThetaKind, theta_ratio

from conftest import (
    exterior_block,
    in_pontryagin,
    paper_form,
    root_product,
    root_q_form,
    root_sum,
    symmetric_block,
)

ORDER = 2


def per_root_factors(cap: int, order: int):
    """(name, per-root series) of every factor kind the engine symmetrises."""
    out = [("ahat", half_over_sinh_half_root(cap)), ("cosh_half", cosh_half_root(cap)),
           ("symmetric_block", symmetric_block(cap, order))]
    out += [(f"exterior_{grid}_{sign:+d}", exterior_block(cap, grid, sign, order))
            for grid in ("int", "half") for sign in (+1, -1)]
    out += [(kind.value, theta_ratio(kind, cap, order)) for kind in ThetaKind]
    return out


def row(f, sums, e):
    """The symmetriser's row of a per-root factor f: the even parts of its log."""
    return _log_parts(f), sums, e


def symmetrised(f, sums, e):
    """f^e symmetrised over the roots of `sums`: a polynomial for a polynomial f."""
    if isinstance(f, QSeries):
        return symmetrise([row(f, sums, e)], f.order)
    return symmetrise([row(f, sums, e)], 0).coeffs[0]


SIZES = [(k, l) for k in (1, 2, 3) for l in (1, 2)]


@pytest.mark.parametrize("k, l", SIZES)
def test_symmetriser_equals_root_product(k, l):
    spec = GeometrySpec(k=k, l=l, a=1, b=0, family=Family.AB_XI)
    for name, f in per_root_factors(4 * k, ORDER):
        for label, e in (("TM", 1), ("V", -2), ("u", 3)):
            want = in_pontryagin(root_product(spec, [(f, label, e)]), spec)
            got = symmetrised(f, spec.power_sums(label), e)
            assert got == want, (name, label, e)


@pytest.mark.parametrize("k, l", SIZES)
def test_symmetriser_of_several_families(k, l):
    # one call over several factors is the product of the single-factor calls
    spec = GeometrySpec(k=k, l=l, a=1, b=0, family=Family.TWO_LINE)
    cap = 4 * k
    factors = [(symmetric_block(cap, ORDER), "TM", 1),
               (exterior_block(cap, "half", -1, ORDER), "V", 2),
               (exterior_block(cap, "int", +1, ORDER), "u", -2),
               (exterior_block(cap, "half", +1, ORDER), "u'", 1)]
    want = in_pontryagin(root_product(spec, factors), spec)
    rows = [row(f, spec.power_sums(label), e) for f, label, e in factors]
    assert symmetrise(rows, ORDER) == want


@pytest.mark.parametrize("grid", ["int", "half"])
@pytest.mark.parametrize("sign", [+1, -1])
def test_exterior_log_is_the_log_of_the_exterior_block(grid, sign):
    # the engine's closed form against the log of the block multiplied out
    for cap in (4, 8, 12, 16):
        for order in range(10):
            want = _log_parts(exterior_block(cap, grid, sign, order))
            assert _exterior_log(cap, grid, sign, order) == want, (cap, order)


@pytest.mark.parametrize("k, l", SIZES + [(4, 2)])
def test_family_sum_equals_root_sum(k, l):
    # ch_tilde_roots sums e^w + e^-w - 2 over a family's roots from its power
    # sums; the oracle sums it root by root
    f = exp_root(4 * k, +1) + exp_root(4 * k, -1) - 2
    for family in Family:
        spec = GeometrySpec(k=k, l=l, family=family)
        for label in ("TM", "V", *FAMILY_FORMS[family].euler_roots):
            want = in_pontryagin(root_sum(spec, f, label), spec)
            assert ch_tilde_roots(spec, label) == want, (family, label)


FORM_CASES = [
    (GeometrySpec(k=k, l=l, a=a, b=b, family=family), form, route)
    for k in (1, 2) for l in (1, 2)
    for family, (a, b) in ((Family.AB, (2, 1)), (Family.AB, (-1, 0)), (Family.AB_XI, (0, 2)),
                           (Family.TWO_LINE, (1, 0)))
    for form, route in ((QFormId.LEAD, Route.BUNDLE), (QFormId.MAIN, Route.BUNDLE),
                        (QFormId.CORRECTION, Route.BUNDLE),
                        (QFormId.LEAD, Route.THETA), (QFormId.JOINT, Route.THETA))
    if route is Route.BUNDLE or FAMILY_FORMS[family].theta is not None
]
FORM_CASES = [pytest.param(*case, id=f"spec{i}-QFormId.{paper_form(case[0], case[1])}-{case[2]}")
              for i, case in enumerate(FORM_CASES)]


@pytest.mark.parametrize("spec, form, route", FORM_CASES)
def test_q_form_equals_root_ring(spec, form, route):
    want = in_pontryagin(root_q_form(form, route, spec, ORDER), spec)
    assert q_form(form, route, spec, ORDER) == want


@pytest.mark.parametrize("spec", [
    pytest.param(spec, id=f"{spec.family.value}-k{spec.k}-l{spec.l}-a{spec.a}-b{spec.b}")
    for spec in dict.fromkeys(case.values[0] for case in FORM_CASES)])
def test_bundle_joint_equals_root_ring(spec):
    want = in_pontryagin(root_q_form(QFormId.JOINT, Route.BUNDLE, spec, ORDER), spec)
    assert q_form(QFormId.JOINT, Route.BUNDLE, spec, ORDER) == want


def test_power_sums_by_newton():
    # three squared roots x1, x2, x3 = 1, 2, 3: e = (6, 11, 6), s_n = 1 + 2^n + 3^n
    ring = GeometrySpec(k=4, l=1).ring()
    one = GradedPoly.one(ring)
    sums = power_sums([one * 6, one * 11, one * 6], 4)
    assert [s.constant_term() for s in sums] == [1 + 2 ** n + 3 ** n for n in range(1, 5)]


def test_symmetriser_rejects_bad_per_root_series():
    spec = GeometrySpec(k=2, l=1)
    w = GradedPoly.generator(one_root_ring(8), "w")
    with pytest.raises(SymmetryError):
        symmetrise([row(exp_root(8, +1), spec.power_sums("TM"), 1)], 0)   # odd in w
    with pytest.raises(UsageError):
        symmetrise([row(cosh_half_root(4), spec.power_sums("TM"), 1)], 0)  # another cap
    with pytest.raises(UsageError):
        spec.power_sums("u")                                        # no xi in family ab
    with pytest.raises(UsageError):
        symmetrise([row(cosh_half_root(8) * 2, spec.power_sums("V"), 1)], 0)  # f(0) = 2
    one_plus_q = QSeries.binomial(GradedPoly.one(one_root_ring(8)), 2, 2)
    with pytest.raises(UsageError):
        symmetrise([row(one_plus_q, spec.power_sums("V"), 1)], 2)  # f(0) = 1 + q
    assert symmetrised(w * w + 1, spec.power_sums("V"), 0) == GradedPoly.one(spec.ring())


def test_series_log_and_exp_are_inverse():
    ring = one_root_ring(8)
    f = symmetric_block(8, 3)
    assert f.log().exp() == f
    assert f.log().coeffs[0] == GradedPoly.zero(ring)
    with pytest.raises(UsageError):
        QSeries.one(3, ring).exp()

