"""Independent oracle: the per-root BUNDLE blocks and theta quotients against
sympy's own series expansion in (w, q), at cap 8 and q-order 4; the modular
forms against theta-constant sums; and assembled q-forms at k <= 2 against
products over named Chern roots.

Every per-root series is a product of factors f(w, s) at s = c q^(h/2).  sympy
expands each f in s and then in w, and multiplies the expansions as polynomials
in (w, t = q^(1/2)); nothing here goes through the engine's q-series kernels.
The test is skipped when sympy is not installed; it is not a runtime
dependency of the package.
"""

import math
from fractions import Fraction
from functools import lru_cache

import pytest

sp = pytest.importorskip("sympy")

from sympy.polys.rings import ring  # noqa: E402

from anomcancel.algebra import GradedPoly, QSeries, one_root_ring  # noqa: E402
from anomcancel.bundles import (  # noqa: E402
    FAMILY_FORMS,
    Family,
    GeometrySpec,
    QFormId,
    Route,
    _exterior_log,
    q_form,
)
from anomcancel.errors import UsageError  # noqa: E402
from anomcancel.theta import ModularFormId, ThetaKind, modular_form, theta_ratio  # noqa: E402

from conftest import (  # noqa: E402
    check_form_route,
    exterior_block,
    fraction_rows,
    paper_form,
    root_q_form,
    symmetric_block,
)

CAP, ORDER = 8, 4
W_MAX, T_MAX = CAP // 2, 2 * ORDER  # highest powers of w (degree 2) and of t = q^(1/2)
w, s, t = sp.symbols("w s t")

# ch of the symmetric powers of the pair of lines e^(+-w), reduced by two
# trivial lines: (1 - s)^2 / ((1 - e^w s)(1 - e^-w s)), one factor at a time.
SYMMETRIC = ((1 - s) ** 2, 1 / (1 - sp.exp(w) * s), 1 / (1 - sp.exp(-w) * s))
# ch of the exterior powers of the same pair, reduced: (1 + e^w s)(1 + e^-w s) / (1 + s)^2.
EXTERIOR = (1 + sp.exp(w) * s, 1 + sp.exp(-w) * s, 1 / (1 + s) ** 2)


def _truncate(poly):
    return sp.Poly.from_dict(
        {m: c for m, c in poly.as_dict().items() if m[0] <= W_MAX and m[1] <= T_MAX}, w, t)


@lru_cache(maxsize=None)
def _expansion(f):
    """sympy's series of f(w, s), to s^T_MAX and then to w^W_MAX."""
    ser = sp.series(f, s, 0, T_MAX + 1).removeO()
    return sp.expand(sp.series(ser, w, 0, W_MAX + 1).removeO())


def _product(prefactor, factors):
    """prefactor(w) times every f(w, c t^h) of fs over factors (fs, c, h), truncated."""
    out = _truncate(sp.Poly(_expansion(prefactor), w, t))
    for fs, c, h in factors:
        for f in fs:
            out = _truncate(out * sp.Poly(_expansion(f).subs(s, c * t ** h), w, t))
    return {m: Fraction(int(v.p), int(v.q)) for m, v in out.as_dict().items() if v}


def _engine(series):
    assert series.ring == one_root_ring(CAP) and series.order == ORDER
    out = {}
    for n, coeff in enumerate(series.coeffs):
        assert isinstance(coeff, GradedPoly)
        for (m,), v in coeff.iter_terms():
            out[(m, n)] = v
    return out


def _exp_of_parts(parts):
    """exp of the per-root series whose log has the even parts `parts`."""
    ring = one_root_ring(CAP)
    rows = fraction_rows(parts)
    log = [GradedPoly.from_terms(ring, {(2 * n,): part[h] for n, part in enumerate(rows)})
           for h in range(2 * ORDER + 1)]
    return QSeries(log, ORDER, ring).exp()


def test_symmetric_block():
    # the tests' reference, and the inverse of the exterior block at t = -q^n,
    # whose closed-form log, negated, is the engine's tangent row
    factors = [(SYMMETRIC, 1, 2 * n) for n in range(1, ORDER + 1)]
    want = _product(sp.Integer(1), factors)
    assert _engine(symmetric_block(CAP, ORDER)) == want
    assert _engine(exterior_block(CAP, "int", -1, ORDER).inv()) == want


@pytest.mark.parametrize("grid", ["int", "half"])
@pytest.mark.parametrize("sign", [+1, -1])
def test_exterior_block(grid, sign):
    steps = range(2, T_MAX + 1, 2) if grid == "int" else range(1, T_MAX + 1, 2)
    factors = [(EXTERIOR, sign, h) for h in steps]
    want = _product(sp.Integer(1), factors)
    assert _engine(exterior_block(CAP, grid, sign, ORDER)) == want
    # the engine never multiplies the block out: it reads the log off a closed form
    assert _engine(_exp_of_parts(_exterior_log(CAP, grid, sign, ORDER))) == want


# Jacobi's product formulas, divided by their value at w = 0 (for theta, w
# theta'(0) / theta(w)); the q^(1/8) prefactors cancel.
THETA_ORACLE = {
    ThetaKind.THETA: ((w / 2) / sp.sinh(w / 2), SYMMETRIC, 1, range(2, T_MAX + 1, 2)),
    ThetaKind.THETA1: (sp.cosh(w / 2), EXTERIOR, 1, range(2, T_MAX + 1, 2)),
    ThetaKind.THETA2: (sp.Integer(1), EXTERIOR, -1, range(1, T_MAX + 1, 2)),
    ThetaKind.THETA3: (sp.Integer(1), EXTERIOR, 1, range(1, T_MAX + 1, 2)),
}


@pytest.mark.parametrize("kind", list(ThetaKind), ids=lambda k: k.name)
def test_theta_ratio(kind):
    prefactor, f, c, steps = THETA_ORACLE[kind]
    assert _engine(theta_ratio(kind, CAP, ORDER)) == _product(prefactor, [(f, c, h) for h in steps])


# ---------------------------------------------------------------------------
# Modular forms from the theta constants written as sums, not as Jacobi's
# products: theta3(0) = sum_n q^(n^2/2), theta2(0) = sum_n (-1)^n q^(n^2/2),
# theta1(0)^4 = 16 q^(1/2) (sum_(n>=0) q^(n(n+1)/2))^4; E2 from sigma_1.


def _t_coeffs(expr):
    """Coefficients of t^0..t^T_MAX of a polynomial in t = q^(1/2)."""
    poly = sp.Poly(sp.expand(expr), t)
    return [Fraction(int(c.p), int(c.q)) for c in (poly.coeff_monomial(t ** n)
                                                   for n in range(T_MAX + 1))]


_SQUARES = [n for n in range(-T_MAX, T_MAX + 1) if n * n <= T_MAX]
THETA3_4 = sum(t ** (n * n) for n in _SQUARES) ** 4
THETA2_4 = sum((-1) ** (n % 2) * t ** (n * n) for n in _SQUARES) ** 4
THETA1_4 = 16 * t * sum(t ** (n * (n + 1)) for n in range(T_MAX) if n * (n + 1) <= T_MAX) ** 4
MODULAR_ORACLE = {
    ModularFormId.DELTA1: (THETA2_4 + THETA3_4) / 8,
    ModularFormId.EPS1: THETA2_4 * THETA3_4 / 16,
    ModularFormId.DELTA2: -(THETA1_4 + THETA3_4) / 8,
    ModularFormId.EPS2: THETA1_4 * THETA3_4 / 16,
    ModularFormId.E2: 1 - 24 * sum(sp.divisor_sigma(n) * t ** (2 * n) for n in range(1, ORDER + 1)),
}


@pytest.mark.parametrize("form", list(ModularFormId), ids=lambda f: f.name)
def test_modular_form(form):
    assert list(modular_form(form, ORDER).coeffs) == _t_coeffs(MODULAR_ORACLE[form])


# ---------------------------------------------------------------------------
# Assembled q-forms at k <= 2 on both routes, E2 prefactors included.  sympy
# multiplies the per-root expansions over named Chern roots: x1..x2k of TM,
# y1..yl of V and the Euler roots u, u'.  The engine's series is read back
# over the same roots, its p_i of a family being the i-th elementary symmetric
# function of the family's squared roots.  Neither side goes through the
# engine's symmetriser, its log/exp or its root-ring oracle.

# The paper's genus-times-spinor forms: A-hat(TM) ch(Delta(V))^a times
# cosh(u/2)^-2 on the lead of both xi families; the weight, with the b-th
# spinor power, carries cosh(u/2) (ab-xi) or cosh(u'/2) (two-line).
EULER_COSH = {
    Family.AB: ((), ()),
    Family.AB_XI: ((("u", -2),), (("u", 1),)),
    Family.TWO_LINE: ((("u", -2),), (("u'", 1),)),
}
WT = ring("w t", sp.QQ)[0]   # one root w and t = q^(1/2)


class Roots:
    """Polynomials in the Chern roots of one geometry and t, cut at root
    degree 2k (the degree cap 4k) and at t^(2 order)."""

    def __init__(self, spec, order):
        self.spec, self.order = spec, order
        self.names = {"TM": [f"x{j}" for j in range(1, 2 * spec.k + 1)],
                      "V": [f"y{j}" for j in range(1, spec.l + 1)],
                      "u": ["u"], "u'": ["u'"]}
        self.ring = ring([n for names in self.names.values() for n in names] + ["t"], sp.QQ)[0]
        self.gen = dict(zip(self.ring.symbols, self.ring.gens))

    def cut(self, p):
        top = 2 * self.spec.k
        return p.ring.from_dict({m: c for m, c in p.items()
                                 if sum(m[:-1]) <= top and m[-1] <= 2 * self.order})

    def root(self, name):
        return self.gen[sp.Symbol(name)]

    def at(self, f, name):
        """A per-root polynomial f(w, t) at the root `name`."""
        i = self.ring.symbols.index(sp.Symbol(name))
        width = len(self.ring.symbols)
        return self.cut(self.ring.from_dict(
            {tuple(e if j == i else n if j == width - 1 else 0 for j in range(width)): c
             for (e, n), c in f.items()}))

    def product(self, rows):
        """The product over rows (per-root polynomial, label) and over the
        roots that the label names."""
        out = self.ring.one
        for f, label in rows:
            for name in self.names[label]:
                out = self.cut(out * self.at(f, name))
        return out

    def per_root(self, prefactor, factors, e):
        """(prefactor(w) times f(w, c t^h) for every f of fs over factors
        (fs, c, h))^e, by the binomial series of f = f(0) (1 + g)."""
        f = WT(_expansion(prefactor))
        for fs, c, h in factors:
            for factor in fs:
                f = self.cut(f * WT(_expansion(factor).subs(s, c * t ** h)))
        f0 = f.const()
        g = f * (1 / f0) - 1
        out, term = WT.one, WT.one
        for j in range(1, 2 * self.spec.k + 2 * self.order + 1):
            term = self.cut(term * g) * sp.QQ(e - j + 1, j)
            out = out + term
        return out * f0 ** e


def _grid(grid, order):
    return range(2, 2 * order + 1, 2) if grid == "int" else range(1, 2 * order + 1, 2)


def _genus_rows(roots, which):
    spec = roots.spec
    e = spec.a if which == 1 else spec.b
    rows = [(roots.per_root((w / 2) / sp.sinh(w / 2), (), 1), "TM"),
            (roots.per_root(2 * sp.cosh(w / 2), (), e), "V")]
    rows += [(roots.per_root(sp.cosh(w / 2), (), x), label)
             for label, x in EULER_COSH[spec.family][which - 1]]
    return rows


def _block_rows(roots, which):
    spec, order = roots.spec, roots.order
    tangent = [(SYMMETRIC, 1, h) for h in _grid("int", order)]
    rows = [(roots.per_root(sp.Integer(1), tangent, 1), "TM")]
    for label, (grid, sign), e in FAMILY_FORMS[spec.family].blocks[which - 1]:
        factors = [(EXTERIOR, sign, h) for h in _grid(grid, order)]
        rows.append((roots.per_root(sp.Integer(1), factors, spec.twist(e)), label))
    return rows


def _theta_rows(roots, form):
    spec = roots.spec
    recipe, two = FAMILY_FORMS[spec.family].theta[0 if form is QFormId.LEAD else 1]
    rows = []
    for label, kind, e in (("TM", ThetaKind.THETA, 1),) + recipe:
        prefactor, f, c, steps = THETA_ORACLE[kind]
        factors = [(f, c, h) for h in steps if h <= 2 * roots.order]
        rows.append((roots.per_root(prefactor, factors, spec.twist(e)), label))
    return rows, sp.QQ(2) ** (spec.twist(two) * spec.l)


def _e2_series(roots, first):
    """sum_(m >= first) (c E2)^m z^(m - first) / m! over the roots: exp(c E2 z)
    for first = 0, (exp(c E2 z) - 1) / z for first = 1."""
    spec = roots.spec

    def squares(label):
        return sum((roots.root(name) ** 2 for name in roots.names[label]), roots.ring.zero)

    if spec.family is Family.TWO_LINE:
        z, c = squares("u") - squares("u'"), sp.QQ(1, 12)
    else:
        z, c = squares("TM") - squares("V") * (spec.a + 2 * spec.b), sp.QQ(1, 24)
    tq = roots.root("t")
    e2 = roots.ring.one - 24 * sum((int(sp.divisor_sigma(n)) * tq ** (2 * n)
                                    for n in range(1, roots.order + 1)), roots.ring.zero)
    out = roots.ring.zero
    for m in range(first, spec.k + 2):
        out = out + roots.cut((e2 * c) ** m * z ** (m - first)) * sp.QQ(1, math.factorial(m))
    return out


def _oracle_form(spec, form, route, order):
    check_form_route(form, route, spec)
    roots = Roots(spec, order)
    if route is Route.THETA:
        rows, two = _theta_rows(roots, form)
        return roots.cut(_e2_series(roots, 0) * roots.product(rows)) * two
    if form is QFormId.LEAD:
        product = roots.product(_genus_rows(roots, 1) + _block_rows(roots, 1))
        return roots.cut(_e2_series(roots, 0) * product)
    base = roots.product(_genus_rows(roots, 2) + _block_rows(roots, 2))
    if form is QFormId.MAIN:
        return base
    # CORRECTION: (exp(c E2 z) - 1) / z times MAIN; JOINT: exp(c E2 z) times MAIN
    return roots.cut(_e2_series(roots, 1 if form is QFormId.CORRECTION else 0) * base)


def _engine_over_roots(spec, series):
    """The engine's series with every generator of spec.ring() written in the roots."""
    roots = Roots(spec, series.order)
    images = {}
    for name in spec.ring().names:
        if name in ("u", "u'"):
            images[name] = roots.root(name)
        else:
            i, label = name[1:-1].split("(")
            elementary = [roots.ring.one] + [roots.ring.zero] * int(i)
            for r in roots.names[label]:
                for j in range(int(i), 0, -1):
                    elementary[j] = elementary[j] + elementary[j - 1] * roots.root(r) ** 2
            images[name] = elementary[-1]
    out = roots.ring.zero
    for n, coeff in enumerate(series.coeffs):
        for exps, value in coeff.iter_terms():
            term = roots.root("t") ** n * sp.QQ(value.numerator, value.denominator)
            for name, e in zip(spec.ring().names, exps):
                term = term * images[name] ** e
            out = out + term
    return roots.cut(out)


LEAD, MAIN, CORRECTION, JOINT = QFormId
BUNDLE, THETA = Route
ASSEMBLED = [
    (GeometrySpec(k=1, l=2, a=2, b=1, family=Family.AB), 3,
     ((LEAD, BUNDLE), (MAIN, BUNDLE), (CORRECTION, BUNDLE), (LEAD, THETA), (JOINT, THETA))),
    (GeometrySpec(k=1, l=1, a=-1, b=2, family=Family.AB_XI), 3,
     ((LEAD, BUNDLE), (CORRECTION, BUNDLE))),
    (GeometrySpec(k=1, l=1, a=1, b=0, family=Family.TWO_LINE), 3,
     ((LEAD, BUNDLE), (CORRECTION, BUNDLE), (LEAD, THETA), (JOINT, THETA))),
    (GeometrySpec(k=2, l=1, a=1, b=0, family=Family.AB), 2,
     ((LEAD, BUNDLE), (LEAD, THETA))),
]


@pytest.mark.parametrize("spec, order, form, route", [
    pytest.param(spec, order, form, route,
                 id=f"spec{i}-{order}-{paper_form(spec, form)}-{route.name}")
    for i, (spec, order, form, route) in enumerate(
        (spec, order, form, route) for spec, order, forms in ASSEMBLED for form, route in forms)])
def test_assembled_q_form(spec, order, form, route):
    got = _engine_over_roots(spec, q_form(form, route, spec, order))
    assert got == _oracle_form(spec, form, route, order)


# JOINT on the BUNDLE route is MAIN + z CORRECTION as one product with
# 1 + z (exp(c E2 z) - 1) / z; the oracle builds it as exp(c E2 z) MAIN, as
# `conftest.root_q_form` does (`test_symmetrise.py`)
BUNDLE_JOINT = [
    (GeometrySpec(k=1, l=2, a=2, b=1, family=Family.AB), 3),
    (GeometrySpec(k=1, l=1, a=-1, b=2, family=Family.AB_XI), 3),
    (GeometrySpec(k=1, l=1, a=1, b=0, family=Family.TWO_LINE), 3),
    (GeometrySpec(k=2, l=1, a=1, b=2, family=Family.AB), 2),
    (GeometrySpec(k=2, l=2, a=1, b=0, family=Family.TWO_LINE), 1),
]


@pytest.mark.parametrize("spec, order", [
    pytest.param(spec, order, id=f"{spec.family.value}-k{spec.k}-l{spec.l}")
    for spec, order in BUNDLE_JOINT])
def test_bundle_joint_q_form(spec, order):
    got = _engine_over_roots(spec, q_form(JOINT, BUNDLE, spec, order))
    assert got == _oracle_form(spec, JOINT, BUNDLE, order)
    # JOINT differs from CORRECTION: the oracle does not fall back on it
    assert _oracle_form(spec, CORRECTION, BUNDLE, order) != _oracle_form(spec, JOINT, BUNDLE, order)


@pytest.mark.parametrize("spec, form, route", [
    (GeometrySpec(k=1, l=1), MAIN, THETA),
    (GeometrySpec(k=1, l=1), CORRECTION, THETA),
    (GeometrySpec(k=1, l=1, family=Family.TWO_LINE), MAIN, THETA),
    (GeometrySpec(k=1, l=1, family=Family.AB_XI), LEAD, THETA),
    (GeometrySpec(k=1, l=1, family=Family.AB_XI), JOINT, THETA),
    (GeometrySpec(k=1, l=1), "joint", BUNDLE),
], ids=["ab-MAIN", "ab-CORRECTION", "two-line-MAIN", "ab-xi-LEAD", "ab-xi-JOINT", "not-a-form"])
def test_oracles_refuse_what_the_engine_refuses(spec, form, route):
    for build in (q_form, lambda *args: _oracle_form(args[2], args[0], args[1], args[3]),
                  root_q_form):
        with pytest.raises(UsageError):
            build(form, route, spec, 1)
