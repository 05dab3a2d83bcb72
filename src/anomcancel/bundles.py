"""Chern-character calculus for the twisted elliptic-genus bundles.

Builds the multiplicative genus forms, spinor characters and the q-series
Chern characters of the three twisted tensor-product families:

* AB       -- auxiliary bundle V with two integer twist exponents (a, b);
* AB_XI    -- same with an extra rank-two oriented bundle xi mixed in;
* TWO_LINE -- two rank-two bundles xi, xi' with the (a, b) = (1, 0) shape.

The lead and the joint characteristic q-series (`q_form`) are each produced
through two independent routes: BUNDLE reads the log of each per-root factor
of the symmetric/exterior-power generating functions off its closed form in
Adams operations, and of the A-hat and cosh factors off theirs in Bernoulli
numbers; THETA multiplies out Jacobi's products for the per-root theta
quotients, with the literal A-hat and cosh series and the matching
power-of-two normalization.  Their exact agreement is the central correctness
property of the package.

Every form lives in the Pontryagin ring of `GeometrySpec.ring()`, whose k is at
most 31 so that a root's powers pack.  Both routes write a form as rows (roots,
factor, exponent), its E2 prefactor exp(c * E2 * z) as rows of ("E2", c) over
z's roots: `_root_log`, the one cache of per-root log tables, holds each
factor's log once, and one `symmetrise` turns a form's rows into one exp over
the Chern roots of TM, of V and of the Euler roots.  BUNDLE resolves a family
row's rows once per twist pair (a, b) (`_bundle_rows`) and caches a form on the
ring, those rows and the order (`_form_exp`); THETA maps its rows to tables
itself, so a fault in BUNDLE's map (`_symmetrise_rows`) is a MISMATCH.
DOUBLE_ROUTE cannot see a fault in what the routes still share, so each
shared piece is shared for a reason and checked on its own: `power_sums`
(Newton), the one translation of root sums into Pontryagin classes, against
a reference; `symmetrise`, `QSeries.exp` and `_mul_into`, the one exp and the
one ring product, by unit tests and the assembly and window mutants;
`modular_form(E2)`, the series the paper names, an input not a construction,
against sigma_1; the ("E2", c) table, the one `_root_log` entry both routes
read, against the BUNDLE joint form's own `e2_expm1_over_z`; `GeometrySpec.ring()`,
since forms compare only in one ring.  z, the paper's p1 combination, is
written once per route: BUNDLE's `_z_terms` (also `p1_combo`) and THETA's
`FamilyForms.theta_z`, each against its two-branch formula, so DOUBLE_ROUTE
sees a fault in either.
"""

from __future__ import annotations

import math
from enum import Enum
from fractions import Fraction
from functools import lru_cache

from . import theta
from .algebra import (
    GradedPoly,
    LogParts,
    QSeries,
    RingSpec,
    _MASK,
    _log_parts,
    power_sums,
    sum_of_products,
    symmetrise,
)
from .errors import UsageError
from .records import record
from .theta import ModularFormId, ThetaKind, modular_form


class Family(Enum):
    AB = "ab"
    AB_XI = "ab-xi"
    TWO_LINE = "two-line"


class QFormId(Enum):
    """An assembled form by its role; `GeometrySpec.family` picks the family's form.

    JOINT is the modular combination MAIN + z * CORRECTION, z = `p1_combo`
    ('Q2 + z * Q2bar', 'P2 + z * P3'), whose modularity gives the
    generalized cancellation formulas.
    """

    LEAD = "lead"              # E2-prefixed character of the first bundle: Q1, Q1^xi, P1
    MAIN = "main"              # character of the second bundle: Q2, Q2^xi, P2
    CORRECTION = "correction"  # E2 correction of the second bundle: Q2bar, Q3^xi, P3
    JOINT = "joint"            # MAIN + z * CORRECTION


class Route(Enum):
    BUNDLE = "bundle"
    THETA = "theta"


# Both routes write a form as rows (roots, factor, exponent): a `_root_log`
# factor raised to the exponent and multiplied over the Chern roots "TM", "V"
# (those of the rank-2l bundle), "u" (xi) or "u'" (xi'), with the exponent an int
# or a twist integer "a" / "b".  BUNDLE's factors are "ahat", "cosh" and exterior
# blocks (grid, sign); THETA's are theta quotients (`ThetaKind`), and a THETA
# form (rows, two) scales its product by 2^(two * l).  Both routes append the E2
# prefactor's rows, ("E2", c) over z's roots; THETA's z is the sum of scale *
# exponent * s_1(roots) over the (roots, scale, exponent) terms of `theta_z`.
# `twist_bundle` is the sum of scale * exponent * ch_tilde_roots(roots) over the
# terms of `twist`.
_T1, _T2, _T3 = ThetaKind.THETA1, ThetaKind.THETA2, ThetaKind.THETA3


@record
class FamilyForms:
    """Everything that sets one family apart: the labels of its forms and
    decomposition coefficients, its Euler roots and both routes' recipes.

    The BUNDLE and THETA recipes are written out independently: DOUBLE_ROUTE
    compares them, so neither may be derived from the other.
    """

    names: tuple[str, str, str, str]  # report labels of LEAD, MAIN, b_r and beta_r
    euler_roots: tuple[str, ...]   # of the rank-two bundles xi, xi'
    e2_coefficient: Fraction       # c in exp(c * E2 * z)
    euler_cosh: tuple        # BUNDLE: Euler-cosh rows of the lead and of the weight
    blocks: tuple            # BUNDLE: exterior-block rows of bundles 1 and 2, in order
    theta: tuple | None      # THETA: forms of LEAD and JOINT; None: no formula
    theta_z: tuple | None    # THETA: z as (roots, scale, exponent) terms; None: no formula
    twist: tuple             # the r = 1 bundle `twist_bundle` as (roots, scale, exponent) terms
    printed_readings: bool   # the paper prints r = 1 closed forms: twist_bundle at b = 0


# the BUNDLE rows every family shares: A-hat over TM with the spinor cosh over
# V at the lead's (a) or the weight's (b) twist, and the tangent row,
# prod_n ch S_(q^n)(TM~), the exterior block at t = -q^n inverted
_GENUS_ROWS = ((("TM", "ahat", 1), ("V", "cosh", "a")), (("TM", "ahat", 1), ("V", "cosh", "b")))
_TANGENT_ROW = ("TM", ("int", -1), -1)
_THETA_TANGENT_ROW = ("TM", ThetaKind.THETA, 1)   # THETA's: A-hat and that row as one quotient
_IP, _HP, _HM = ("int", +1), ("half", +1), ("half", -1)   # t = q^n, q^(n-1/2), -q^(n-1/2)

FAMILY_FORMS = {
    Family.AB: FamilyForms(
        ("Q1", "Q2", "br", "betar"),
        euler_roots=(), e2_coefficient=Fraction(1, 24), euler_cosh=((), ()),
        blocks=((("V", _IP, "a"), ("V", _HP, "b"), ("V", _HM, "b")),
                (("V", _IP, "b"), ("V", _HP, "b"), ("V", _HM, "a"))),
        theta=(((("V", _T1, "a"), ("V", _T2, "b"), ("V", _T3, "b")), "a"),
               ((("V", _T2, "a"), ("V", _T1, "b"), ("V", _T3, "b")), "b")),
        theta_z=(("TM", 1, 1), ("V", -1, "a"), ("V", -2, "b")),
        twist=(("V", 1, "b"), ("V", -1, "a")),
        printed_readings=True),
    Family.AB_XI: FamilyForms(
        ("Q1_XI", "Q2_XI", "br_tilde", "betar_tilde"),
        euler_roots=("u",), e2_coefficient=Fraction(1, 24),
        euler_cosh=((("u", "cosh", -2),), (("u", "cosh", 1),)),
        blocks=((("V", _IP, "a"), ("u", _IP, -2), ("V", _HP, "b"),
                 ("u", _HP, 1), ("V", _HM, "b"), ("u", _HM, 1)),
                (("V", _IP, "b"), ("u", _IP, 1), ("V", _HP, "b"),
                 ("u", _HP, 1), ("V", _HM, "a"), ("u", _HM, -2))),
        theta=None, theta_z=None,
        twist=(("V", 1, "b"), ("V", -1, "a"), ("u", 3, 1)),
        printed_readings=False),
    Family.TWO_LINE: FamilyForms(
        ("P1", "P2", "br_bar", "betar_bar"),
        euler_roots=("u", "u'"), e2_coefficient=Fraction(1, 12),
        euler_cosh=((("u", "cosh", -2),), (("u'", "cosh", 1),)),
        blocks=((("V", _IP, 1), ("u", _IP, -2), ("u'", _HP, 1), ("u'", _HM, 1)),
                (("u'", _IP, 1), ("u'", _HP, 1), ("V", _HM, 1), ("u", _HM, -2))),
        theta=(((("V", _T1, 1), ("u", _T1, -2), ("u'", _T3, 1), ("u'", _T2, 1)), 1),
               ((("V", _T2, 1), ("u", _T2, -2), ("u'", _T3, 1), ("u'", _T1, 1)), 0)),
        theta_z=(("u", 1, 1), ("u'", -1, 1)),
        twist=(("u", 2, 1), ("u'", 1, 1), ("V", -1, 1)),
        printed_readings=True),
}


@record
class GeometrySpec:
    """Discrete problem instance: dimension 4k, rank-2l bundle, twist integers."""

    k: int
    l: int
    a: int = 1
    b: int = 0
    family: Family = Family.AB

    def __post_init__(self) -> None:
        if not isinstance(self.family, Family):
            raise UsageError(f"family must be a Family, not {self.family!r}")
        for name in ("k", "l", "a", "b"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int):
                raise UsageError(f"{name} must be an integer, not {value!r}")
        if self.k < 1 or self.l < 1:
            raise UsageError("k and l must be positive integers")
        if 2 * self.k > _MASK:   # a degree-2 root's powers up to w^(2k) pack in one field
            raise UsageError(f"k must be at most {_MASK // 2}, not {self.k}: "
                             "the degree cap 4k is too large for packed exponents")
        if self.family is Family.TWO_LINE and (self.a, self.b) != (1, 0):
            raise UsageError("the two-line-bundle family fixes (a, b) = (1, 0)")
        # coefficients grow like 2^(|twist| * l): a fixed bound, like the one on k, keeps
        # their arithmetic and their decimal text bounded
        span = max(abs(self.a), abs(self.b)) * self.l
        if span > 4096:
            raise UsageError(f"max(|a|, |b|) * l must be at most 4096, not {span}")

    def ring(self) -> RingSpec:
        """Euler roots u, u' (degree 2), then p_1..p_k(TM), then p_1..p_min(l,k)(V);
        one object for every l >= k, so the caches keyed on it are shared."""
        return _ring_for(self.k, min(self.l, self.k), FAMILY_FORMS[self.family].euler_roots)

    def power_sums(self, label: str) -> tuple[GradedPoly, ...]:
        """s_n, n = 1..k, the sums of the 2n-th powers of the Chern roots that
        "TM", "V" or a single Euler root ("u", "u'") names."""
        if label not in ("TM", "V", *FAMILY_FORMS[self.family].euler_roots):
            raise UsageError(f"family {self.family.value} carries no root {label!r}")
        return _power_sums(self.ring(), label)

    def twist(self, e: int | str) -> int:
        """A recipe exponent: an int, or the twist integer "a" or "b"."""
        return _twist(e, self.a, self.b)


def _twist(e: int | str, a: int, b: int) -> int:
    """The one rule for a recipe exponent: "a" or "b" is that twist integer, an int itself."""
    return a if e == "a" else b if e == "b" else e


@lru_cache(maxsize=None)
def _ring_for(k: int, v_classes: int, euler_roots: tuple[str, ...]) -> RingSpec:
    # p_i with 4i above the cap 4k, or past a family's root count, is zero
    gens = [(name, 2) for name in euler_roots]
    gens += [(f"p{i}(TM)", 4 * i) for i in range(1, k + 1)]
    gens += [(f"p{i}(V)", 4 * i) for i in range(1, v_classes + 1)]
    return RingSpec(gens=tuple(gens), cap=4 * k)


@lru_cache(maxsize=None)
def _power_sums(ring: RingSpec, label: str) -> tuple[GradedPoly, ...]:
    if label in ring.names:
        u = GradedPoly.generator(ring, label)   # the one squared root of xi is p1(xi)
        elementary = (u * u,)
    else:
        elementary = tuple(GradedPoly.generator(ring, name) for name in ring.names
                           if name.endswith(f"({label})"))
    return power_sums(elementary, ring.cap // 4)


@lru_cache(maxsize=None)
def _root_log(factor: str | tuple | ThetaKind, cap: int, order: int) -> LogParts:
    """The one cache of per-root log tables, keyed on the factor and its small
    arguments: "ahat" ((w/2)/sinh(w/2)) and "cosh" (cosh(w/2)) at order 0; at any
    order an exterior block (grid, sign), a theta quotient, both built through
    `_exterior_log` and `theta.theta_ratio` so that a patch is seen, and ("E2", c),
    exp(c * E2 * w^2), whose one nonzero row, n = 1, is c * E2."""
    if isinstance(factor, ThetaKind):
        return _log_parts(theta.theta_ratio(factor, cap, order))
    if isinstance(factor, tuple):
        name, arg = factor
        if name != "E2":
            return _exterior_log(cap, name, arg, order)
        e2 = [arg.numerator * int(x) for x in modular_form(ModularFormId.E2, order).coeffs]
        return LogParts(arg.denominator, [[0] * len(e2), e2] + [[0] * len(e2)] * (cap // 4 - 1))
    # BUNDLE's tables, off closed forms, not the series THETA multiplies in:
    # log((w/2)/sinh(w/2)) = -sum_(n>=1) B_2n w^(2n) / (2n (2n)!) and
    # log cosh(w/2) = sum_(n>=1) (4^n - 1) B_2n w^(2n) / (2n (2n)!)
    scale = {"ahat": lambda n: -1, "cosh": lambda n: 4 ** n - 1}[factor]
    bern = [Fraction(1)]   # B_m from sum_(j<=m) C(m+1, j) B_j = 0
    for m in range(1, 2 * (cap // 4) + 1):
        bern.append(-sum(math.comb(m + 1, j) * bern[j] for j in range(m)) / (m + 1))
    coeffs = [scale(n) * bern[2 * n] / (2 * n * math.factorial(2 * n))
              for n in range(1, cap // 4 + 1)]
    den = math.lcm(*(c.denominator for c in coeffs))
    return LogParts(den, [[0]] + [[c.numerator * (den // c.denominator)] for c in coeffs])


def _exterior_log(cap: int, grid: str, sign: int, order: int) -> LogParts:
    """`_log_parts` of one root's factor of the product over the exponent grid
    of ch Lambda_t of a reduced bundle, prod_t (1 + t e^w)(1 + t e^-w) / (1 + t)^2,
    read off the sum of Adams operations sum_t sum_(m>=1) (-1)^(m+1) t^m / m *
    (e^(mw) + e^(-mw) - 2), where e^(mw) + e^(-mw) - 2 = sum_n 2 m^(2n) w^(2n) / (2n)!;
    grid 'int' walks t = sign * q^j (j >= 1), grid 'half' walks t = sign * q^(j - 1/2)."""
    width, top = 2 * order + 1, math.factorial(2 * (cap // 4))
    nums = [[0] * width for _ in range(cap // 4 + 1)]   # row n of the table times top
    for h in range(2 if grid == "int" else 1, width, 2):
        for m in range(1, (width - 1) // h + 1):
            c = 2 * (-1) ** (m + 1) * sign ** m
            for n in range(1, cap // 4 + 1):
                nums[n][m * h] += c * m ** (2 * n - 1) * (top // math.factorial(2 * n))
    return LogParts(top, nums)


# ---------------------------------------------------------------------------
# BUNDLE forms: one exp over rows at a spec's twists


@lru_cache(maxsize=None)
def _bundle_rows(row: FamilyForms, a: int, b: int) -> tuple:
    """A family row's BUNDLE rows at twists (a, b): the lead's (0) and weight's (1)
    genus forms, then the first (2) and second (3) bundles' characters.  Keyed on
    the row itself, so a row patched into `FAMILY_FORMS` is resolved afresh."""
    recipes = (_GENUS_ROWS[0] + row.euler_cosh[0], _GENUS_ROWS[1] + row.euler_cosh[1],
               (_TANGENT_ROW,) + row.blocks[0], (_TANGENT_ROW,) + row.blocks[1])
    return tuple(tuple((roots, factor, _twist(e, a, b)) for roots, factor, e in recipe)
                 for recipe in recipes)


def _symmetrise_rows(ring: RingSpec, rows: tuple, order: int) -> list:
    """`symmetrise` input of resolved BUNDLE rows: `_root_log` tables over their roots'
    power sums, at order 0 for "ahat" and "cosh" and the q-order for every other factor."""
    return [(_root_log(factor, ring.cap, 0 if factor in ("ahat", "cosh") else order),
             _power_sums(ring, roots), e) for roots, factor, e in rows]


@lru_cache(maxsize=None)
def _form_exp(ring: RingSpec, rows: tuple, order: int) -> QSeries:
    """The product of resolved BUNDLE rows, cached on exactly what it reads, the ring,
    the rows and the order: specs that differ only in an l past k, or in twists that
    resolve to the same rows, share one build."""
    return symmetrise(_symmetrise_rows(ring, rows, order), order)


def genus_form(spec: GeometrySpec) -> GradedPoly:
    """A-hat genus of the tangent roots: the product of (w/2)/sinh(w/2)."""
    return _form_exp(spec.ring(), (("TM", "ahat", 1),), 0).coeffs[0]


def ch_spinor_pow(spec: GeometrySpec, e: int) -> GradedPoly:
    """Chern character of the e-th formal power of the spinor bundle of V.

    prod_nu (2 cosh(v_nu / 2))^e; negative e inverts each per-root factor in
    the truncated ring.
    """
    # the factor 2^e of every root, gathered into one constant
    cosh = _form_exp(spec.ring(), (("V", "cosh", e),), 0).coeffs[0]
    return cosh * Fraction(2) ** (e * spec.l)


def lead_weight(spec: GeometrySpec, which: int) -> GradedPoly:
    """Genus-times-spinor form multiplying the family's first (lead, which = 1)
    or second (weight, 2) twisted bundle: A-hat times the a-th or b-th spinor
    power, times the family's Euler-cosh rows (`FamilyForms.euler_cosh`)."""
    if which not in (1, 2):
        raise UsageError("which must be 1 or 2")
    rows = _bundle_rows(FAMILY_FORMS[spec.family], spec.a, spec.b)[which - 1]
    form = _form_exp(spec.ring(), rows, 0).coeffs[0]
    return form * Fraction(2) ** ((spec.a if which == 1 else spec.b) * spec.l)


def ch_theta_bundle(which: int, spec: GeometrySpec, order: int) -> QSeries:
    """Chern character of the first or second twisted tensor-product bundle."""
    if which not in (1, 2):
        raise UsageError("which must be 1 or 2")
    if order < 0:
        raise UsageError("truncation order must be >= 0")
    rows = _bundle_rows(FAMILY_FORMS[spec.family], spec.a, spec.b)[which + 1]
    return _form_exp(spec.ring(), rows, order)


def ch_tilde_roots(spec: GeometrySpec, label: str) -> GradedPoly:
    """ch of (complexified bundle minus its rank): the sum over the roots w that
    `label` names of e^w + e^-w - 2 = sum_(n>=1) 2 w^(2n) / (2n)!, so
    sum_n 2 s_n / (2n)! in the power sums s_n of their squares."""
    return sum_of_products(spec.ring(), [(s, Fraction(2, math.factorial(2 * n)))
                                         for n, s in enumerate(spec.power_sums(label), start=1)])


def twist_bundle(spec: GeometrySpec) -> GradedPoly:
    """ch of the bundle in the r = 1 coefficients, `FamilyForms.twist`: (b-a) V~,
    plus 3 xi~ in the xi family; 2 xi~ + xi'~ - V~ in the two-line family."""
    return sum_of_products(spec.ring(), [(ch_tilde_roots(spec, roots), s * spec.twist(e))
                                         for roots, s, e in FAMILY_FORMS[spec.family].twist])


def _z_terms(spec: GeometrySpec) -> tuple[tuple[str, int], ...]:
    """z = `p1_combo` as the sum of e s_1(roots) over these (roots, e)."""
    if spec.family is Family.TWO_LINE:
        return ("u", 1), ("u'", -1)
    return ("TM", 1), ("V", -(spec.a + 2 * spec.b))


def p1_combo(spec: GeometrySpec) -> GradedPoly:
    """The degree-4 class multiplying the E2 correction.

    For the AB families: p1(TM) - (a+2b) p1(V); for the two-line family:
    p1(xi) - p1(xi'), i.e. u^2 - u'^2 since the first Pontryagin class of a
    rank-two oriented bundle is the square of its Euler class.
    """
    return sum_of_products(spec.ring(), [(spec.power_sums(roots)[0], e)
                                         for roots, e in _z_terms(spec)])


# ---------------------------------------------------------------------------
# E2 prefactors


def e2_expm1_over_z(spec: GeometrySpec, order: int) -> QSeries:
    """(exp(c * E2 * z) - 1) / z, a well-defined series in the nilpotent z.

    z is the family's degree-4 combination and c is 1/24 for the AB families
    and 1/12 for the two-line family; the sum over powers of z terminates at
    the degree cap.  At order 0, where E2 = 1, its one coefficient is the
    q-independent (e^(c z) - 1) / z.
    """
    return _e2_expm1(p1_combo(spec), FAMILY_FORMS[spec.family].e2_coefficient, order)


@lru_cache(maxsize=None)
def _e2_expm1(z: GradedPoly, c: Fraction, order: int) -> QSeries:
    """`e2_expm1_over_z`, cached on the inputs it reads: z, which carries its ring, and c."""
    ring = z.spec
    scaled = modular_form(ModularFormId.E2, order).scale(c)
    terms = []
    zpow, ppow = GradedPoly.one(ring), scaled      # z^(n-1) / n! and (c E2)^n at n = 1
    for n in range(2, ring.cap // 4 + 3):
        terms.append((zpow, ppow.coeffs))
        zpow = zpow * z * Fraction(1, n)
        if zpow.is_zero:
            break
        ppow = ppow * scaled
    return QSeries([sum_of_products(ring, [(zp, pc[h]) for zp, pc in terms])
                    for h in range(2 * order + 1)], order, ring)


# ---------------------------------------------------------------------------
# Assembled characteristic q-series


def q_form(form: QFormId, route: Route, spec: GeometrySpec, order: int,
           degree: int | None = None) -> QSeries:
    """Full-degree q-series of one assembled characteristic form of `spec.family`,
    or with `degree` its slice of that degree alone.

    Which degree a caller reads (top component or one below) is left to the
    callers.  The BUNDLE route builds every form, and builds only the sliced
    degree of the last product of MAIN, CORRECTION and JOINT; the theta
    quotients express LEAD and JOINT only, so the THETA route refuses MAIN
    and CORRECTION, and slices its whole forms.
    """
    if not isinstance(form, QFormId):
        raise UsageError(f"unknown form {form!r}")
    if route is Route.THETA:
        if FAMILY_FORMS[spec.family].theta is None or form not in (QFormId.LEAD, QFormId.JOINT):
            raise UsageError(f"no theta-quotient expression for {form.name} in {spec.family.value}")
        whole = _q_form_theta(form, spec, order)
        return whole if degree is None else whole.degree_slice(degree)
    return _q_form_bundle(form, spec, order, degree)


# Keyed on the whole spec, as cases read forms per spec: on `verify --all` its 96 hits in
# 420 reads are 48 CORRECTION re-reads, when THM31, COR32, HLZ_SPECIAL and BR_BETAR_CLOSED_FORMS
# extract beta_r for one spec, and 24 LEAD and 24 JOINT reads of the k = 2 forms EQ318_TRANSFER
# and DOUBLE_ROUTE share at q-order 4.  Without it `verify --all` ran about 5 % slower
# (in-process medians, 0.260 -> 0.275 s, Python 3.11 on 2 vCPUs).
@lru_cache(maxsize=None)
def _q_form_bundle(form: QFormId, spec: GeometrySpec, order: int, degree: int | None) -> QSeries:
    if form is QFormId.LEAD:   # the genus and block rows, then the E2 rows over `_z_terms`
        row = FAMILY_FORMS[spec.family]
        genus, _, bundle, _ = _bundle_rows(row, spec.a, spec.b)
        e2 = tuple((roots, ("E2", row.e2_coefficient), e) for roots, e in _z_terms(spec))
        lead = _form_exp(spec.ring(), genus + bundle + e2, order)
        lead = lead.scale(Fraction(2) ** (spec.a * spec.l))
        return lead if degree is None else lead.degree_slice(degree)
    bundle, weight = ch_theta_bundle(2, spec, order), lead_weight(spec, 2)
    if form is QFormId.MAIN:
        return bundle * weight if degree is None else bundle.mul_window(weight, degree, degree)
    # a last product read at `degree` reads main in the degrees up to it only
    main = bundle * weight if degree is None else bundle.mul_window(weight, 0, degree)
    # (exp(c E2 z) - 1) / z, not the E2 rows the lead forms exponentiate
    factor = e2_expm1_over_z(spec, order)
    if form is QFormId.JOINT:
        # main + z * correction as one product, so no full-size correction is held
        factor = factor * p1_combo(spec) + QSeries.one(order, spec.ring())
    return factor * main if degree is None else factor.mul_window(main, degree, degree)


def _q_form_theta(form: QFormId, spec: GeometrySpec, order: int) -> QSeries:
    row = FAMILY_FORMS[spec.family]
    recipe, two = row.theta[0 if form is QFormId.LEAD else 1]
    rows = [(roots, factor, spec.twist(e)) for roots, factor, e in (_THETA_TANGENT_ROW,) + recipe]
    # the E2 rows over THETA's own z, not `_z_terms`; then THETA's own map of rows to
    # tables, each at the q-order, not `_symmetrise_rows`: a fault in BUNDLE's is a MISMATCH
    rows += [(roots, ("E2", row.e2_coefficient), s * spec.twist(e)) for roots, s, e in row.theta_z]
    res = symmetrise([(_root_log(factor, 4 * spec.k, order), spec.power_sums(roots), e)
                      for roots, factor, e in rows], order)
    return res.scale(Fraction(2) ** (spec.twist(two) * spec.l))
