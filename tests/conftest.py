"""Shared helpers: random ring elements and series, generator substitutions,
derivatives in a root, the per-term reference loops for the q-series kernels,
for the other ring-valued sums and for the text of a ring element, and the
root-ring oracle for the Pontryagin-ring engine."""

import math
import random
import sys
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Mapping

import pytest

from anomcancel.algebra import (
    GradedPoly,
    LogParts,
    QSeries,
    RingSpec,
    apply_series,
    cosh_half_root,
    exp_root,
    half_over_sinh_half_root,
    one_root_ring,
    pontryagin_all,
    taylor_exp,
    taylor_log1p,
)
from anomcancel.bundles import (
    FAMILY_FORMS,
    Family,
    QFormId,
    Route,
    lead_weight,
    p1_combo,
)
from anomcancel.decomp import (
    BrBetarKind,
    Group,
    basis_combination,
    basis_series,
    decompose,
    extract_br_betar,
)
from anomcancel.errors import InvertError, UsageError
from anomcancel import theta
from anomcancel.theta import ModularFormId, ThetaKind, modular_form, theta_ratio


@pytest.fixture
def rng():
    return random.Random(20240317)


def _clear_caches():
    for name, module in list(sys.modules.items()):
        if name == "anomcancel" or name.startswith("anomcancel."):
            for obj in vars(module).values():
                if hasattr(obj, "cache_clear"):
                    obj.cache_clear()


@pytest.fixture
def cold_caches():
    """Empty every lru_cache of the package before the test, so it rebuilds
    each series, and after it, so no series built under its patches outlives it."""
    _clear_caches()
    yield
    _clear_caches()


def random_fraction(rng: random.Random, span: int = 6) -> Fraction:
    num = rng.randint(-span, span)
    den = rng.randint(1, span)
    return Fraction(num, den)


def random_poly(rng: random.Random, spec: RingSpec, terms: int = 4,
                max_exp: int = 2) -> GradedPoly:
    """Random element of the truncated ring (coefficients in a small box)."""
    n = len(spec.gens)
    out = {}
    for _ in range(terms):
        exps = tuple(rng.randint(0, max_exp) for _ in range(n))
        out[exps] = random_fraction(rng)
    return GradedPoly.from_terms(spec, out)


def random_nilpotent(rng: random.Random, spec: RingSpec, terms: int = 3) -> GradedPoly:
    p = random_poly(rng, spec, terms)
    return p - p.constant_term()


def random_rational_series(rng: random.Random, order: int) -> QSeries:
    return QSeries([random_fraction(rng) for _ in range(2 * order + 1)], order)


def random_ring_series(rng: random.Random, spec: RingSpec, order: int,
                       terms: int = 3) -> QSeries:
    return QSeries([random_poly(rng, spec, terms) for _ in range(2 * order + 1)],
                   order, spec)


def random_sparse_series(rng: random.Random, spec: RingSpec | None, order: int,
                         nonzero: int = 3) -> QSeries:
    """A series with at most `nonzero` nonzero coefficients, rational when spec is None."""
    width = 2 * order + 1
    zero = Fraction(0) if spec is None else GradedPoly.zero(spec)
    coeffs = [zero] * width
    for n in rng.sample(range(width), min(nonzero, width)):
        coeffs[n] = random_fraction(rng) if spec is None else random_poly(rng, spec)
    return QSeries(coeffs, order, spec)


def schoolbook_product(a: QSeries, b: QSeries) -> QSeries:
    """Dense reference product: every index pair i + j <= 2N, zeros included."""
    ring = a.ring if a.ring is not None else b.ring
    if ring is not None:
        a, b = a.to_ring(ring), b.to_ring(ring)
    width = 2 * a.order + 1
    out = [a.coeffs[0] * 0] * width
    for i in range(width):
        for j in range(width - i):
            out[i + j] = out[i + j] + a.coeffs[i] * b.coeffs[j]
    return QSeries(out, a.order, ring)


# ---------------------------------------------------------------------------
# Per-term reference loops: the q-series product, quotient, exp and log as
# one `*` and one `+` per term, each normalised on its own.  The engine fuses
# each output coefficient into one `sum_of_products`; these are its oracle.


def _is_zero(c) -> bool:
    return c.is_zero if isinstance(c, GradedPoly) else c == 0


def _nonzero_terms(series: QSeries) -> list:
    return [(n, c) for n, c in enumerate(series.coeffs) if not _is_zero(c)]


def reference_product(a: QSeries, b: QSeries) -> QSeries:
    ring = a.ring if a.ring is not None else b.ring
    width = 2 * a.order + 1
    out = [None] * width
    terms = _nonzero_terms(b)
    for i, ca in _nonzero_terms(a):
        for j, cb in terms:
            if i + j >= width:
                break
            t = ca * cb
            out[i + j] = t if out[i + j] is None else out[i + j] + t
    zero = Fraction(0) if ring is None else GradedPoly.zero(ring)
    return QSeries([zero if c is None else c for c in out], a.order, ring)


def reference_quotient(a: QSeries, b: QSeries) -> QSeries:
    """out_n = (a_n - sum_(j>=1, b_j != 0) b_j out_(n-j)) / b_0."""
    ring = a.ring if a.ring is not None else b.ring
    if ring is not None:
        a = a.to_ring(ring)
    b0 = b.coeffs[0]
    if b0 == 0:
        raise InvertError("constant term is zero; series not invertible")
    unit = b0 == 1
    r0 = None if unit else b0.inv() if isinstance(b0, GradedPoly) else 1 / b0
    minus_terms = [(j, -bj) for j, bj in _nonzero_terms(b)[1:]]
    out = []
    for n, s in enumerate(a.coeffs):
        for j, mbj in minus_terms:
            if j > n:
                break
            if not _is_zero(out[n - j]):
                s = s + mbj * out[n - j]
        out.append(s if unit else s * r0)
    return QSeries(out, a.order, ring)


def reference_log(series: QSeries) -> QSeries:
    """L_0 = log F_0, L_n = (F_n - (1/n) sum_(m<n) m L_m F_(n-m)) / F_0."""
    f, ring = series.coeffs, series.ring
    f0_inv = f[0].inv()
    out = [apply_series(taylor_log1p(ring.cap // 2 + 1), f[0] - 1)]
    for n in range(1, len(f)):
        acc = GradedPoly.zero(ring)
        for m in range(1, n):
            if not out[m].is_zero and not f[n - m].is_zero:
                acc = acc + out[m] * f[n - m] * m
        out.append((f[n] - acc * Fraction(1, n)) * f0_inv)
    return QSeries(out, series.order, ring)


def reference_exp(series: QSeries) -> QSeries:
    """E_0 = exp L_0, n E_n = sum_(m=1..n) m L_m E_(n-m)."""
    lg, ring = series.coeffs, series.ring
    scaled = [c * m for m, c in enumerate(lg)]
    out = [apply_series(taylor_exp(ring.cap // 2 + 1), lg[0])]
    for n in range(1, len(lg)):
        acc = GradedPoly.zero(ring)
        for m in range(1, n + 1):
            if not scaled[m].is_zero:
                acc = acc + scaled[m] * out[n - m]
        out.append(acc * Fraction(1, n))
    return QSeries(out, series.order, ring)


# ---------------------------------------------------------------------------
# Per-term reference loops for the other ring-valued sums: `apply_series`,
# `power_sums`, the symmetriser's sum over families, `e2_expm1_over_z` and
# the theorem sides, as one `*` and one `+` per term; the engine accumulates
# each through one `sum_of_products`, and the sum over families straight into
# integer buckets (`_over_families`).  `ideal_reduce` renames one generator
# in the packed keys; its reference reduces modulo any relation linear in it.


def reference_apply_series(coeffs, x: GradedPoly) -> GradedPoly:
    """sum_n coeffs[n] x^n for a nilpotent x."""
    acc = GradedPoly.constant(x.spec, coeffs[0])
    power = GradedPoly.one(x.spec)
    for c in coeffs[1:]:
        power = power * x
        if power.is_zero:
            break
        acc = acc + power * c
    return acc


def reference_power_sums(elementary, n_max: int) -> tuple:
    """Newton: s_n = sum_(i<n) (-1)^(i-1) e_i s_(n-i) + (-1)^(n-1) n e_n."""
    sums = []
    for n in range(1, n_max + 1):
        s = elementary[n - 1] * ((-1) ** (n - 1) * n) if n <= len(elementary) \
            else GradedPoly.zero(elementary[0].spec)
        for i in range(1, min(n, len(elementary) + 1)):
            term = elementary[i - 1] * sums[n - i - 1]
            s = s + term if i % 2 else s - term
        sums.append(s)
    return tuple(sums)


def fraction_rows(parts: LogParts) -> tuple:
    """A `LogParts` table as rows of `Fraction`s: row n holds the coefficients
    of w^(2n) q^(h/2), h = 0, 1, ..."""
    return tuple(tuple(Fraction(x, parts.den) for x in row) for row in parts.nums)


def log_parts_of(rows) -> LogParts:
    """The `LogParts` table of rows of `Fraction`s or ints."""
    rows = [[Fraction(c) for c in row] for row in rows]
    den = math.lcm(*(c.denominator for row in rows for c in row))
    return LogParts(den, [[c.numerator * (den // c.denominator) for c in row] for row in rows])


def reference_over_families(terms, width: int) -> list:
    """out[h] = sum over (parts, sums, e) of e * sum_(n >= 1) parts[n][h] * s_n,
    with the rows over one family (the same `sums` object) first merged into
    one rational weight table."""
    families = []
    for parts, sums, e in terms:
        weights = next((w for s, w in families if s is sums), None)
        if weights is None:
            weights = [[Fraction(0)] * width for _ in sums]
            families.append((sums, weights))
        for n, part in enumerate(fraction_rows(parts)[1:]):
            for h, c in enumerate(part):
                weights[n][h] += c * e
    out = [GradedPoly.zero(terms[0][1][0].spec)] * width
    for sums, weights in families:
        for s, row in zip(sums, weights):
            for h, c in enumerate(row):
                if c:
                    out[h] = out[h] + s * c
    return out


def reference_ideal_reduce(p: GradedPoly, relation: GradedPoly, leading: str) -> GradedPoly:
    """Each term of p rebuilt on its own, its g^t replaced by R^t, and added up."""
    spec = p.spec
    g = spec.index(leading)
    c = relation.coefficient([int(i == g) for i in range(len(spec.gens))])
    rest = GradedPoly.generator(spec, leading) - relation * (1 / c)
    rest_pows = [GradedPoly.one(spec)]
    for _ in range(spec.cap // spec.degrees[g]):
        rest_pows.append(rest_pows[-1] * rest)
    out = GradedPoly.zero(spec)
    for exps, coeff in p.iter_terms():
        base = list(exps)
        t, base[g] = base[g], 0
        out = out + GradedPoly.from_terms(spec, {tuple(base): coeff}) * rest_pows[t]
    return out


def reference_poly_str(p: GradedPoly) -> str:
    """The text of a ring element built from its `Fraction` terms, one
    `_unpack`ed exponent tuple each."""
    if p.is_zero:
        return "0"
    parts = []
    for exps, coeff in p.iter_terms():
        factors = []
        for name, e in zip(p.spec.names, exps):
            if e == 1:
                factors.append(name)
            elif e > 1:
                factors.append(f"{name}^{e}")
        mono = "*".join(factors)
        if not mono:
            parts.append(str(coeff))
        elif coeff == 1:
            parts.append(mono)
        elif coeff == -1:
            parts.append(f"-{mono}")
        else:
            parts.append(f"{coeff}*{mono}")
    out = parts[0]
    for part in parts[1:]:
        out += f" - {part[1:]}" if part.startswith("-") else f" + {part}"
    return out


def reference_e2_expm1_over_z(spec, order: int) -> QSeries:
    """sum_(n >= 1) z^(n-1) / n! (c E2)^n, one ring series added per n."""
    ring = spec.ring()
    z = p1_combo(spec)
    scaled = modular_form(ModularFormId.E2, order).scale(FAMILY_FORMS[spec.family].e2_coefficient)
    result = QSeries([], order, ring)
    zpow = GradedPoly.one(ring)
    ppow = QSeries.one(order)
    for n in range(1, ring.cap // 4 + 2):
        zpow = zpow * Fraction(1, n) if n == 1 else zpow * z * Fraction(1, n)
        if zpow.is_zero:
            break
        ppow = ppow * scaled
        result = result + QSeries([zpow * c for c in ppow.coeffs], order, ring)
    return result


def reference_theorem_sides(spec, perturb: bool = False) -> tuple:
    """lhs and rhs of the main identity with one product weight * b_r per r."""
    k = spec.k
    cap = 4 * k
    lead, weight = lead_weight(spec, 1), lead_weight(spec, 2)
    b = extract_br_betar(spec, BrBetarKind.B_R)
    beta = extract_br_betar(spec, BrBetarKind.BETA_R)
    coef = [Fraction(2) ** ((spec.a - spec.b) * spec.l + k - 6 * r) for r in range(k // 2 + 1)]
    if perturb:
        coef[0] = coef[0] * 2
    lhs = lead.degree_part(cap)
    for r, br in enumerate(b):
        lhs = lhs - (weight * br).degree_part(cap) * coef[r]
    pref = reference_e2_expm1_over_z(spec, 0).coeffs[0]
    correction = GradedPoly.zero(spec.ring())
    for r, betar in enumerate(beta):
        correction = correction + betar * coef[r]
    correction = correction - (pref * lead).degree_part(cap - 4)
    return lhs, p1_combo(spec) * correction


def reference_decompose(series: QSeries, k: int) -> tuple:
    """The h_r by forward substitution, one `*` and one `-` per basis term."""
    order = series.order
    basis = [basis_series(k, r, Group.GAMMA_UPPER0, order) for r in range(k // 2 + 1)]
    h: list = []
    for m in range(k // 2 + 1):
        val = series.coeffs[m]
        for r in range(m):
            br = basis[r].coeffs[m]
            if br != 0:
                val = val - h[r] * br
        h.append(val * (1 / basis[m].coeffs[m]))
    return tuple(h)


def modularity_residual(series: QSeries, k: int) -> QSeries:
    """The series less its combination over the (8 delta2)^(k-2r) eps2^r basis;
    zero through the truncation order witnesses a weight-2k form."""
    h = decompose(series, k)
    return series - basis_combination(k, h, Group.GAMMA_UPPER0, series.order)


def truncate(series: QSeries, order: int) -> QSeries:
    """The series cut down to a lower truncation order."""
    assert order <= series.order
    return QSeries(series.coeffs[: 2 * order + 1], order, series.ring)


def scale_gens(p: GradedPoly, scales: Mapping[str, Fraction | int]) -> GradedPoly:
    """Substitute g -> c_g * g for each named generator."""
    idx = {p.spec.index(name): Fraction(c) for name, c in scales.items()}
    terms: dict[tuple[int, ...], Fraction] = {}
    for exps, coeff in p.iter_terms():
        for i, c in idx.items():
            coeff = coeff * c ** exps[i]
        terms[exps] = terms.get(exps, Fraction(0)) + coeff
    return GradedPoly.from_terms(p.spec, terms)


def permute_gens(p: GradedPoly, mapping: Mapping[str, str]) -> GradedPoly:
    """Substitute generators along a name -> name bijection."""
    perm = {p.spec.index(src): p.spec.index(dst) for src, dst in mapping.items()}
    n = len(p.spec.gens)
    terms: dict[tuple[int, ...], Fraction] = {}
    for exps, coeff in p.iter_terms():
        new = [0] * n
        for i, e in enumerate(exps):
            new[perm.get(i, i)] += e
        key = tuple(new)
        terms[key] = terms.get(key, Fraction(0)) + coeff
    return GradedPoly.from_terms(p.spec, terms)


def set_gens_zero(p: GradedPoly, names: Iterable[str]) -> GradedPoly:
    drop = {p.spec.index(name) for name in names}
    terms = {exps: coeff for exps, coeff in p.iter_terms()
             if all(exps[i] == 0 for i in drop)}
    return GradedPoly.from_terms(p.spec, terms)


def derivative(p: GradedPoly, name: str) -> GradedPoly:
    """Formal partial derivative with respect to one generator."""
    i = p.spec.index(name)
    terms: dict[tuple[int, ...], Fraction] = {}
    for exps, coeff in p.iter_terms():
        e = exps[i]
        if e == 0:
            continue
        new = exps[:i] + (e - 1,) + exps[i + 1:]
        terms[new] = terms.get(new, Fraction(0)) + coeff * e
    return GradedPoly.from_terms(p.spec, terms)


def theta_logderiv_ratio(kind: ThetaKind, w: GradedPoly, order: int) -> QSeries:
    """Logarithmic derivative theta_i'(w)/theta_i(w), taken in the w variable.

    Only defined for THETA1/THETA2/THETA3; the result is odd in w and vanishes
    at w = 0 order by order.
    """
    if kind is ThetaKind.THETA:
        raise UsageError("log-derivative ratio is defined for theta1/theta2/theta3 only")
    ratio = theta_ratio(kind, w.spec.cap, order)
    return ratio.map(lambda p: derivative(p, "w")) / ratio


# ---------------------------------------------------------------------------
# Root-ring oracle.  The engine computes in the Pontryagin ring of
# GeometrySpec.ring(); the oracle multiplies every per-root factor over the
# individual Chern roots w1..w2k of TM and v1..vl of V, as the engine once
# did, and pontryagin_all rewrites the result in the engine's ring.


def root_ring(spec) -> RingSpec:
    """Chern roots of TM, then of V, then the family's Euler roots; cap 4k."""
    gens = [(f"w{j}", 2) for j in range(1, 2 * spec.k + 1)]
    gens += [(f"v{j}", 2) for j in range(1, spec.l + 1)]
    gens += [(name, 2) for name in FAMILY_FORMS[spec.family].euler_roots]
    return RingSpec(gens=tuple(gens), cap=4 * spec.k)


def roots_of(spec, label: str) -> tuple[str, ...]:
    """The root-ring generators that a recipe label ("TM", "V", "u", "u'") names."""
    if label == "TM":
        return tuple(f"w{j}" for j in range(1, 2 * spec.k + 1))
    if label == "V":
        return tuple(f"v{j}" for j in range(1, spec.l + 1))
    return (label,)


def at_root(f: GradedPoly, ring: RingSpec, name: str) -> GradedPoly:
    """A one-root polynomial f(w) with w replaced by the generator `name`."""
    i = ring.index(name)
    n = len(ring.gens)
    return GradedPoly.from_terms(
        ring, {tuple(e if j == i else 0 for j in range(n)): c for (e,), c in f.iter_terms()})


def root_product(spec, factors):
    """prod over factors (f, label, e) and over the roots `label` names of
    f(root)^e, in the root ring: the per-root loop."""
    ring = root_ring(spec)
    out = None
    for f, label, e in factors:
        for name in roots_of(spec, label):
            if isinstance(f, QSeries):
                g = QSeries([at_root(c, ring, name) for c in f.coeffs], f.order, ring).powi(e)
            else:
                g = at_root(f, ring, name) ** e
            out = g if out is None else out * g
    return out


def root_sum(spec, f: GradedPoly, label: str) -> GradedPoly:
    """sum over the roots `label` names of f(root), in the root ring."""
    ring = root_ring(spec)
    out = GradedPoly.zero(ring)
    for name in roots_of(spec, label):
        out = out + at_root(f, ring, name)
    return out


def in_pontryagin(x, spec):
    """A root-ring element, or series, rewritten in spec.ring() by pontryagin_all."""
    families = (("TM", roots_of(spec, "TM")), ("V", roots_of(spec, "V")))
    if isinstance(x, QSeries):
        return QSeries([pontryagin_all(c, families) for c in x.coeffs],
                       x.order, spec.ring())
    return pontryagin_all(x, families)


def _root_z(spec) -> GradedPoly:
    """p1_combo in the root ring, from the squares of the roots."""
    ring = root_ring(spec)

    def squares(label):
        return root_sum(spec, GradedPoly.generator(one_root_ring(ring.cap), "w") ** 2, label)

    if spec.family is Family.TWO_LINE:
        return squares("u") - squares("u'")
    return squares("TM") - squares("V") * (spec.a + 2 * spec.b)


def _root_e2_series(spec, order: int, first: int) -> QSeries:
    """sum_(n >= first) (c E2)^n z^(n - first) / n!: exp(c E2 z) for first = 0,
    (exp(c E2 z) - 1) / z for first = 1."""
    ring = root_ring(spec)
    z = _root_z(spec)
    e2 = modular_form(ModularFormId.E2, order).scale(FAMILY_FORMS[spec.family].e2_coefficient)
    out = QSeries([], order, ring)
    fact = Fraction(1)
    for n in range(first, ring.cap // 4 + 2):
        fact = fact * max(n, 1)
        out = out + e2.powi(n).to_ring(ring) * (z ** (n - first) * (1 / fact))
    return out


@lru_cache(maxsize=None)
def exterior_block(cap: int, grid: str, sign: int, order: int) -> QSeries:
    """One root's factor of the product over the exponent grid of ch Lambda_t
    of a reduced bundle, prod_t (1 + t e^w)(1 + t e^-w) / (1 + t)^2, multiplied
    out binomial by binomial; the engine reads its log off a closed form
    (`_exterior_log`).  grid 'int' walks t = sign * q^m (m >= 1), grid 'half'
    walks t = sign * q^(m - 1/2)."""
    res = QSeries.one(order, one_root_ring(cap))
    m = 1
    while True:
        h = 2 * m if grid == "int" else 2 * m - 1
        if h > 2 * order:
            break
        res = res * (QSeries.binomial(exp_root(cap, +1) * sign, h, order)
                     * QSeries.binomial(exp_root(cap, -1) * sign, h, order))
        res = res / QSeries.binomial(sign, h, order).powi(2)
        m += 1
    return res


@lru_cache(maxsize=None)
def symmetric_block(cap: int, order: int) -> QSeries:
    """One root's factor of prod_n ch S_(q^n) of the reduced complexified
    tangent bundle: prod_n (1 - q^n)^2 / ((1 - e^w q^n)(1 - e^-w q^n)), built
    by its own divisions; the engine takes it as the exterior block's inverse."""
    res = QSeries.one(order, one_root_ring(cap))
    for n in range(1, order + 1):
        h = 2 * n
        res = res * QSeries.binomial(-1, h, order).powi(2)
        res = res / (QSeries.binomial(-exp_root(cap, +1), h, order)
                     * QSeries.binomial(-exp_root(cap, -1), h, order))
    return res


def _geometric_inverse(poly: GradedPoly, half_exp: int, order: int) -> QSeries:
    """(1 - poly * q^(half_exp/2))^(-1) as a geometric series, power by power."""
    spec = poly.spec
    width = 2 * order + 1
    coeffs = [GradedPoly.zero(spec)] * width
    coeffs[0] = GradedPoly.one(spec)
    power = GradedPoly.one(spec)
    i = 1
    while i * half_exp < width:
        power = power * poly
        if power.is_zero:
            break
        coeffs[i * half_exp] = power
        i += 1
    return QSeries(coeffs, order, spec)


def reference_theta_ratio(kind: ThetaKind, cap: int, order: int) -> QSeries:
    """theta_ratio built factor by factor, with the (1 - q^j) factors cancelled
    by hand: lead * prod_t (1 + sign e^w t)(1 + sign e^-w t) / (1 + sign t)^2
    over the grid points t of `_THETA_GRIDS`, one division per point; THETA
    takes that quotient's inverse through geometric series, with no series
    division.  The engine divides two whole Jacobi products once."""
    ew, ewi = exp_root(cap, +1), exp_root(cap, -1)
    grid, sign = theta._THETA_GRIDS[kind]
    lead = {ThetaKind.THETA: half_over_sinh_half_root, ThetaKind.THETA1: cosh_half_root}.get(kind)
    lead = GradedPoly.one(one_root_ring(cap)) if lead is None else lead(cap)
    res = QSeries.from_poly(lead, order)
    for j in range(1, order + 1):
        h = 2 * j if grid == "int" else 2 * j - 1
        const = QSeries.binomial(sign, h, order).powi(2)
        if kind is ThetaKind.THETA:
            res = res * const * _geometric_inverse(ew * -sign, h, order) \
                * _geometric_inverse(ewi * -sign, h, order)
        else:
            res = res * QSeries.binomial(ew * sign, h, order) \
                * QSeries.binomial(ewi * sign, h, order) / const
    return res


def root_ch_theta_bundle(which: int, spec, order: int) -> QSeries:
    """ch_theta_bundle in the root ring."""
    cap = 4 * spec.k
    factors = [(symmetric_block(cap, order), "TM", 1)]
    for label, (grid, sign), e in FAMILY_FORMS[spec.family].blocks[which - 1]:
        factors.append((exterior_block(cap, grid, sign, order), label, spec.twist(e)))
    return root_product(spec, factors)


def check_form_route(form, route, spec) -> None:
    """Refuse, as `q_form` does, a form and route the engine does not build:
    THETA expresses LEAD and JOINT only, and only where the family has a recipe."""
    if not isinstance(form, QFormId) or not isinstance(route, Route):
        raise UsageError(f"unknown form or route {form!r}, {route!r}")
    if route is Route.THETA and (FAMILY_FORMS[spec.family].theta is None
                                 or form not in (QFormId.LEAD, QFormId.JOINT)):
        raise UsageError(f"no theta-quotient expression for {form.name} in {spec.family.value}")


def root_q_form(form, route, spec, order: int) -> QSeries:
    """q_form in the root ring, on the BUNDLE route or the THETA route."""
    check_form_route(form, route, spec)
    cap = 4 * spec.k
    if route is Route.THETA:
        recipe, two = FAMILY_FORMS[spec.family].theta[0 if form is QFormId.LEAD else 1]
        factors = [(theta_ratio(ThetaKind.THETA, cap, order), "TM", 1)]
        factors += [(theta_ratio(kind, cap, order), label, spec.twist(e))
                    for label, kind, e in recipe]
        product = _root_e2_series(spec, order, 0) * root_product(spec, factors)
        return product.scale(Fraction(2) ** (spec.twist(two) * spec.l))
    ahat = root_product(spec, [(half_over_sinh_half_root(cap), "TM", 1)])

    def spinor(e):
        cosh = root_product(spec, [(cosh_half_root(cap), "V", e)])
        return cosh * Fraction(2) ** (e * spec.l)

    lead, weight = ahat * spinor(spec.a), ahat * spinor(spec.b)
    euler = FAMILY_FORMS[spec.family].euler_roots
    if euler:
        lead = lead * root_product(spec, [(cosh_half_root(cap), "u", -2)])
        weight = weight * root_product(spec, [(cosh_half_root(cap), euler[-1], 1)])
    if form is QFormId.LEAD:
        return _root_e2_series(spec, order, 0) * lead * root_ch_theta_bundle(1, spec, order)
    base = root_ch_theta_bundle(2, spec, order) * weight
    if form is QFormId.MAIN:
        return base
    # CORRECTION is (exp(c E2 z) - 1) / z times MAIN; JOINT, MAIN + z CORRECTION, exp(c E2 z) times it
    return _root_e2_series(spec, order, 1 if form is QFormId.CORRECTION else 0) * base


# The paper's names of each family's LEAD, MAIN and CORRECTION forms; the ids
# of the tests parametrised over forms print them, as QFormId.Q1 and so on.
# JOINT, MAIN + z * CORRECTION, prints under MAIN's name, as DOUBLE_ROUTE
# names its quantity Q2_joint or P2_joint.
PAPER_FORMS = {Family.AB: ("Q1", "Q2", "Q2BAR"), Family.AB_XI: ("Q1_XI", "Q2_XI", "Q3_XI"),
               Family.TWO_LINE: ("P1", "P2", "P3")}


def paper_form(spec, form) -> str:
    if form is QFormId.JOINT:
        form = QFormId.MAIN
    return PAPER_FORMS[spec.family][list(QFormId).index(form)]
