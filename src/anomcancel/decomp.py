"""Decomposition of weight-2k q-series over the modular-form basis.

A weight-2k form over the b-even congruence subgroup is a rational (or
ring-valued) combination of the basis series (8 delta2)^(k-2r) eps2^r with
0 <= r <= [k/2].  The leading coefficients of that basis form a triangular
system, so the combination coefficients h_r are read off the lowest
[k/2]+1 half-integer q-orders by forward substitution; every higher order is
then a falsifiable check, and a zero residual `series - basis_combination(...)`
through the full truncation order is the computational witness of modularity.

The same machinery extracts the virtual-bundle coefficients (b-type, all
cohomological degrees at once) and the form coefficients (beta-type, from the
degree-(4k-4) slice) of the twisted bundle characters; `closed_form_checks`
compares the r = 0, 1 values against their closed forms.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction
from functools import lru_cache

from .algebra import _SCALARS, GradedPoly, QSeries, sum_of_products
from .bundles import (
    FAMILY_FORMS,
    GeometrySpec,
    QFormId,
    Route,
    ch_theta_bundle,
    e2_expm1_over_z,
    lead_weight,
    q_form,
    twist_bundle,
)
from .errors import UsageError
from .records import record, replace
from .theta import ModularFormId, modular_form


class Group(Enum):
    GAMMA0 = "gamma0"
    GAMMA_UPPER0 = "gamma_upper0"


class BrBetarKind(Enum):
    """A coefficient kind by its role; `GeometrySpec.family` picks tilde or bar."""

    B_R = "br"          # virtual-bundle coefficients of the MAIN form
    BETA_R = "betar"    # form coefficients of the CORRECTION form


@lru_cache(maxsize=None)
def basis_series(k: int, r: int, group: Group, order: int) -> QSeries:
    """(8 delta)^(k-2r) eps^r over the requested subgroup's form pair."""
    if r < 0 or r > k // 2:
        raise UsageError(f"r must lie in 0..{k // 2}")
    if group is Group.GAMMA0:
        delta = modular_form(ModularFormId.DELTA1, order)
        eps = modular_form(ModularFormId.EPS1, order)
    else:
        delta = modular_form(ModularFormId.DELTA2, order)
        eps = modular_form(ModularFormId.EPS2, order)
    return delta.scale(8).powi(k - 2 * r) * eps.powi(r)


def basis_combination(k: int, h: tuple, group: Group, order: int) -> QSeries:
    """sum_r h_r (8 delta)^(k-2r) eps^r over the requested subgroup's form pair."""
    total = None
    for r, hr in enumerate(h):
        term = basis_series(k, r, group, order) * hr
        total = term if total is None else total + term
    return total


def coefficient_order(k: int) -> int:
    """The least truncation order N with 2N >= k//2: its half-indices 0..2N reach
    k//2, the last one `decompose` reads.  Every series operation is causal in q
    (a coefficient depends on no higher half-index), so truncating at N changes
    none of the half-indices 0..2N and the h_r are those of any deeper order."""
    return (k // 2 + 1) // 2


def decompose(series: QSeries, k: int) -> tuple:
    """Solve for h_r against the (8 delta2)^(k-2r) eps2^r basis.

    h_r are fixed by the coefficients of q^0 .. q^([k/2]/2) alone (the basis
    leading-term matrix is unitriangular up to the common sign (-1)^k); the
    residual `series - basis_combination(k, h, Group.GAMMA_UPPER0, order)` is
    left to the caller that reads it.
    """
    order = series.order
    m_max = k // 2
    if order < coefficient_order(k):
        raise UsageError("truncation order too small to determine the coefficients")
    basis = [basis_series(k, r, Group.GAMMA_UPPER0, order).coeffs for r in range(m_max + 1)]
    # a rational series is solved as constants of the ring with no generators
    ring = series.ring or _SCALARS
    s = series.to_ring(ring).coeffs
    h: list[GradedPoly] = []
    for m in range(m_max + 1):
        # h_m = (s_m - sum_(r<m) basis_r[m] h_r) / basis_m[m], one fused sum
        pairs = [(s[m], 1)] + [(h[r], -basis[r][m]) for r in range(m)]
        h.append(sum_of_products(ring, pairs, 1 / basis[m][m]))
    return tuple(h) if series.ring is not None else tuple(c.constant_term() for c in h)


# ---------------------------------------------------------------------------
# b_r / beta_r extraction and closed-form comparison


@record
class ClosedFormCheck:
    """One computed coefficient against its candidate closed forms.

    `matches` lists the candidate labels that agree exactly with the computed
    ring element; `expected` names the candidate that must match for the check
    to count as passed.
    """

    name: str
    computed: GradedPoly
    candidates: tuple[tuple[str, GradedPoly], ...]
    expected: str

    @property
    def matches(self) -> tuple[str, ...]:
        return tuple(label for label, poly in self.candidates if poly == self.computed)

    @property
    def passed(self) -> bool:
        return self.expected in self.matches


def _b_closed_forms(spec: GeometrySpec, ring_one: GradedPoly) -> list[ClosedFormCheck]:
    """Candidate closed forms for the r = 0, 1 virtual-bundle coefficients."""
    k = spec.k
    sign = Fraction(-1) ** k
    checks = [("h0", (("printed", ring_one * sign),), "printed")]
    if k >= 2:
        cands = []
        if FAMILY_FORMS[spec.family].printed_readings:
            printed = twist_bundle(replace(spec, b=0))
            cands += [("printed-literal", printed - 24 * k * sign),
                      ("printed-distributed", (printed - 24 * k) * sign)]
        cands.append(("generalized", (twist_bundle(spec) - 24 * k) * sign))
        checks.append(("h1", tuple(cands), "generalized"))
    return checks


def _beta_closed_forms(spec: GeometrySpec) -> list[ClosedFormCheck]:
    """Candidate closed forms for the r = 0, 1 form coefficients."""
    k = spec.k
    deg = 4 * k - 4
    sign = Fraction(-1) ** k
    base = e2_expm1_over_z(spec, 0).coeffs[0] * lead_weight(spec, 2)
    checks = [("beta0", (("printed", base.degree_part(deg) * sign),), "printed")]
    if k >= 2:
        def beta(w: GradedPoly) -> GradedPoly:
            return base.mul_part(w - 24 * k, deg) * sign
        general = twist_bundle(spec)
        cands = [("generalized", beta(general))]
        if FAMILY_FORMS[spec.family].printed_readings:
            printed = twist_bundle(replace(spec, b=0))
            # at b = 0 the printed reading is the general one; reuse its product
            cands.insert(0, ("printed-literal",
                             cands[0][1] if printed == general else beta(printed)))
        checks.append(("beta1", tuple(cands), "generalized"))
    return checks


def extract_br_betar(spec: GeometrySpec, which: BrBetarKind) -> tuple:
    """Extract the b-type or beta-type coefficients h_r.

    b-type decomposes the full bundle character (all cohomological degrees);
    beta-type decomposes the degree-(4k-4) slice of the E2-corrected form.
    Both are built at `coefficient_order(k)`, the least order that fixes the h_r.
    """
    order = coefficient_order(spec.k)
    if which is BrBetarKind.B_R:
        series = ch_theta_bundle(2, spec, order)
    elif which is BrBetarKind.BETA_R:
        series = q_form(QFormId.CORRECTION, Route.BUNDLE, spec, order, degree=4 * spec.k - 4)
    else:
        raise UsageError(f"unknown coefficient kind {which!r}")
    return decompose(series, spec.k)


def closed_form_checks(spec: GeometrySpec, which: BrBetarKind,
                       h: tuple) -> list[ClosedFormCheck]:
    """Compare the r = 0, 1 coefficients that `extract_br_betar` gave with
    their candidate closed forms."""
    if which is BrBetarKind.B_R:
        templates = _b_closed_forms(spec, GradedPoly.one(spec.ring()))
    elif which is BrBetarKind.BETA_R:
        templates = _beta_closed_forms(spec)
    else:
        raise UsageError(f"unknown coefficient kind {which!r}")
    return [ClosedFormCheck(name=name, computed=computed, candidates=cands, expected=expected)
            for (name, cands, expected), computed in zip(templates, h)]
