"""Jacobi theta functions: exact q-series quotients and a numeric evaluator.

Symbolic side: theta quotients with a nilpotent degree-2 ring generator as
argument, written in the hyperbolic normalization (argument w = 2*pi*i*x so
that sin(pi*x) becomes sinh(w/2) up to constants and e^(2*pi*i*x) becomes
e^w).  Every series then has exact rational coefficients and pi never enters
symbolic data.  Each quotient is theta_i(w)/theta_i(0) (for theta, w theta'(0)
/ theta(w)), read off one Jacobi product, `_theta_product`, at x = e^(+-w) and
x = 1, uncached (`bundles` caches its log on (kind, cap, order)); the four
modular forms delta_i / eps_i are assembled from fourth powers of the theta
constants, the product at x = 1, and E2 is the weight-2 quasimodular
Eisenstein series 1 - 24 sum sigma_1(n) q^n.  At x = 1 the product is built
by integer shift-adds on one list of numerators; at x = e^(+-w) it stays a
literal product of series, since a faster ring path would fall on the k = 1
cases alone and so raise the benchmark's per-k growth ratio.

Numeric side: literal double-precision evaluation of the theta products
(including the 2 q^(1/8) prefactors) used to test the transformation laws
under the modular group generators.  Both sides read `_THETA_GRIDS` and
`_DELTA_EPS`, so the numeric laws test the recipes the exact series use.
"""

from __future__ import annotations

import cmath
import operator
from enum import Enum
from fractions import Fraction
from functools import lru_cache

from .algebra import (
    GradedPoly,
    QSeries,
    cosh_half_root,
    exp_root,
    half_over_sinh_half_root,
    one_root_ring,
)
from .errors import DomainError, UsageError


class ThetaKind(Enum):
    THETA = "theta"
    THETA1 = "theta1"
    THETA2 = "theta2"
    THETA3 = "theta3"


class ModularFormId(Enum):
    DELTA1 = "delta1"
    EPS1 = "eps1"
    DELTA2 = "delta2"
    EPS2 = "eps2"
    E2 = "e2"


def sigma1(n: int) -> int:
    """Sum of the positive divisors of n."""
    total = 0
    d = 1
    while d * d <= n:
        if n % d == 0:
            total += d
            if d != n // d:
                total += n // d
        d += 1
    return total


# ---------------------------------------------------------------------------
# Symbolic theta quotients


# Jacobi's products take a factor (1 + sign t) at each t = q^(h/2) of a grid:
# h = 2j ('int') or h = 2j - 1 ('half'), j >= 1.  Beside these, each product has
# a factor (1 - q^j) per j, and theta and theta1 a lead 2 q^(1/8) sin / cos(pi v).
_THETA_GRIDS = {ThetaKind.THETA: ("int", -1), ThetaKind.THETA1: ("int", +1),
                ThetaKind.THETA2: ("half", -1), ThetaKind.THETA3: ("half", +1)}


def _theta_product(kind: ThetaKind, order: int, x: GradedPoly | int = 1,
                   x_inv: GradedPoly | int = 1) -> QSeries:
    """prod_j (1 - q^j)(1 + sign x t_j)(1 + sign x_inv t_j) over the grid points
    t_j of `_THETA_GRIDS`: theta_i(v) without its lead factor, at x = e^(2 pi i v)
    and x_inv = 1/x.  At x = x_inv = 1 it is the theta constant theta_i(0)
    without its 2 q^(1/8) prefactor (theta'(0) / (2 pi q^(1/8)) for THETA).

    An integer x and x_inv take one list of integer numerators, multiplied by
    each factor (1 + c q^(s/2)) in place from the top index down; ring elements
    take literal series products."""
    grid, sign = _THETA_GRIDS[kind]
    if isinstance(x, int) and isinstance(x_inv, int):
        if order < 0:
            raise UsageError("truncation order must be >= 0")
        nums = [1] + [0] * (2 * order)
        for j in range(1, order + 1):
            h = 2 * j if grid == "int" else 2 * j - 1
            for c, s in ((-1, 2 * j), (sign * x, h), (sign * x_inv, h)):
                for n in range(2 * order, s - 1, -1):
                    nums[n] += c * nums[n - s]
        return QSeries._of_nums(1, nums, order)
    res = QSeries.one(order)
    for j in range(1, order + 1):
        h = 2 * j if grid == "int" else 2 * j - 1
        res = res * QSeries.binomial(-1, 2 * j, order) * QSeries.binomial(x * sign, h, order) \
            * QSeries.binomial(x_inv * sign, h, order)
    return res


def theta_ratio(kind: ThetaKind, cap: int, order: int) -> QSeries:
    """Normalized theta quotient with a nilpotent argument.

    For THETA this is w * theta'(0)/theta(w), for the other kinds theta_i(w)/
    theta_i(0): each is one division of `_theta_product` at x = e^(+-w) and at
    x = 1.  The q^(1/8) prefactors cancel, so the result lives on the half-integer
    q grid with coefficients that are polynomials in w, the root of the one-root
    ring of this (even, positive) degree cap (`one_root_ring`).  Uncached.
    """
    if cap < 2 or cap % 2:
        raise UsageError(f"degree cap must be even and positive, not {cap}")
    if order < 0:
        raise UsageError("truncation order must be >= 0")
    if kind not in _THETA_GRIDS:
        raise UsageError(f"unknown theta kind {kind!r}")
    at_w = _theta_product(kind, order, exp_root(cap, +1), exp_root(cap, -1))
    at_zero = _theta_product(kind, order)
    if kind is ThetaKind.THETA:
        return QSeries.from_poly(half_over_sinh_half_root(cap), order) * (at_zero / at_w)
    lead = cosh_half_root(cap) if kind is ThetaKind.THETA1 else GradedPoly.one(one_root_ring(cap))
    return QSeries.from_poly(lead, order) * (at_w / at_zero)


# ---------------------------------------------------------------------------
# Modular forms as rational q-series


@lru_cache(maxsize=None)
def _theta_const_fourth(kind: ThetaKind, order: int) -> QSeries:
    """Fourth power of a theta constant, divided by the 2 q^(1/8) prefactor pattern.

    theta1(0)^4 = 16 q^(1/2) prod((1-q^j)(1+q^j)^2)^4 lands on the half grid;
    theta2(0)^4 and theta3(0)^4 carry no prefactor.
    """
    fourth = _theta_product(kind, order).powi(4)
    return fourth.shift(1).scale(16) if kind is ThetaKind.THETA1 else fourth


# delta_i / eps_i from t_i = theta_i(0)^4: (op, i, j, c) means c * op(t_i, t_j).
_DELTA_EPS = {
    ModularFormId.DELTA1: (operator.add, ThetaKind.THETA2, ThetaKind.THETA3, Fraction(1, 8)),
    ModularFormId.EPS1: (operator.mul, ThetaKind.THETA2, ThetaKind.THETA3, Fraction(1, 16)),
    ModularFormId.DELTA2: (operator.add, ThetaKind.THETA1, ThetaKind.THETA3, Fraction(-1, 8)),
    ModularFormId.EPS2: (operator.mul, ThetaKind.THETA1, ThetaKind.THETA3, Fraction(1, 16)),
}


@lru_cache(maxsize=None)
def modular_form(form: ModularFormId, order: int) -> QSeries:
    """Fourier expansion of delta_i / eps_i / E2 to the requested order."""
    if order < 0:
        raise UsageError("truncation order must be >= 0")
    if form is ModularFormId.E2:
        coeffs = [Fraction(1)] + [Fraction(0)] * (2 * order)
        for n in range(1, order + 1):
            coeffs[2 * n] = Fraction(-24 * sigma1(n))
        return QSeries(coeffs, order)
    if form not in _DELTA_EPS:
        raise UsageError(f"unknown modular form {form!r}")
    op, a, b, c = _DELTA_EPS[form]
    return op(_theta_const_fourth(a, order), _theta_const_fourth(b, order)).scale(c)


def jacobi_identity_check(order: int, perturb: bool = False) -> QSeries:
    """Difference of both sides of the Jacobi derivative identity.

    Both sides are divided by the common 2 pi q^(1/8); the result must be the
    zero series at every truncation order.  `perturb` is a negative control:
    it squares the left-hand product instead of cubing it, which must leave a
    nonzero residual.  The left side stays on the general series product and
    `powi`, so it checks the right side's shift-add kernel by a second algorithm.
    """
    lhs = QSeries.one(order)
    for j in range(1, order + 1):
        lhs = lhs * QSeries.binomial(-1, 2 * j, order).powi(2 if perturb else 3)
    rhs = (_theta_product(ThetaKind.THETA1, order) * _theta_product(ThetaKind.THETA2, order)
           * _theta_product(ThetaKind.THETA3, order))
    return lhs - rhs


# ---------------------------------------------------------------------------
# Numeric evaluation (double precision)


def _check_tau(tau: complex) -> None:
    if tau.imag <= 0:
        raise DomainError("tau must lie in the upper half plane")


def theta_eval(kind: ThetaKind, v: complex, tau: complex, terms: int) -> complex:
    """Literal truncated-product value of a theta function, prefactors included."""
    _check_tau(tau)
    if terms < 1:
        raise UsageError("need at least one product term")
    q = cmath.exp(2j * cmath.pi * tau)
    qh = cmath.exp(1j * cmath.pi * tau)          # q^(1/2)
    q8 = cmath.exp(1j * cmath.pi * tau / 4)      # q^(1/8)
    z = cmath.exp(2j * cmath.pi * v)
    zi = cmath.exp(-2j * cmath.pi * v)
    grid, sign = _THETA_GRIDS[kind]
    trig = {ThetaKind.THETA: cmath.sin, ThetaKind.THETA1: cmath.cos}.get(kind)
    acc = 1 + 0j if trig is None else 2 * q8 * trig(cmath.pi * v)
    for j in range(1, terms + 1):
        qj = q ** j
        t = qj if grid == "int" else qh ** (2 * j - 1)
        acc *= (1 - qj) * (1 + sign * z * t) * (1 + sign * zi * t)
    return acc


def theta_prime_eval(v: complex, tau: complex, terms: int) -> complex:
    """d theta / dv at (v, tau), via the product's logarithmic derivative."""
    _check_tau(tau)
    q = cmath.exp(2j * cmath.pi * tau)
    q8 = cmath.exp(1j * cmath.pi * tau / 4)
    if v == 0:
        acc = 2 * cmath.pi * q8
        for j in range(1, terms + 1):
            acc *= (1 - q ** j) ** 3
        return acc
    z = cmath.exp(2j * cmath.pi * v)
    zi = cmath.exp(-2j * cmath.pi * v)
    logderiv = cmath.pi * cmath.cos(cmath.pi * v) / cmath.sin(cmath.pi * v)
    for j in range(1, terms + 1):
        qj = q ** j
        logderiv += 2j * cmath.pi * (-z * qj / (1 - z * qj) + zi * qj / (1 - zi * qj))
    return theta_eval(ThetaKind.THETA, v, tau, terms) * logderiv


def e2_eval(tau: complex, terms: int) -> complex:
    """Numeric E2 via its q-expansion."""
    _check_tau(tau)
    q = cmath.exp(2j * cmath.pi * tau)
    return 1 - 24 * sum(sigma1(n) * q ** n for n in range(1, terms + 1))


def modular_form_eval(form: ModularFormId, tau: complex, terms: int) -> complex:
    """Numeric delta_i / eps_i from theta constants, or E2 from its series."""
    if form is ModularFormId.E2:
        return e2_eval(tau, terms)
    if form not in _DELTA_EPS:
        raise UsageError(f"unknown modular form {form!r}")
    op, a, b, c = _DELTA_EPS[form]
    return op(theta_eval(a, 0, tau, terms) ** 4, theta_eval(b, 0, tau, terms) ** 4) * c


# Generators used in the weight checks: T and ST^2ST for the c-even subgroup,
# STS and T^2STS for the b-even subgroup (entries (a, b, c, d)).
GAMMA0_2_GENERATORS: dict[str, tuple[int, int, int, int]] = {
    "T": (1, 1, 0, 1),
    "ST2ST": (-1, -1, 2, 1),
}
GAMMA_UPPER0_2_GENERATORS: dict[str, tuple[int, int, int, int]] = {
    "STS": (-1, 0, 1, -1),
    "T2STS": (1, -2, 1, -1),
}


def moebius(mat: tuple[int, int, int, int], tau: complex) -> complex:
    a, b, c, d = mat
    return (a * tau + b) / (c * tau + d)


def sqrt_tau_over_i(tau: complex) -> complex:
    """Principal branch of (tau/i)^(1/2)."""
    return cmath.sqrt(tau / 1j)


# Product factors of every theta evaluation and q-powers of every E2
# evaluation in the transformation laws.
THETA_TERMS = 60
E2_TERMS = 40


def transformation_residuals(tau: complex, v: complex, perturb: bool = False) -> dict[str, float]:
    """Absolute residuals of the theta / E2 / delta-eps transformation laws.

    Keys cover the T and S laws of the four theta functions and theta', the
    Jacobi derivative identity, the S law of E2, the S laws relating
    delta2/eps2 to delta1/eps1, and the weight checks of all four forms under
    their congruence-subgroup generators (trivial character, verified
    numerically).  `perturb` is a negative control: it drops the 6 i tau / pi
    term of the E2 S law, which must leave e2_S far above any tolerance.
    """
    _check_tau(tau)
    res: dict[str, float] = {}
    root = sqrt_tau_over_i(tau)
    gauss = cmath.exp(1j * cmath.pi * tau * v * v)
    eighth = cmath.exp(1j * cmath.pi / 4)

    def th(kind, vv, tt):
        return theta_eval(kind, vv, tt, THETA_TERMS)

    s_tau = -1 / tau

    res["theta_T"] = abs(th(ThetaKind.THETA, v, tau + 1) - eighth * th(ThetaKind.THETA, v, tau))
    res["theta_S"] = abs(th(ThetaKind.THETA, v, s_tau)
                         - (1 / 1j) * root * gauss * th(ThetaKind.THETA, tau * v, tau))
    res["theta1_T"] = abs(th(ThetaKind.THETA1, v, tau + 1) - eighth * th(ThetaKind.THETA1, v, tau))
    res["theta1_S"] = abs(th(ThetaKind.THETA1, v, s_tau) - root * gauss * th(ThetaKind.THETA2, tau * v, tau))
    res["theta2_T"] = abs(th(ThetaKind.THETA2, v, tau + 1) - th(ThetaKind.THETA3, v, tau))
    res["theta2_S"] = abs(th(ThetaKind.THETA2, v, s_tau) - root * gauss * th(ThetaKind.THETA1, tau * v, tau))
    res["theta3_T"] = abs(th(ThetaKind.THETA3, v, tau + 1) - th(ThetaKind.THETA2, v, tau))
    res["theta3_S"] = abs(th(ThetaKind.THETA3, v, s_tau) - root * gauss * th(ThetaKind.THETA3, tau * v, tau))
    res["thetaprime_T"] = abs(theta_prime_eval(v, tau + 1, THETA_TERMS)
                              - eighth * theta_prime_eval(v, tau, THETA_TERMS))
    res["thetaprime0_S"] = abs(theta_prime_eval(0, s_tau, THETA_TERMS)
                               - (1 / 1j) * root * tau * theta_prime_eval(0, tau, THETA_TERMS))
    res["jacobi_identity"] = abs(theta_prime_eval(0, tau, THETA_TERMS)
                                 - cmath.pi * th(ThetaKind.THETA1, 0, tau)
                                 * th(ThetaKind.THETA2, 0, tau) * th(ThetaKind.THETA3, 0, tau))
    anomaly = 0 if perturb else 6j * tau / cmath.pi
    res["e2_S"] = abs(e2_eval(s_tau, E2_TERMS) - (tau * tau * e2_eval(tau, E2_TERMS) - anomaly))

    d1 = modular_form_eval(ModularFormId.DELTA1, tau, THETA_TERMS)
    e1 = modular_form_eval(ModularFormId.EPS1, tau, THETA_TERMS)
    res["delta2_S"] = abs(modular_form_eval(ModularFormId.DELTA2, s_tau, THETA_TERMS) - tau ** 2 * d1)
    res["eps2_S"] = abs(modular_form_eval(ModularFormId.EPS2, s_tau, THETA_TERMS) - tau ** 4 * e1)

    weight_cases = [
        ("delta1", ModularFormId.DELTA1, 2, GAMMA0_2_GENERATORS),
        ("eps1", ModularFormId.EPS1, 4, GAMMA0_2_GENERATORS),
        ("delta2", ModularFormId.DELTA2, 2, GAMMA_UPPER0_2_GENERATORS),
        ("eps2", ModularFormId.EPS2, 4, GAMMA_UPPER0_2_GENERATORS),
    ]
    for label, form, weight, gens in weight_cases:
        for gname, mat in gens.items():
            _, _, c, d = mat
            lhs = modular_form_eval(form, moebius(mat, tau), THETA_TERMS)
            rhs = (c * tau + d) ** weight * modular_form_eval(form, tau, THETA_TERMS)
            res[f"{label}_w{weight}_{gname}"] = abs(lhs - rhs)
    return res
