"""Independent oracle: the per-root BUNDLE blocks and theta quotients against
sympy's own series expansion in (w, q), at cap 8 and q-order 4.

Every per-root series is a product of factors f(w, s) at s = c q^(h/2).  sympy
expands each f in s and then in w, and multiplies the expansions as polynomials
in (w, t = q^(1/2)); nothing here goes through the engine's q-series kernels.
The test is skipped when sympy is not installed; it is not a runtime
dependency of the package.
"""

from fractions import Fraction
from functools import lru_cache

import pytest

sp = pytest.importorskip("sympy")

from anomcancel.algebra import GradedPoly, one_root_ring  # noqa: E402
from anomcancel.bundles import _exterior_block, _symmetric_block  # noqa: E402
from anomcancel.theta import ThetaKind, theta_ratio  # noqa: E402

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


def test_symmetric_block():
    factors = [(SYMMETRIC, 1, 2 * n) for n in range(1, ORDER + 1)]
    assert _engine(_symmetric_block(CAP, ORDER)) == _product(sp.Integer(1), factors)


@pytest.mark.parametrize("grid", ["int", "half"])
@pytest.mark.parametrize("sign", [+1, -1])
def test_exterior_block(grid, sign):
    steps = range(2, T_MAX + 1, 2) if grid == "int" else range(1, T_MAX + 1, 2)
    factors = [(EXTERIOR, sign, h) for h in steps]
    assert _engine(_exterior_block(CAP, grid, sign, ORDER)) == _product(sp.Integer(1), factors)


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
    root = GradedPoly.generator(one_root_ring(CAP), "w")
    assert _engine(theta_ratio(kind, root, ORDER)) == _product(prefactor, [(f, c, h) for h in steps])
