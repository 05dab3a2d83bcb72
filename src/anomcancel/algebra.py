"""Exact arithmetic for truncated graded polynomial rings and q^(1/2)-series.

The ring is generated by even-degree generators (in practice degree-2 Euler
classes and the Pontryagin classes p_i of degree 4i); every product is
silently truncated above the degree cap, which models the vanishing of
cohomology above the manifold dimension.  Per-root factors are series in the
single root w of a one-root ring; `symmetrise` multiplies them over their
root families as one exp(sum e c_n s_n), with c_n the coefficients of a
factor's log in w^2, one integer `LogParts` table (`_log_parts`, uncached, or
a closed form; `bundles` caches each table on the factor's name, never on a
ring value), and s_n the family's power sums of squared roots written in its
p_i.  All coefficients are exact rationals: internally a polynomial is stored
as a common positive denominator plus integer numerators keyed by bit-packed
exponent vectors, bucketed by total degree, so that multiplication is pure
integer work.

Formal power series in q^(1/2) (`QSeries`) hold their coefficients in a
dense array indexed by half-steps: integer numerators over one common
denominator for a rational series, `GradedPoly`s for a ring series.  Products
and quotients run over the nonzero coefficients only, and each ring-valued
output coefficient of a product, quotient, `exp` or `log` is one fused
`sum_of_products`, normalised once; a rational quotient runs over the ring
with no generators.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Iterator, Mapping, Sequence

from .errors import InvertError, SymmetryError, UsageError
from .records import record

_SHIFT = 6          # bits per generator exponent in a packed monomial key
_MASK = (1 << _SHIFT) - 1


@record
class RingSpec:
    """Ambient truncated ring: ordered generators with even degrees, degree cap."""

    gens: tuple[tuple[str, int], ...]
    cap: int

    def __post_init__(self) -> None:
        names = [name for name, _ in self.gens]
        if len(set(names)) != len(names):
            raise UsageError("generator names must be unique")
        for name, deg in self.gens:
            if deg <= 0 or deg % 2 != 0:
                raise UsageError(f"generator {name!r} must have even positive degree")
        if self.cap <= 0 or self.cap % 2 != 0:
            raise UsageError("degree cap must be even and positive")
        if self.gens and self.cap < max(d for _, d in self.gens):
            raise UsageError("degree cap below a generator degree")
        if self.gens and self.cap // min(d for _, d in self.gens) > _MASK:
            raise UsageError("degree cap too large for packed exponents")

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.gens)

    @property
    def degrees(self) -> tuple[int, ...]:
        return tuple(deg for _, deg in self.gens)

    def index(self, name: str) -> int:
        for i, (gname, _) in enumerate(self.gens):
            if gname == name:
                return i
        raise UsageError(f"unknown generator {name!r}")


def _pack(exps: Sequence[int]) -> int:
    key = 0
    for i, e in enumerate(exps):
        key |= e << (_SHIFT * i)
    return key


def _unpack(key: int, nvars: int) -> tuple[int, ...]:
    return tuple((key >> (_SHIFT * i)) & _MASK for i in range(nvars))


class GradedPoly:
    """Immutable sparse polynomial in a truncated graded ring.

    Internal representation: ``_den`` (positive int) and ``_buckets`` mapping
    total degree -> {packed exponent key -> integer numerator}.  The stored
    fraction of a monomial is numerator/_den; gcd(all numerators, _den) == 1.
    """

    __slots__ = ("spec", "_den", "_buckets")

    def __init__(self, spec: RingSpec, den: int, buckets: dict[int, dict[int, int]]):
        # Private: use the constructors below.  `buckets` is owned by the new
        # instance and must already be free of zero numerators.
        self.spec = spec
        self._den = den
        self._buckets = buckets

    # -- constructors ------------------------------------------------------

    @staticmethod
    def _make(spec: RingSpec, den: int, buckets: dict[int, dict[int, int]]) -> "GradedPoly":
        nums = []
        for d in list(buckets):
            b = buckets[d]
            for k in list(b):
                if not b[k]:
                    del b[k]
            if b:
                nums.extend(b.values())
            else:
                del buckets[d]
        if not nums:
            return GradedPoly(spec, 1, {})
        g = den
        for n in nums:
            g = math.gcd(g, n)
            if g == 1:
                break
        if g > 1:
            buckets = {d: {k: n // g for k, n in b.items()} for d, b in buckets.items()}
            den //= g
        return GradedPoly(spec, den, buckets)

    @classmethod
    def zero(cls, spec: RingSpec) -> "GradedPoly":
        return cls(spec, 1, {})

    @classmethod
    def constant(cls, spec: RingSpec, value: Fraction | int) -> "GradedPoly":
        if isinstance(value, bool) or not isinstance(value, (int, Fraction)):
            raise UsageError(f"a ring constant is an int or a Fraction, not {value!r}")
        value = Fraction(value)
        if value == 0:
            return cls.zero(spec)
        return cls(spec, value.denominator, {0: {0: value.numerator}})

    @classmethod
    def one(cls, spec: RingSpec) -> "GradedPoly":
        return cls.constant(spec, 1)

    @classmethod
    def generator(cls, spec: RingSpec, name: str) -> "GradedPoly":
        i = spec.index(name)
        deg = spec.degrees[i]
        if deg > spec.cap:
            return cls.zero(spec)
        return cls(spec, 1, {deg: {1 << (_SHIFT * i): 1}})

    @classmethod
    def from_terms(cls, spec: RingSpec, terms: Mapping[Sequence[int], Fraction | int]) -> "GradedPoly":
        degs = spec.degrees
        den = 1
        pending: list[tuple[int, int, Fraction]] = []
        for exps, coeff in terms.items():
            exps = tuple(exps)
            if len(exps) != len(degs):
                raise UsageError("exponent vector length mismatch")
            if any(e < 0 for e in exps):
                raise UsageError("negative exponent")
            coeff = Fraction(coeff)
            if coeff == 0:
                continue
            deg = sum(e * d for e, d in zip(exps, degs))
            if deg > spec.cap:
                continue
            pending.append((deg, _pack(exps), coeff))
            den = den * coeff.denominator // math.gcd(den, coeff.denominator)
        buckets: dict[int, dict[int, int]] = {}
        for deg, key, coeff in pending:
            b = buckets.setdefault(deg, {})
            b[key] = b.get(key, 0) + coeff.numerator * (den // coeff.denominator)
        return cls._make(spec, den, buckets)

    # -- inspection --------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self._buckets

    def iter_terms(self) -> Iterator[tuple[tuple[int, ...], Fraction]]:
        n = len(self.spec.gens)
        for d in sorted(self._buckets):
            b = self._buckets[d]
            for key in sorted(b):
                yield _unpack(key, n), Fraction(b[key], self._den)

    def coefficient(self, exps: Sequence[int]) -> Fraction:
        deg = sum(e * d for e, d in zip(exps, self.spec.degrees))
        num = self._buckets.get(deg, {}).get(_pack(exps), 0)
        return Fraction(num, self._den)

    def constant_term(self) -> Fraction:
        return Fraction(self._buckets.get(0, {}).get(0, 0), self._den)

    def degree_part(self, deg: int) -> "GradedPoly":
        b = self._buckets.get(deg)
        if not b:
            return GradedPoly.zero(self.spec)
        return GradedPoly._make(self.spec, self._den, {deg: dict(b)})

    def min_degree(self) -> int:
        return min(self._buckets) if self._buckets else 0

    def __eq__(self, other) -> bool:
        if isinstance(other, GradedPoly):
            return (self.spec == other.spec and self._den == other._den
                    and self._buckets == other._buckets)
        if isinstance(other, (int, Fraction)) and not isinstance(other, bool):
            return self == GradedPoly.constant(self.spec, other)
        return NotImplemented

    def __hash__(self):
        # a constant, zero included, equals its number, so it hashes as that number
        if not self._buckets.keys() - {0}:
            return hash(self.constant_term())
        return hash((self.spec, self._den,
                     tuple(sorted((d, tuple(sorted(b.items()))) for d, b in self._buckets.items()))))

    def __repr__(self) -> str:
        return f"GradedPoly({self})"

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        names, den = self.spec.names, self._den
        parts = []
        for d in sorted(self._buckets):
            b = self._buckets[d]
            for key in sorted(b):
                num = b[key]
                factors, i = [], 0
                while key:
                    e = key & _MASK
                    if e:
                        factors.append(names[i] if e == 1 else f"{names[i]}^{e}")
                    key >>= _SHIFT
                    i += 1
                g = math.gcd(num, den)
                n, m = abs(num) // g, den // g
                coeff = str(n) if m == 1 else f"{n}/{m}"
                mono = "*".join(factors)
                parts.append(" - " if num < 0 else " + ")
                parts.append(coeff if not mono else mono if n == m == 1 else f"{coeff}*{mono}")
        out = "".join(parts)
        return out[3:] if out[1] == "+" else "-" + out[3:]

    # -- arithmetic --------------------------------------------------------

    def __neg__(self) -> "GradedPoly":
        return GradedPoly(self.spec, self._den,
                          {d: {k: -n for k, n in b.items()} for d, b in self._buckets.items()})

    def __add__(self, other) -> "GradedPoly":
        # a short loop, as scalar * is: through sum_of_products both made the grid slower
        if isinstance(other, (int, Fraction)):
            other = GradedPoly.constant(self.spec, other)
        elif not isinstance(other, GradedPoly):
            return NotImplemented
        if other.spec != self.spec:
            raise UsageError("polynomials from different rings")
        da, db = self._den, other._den
        g = math.gcd(da, db)
        den = da // g * db
        ma, mb = den // da, den // db
        out: dict[int, dict[int, int]] = {
            d: {k: n * ma for k, n in b.items()} for d, b in self._buckets.items()
        }
        for d, b in other._buckets.items():
            tgt = out.setdefault(d, {})
            for k, n in b.items():
                tgt[k] = tgt.get(k, 0) + n * mb
        return GradedPoly._make(self.spec, den, out)

    __radd__ = __add__

    def __sub__(self, other) -> "GradedPoly":
        if isinstance(other, (int, Fraction)):
            other = GradedPoly.constant(self.spec, other)
        return self + (-other)

    def __rsub__(self, other) -> "GradedPoly":
        return (-self) + other

    def __mul__(self, other) -> "GradedPoly":
        if isinstance(other, (int, Fraction)):
            other = Fraction(other)
            if other == 0:
                return GradedPoly.zero(self.spec)
            num, dn = other.numerator, other.denominator
            return GradedPoly._make(
                self.spec, self._den * dn,
                {d: {k: n * num for k, n in b.items()} for d, b in self._buckets.items()})
        if not isinstance(other, GradedPoly):
            return NotImplemented
        if other.spec != self.spec:
            raise UsageError("polynomials from different rings")
        out: dict[int, dict[int, int]] = {}
        _mul_into(out, self._buckets, other._buckets, self.spec.cap)
        return GradedPoly._make(self.spec, self._den * other._den, out)

    __rmul__ = __mul__

    def mul_part(self, other: "GradedPoly", deg: int) -> "GradedPoly":
        """(self * other).degree_part(deg), without building the other degrees."""
        return sum_of_products(self.spec, [(self, other)], 1, deg, deg)

    def __pow__(self, e: int) -> "GradedPoly":
        if not isinstance(e, int):
            raise UsageError("polynomial exponent must be an integer")
        return _power(self, e, GradedPoly.one(self.spec))

    def inv(self) -> "GradedPoly":
        """Inverse in the truncated ring; needs an invertible constant term."""
        c = self.constant_term()
        if c == 0:
            raise InvertError("constant term is zero; element not invertible")
        # self = c (1 + nil) with nil nilpotent, so 1/self = (1/c) sum (-nil)^n.
        geometric = [(-1) ** n for n in range(self.spec.cap + 1)]
        return apply_series(geometric, self * (1 / c) - 1) * (1 / c)


def _power(base, e: int, one):
    """base^e by square-and-multiply from `one`; a negative e inverts base first."""
    if e < 0:
        base, e = base.inv(), -e
    result = one
    while e:
        if e & 1:
            result = result * base
        e >>= 1
        if e:
            base = base * base
    return result


def apply_series(coeffs: Sequence[Fraction], x: GradedPoly) -> GradedPoly:
    """Evaluate a univariate power series f at a nilpotent ring element.

    `coeffs[n]` is the coefficient of z^n in f(z); `x` must have zero constant
    term so the sum sum_n coeffs[n] x^n is finite in the truncated ring.
    """
    if x.constant_term() != 0:
        raise UsageError("apply_series needs a nilpotent argument (zero constant term)")
    if x.is_zero:
        needed = 1
    else:
        needed = x.spec.cap // x.min_degree() + 1
    if len(coeffs) < needed:
        raise UsageError(f"series needs at least {needed} coefficients for this argument")
    powers = [GradedPoly.one(x.spec)]
    while len(powers) < needed and not powers[-1].is_zero:
        powers.append(powers[-1] * x)
    return sum_of_products(x.spec, zip(powers, coeffs))


def sum_of_products(spec: RingSpec, pairs, scale: Fraction | int = 1,
                    lo: int = 0, hi: int | None = None) -> GradedPoly:
    """scale * sum of a * b over the (a, b) in `pairs`: a is a ring element of
    `spec`, b one too or a rational number.  Only the degrees lo..hi (hi
    defaults to the cap) are built.

    Every product is taken over one common denominator and added into one
    bucket dict, so the result is normalised once, not once per product and
    once per partial sum as a loop of `*` and `+` would do.
    """
    scale = Fraction(scale)
    live, den = [], 1
    for a, b in pairs:
        poly = isinstance(b, GradedPoly)
        if not poly and (isinstance(b, bool) or not isinstance(b, (int, Fraction))):
            raise UsageError(f"a ring constant is an int or a Fraction, not {b!r}")
        if ((a.spec is not spec and a.spec != spec)
                or (poly and b.spec is not spec and b.spec != spec)):
            raise UsageError("polynomials from different rings")
        if a._buckets and (b._buckets if poly else b):
            d = a._den * (b._den if poly else b.denominator)
            den = den // math.gcd(den, d) * d
            live.append((a, b, d))
    if not live or not scale:
        return GradedPoly.zero(spec)
    hi = spec.cap if hi is None else min(hi, spec.cap)
    out: dict[int, dict[int, int]] = {}
    for a, b, d in live:
        m = den // d * scale.numerator
        if isinstance(b, GradedPoly):
            _mul_into(out, a._buckets, b._buckets, hi, m, lo)
        else:   # a rational b adds m times its numerator times a, with no copy of a
            _mul_into(out, {0: {0: m * b.numerator}}, a._buckets, hi, 1, lo)
    return GradedPoly._make(spec, den * scale.denominator, out)


def _mul_into(out: dict[int, dict[int, int]], a_buckets: dict[int, dict[int, int]],
              b_buckets: dict[int, dict[int, int]], hi: int, m: int = 1, lo: int = 0) -> None:
    """Add m times the product of two bucketed numerator dicts into `out`,
    skipping every bucket pair whose degree falls outside lo..hi; packed keys
    add as exponent vectors do."""
    for d1, b1 in a_buckets.items():
        if m != 1:
            b1 = {k: n * m for k, n in b1.items()}
        for d2, b2 in b_buckets.items():
            d = d1 + d2
            if d > hi or d < lo:
                continue
            tgt = out.setdefault(d, {})
            get = tgt.get
            for k1, n1 in b1.items():
                for k2, n2 in b2.items():
                    k = k1 + k2
                    tgt[k] = get(k, 0) + n1 * n2


def taylor_exp(nterms: int) -> list[Fraction]:
    return [Fraction(1, math.factorial(n)) for n in range(nterms)]


@lru_cache(maxsize=None)
def one_root_ring(cap: int) -> RingSpec:
    """The ring of a single degree-2 root w, where every per-root factor is built."""
    return RingSpec(gens=(("w", 2),), cap=cap)


def exp_root(cap: int, sign: int) -> GradedPoly:
    """exp(+w) or exp(-w) on the one-root ring of this cap."""
    w = GradedPoly.generator(one_root_ring(cap), "w")
    return apply_series(taylor_exp(cap // 2 + 1), w if sign > 0 else -w)


def cosh_half_root(cap: int) -> GradedPoly:
    """cosh(w/2) on the one-root ring of this cap."""
    w = GradedPoly.generator(one_root_ring(cap), "w")
    return apply_series(taylor_cosh_half(cap // 2 + 1), w)


def half_over_sinh_half_root(cap: int) -> GradedPoly:
    """(w/2)/sinh(w/2), the A-hat factor of one root, on the one-root ring of this cap."""
    w = GradedPoly.generator(one_root_ring(cap), "w")
    return apply_series(taylor_sinh_half_over_half(cap // 2 + 1), w).inv()


def taylor_cosh_half(nterms: int) -> list[Fraction]:
    """cosh(z/2) = sum z^(2n) / (4^n (2n)!): 1 / (2^n n!) at even n, 0 at odd n."""
    return [Fraction((n + 1) % 2, 2 ** n * math.factorial(n)) for n in range(nterms)]


def taylor_sinh_half_over_half(nterms: int) -> list[Fraction]:
    """sinh(z/2) / (z/2) = sum z^(2n) / (4^n (2n+1)!): 1 / (2^n (n+1)!) at even n."""
    return [Fraction((n + 1) % 2, 2 ** n * math.factorial(n + 1)) for n in range(nterms)]


def taylor_log1p(nterms: int) -> list[Fraction]:
    """log(1 + z) = sum (-1)^(n+1) z^n / n."""
    return [Fraction(0)] + [Fraction((-1) ** (n + 1), n) for n in range(1, nterms)]


# ---------------------------------------------------------------------------
# Formal power series in q^(1/2)


def half_q_label(n: int) -> str:
    """Human-readable power q^(n/2)."""
    if n == 0:
        return "1"
    if n % 2 == 0:
        return "q" if n == 2 else f"q^{n // 2}"
    return f"q^({n}/2)"


def _normal(den: int, nums) -> tuple[int, tuple[int, ...]]:
    """den and nums divided by their gcd, den made positive."""
    g = math.gcd(den, *nums)
    if den < 0:
        g = -g
    if g == 1:
        return den, tuple(nums)
    return den // g, tuple(n // g for n in nums)


# The ring with no generators: a rational quotient runs as a ring quotient of constants.
_SCALARS = RingSpec(gens=(), cap=2)


class QSeries:
    """Power series in q^(1/2) truncated at integer order N (half-index 2N).

    `coeffs[n]` holds the coefficient of q^(n/2) for n = 0..2N.  `ring` is the
    ambient RingSpec when coefficients are ring elements, or None for rational
    scalar series.  A rational series is stored as a positive common
    denominator `_den` and integer numerators `_nums` with gcd 1, as
    `GradedPoly` is, so its arithmetic is integer work; its `coeffs`, a tuple
    of `Fraction`s, is built on first read.  A ring series stores its
    `GradedPoly` coefficients.
    """

    __slots__ = ("order", "ring", "_den", "_nums", "_coeffs")

    def __init__(self, coeffs: Sequence, order: int, ring: RingSpec | None = None):
        if order < 0:
            raise UsageError("truncation order must be >= 0")
        coeffs = list(coeffs)
        width = 2 * order + 1
        if len(coeffs) > width:
            raise UsageError("coefficient array longer than 2N+1")
        pad = width - len(coeffs)
        self.order = order
        self.ring = ring
        if ring is None:
            if any(isinstance(c, bool) or not isinstance(c, (int, Fraction)) for c in coeffs):
                raise UsageError("a rational q-series takes int or Fraction coefficients only")
            den = math.lcm(*(c.denominator for c in coeffs))
            self._den, self._nums = _normal(
                den, [c.numerator * (den // c.denominator) for c in coeffs] + [0] * pad)
            self._coeffs = None
        else:
            if any(not isinstance(c, GradedPoly) or (c.spec is not ring and c.spec != ring)
                   for c in coeffs):
                raise UsageError("a ring q-series takes elements of its own ring only")
            self._den = self._nums = None
            self._coeffs = tuple(coeffs) + (GradedPoly.zero(ring),) * pad

    @staticmethod
    def _of_nums(den: int, nums, order: int) -> "QSeries":
        """A rational series from 2N+1 integer numerators over den, normalised once."""
        s = object.__new__(QSeries)
        s.order, s.ring, s._coeffs = order, None, None
        s._den, s._nums = _normal(den, nums)
        return s

    @staticmethod
    def _of_coeffs(coeffs: list[GradedPoly], order: int, ring: RingSpec) -> "QSeries":
        """A ring series from 2N+1 elements of `ring`, taken as they are."""
        s = object.__new__(QSeries)
        s.order, s.ring, s._coeffs, s._den, s._nums = order, ring, tuple(coeffs), None, None
        return s

    @property
    def coeffs(self) -> tuple:
        if self._coeffs is None:
            den = self._den
            self._coeffs = tuple(Fraction(n, den) for n in self._nums)
        return self._coeffs

    # -- constructors ------------------------------------------------------

    @classmethod
    def one(cls, order: int, ring: RingSpec | None = None) -> "QSeries":
        first = GradedPoly.one(ring) if ring is not None else 1
        return cls([first], order, ring)

    @classmethod
    def binomial(cls, c, half_exp: int, order: int) -> "QSeries":
        """1 + c * q^(half_exp/2), for a rational or ring-element c and half_exp >= 1."""
        if half_exp < 1:
            raise UsageError("a binomial needs half_exp >= 1")
        if isinstance(c, GradedPoly):
            coeffs = [GradedPoly.one(c.spec)] + [GradedPoly.zero(c.spec)] * (2 * order)
            if half_exp <= 2 * order:
                coeffs[half_exp] = c
            return cls(coeffs, order, c.spec)
        c = Fraction(c)
        nums = [c.denominator] + [0] * (2 * order)
        if half_exp <= 2 * order:
            nums[half_exp] = c.numerator
        return cls._of_nums(c.denominator, nums, order)

    @classmethod
    def from_poly(cls, poly: GradedPoly, order: int) -> "QSeries":
        return cls([poly], order, poly.spec)

    def to_ring(self, ring: RingSpec) -> "QSeries":
        if self.ring is not None:
            if self.ring != ring:
                raise UsageError("series already carries a different ring")
            return self
        return QSeries([GradedPoly._make(ring, self._den, {0: {0: n}}) for n in self._nums],
                       self.order, ring)

    # -- structure ---------------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, QSeries):
            return NotImplemented
        try:
            ring = self._check(other)
        except UsageError:
            return False
        if ring is None:
            return self._den == other._den and self._nums == other._nums
        return self.coeffs == other.coeffs

    def __hash__(self):
        # a ring series of constants equals the rational series of them; its
        # coefficients hash as their numbers, so the two series hash alike
        return hash((self.coeffs, self.order))

    def __repr__(self) -> str:
        shown = []
        for n, c in enumerate(self.coeffs):
            if c == 0:
                continue
            shown.append(f"({c})" if n == 0 else f"({c})*{half_q_label(n)}")
            if len(shown) > 5:
                shown.append("...")
                break
        return "QSeries[N=%d](%s)" % (self.order, " + ".join(shown) or "0")

    def is_zero(self) -> bool:
        return self.first_nonzero() is None

    def first_nonzero(self) -> int | None:
        """Smallest half-index with a nonzero coefficient, or None."""
        if self.ring is None:
            return next((n for n, c in enumerate(self._nums) if c), None)
        return next((n for n, c in enumerate(self._coeffs) if not c.is_zero), None)

    def map(self, fn: Callable) -> "QSeries":
        """Apply fn to every coefficient (must stay within the same ring)."""
        return QSeries([fn(c) for c in self.coeffs], self.order, self.ring)

    def degree_slice(self, deg: int) -> "QSeries":
        if self.ring is None:
            raise UsageError("degree slice needs ring coefficients")
        return self.map(lambda p: p.degree_part(deg))

    # -- arithmetic --------------------------------------------------------

    def _check(self, other: "QSeries") -> RingSpec | None:
        """The ring of a result of self and other; orders and rings must agree."""
        if self.order != other.order:
            raise UsageError("q-series truncation orders differ")
        if self.ring is not None and other.ring is not None and self.ring != other.ring:
            raise UsageError("q-series over different rings")
        return self.ring if self.ring is not None else other.ring

    def _nonzero(self) -> list[tuple[int, GradedPoly]]:
        """(half-index, coefficient) of the nonzero coefficients of a ring series."""
        return [(n, c) for n, c in enumerate(self._coeffs) if not c.is_zero]

    def __neg__(self) -> "QSeries":
        if self.ring is None:
            return QSeries._of_nums(self._den, [-n for n in self._nums], self.order)
        return QSeries([-c for c in self._coeffs], self.order, self.ring)

    def __add__(self, other) -> "QSeries":
        if not isinstance(other, QSeries):
            return NotImplemented
        ring = self._check(other)
        if ring is None:
            da, db = self._den, other._den
            den = da // math.gcd(da, db) * db
            ma, mb = den // da, den // db
            return QSeries._of_nums(den, [x * ma + y * mb for x, y in zip(self._nums, other._nums)],
                                    self.order)
        a, b = self.to_ring(ring), other.to_ring(ring)
        return QSeries([x + y for x, y in zip(a._coeffs, b._coeffs)], self.order, ring)

    def __sub__(self, other) -> "QSeries":
        if not isinstance(other, QSeries):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other) -> "QSeries":
        """Product over nonzero coefficient pairs; a rational factor stays rational."""
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if isinstance(other, GradedPoly):
            return QSeries([c * other for c in self.coeffs], self.order, other.spec)
        if not isinstance(other, QSeries):
            return NotImplemented
        ring = self._check(other)
        if ring is None:
            width = 2 * self.order + 1
            out = [0] * width
            terms = [(j, y) for j, y in enumerate(other._nums) if y]
            for i, x in enumerate(self._nums):
                if x:
                    for j, y in terms:
                        if i + j >= width:
                            break
                        out[i + j] += x * y
            return QSeries._of_nums(self._den * other._den, out, self.order)
        return self.mul_window(other)

    __rmul__ = __mul__

    def mul_window(self, other: "QSeries | GradedPoly", lo: int = 0,
                   hi: int | None = None) -> "QSeries":
        """The degrees lo..hi (hi defaults to the cap) of the ring product
        self * other, without building the others: `mul_window(b, d, d)` is
        `(self * b).degree_slice(d)`.

        Every pair (a_i, b_j) goes to the bucket of its index i + j; each
        output coefficient is then one fused sum of products."""
        if isinstance(other, GradedPoly):
            other = QSeries.from_poly(other, self.order)
        ring = self._check(other)
        if ring is None:
            raise UsageError("degree slice needs ring coefficients")
        width = 2 * self.order + 1
        pairs = [[] for _ in range(width)]
        terms = other.to_ring(ring)._nonzero()
        for i, ca in self.to_ring(ring)._nonzero():
            for j, cb in terms:
                if i + j >= width:
                    break
                pairs[i + j].append((ca, cb))
        return QSeries([sum_of_products(ring, p, 1, lo, hi) for p in pairs], self.order, ring)

    def __truediv__(self, other) -> "QSeries":
        """Exact quotient: out_n = (a_n - sum_(j>=1, b_j != 0) b_j out_(n-j)) / b_0.

        Rational operands divide as constants of the ring with no generators.
        """
        if not isinstance(other, QSeries):
            return NotImplemented
        ring = self._check(other)
        if ring is None:
            quotient = self.to_ring(_SCALARS) / other.to_ring(_SCALARS)
            return QSeries([c.constant_term() for c in quotient._coeffs], self.order)
        a, b = self.to_ring(ring), other.to_ring(ring)
        b0 = b._coeffs[0]
        if b0 == 0:
            raise InvertError("constant term is zero; series not invertible")
        # out_n = a_n / b_0 - sum_(j>=1) (b_j / b_0) out_(n-j)
        r0 = GradedPoly.one(ring) if b0 == 1 else b0.inv()
        minus = [(j, -(bj * r0)) for j, bj in b._nonzero()[1:]]
        out: list[GradedPoly] = []
        for n, an in enumerate(a._coeffs):
            pairs = [(an, r0)]
            for j, mbj in minus:
                if j > n:
                    break
                pairs.append((mbj, out[n - j]))
            out.append(sum_of_products(ring, pairs))
        return QSeries(out, self.order, ring)

    def scale(self, c: Fraction | int) -> "QSeries":
        c = Fraction(c)
        if self.ring is None:
            return QSeries._of_nums(self._den * c.denominator,
                                    [n * c.numerator for n in self._nums], self.order)
        return QSeries([x * c for x in self._coeffs], self.order, self.ring)

    def inv(self) -> "QSeries":
        return QSeries.one(self.order, self.ring) / self

    def powi(self, e: int) -> "QSeries":
        """Integer power; negative exponents go through inv()."""
        if not isinstance(e, int):
            raise UsageError("series exponent must be an integer")
        return _power(self, e, QSeries.one(self.order, self.ring))

    def shift(self, half_steps: int) -> "QSeries":
        """Multiply by q^(half_steps/2); negative shifts must not drop terms."""
        width = 2 * self.order + 1
        ring = self.ring
        items, zero = (self._nums, 0) if ring is None else (self._coeffs, GradedPoly.zero(ring))
        if half_steps >= width:
            out = [zero] * width
        elif half_steps >= 0:
            out = [zero] * half_steps + list(items[: width - half_steps])
        else:
            cut = -half_steps
            first = self.first_nonzero()
            if first is not None and first < cut:
                raise UsageError("negative shift would drop nonzero terms")
            out = list(items[cut:]) + [zero] * cut
        if ring is None:
            return QSeries._of_nums(self._den, out, self.order)
        return QSeries(out, self.order, ring)

    def log(self) -> "QSeries":
        """log of a ring-valued series whose q^0 coefficient is 1 + nilpotent.

        Reads L off t dF/dt = F * t dL/dt in t = q^(1/2): the q^0 coefficient
        is log(F_0) and, with g_n = F_n / F_0,
        L_n = g_n - (1/n) sum_(0<m<n) m L_m g_(n-m).
        """
        f, ring = self.coeffs, self.ring
        if ring is None or f[0].constant_term() != 1:
            raise UsageError("log needs ring coefficients with q^0 constant term 1")
        f0_inv = f[0].inv()
        g = [c * f0_inv for c in f]
        out = [apply_series(taylor_log1p(ring.cap // 2 + 1), f[0] - 1)]
        weighted: list[tuple[int, GradedPoly]] = []   # (m, m L_m), L_m != 0
        for n in range(1, len(f)):
            # the pair (g_n, -n), scaled by -1/n like the sum, is the g_n term
            pairs = [(g[n], -n)]
            pairs += [(wl, g[n - m]) for m, wl in weighted]
            out.append(sum_of_products(ring, pairs, Fraction(-1, n)))
            if not out[n].is_zero:
                weighted.append((n, out[n] * n))
        return QSeries(out, self.order, ring)

    def exp(self) -> "QSeries":
        """exp of a ring-valued series whose q^0 coefficient is nilpotent.

        E_0 = exp(L_0) in the truncated ring, then n E_n = sum_(m=1..n) m L_m E_(n-m).
        """
        lg, ring = self.coeffs, self.ring
        if ring is None or lg[0].constant_term() != 0:
            raise UsageError("exp needs ring coefficients with nilpotent q^0 term")
        weighted = [(m, c * m) for m, c in enumerate(lg) if m and not c.is_zero]
        out = [apply_series(taylor_exp(ring.cap // 2 + 1), lg[0])]
        for n in range(1, len(lg)):
            pairs = []
            for m, wl in weighted:
                if m > n:
                    break
                pairs.append((wl, out[n - m]))
            out.append(sum_of_products(ring, pairs, Fraction(1, n)))
        return QSeries(out, self.order, ring)


# ---------------------------------------------------------------------------
# Products and sums over a root family, in its Pontryagin classes


def power_sums(elementary: Sequence[GradedPoly], n_max: int) -> tuple[GradedPoly, ...]:
    """s_1..s_n_max of the squared roots of a family from its Pontryagin classes.

    `elementary` lists e_i = p_i for i = 1, 2, ..; e_i is zero past the list.
    Newton's identities: s_n = sum_(i<n) (-1)^(i-1) e_i s_(n-i) + (-1)^(n-1) n e_n.
    """
    spec = elementary[0].spec
    signed = [e if i % 2 else -e for i, e in enumerate(elementary, start=1)]
    sums: list[GradedPoly] = []
    for n in range(1, n_max + 1):
        pairs = [(signed[i - 1], sums[n - i - 1]) for i in range(1, min(n, len(elementary) + 1))]
        if n <= len(elementary):
            pairs.append((signed[n - 1], n))
        sums.append(sum_of_products(spec, pairs))
    return tuple(sums)


@record
class LogParts:
    """A per-root log's even parts as one integer table: nums[n][h] / den is the
    coefficient of w^(2n) q^(h/2).  gcd(den, nums) = 1 with den > 0, so equal
    tables compare equal."""

    den: int
    nums: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        g = math.gcd(self.den, *(x for row in self.nums for x in row))
        object.__setattr__(self, "den", self.den // g)
        object.__setattr__(self, "nums", tuple(tuple(x // g for x in row) for row in self.nums))


def _even_parts(f: QSeries) -> LogParts:
    """The even parts of f, a series on a one-root ring, over its coefficients' lcm denominator."""
    ring = f.ring
    if ring is None or len(ring.gens) != 1 or ring.degrees[0] != 2:
        raise UsageError("a per-root series lives on a ring of one degree-2 root")
    coeffs = f.coeffs
    den = math.lcm(*(c._den for c in coeffs))
    nums = [[0] * len(coeffs) for _ in range(ring.cap // 4 + 1)]
    for h, c in enumerate(coeffs):
        for b in c._buckets.values():
            for e, x in b.items():      # the packed key of w^e is e
                if e % 2:
                    raise SymmetryError("odd power of the root; per-root series not even")
                nums[e // 2][h] = x * (den // c._den)
    return LogParts(den, nums)


def _log_parts(f: GradedPoly | QSeries) -> LogParts:
    """`_even_parts` of log f; a polynomial f, constant in q, has parts one wide."""
    series = QSeries.from_poly(f, 0) if isinstance(f, GradedPoly) else f
    return _even_parts(series.log())


def _over_families(terms: Sequence[tuple[LogParts, Sequence[GradedPoly], int]],
                   width: int) -> list[GradedPoly]:
    """out[h] = sum over (parts, sums, e) of e * sum_(n >= 1) c_n[h] s_n.

    c_n[h] = parts.nums[n][h] / parts.den.  Each `LogParts` is `width` wide, or
    one wide for a term constant in q, with row 0, free of the root, zero.  The
    terms over one family (the same `sums` object) merge into one integer
    weight per (n, h); each weight times its s_n adds into one bucket dict per
    h over one denominator, normalised once.
    """
    spec = terms[0][1][0].spec
    families: dict[int, tuple[Sequence[GradedPoly], list]] = {}
    for parts, sums, e in terms:
        if (not isinstance(parts, LogParts) or len(parts.nums) != len(sums) + 1
                or len(parts.nums[0]) not in (1, width)):
            raise UsageError("per-root parts must be a LogParts at the power sums' cap and the q-order")
        if any(parts.nums[0]):
            raise UsageError("a per-root series must be trivial at the root 0")
        if sums[0].spec is not spec and sums[0].spec != spec:
            raise UsageError("polynomials from different rings")
        if e:
            families.setdefault(id(sums), (sums, []))[1].append((parts, e))
    den = math.lcm(*(parts.den for _, rows in families.values() for parts, _ in rows))
    top = den * math.lcm(*(s._den for sums, _ in families.values() for s in sums))
    out = [{} for _ in range(width)]
    for sums, rows in families.values():
        weights = [[0] * width for _ in sums]
        for parts, e in rows:
            m = e * (den // parts.den)
            for weight, nums in zip(weights, parts.nums[1:]):
                for h, c in enumerate(nums):
                    weight[h] += c * m
        for s, weight in zip(sums, weights):
            m = top // (den * s._den)
            live = [(out[h], w * m) for h, w in enumerate(weight) if w]
            for deg, b in s._buckets.items():
                for tgt, w in live:
                    bucket = tgt.setdefault(deg, {})
                    get = bucket.get
                    for key, x in b.items():
                        bucket[key] = get(key, 0) + w * x
    return [GradedPoly._make(spec, top, buckets) for buckets in out]


def symmetrise(rows: Sequence[tuple[LogParts, Sequence[GradedPoly], int]],
               order: int) -> QSeries:
    """The product over rows (parts, sums, e) of the product over the family's
    roots of f(root)^e, as one exp.

    Each f is an even per-root factor with f(0) = 1, given by the `LogParts`
    table of its log = sum_n c_n w^(2n) (`_log_parts`, or a closed form):
    parts.nums[n][h] / parts.den is the q^(h/2) coefficient of c_n.  The
    product is exp(sum e c_n s_n), with s_n the family's power sums (`sums`),
    a q-series truncated at `order`: each table is 2 order + 1 wide, or one
    wide for an f constant in q.  A q-independent form is the q^0 coefficient
    of `symmetrise(rows, 0)`.
    """
    logs = _over_families(rows, 2 * order + 1)
    return QSeries._of_coeffs(logs, order, logs[0].spec).exp()


# ---------------------------------------------------------------------------
# Symmetric-function conversion to Pontryagin presentation


def _images(src: RingSpec,
            families: Sequence[tuple[str, Sequence[str]]]) -> dict[str, GradedPoly]:
    """Each generator of `src` as itself, and each p_i(F) as e_i of F's squared
    roots x, built root by root through e_i <- e_i + x e_(i-1)."""
    images = {name: GradedPoly.generator(src, name) for name in src.names}
    for fam, roots in families:
        e = [GradedPoly.one(src)] + [GradedPoly.zero(src)] * len(roots)
        for n, r in enumerate(roots, start=1):
            x = images[r] * images[r]
            for i in range(n, 0, -1):
                e[i] = e[i] + x * e[i - 1]
        images.update((f"p{i}({fam})", e[i]) for i in range(1, len(roots) + 1))
    return images


def _image(src: RingSpec, images: Mapping[str, GradedPoly], powers) -> GradedPoly:
    """The product of images[name]^e over the (name, e) pairs of `powers`."""
    out = GradedPoly.one(src)
    for name, e in powers:
        if e:
            out = out * images[name] ** e
    return out


def _expand(poly: GradedPoly, src: RingSpec,
            families: Sequence[tuple[str, Sequence[str]]]) -> GradedPoly:
    """`pontryagin_all`'s inverse: every p_i(F) of `poly` substituted by the
    elementary symmetric function e_i of F's squared roots in `src`."""
    images = _images(src, families)
    result = GradedPoly.zero(src)
    for exps, coeff in poly.iter_terms():
        result = result + _image(src, images, zip(poly.spec.names, exps)) * coeff
    return result


def pontryagin_all(p: GradedPoly, families: Sequence[tuple[str, Sequence[str]]]) -> GradedPoly:
    """Rewrite p over its passthrough generators, then p_1(F), p_2(F), .. of
    each listed root family F, by leading-term elimination (Macdonald,
    Symmetric Functions, I.2).  Only tests and users call this: the engine
    computes in the Pontryagin ring directly.

    In the lex order ranking the family roots first, as listed, then the
    passthrough generators, the leading monomial of what is left has, in each
    family, even exponents whose halves form a partition lambda; it is the
    leading monomial of (passthrough part) * prod_i p_i(F)^(lambda_i -
    lambda_(i+1)), so that term is recorded and its image subtracted.
    """
    src = p.spec
    fam_idx = [(fam, [src.index(r) for r in roots]) for fam, roots in families]
    root_idx = [i for _, idx in fam_idx for i in idx]
    if any(src.degrees[i] != 2 for i in root_idx):
        raise UsageError("family roots must have degree 2")
    passthrough = [i for i in range(len(src.gens)) if i not in root_idx]
    # p_i symbols with 4i above the cap can never carry a term
    target = RingSpec(
        gens=tuple(src.gens[i] for i in passthrough)
        + tuple((f"p{i}({fam})", 4 * i) for fam, roots in families
                for i in range(1, len(roots) + 1) if 4 * i <= src.cap),
        cap=src.cap)
    images = _images(src, families)
    rank = root_idx + passthrough
    left, out_terms = p, {}
    while not left.is_zero:
        exps, c = max(left.iter_terms(), key=lambda t: [t[0][i] for i in rank])
        powers = {src.names[i]: exps[i] for i in passthrough}
        for fam, idx in fam_idx:
            lam = [exps[i] for i in idx] + [0]
            if any(e % 2 or e < f for e, f in zip(lam, lam[1:])):
                raise SymmetryError("leading monomial is not a partition in the squared "
                                    f"roots of {fam}; input not symmetric")
            powers.update((f"p{i}({fam})", (lam[i - 1] - lam[i]) // 2)
                          for i in range(1, len(idx) + 1))
        out_terms[tuple(powers.get(name, 0) for name in target.names)] = c
        left = left - _image(src, images, powers.items()) * c

    result = GradedPoly.from_terms(target, out_terms)
    if _expand(result, src, families) != p:
        raise SymmetryError("back-substitution mismatch; input not symmetric in the family")
    return result


# ---------------------------------------------------------------------------
# Reduction modulo leading - image


def ideal_reduce(p: GradedPoly, leading: str, image: str) -> GradedPoly:
    """Normal form of p modulo leading - image, two generators of one degree:
    every leading^t becomes image^t.  The two exponents of a monomial sum to at
    most cap / degree, which `RingSpec` keeps within one packed field."""
    spec = p.spec
    g, h = spec.index(leading), spec.index(image)
    if g == h:
        raise UsageError(f"cannot reduce {leading!r} modulo itself")
    if spec.degrees[g] != spec.degrees[h]:
        raise UsageError(f"{leading!r} and {image!r} have different degrees")
    gs, hs = _SHIFT * g, _SHIFT * h
    out: dict[int, dict[int, int]] = {}
    for d, b in p._buckets.items():
        tgt = out[d] = {}
        for key, n in b.items():
            t = (key >> gs) & _MASK
            key += (t << hs) - (t << gs)
            tgt[key] = tgt.get(key, 0) + n
    return GradedPoly._make(spec, p._den, out)
