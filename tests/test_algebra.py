"""Core ring and q-series arithmetic, conversions, ideal reduction."""

import math
import random
from fractions import Fraction as F

import pytest

from anomcancel.algebra import (
    GradedPoly,
    LogParts,
    QSeries,
    RingSpec,
    _even_parts,
    _expand,
    _log_parts,
    _over_families,
    apply_series,
    cosh_half_root,
    ideal_reduce,
    one_root_ring,
    pontryagin_all,
    power_sums,
    sum_of_products,
    symmetrise,
    taylor_cosh_half,
    taylor_exp,
    taylor_sinh_half_over_half,
)
from anomcancel.errors import InvertError, SymmetryError, UsageError
from anomcancel.theta import jacobi_identity_check

from conftest import (
    derivative,
    fraction_rows,
    log_parts_of,
    permute_gens,
    random_fraction,
    random_nilpotent,
    random_poly,
    random_rational_series,
    random_ring_series,
    random_sparse_series,
    reference_apply_series,
    reference_exp,
    reference_ideal_reduce,
    reference_log,
    reference_over_families,
    reference_poly_str,
    reference_power_sums,
    reference_product,
    reference_quotient,
    scale_gens,
    schoolbook_product,
    set_gens_zero,
    truncate,
)

SPEC = RingSpec(gens=(("w1", 2), ("w2", 2), ("v1", 2)), cap=8)


def gens(spec=SPEC):
    return [GradedPoly.generator(spec, name) for name in spec.names]


class TestRingSpec:
    def test_duplicate_names_rejected(self):
        with pytest.raises(UsageError):
            RingSpec(gens=(("w", 2), ("w", 2)), cap=4)

    def test_odd_degree_rejected(self):
        with pytest.raises(UsageError):
            RingSpec(gens=(("w", 3),), cap=6)

    def test_cap_below_generator_rejected(self):
        with pytest.raises(UsageError):
            RingSpec(gens=(("w", 4),), cap=2)


class TestGradedPoly:
    def test_rational_storage_is_canonical(self):
        p = GradedPoly.constant(SPEC, F(6, -4))
        assert p.constant_term() == F(-3, 2)
        assert p.constant_term().denominator == 2

    def test_silent_truncation_above_cap(self):
        w1, w2, _ = gens()
        assert (w1 ** 4 * w2).is_zero          # degree 10 > 8
        assert not (w1 ** 4).is_zero

    def test_degree_part(self):
        w1, w2, _ = gens()
        p = (w1 + w2) ** 2 + w1 * 3 + 5
        assert p.degree_part(4) == w1 ** 2 + w1 * w2 * 2 + w2 ** 2
        assert p.degree_part(2) == w1 * 3
        assert p.degree_part(0).constant_term() == 5

    def test_degree_part_is_canonical(self):
        spec = RingSpec(gens=(("x", 2), ("y", 4)), cap=8)
        x, y = gens(spec)
        part = (x * F(1, 2) + y).degree_part(4)
        assert part == y and hash(part) == hash(y) and part - y == 0
        series = QSeries([x * F(1, 2) + y, y * 3 + x * F(1, 4)], 1, spec)
        sliced = series.degree_slice(4)
        want = QSeries([y, y * 3], 1, spec)
        assert sliced == want and hash(sliced) == hash(want)

    def test_equality_with_other_types(self):
        one = GradedPoly.one(SPEC)
        assert one == 1 and one == F(1) and one != 2
        # a bool, a string or None is no ring constant: unequal, not an error
        assert (one == True) is False and (one != True) is True
        assert one != "1" and one != None and one != 1.0

    def test_constants_hash_as_their_numbers(self):
        # a constant equals its number, so the two hash alike and a set keeps one
        for value in (0, 1, -3, F(1, 3), F(-7, 2)):
            const = GradedPoly.constant(SPEC, value)
            assert const == value and hash(const) == hash(value)
            assert len({const, value}) == 1

    def test_inverse_round_trip(self, rng):
        for _ in range(50):
            p = random_poly(rng, SPEC) + rng.randint(1, 5)
            if p.constant_term() == 0:
                continue
            assert p * p.inv() == GradedPoly.one(SPEC)

    def test_inverse_requires_constant_term(self):
        w1 = gens()[0]
        with pytest.raises(InvertError):
            w1.inv()

    def test_negative_power_through_inverse(self):
        p = GradedPoly.one(SPEC) + gens()[0]
        assert p ** -2 == (p.inv()) ** 2

    def test_substitutions(self):
        w1, w2, v1 = gens()
        p = w1 ** 2 * w2 + v1 * 2
        assert scale_gens(p, {"w1": 3}) == w1 ** 2 * w2 * 9 + v1 * 2
        assert permute_gens(p, {"w1": "w2", "w2": "w1"}) == w2 ** 2 * w1 + v1 * 2
        assert set_gens_zero(p, ["w1"]) == v1 * 2
        assert derivative(p, "w1") == w1 * w2 * 2

    def test_text_matches_reference(self, rng):
        # coefficients +-1, other integers and fractions of either sign, over
        # a shared denominator or not; a constant and zero on their own
        w1 = gens()[0]
        fixed = [GradedPoly.zero(SPEC), GradedPoly.one(SPEC), GradedPoly.constant(SPEC, F(-3, 2)),
                 -w1, w1 * F(-1, 2) + 1, w1 ** 3 - w1 * 7 - 1]
        for p in fixed:
            assert str(p) == reference_poly_str(p)
        assert [str(p) for p in fixed[:4]] == ["0", "1", "-3/2", "-w1"]
        for spec in (SPEC, PSPEC):
            n = len(spec.gens)
            for _ in range(100):
                terms = {tuple(rng.randint(0, 3) for _ in range(n)):
                         rng.choice([1, -1, rng.randint(-40, 40), random_fraction(rng, 12)])
                         for _ in range(rng.randint(1, 6))}
                if rng.random() < 0.3:
                    terms[(0,) * n] = random_fraction(rng)
                p = GradedPoly.from_terms(spec, terms) * rng.choice([1, -1, F(1, 6)])
                assert str(p) == reference_poly_str(p)


class TestQSeriesArith:
    def test_difference_of_squares(self):
        s = QSeries([1, 1], 3)
        t = QSeries([1, -1], 3)
        assert s * t == QSeries([1, 0, -1], 3)

    def test_geometric_inverse(self):
        one_minus_q = QSeries([1, 0, -1], 5)
        geo = one_minus_q.inv()
        assert geo == QSeries([1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1], 5)

    def test_powi_against_brute_force(self):
        # prod_{j=1..4} (1 - q^j), cubed; oracle is plain integer convolution
        def convolve(a, b, n):
            out = [0] * n
            for i, x in enumerate(a):
                if x == 0 or i >= n:
                    continue
                for j, y in enumerate(b):
                    if i + j < n:
                        out[i + j] += x * y
            return out

        n = 8
        prod = [1] + [0] * (n - 1)
        for j in range(1, 5):
            factor = [0] * n
            factor[0] = 1
            if j < n:
                factor[j] = -1
            prod = convolve(prod, factor, n)
        cubed = convolve(convolve(prod, prod, n), prod, n)
        assert cubed[:4] == [1, -3, 0, 5]

        series = QSeries.one(7)
        for j in range(1, 5):
            series = series * QSeries([1] + [0] * (2 * j - 1) + [-1], 7)
        engine = series.powi(3)
        for i in range(8):
            assert engine.coeffs[2 * i] == cubed[i]
            if 2 * i + 1 <= 14:
                assert engine.coeffs[2 * i + 1] == 0

    def test_negative_powi_uses_inverse(self):
        s = QSeries([1, 2, 3], 4)
        assert s.powi(-2) == s.inv() * s.inv()

    def test_shift(self):
        s = QSeries([1, 2, 3], 2)
        shifted = s.shift(2)
        assert shifted == QSeries([0, 0, 1, 2, 3], 2)
        assert shifted.shift(-2) == QSeries([1, 2, 3, 0, 0], 2)
        with pytest.raises(UsageError):
            s.shift(-1)

    def test_order_mismatch_rejected(self):
        with pytest.raises(UsageError):
            QSeries([1], 2) + QSeries([1], 3)

    def test_inversion_requires_unit(self):
        with pytest.raises(InvertError):
            QSeries([0, 1], 2).inv()

    def test_ring_and_rational_mix(self):
        w1 = gens()[0]
        rational = QSeries([2, 1], 2)
        ring_series = QSeries.from_poly(w1, 2)
        mixed = rational * ring_series
        assert mixed.coeffs[0] == w1 * 2
        assert mixed.coeffs[1] == w1


class TestSparseKernels:
    """The sparse product and the exact quotient against dense references."""

    ORDER = 4

    def operands(self, rng, spec):
        """Dense, sparse and binomial series, rational when spec is None."""
        n = self.ORDER
        if spec is None:
            dense = random_rational_series(rng, n)
            c = random_fraction(rng)
        else:
            dense = random_ring_series(rng, spec, n)
            c = random_poly(rng, spec)
        return [dense, random_sparse_series(rng, spec, n),
                QSeries.binomial(c, rng.randint(1, 2 * n), n)]

    def test_product_matches_schoolbook(self, rng):
        for _ in range(20):
            pool = self.operands(rng, None) + self.operands(rng, SPEC)
            for a in pool:
                for b in pool:
                    assert a * b == schoolbook_product(a, b)

    def test_quotient_inverts_product(self, rng):
        one = GradedPoly.one(SPEC)
        for _ in range(20):
            pool = self.operands(rng, None) + self.operands(rng, SPEC)
            for a in pool:
                for b in pool:
                    b0 = b.coeffs[0]
                    if b0 == 0 or (b.ring is not None and b0.constant_term() == 0):
                        continue
                    assert (a / b) * b == a
                    assert a / b == a * b.inv()
            unit = random_nilpotent(rng, SPEC) + one
            b = QSeries([unit] + list(random_ring_series(rng, SPEC, self.ORDER).coeffs[1:]),
                        self.ORDER, SPEC)
            a = pool[0]
            assert (a / b) * b == a
            assert a / b == a * b.inv()

    def test_division_by_non_unit_rejected(self, rng):
        n = self.ORDER
        a = random_ring_series(rng, SPEC, n)
        with pytest.raises(InvertError):
            a / QSeries([0, 1], n)
        nilpotent = QSeries([random_nilpotent(rng, SPEC), GradedPoly.one(SPEC)], n, SPEC)
        with pytest.raises(InvertError):
            a / nilpotent

    def test_division_mismatch_rejected(self, rng):
        with pytest.raises(UsageError):
            random_rational_series(rng, 3) / QSeries.one(2)
        other = RingSpec(gens=(("x", 2),), cap=4)
        with pytest.raises(UsageError):
            QSeries.one(3, SPEC) / QSeries.one(3, other)
        with pytest.raises(UsageError):
            QSeries.one(3, SPEC) * QSeries.one(3, other)


class TestQSeriesConstructor:
    """A series takes only coefficients of its own kind."""

    def test_rational_series_rejects_ring_elements(self):
        with pytest.raises(UsageError):
            QSeries([gens()[0], 1], 1)

    def test_rational_series_rejects_floats_and_bools(self):
        for bad in (0.5, 1.0, True):
            with pytest.raises(UsageError):
                QSeries([1, bad], 1)

    def test_ring_series_rejects_scalars_and_other_rings(self):
        x = gens()[0]
        other = GradedPoly.one(RingSpec(gens=(("y", 2),), cap=4))
        for bad in (1, F(1, 2), 0.5, other):
            with pytest.raises(UsageError):
                QSeries([x, bad], 1, SPEC)

    def test_binomial(self):
        x = gens()[0]
        one, zero = GradedPoly.one(SPEC), GradedPoly.zero(SPEC)
        assert QSeries.binomial(F(2, 3), 1, 2).coeffs == (1, F(2, 3), 0, 0, 0)
        assert QSeries.binomial(-1, 4, 2) == QSeries([1, 0, 0, 0, -1], 2)
        assert QSeries.binomial(x, 4, 2).coeffs == (one, zero, zero, zero, x)
        assert QSeries.binomial(F(2, 3), 5, 2) == QSeries.one(2)
        assert QSeries.binomial(x, 5, 2) == QSeries.one(2, SPEC)
        for c in (F(2, 3), 3, x):
            for half_exp in (0, -1, -4):
                with pytest.raises(UsageError):
                    QSeries.binomial(c, half_exp, 2)

    def test_accepted_coefficients(self):
        assert QSeries([1, F(1, 2)], 1).coeffs == (1, F(1, 2), 0)
        x = gens()[0]
        assert QSeries([x], 1, SPEC).coeffs == (x, GradedPoly.zero(SPEC), GradedPoly.zero(SPEC))


class TestFusedKernel:
    """`sum_of_products` and the q-series paths built on it, against the
    per-term reference loops of conftest."""

    ORDER = 3

    @staticmethod
    def has_fraction(series):
        return any(c.denominator != 1 for p in series.coeffs for _, c in p.iter_terms())

    def test_sum_of_products(self, rng):
        # a pair's second factor is a ring element, a Fraction or an int
        for _ in range(50):
            pairs = [(random_poly(rng, SPEC), rng.choice([random_poly(rng, SPEC),
                                                          random_fraction(rng), rng.randint(-3, 3)]))
                     for _ in range(rng.randint(0, 5))]
            scale = random_fraction(rng)
            expected = GradedPoly.zero(SPEC)
            for a, b in pairs:
                expected = expected + a * b
            assert sum_of_products(SPEC, pairs, scale) == expected * scale
        x = gens()[0]
        assert sum_of_products(SPEC, [(x, 0), (x * x, F(2, 3)), (x, F(0))]) == x * x * F(2, 3)
        # a float or a bool is not an exact scalar; a pair from another ring is refused
        for bad in (0.5, True):
            with pytest.raises(UsageError):
                sum_of_products(SPEC, [(x, bad)])
        other = GradedPoly.generator(RingSpec(gens=(("y", 2),), cap=4), "y")
        for pairs in ([(x, other)], [(other, x)], [(other, 2)], [(x, 1), (other, F(1, 3))]):
            with pytest.raises(UsageError):
                sum_of_products(SPEC, pairs)

    def test_windowed_sum_of_products(self, rng):
        # the window lo..hi keeps those degrees of the full sum, and no other;
        # an empty window (lo > hi, or lo above the cap) gives zero
        for _ in range(50):
            pairs = [(random_poly(rng, SPEC, 6), rng.choice([random_poly(rng, SPEC, 6),
                                                             random_fraction(rng)]))
                     for _ in range(rng.randint(1, 4))]
            scale = random_fraction(rng)
            full = sum_of_products(SPEC, pairs, scale)
            lo, hi = rng.randint(-2, SPEC.cap + 2), rng.randint(-2, SPEC.cap + 4)
            expected = GradedPoly.zero(SPEC)
            for d in range(lo, hi + 1):
                expected = expected + full.degree_part(d)
            assert sum_of_products(SPEC, pairs, scale, lo=lo, hi=hi) == expected
        assert sum_of_products(SPEC, pairs, scale, hi=SPEC.cap) == full

    def test_poly_mul_part(self, rng):
        # every degree, odd ones (empty) and those above the cap or below 0 included
        for _ in range(30):
            a, b = random_poly(rng, SPEC, 6), random_poly(rng, SPEC, 6)
            for d in range(-2, SPEC.cap + 4):
                assert a.mul_part(b, d) == (a * b).degree_part(d)
        with pytest.raises(UsageError):
            a.mul_part(GradedPoly.one(RingSpec(gens=(("y", 2),), cap=4)), 2)

    def test_series_mul_window(self, rng):
        n = self.ORDER
        for _ in range(10):
            a, b = random_ring_series(rng, SPEC, n), random_ring_series(rng, SPEC, n)
            r, p = random_rational_series(rng, n), random_poly(rng, SPEC, 6)
            for x, y in [(a, b), (a, r), (r, b), (a, p), (r, p)]:
                whole = x * y
                for d in range(-2, SPEC.cap + 4):
                    assert x.mul_window(y, d, d) == whole.degree_slice(d)
                lo, hi = rng.randint(-2, SPEC.cap + 2), rng.randint(-2, SPEC.cap + 4)
                window = QSeries.one(n, SPEC).scale(0)
                for d in range(lo, hi + 1):
                    window = window + whole.degree_slice(d)
                assert x.mul_window(y, lo, hi) == window
                assert x.mul_window(y) == whole and x.mul_window(y, hi=SPEC.cap) == whole
        with pytest.raises(UsageError, match="degree slice needs ring coefficients"):
            r.mul_window(r, 0, 0)
        with pytest.raises(UsageError, match="truncation orders differ"):
            a.mul_window(random_ring_series(rng, SPEC, n + 1), 0, 0)

    def test_product(self, rng):
        n = self.ORDER
        for _ in range(20):
            a, b = random_ring_series(rng, SPEC, n), random_ring_series(rng, SPEC, n)
            assert self.has_fraction(a)
            r = random_rational_series(rng, n)
            sparse = random_sparse_series(rng, SPEC, n)
            for x, y in [(a, b), (a, a), (a, r), (r, b), (sparse, a), (b, sparse)]:
                assert x * y == reference_product(x, y)

    def test_quotient(self, rng):
        n = self.ORDER
        one = GradedPoly.one(SPEC)
        for _ in range(20):
            a = random_ring_series(rng, SPEC, n)
            tail = list(random_ring_series(rng, SPEC, n).coeffs[1:])
            unit = QSeries([one] + tail, n, SPEC)
            near_unit = QSeries([one + random_nilpotent(rng, SPEC)] + tail, n, SPEC)
            non_unit = QSeries([one * F(rng.choice([-3, 2, 5]), rng.randint(1, 4))
                                + random_nilpotent(rng, SPEC)] + tail, n, SPEC)
            r = random_rational_series(rng, n)
            rational = QSeries([F(rng.choice([-2, 3]), 7)] + list(r.coeffs[1:]), n)
            for x, y in [(a, unit), (a, near_unit), (a, non_unit), (a, rational), (r, non_unit),
                         (rational, rational)]:
                assert x / y == reference_quotient(x, y)

    def test_exp_and_log(self, rng):
        n = self.ORDER
        one = GradedPoly.one(SPEC)
        for _ in range(10):
            tail = list(random_ring_series(rng, SPEC, n).coeffs[1:])
            lg = QSeries([random_nilpotent(rng, SPEC)] + tail, n, SPEC)
            assert lg.exp() == reference_exp(lg)
            f = QSeries([one + random_nilpotent(rng, SPEC)] + tail, n, SPEC)
            assert f.log() == reference_log(f)
            assert f.log().exp() == f


class TestRationalStore:
    """Rational series hold integer numerators over one common denominator."""

    def test_normal_form(self, rng):
        for _ in range(50):
            a, b = random_rational_series(rng, 3), random_rational_series(rng, 3)
            built = [a, b, a * b, a + b, a - b, -a, a.scale(random_fraction(rng)), a.shift(2),
                     a.powi(3), QSeries.binomial(random_fraction(rng), 3, 3), a - a]
            if b.coeffs[0] != 0:
                built.append(a / b)
            for s in built:
                assert s._den > 0
                assert math.gcd(s._den, *s._nums) == 1
                assert s.coeffs == tuple(F(n, s._den) for n in s._nums)

    def test_equal_series_built_two_ways(self, rng):
        x = QSeries([F(1, 2), F(1, 3), 0, F(-5, 6)], 2)
        y = QSeries([3, 2, 0, -5], 2).scale(F(1, 6))
        assert x == y and hash(x) == hash(y)
        geometric = QSeries([1, 0, -1], 3).inv()
        assert geometric == QSeries([1, 0, 1, 0, 1, 0, 1], 3)
        for _ in range(20):
            a, b = random_rational_series(rng, 3), random_rational_series(rng, 3)
            lhs, rhs = (a + b) * (a - b), a * a - b * b
            assert lhs == rhs and hash(lhs) == hash(rhs)
            assert a.powi(3) == a * a * a and hash(a.powi(3)) == hash(a * a * a)

    def test_rational_and_ring_series_hash_alike(self, rng):
        # a rational series equals its image in a ring, so the two hash alike
        a = QSeries([1], 2)
        assert a == a.to_ring(SPEC) and hash(a) == hash(a.to_ring(SPEC))
        assert len({a, a.to_ring(SPEC)}) == 1
        for _ in range(20):
            r = random_rational_series(rng, 3)
            ring = r.to_ring(SPEC)
            assert r == ring and ring == r and hash(r) == hash(ring)
            bumped = ring + QSeries.from_poly(gens()[0], 3)
            assert bumped != r and r != bumped

    def test_coefficients_are_exact(self, rng):
        s = QSeries([F(1, 3), F(2, 3), F(1, 6)], 1)
        assert s.coeffs == (F(1, 3), F(2, 3), F(1, 6))
        assert all(type(c) is F for c in s.coeffs)
        assert s.scale(6).coeffs == (2, 4, 1)
        for _ in range(20):
            a, b = random_rational_series(rng, 3), random_rational_series(rng, 3)
            assert (a * b).coeffs == reference_product(a, b).coeffs
            if b.coeffs[0] != 0:
                assert (a / b).coeffs == reference_quotient(a, b).coeffs

    def test_jacobi_identity_at_order_200(self):
        assert jacobi_identity_check(200).is_zero()
        assert not jacobi_identity_check(200, perturb=True).is_zero()


class TestApplySeries:
    def test_exp_at_zero(self):
        assert apply_series(taylor_exp(5), GradedPoly.zero(SPEC)) == GradedPoly.one(SPEC)

    def test_two_cosh_half(self):
        v1 = gens()[2]
        p = apply_series(taylor_cosh_half(5), v1) * 2
        assert p.coefficient((0, 0, 0)) == 2
        assert p.coefficient((0, 0, 2)) == F(1, 4)
        assert p.coefficient((0, 0, 4)) == F(1, 192)

    def test_nonzero_constant_rejected(self):
        with pytest.raises(UsageError):
            apply_series(taylor_exp(5), GradedPoly.one(SPEC))

    def test_too_few_terms_rejected(self):
        with pytest.raises(UsageError):
            apply_series([F(1)], gens()[0])


class TestAccumulateSites:
    """Each ring-valued sum the engine forms through one `sum_of_products`, and
    `ideal_reduce`'s rename of one generator, against its per-term reference
    loop in conftest."""

    P = RingSpec(gens=(("p1", 4), ("p2", 8), ("q1", 4)), cap=12)

    def test_apply_series(self, rng):
        for _ in range(40):
            x = random_nilpotent(rng, SPEC, rng.randint(0, 4))
            coeffs = [rng.choice([0, 1, -1, random_fraction(rng)]) for _ in range(SPEC.cap + 1)]
            assert apply_series(coeffs, x) == reference_apply_series(coeffs, x)

    def test_power_sums(self, rng):
        for _ in range(20):
            elementary = [random_poly(rng, self.P) for _ in range(rng.randint(1, 4))]
            n_max = rng.randint(1, 5)
            assert power_sums(elementary, n_max) == reference_power_sums(elementary, n_max)

    @pytest.mark.parametrize("position", [0, 1, 2])
    def test_ideal_reduce(self, rng, position):
        # the renamed generator g at each key position, p carrying g^0 .. g^3;
        # the reference reduces modulo the relation g - b by substitution
        others = [("a", 2), ("b", 4)]
        spec = RingSpec(gens=tuple(others[:position] + [("g", 4)] + others[position:]), cap=12)
        g, b = GradedPoly.generator(spec, "g"), GradedPoly.generator(spec, "b")
        for _ in range(20):
            p = random_poly(rng, spec, terms=6, max_exp=3) + g ** 3 * random_fraction(rng)
            got = ideal_reduce(p, "g", "b")
            assert got == reference_ideal_reduce(p, g - b, "g")
            assert all(exps[position] == 0 for exps, _ in got.iter_terms())

    def random_even_factor(self, rng):
        """1 + an even nilpotent polynomial in the one root w, cap 8."""
        w = GradedPoly.generator(one_root_ring(8), "w")
        return 1 + w * w * random_fraction(rng) + w ** 4 * random_fraction(rng)

    def test_family_sum_and_rows_that_repeat_a_family(self, rng):
        spec = RingSpec(gens=self.P.gens, cap=8)
        p1, p2, q1 = gens(spec)
        sums_tm = power_sums([p1, p2], 2)
        sums_v = power_sums([q1], 2)
        ring = one_root_ring(8)
        for _ in range(10):
            f = self.random_even_factor(rng) - 1
            parts = _even_parts(QSeries.from_poly(f, 0))
            one_wide = [(parts, sums_tm, 1)]
            assert _over_families(one_wide, 1) == reference_over_families(one_wide, 1)
            rows = [(self.random_even_factor(rng), sums_tm, rng.randint(-2, 2)),
                    (QSeries([self.random_even_factor(rng)]
                             + [self.random_even_factor(rng) - 1 for _ in range(4)], 2, ring),
                     sums_tm, rng.randint(-2, 2)),
                    (self.random_even_factor(rng), sums_v, rng.randint(-2, 2)),
                    (self.random_even_factor(rng), sums_tm, rng.randint(-2, 2))]
            terms = [(_log_parts(f), s, e) for f, s, e in rows]
            want = reference_over_families(terms, 5)
            assert _over_families(terms, 5) == want
            assert symmetrise(terms, 2) == QSeries(want, 2, spec).exp()


class TestIntegerAssembly:
    """`_over_families` merges each family's rows into integer weights and adds
    them into one bucket dict per half-index.  It must equal the per-term
    Fraction reference, and `symmetrise` that followed by `exp`."""

    P = RingSpec(gens=(("u", 2), ("p1", 4), ("p2", 8)), cap=8)

    def families(self):
        u, p1, p2 = gens(self.P)
        return (power_sums([p1, p2], 2), power_sums([u * u], 2),
                power_sums([p1 * F(1, 6), p2 * F(-2, 15)], 2))   # denominators above 1

    @staticmethod
    def random_parts(rng, width):
        """Rows n = 1, 2 of fractions with mixed denominators, some zero, under a zero row 0."""
        rows = [[F(0)] * width]
        for _ in range(2):
            rows.append([random_fraction(rng, rng.choice((3, 10, 40))) if rng.random() < 0.7
                         else F(0) for _ in range(width)])
        return log_parts_of(rows)

    def random_terms(self, rng, width):
        """One-wide and full-width rows, two rows on the first family, a row with e = 0."""
        fams = self.families()
        terms = [(self.random_parts(rng, width), fams[0], rng.choice((-2, -1, 1, 3))),
                 (self.random_parts(rng, 1), fams[0], rng.choice((-1, 2))),
                 (self.random_parts(rng, width), fams[2], rng.choice((-1, 1, 2))),
                 (self.random_parts(rng, width), fams[1], 0)]
        terms += [(self.random_parts(rng, rng.choice((1, width))), rng.choice(fams),
                   rng.randint(-2, 2)) for _ in range(rng.randint(0, 3))]
        rng.shuffle(terms)
        return terms

    @pytest.mark.parametrize("order", [0, 1, 3])
    def test_equals_reference_then_add_then_exp(self, rng, order):
        width = 2 * order + 1
        for _ in range(6):
            terms = self.random_terms(rng, width)
            logs = QSeries(reference_over_families(terms, width), order, self.P)
            assert _over_families(terms, width) == list(logs.coeffs)
            assert symmetrise(terms, order) == logs.exp()

    def test_equal_tables_compare_equal(self):
        # a table is held over the least denominator, however it was given
        table = LogParts(12, [[0, 6], [4, -8]])
        assert (table.den, table.nums) == (6, ((0, 3), (2, -4)))
        assert table == LogParts(6, ((0, 3), (2, -4)))
        assert hash(table) == hash(LogParts(18, [[0, 9], [6, -12]]))
        assert fraction_rows(table) == ((0, F(1, 2)), (F(1, 3), F(-2, 3)))
        # the same series' log, its coefficients held over other denominators
        w = GradedPoly.generator(one_root_ring(8), "w")
        f = 1 + w * w * F(1, 3) + w ** 4 * F(1, 5)
        assert _log_parts(f) == _log_parts(QSeries.from_poly(f * 6, 0).scale(F(1, 6)))

    def test_refusals(self, rng):
        sums = self.families()[0]
        parts = self.random_parts(rng, 3)
        with pytest.raises(UsageError):     # another cap: one power sum short
            _over_families([(parts, sums[:1], 1)], 3)
        with pytest.raises(UsageError):     # another q-order: 3 wide in a sum 5 wide
            _over_families([(parts, sums, 1)], 5)
        with pytest.raises(UsageError):     # nonzero parts[0], even at e = 0
            bad = log_parts_of([[F(1, 2), 0, 0], *fraction_rows(parts)[1:]])
            _over_families([(bad, sums, 0)], 3)
        with pytest.raises(UsageError):     # plain rows, not a LogParts table
            _over_families([(fraction_rows(parts), sums, 1)], 3)
        other = power_sums(gens(RingSpec(gens=(("p1", 4), ("p2", 8)), cap=8)), 2)
        with pytest.raises(UsageError):     # power sums of two rings
            _over_families([(parts, sums, 1), (parts, other, 1)], 3)


class TestSymmetriseRows:
    """Polynomial rows and q-series rows go through one exp."""

    P = RingSpec(gens=(("p1", 4), ("p2", 8)), cap=8)

    def rows(self):
        w = GradedPoly.generator(one_root_ring(8), "w")
        sums = power_sums(gens(self.P), 2)
        series = QSeries([cosh_half_root(8), w * w, w ** 4 * F(1, 3)], 1, w.spec)
        return (_log_parts(cosh_half_root(8)), sums, 2), (_log_parts(series), sums, -1)

    def test_one_exp_is_the_product_of_the_parts(self):
        poly_row, series_row = self.rows()
        got = symmetrise([poly_row, series_row], 1)
        assert got == symmetrise([poly_row], 0).coeffs[0] * symmetrise([series_row], 1)

    def test_a_rational_series_is_refused_after_an_equal_ring_series(self):
        # a ring series of constants equals the rational series of them and
        # hashes alike; logging the one must not make the other loggable
        ring_one = QSeries.one(2, one_root_ring(8))
        assert ring_one == QSeries.one(2) and hash(ring_one) == hash(QSeries.one(2))
        _log_parts(ring_one)
        with pytest.raises(UsageError):
            _log_parts(QSeries.one(2))

    def test_orders_must_agree(self):
        poly_row, series_row = self.rows()
        with pytest.raises(UsageError):
            symmetrise([series_row, (_log_parts(QSeries.one(2, one_root_ring(8))),
                                     series_row[1], 1)], 1)
        with pytest.raises(UsageError):
            symmetrise([poly_row, series_row], 0)   # a q-series row needs its order


class TestPontryagin:
    def test_power_sum_is_p1(self):
        w1, w2, _ = gens()
        pp = pontryagin_all(w1 ** 2 + w2 ** 2, [("TM", ["w1", "w2"])])
        assert str(pp) == "p1(TM)"

    def test_constant_passthrough(self):
        pp = pontryagin_all(GradedPoly.one(SPEC), [("TM", ["w1", "w2"])])
        assert str(pp) == "1"

    def test_degree8_genus_coefficients(self):
        # independent oracle: literal per-root Taylor data (exponent -> value)
        # multiplied by hand; (w/2)/sinh(w/2) = 1 - w^2/24 + 7w^4/5760 + ...
        taylor = {0: F(1), 2: F(-1, 24), 4: F(7, 5760)}
        by_hand = {}
        for e1, c1 in taylor.items():
            for e2, c2 in taylor.items():
                if 2 * (e1 + e2) <= 8:
                    key = (e1, e2, 0)
                    by_hand[key] = by_hand.get(key, F(0)) + c1 * c2
        oracle = GradedPoly.from_terms(SPEC, by_hand).degree_part(8)

        per_root = taylor_sinh_half_over_half(5)
        w1, w2, _ = gens()
        engine = (apply_series(per_root, w1).inv()
                  * apply_series(per_root, w2).inv()).degree_part(8)
        assert engine == oracle

        expanded = pontryagin_all(engine, [("TM", ["w1", "w2"])])
        p1_sq = expanded.spec.index("p1(TM)")
        p2 = expanded.spec.index("p2(TM)")
        exps = [0] * len(expanded.spec.gens)
        exps[p1_sq] = 2
        assert expanded.coefficient(exps) == F(7, 5760)
        exps = [0] * len(expanded.spec.gens)
        exps[p2] = 1
        assert expanded.coefficient(exps) == F(-4, 5760)

    def test_non_symmetric_rejected(self):
        w1 = gens()[0]
        with pytest.raises(SymmetryError):
            pontryagin_all(w1 ** 2, [("TM", ["w1", "w2"])])
        with pytest.raises(SymmetryError):
            pontryagin_all(w1, [("TM", ["w1", "w2"])])


class TestElimination:
    """pontryagin_all over two root families and a passthrough Euler root."""

    SPEC = RingSpec(gens=(("u", 2), ("w1", 2), ("w2", 2), ("v1", 2), ("v2", 2)), cap=12)
    TARGET = RingSpec(gens=(("u", 2), ("p1(TM)", 4), ("p2(TM)", 8),
                            ("p1(V)", 4), ("p2(V)", 8)), cap=12)
    FAMILIES = [("TM", ("w1", "w2")), ("V", ("v1", "v2"))]

    def elementary(self):
        """u, then e_1, e_2 of each family's squared roots, in TARGET's order."""
        u, w1, w2, v1, v2 = gens(self.SPEC)
        return [u, w1 ** 2 + w2 ** 2, w1 ** 2 * w2 ** 2, v1 ** 2 + v2 ** 2, v1 ** 2 * v2 ** 2]

    def test_known_value(self):
        u, e1, e2, f1, _ = self.elementary()
        p = u * u * e1 * e1 - e2 * 3 + e1 * f1 * F(1, 2)
        pp = pontryagin_all(p, self.FAMILIES)
        assert pp.spec == self.TARGET
        assert str(pp) == "-3*p2(TM) + 1/2*p1(TM)*p1(V) + u^2*p1(TM)^2"

    def test_random_symmetric_round_trip(self, rng):
        images = self.elementary()
        for _ in range(100):
            want = random_poly(rng, self.TARGET, terms=5, max_exp=2)
            p = GradedPoly.zero(self.SPEC)
            for exps, coeff in want.iter_terms():
                term = GradedPoly.constant(self.SPEC, coeff)
                for image, e in zip(images, exps):
                    term = term * image ** e
                p = p + term
            pp = pontryagin_all(p, self.FAMILIES)
            assert pp == want
            assert _expand(pp, p.spec, self.FAMILIES) == p

    def test_non_symmetric_rejected(self):
        u, w1, w2, v1, v2 = gens(self.SPEC)
        with pytest.raises(SymmetryError):
            pontryagin_all(u * w1 * (v1 ** 2), self.FAMILIES)        # odd power
        with pytest.raises(SymmetryError):
            pontryagin_all(u * v2 ** 2, self.FAMILIES)               # not a partition
        # x1^2 x2 + x1 in the squared roots x: the leading monomial is a
        # partition, but x1 x2^2 is left after subtracting p1 p2
        with pytest.raises(SymmetryError):
            pontryagin_all(w1 ** 4 * w2 ** 2 + w1 ** 2, self.FAMILIES)

    def test_root_of_wrong_degree_rejected(self):
        spec = RingSpec(gens=(("w1", 2), ("p1", 4)), cap=8)
        with pytest.raises(UsageError):
            pontryagin_all(GradedPoly.one(spec), [("TM", ("w1", "p1"))])


PSPEC = RingSpec(gens=(("u", 2), ("p1(TM)", 4), ("p2(TM)", 8), ("p1(V)", 4)), cap=8)


class TestIdealReduce:
    """Reduction modulo p1(TM) - p1(V), the relation the verifier uses."""

    def test_generator_reduces_to_zero(self):
        _, p1, _, q1 = gens(PSPEC)
        assert ideal_reduce(p1 - q1, "p1(TM)", "p1(V)").is_zero

    def test_linear_relation(self):
        # p1(TM) - p1(V) in a Pontryagin ring: p1(TM) is replaced by p1(V)
        u, p1, p2, q1 = gens(PSPEC)
        assert ideal_reduce(p1 * p1 * 3 - p2 + u * p1, "p1(TM)", "p1(V)") \
            == q1 * q1 * 3 - p2 + u * q1
        assert ideal_reduce(p1 * q1 * F(2, 3) + 1, "p1(TM)", "p1(V)") == q1 * q1 * F(2, 3) + 1
        assert ideal_reduce(p1 * 2 - q1 * 2, "p1(V)", "p1(TM)").is_zero

    def test_malformed_relation(self):
        # leading - image is a relation only between two distinct known
        # generators of one degree
        p1 = gens(PSPEC)[1]
        with pytest.raises(UsageError, match="unknown generator 'p3"):
            ideal_reduce(p1, "p3(TM)", "p1(V)")
        with pytest.raises(UsageError, match="unknown generator 'p3"):
            ideal_reduce(p1, "p1(TM)", "p3(V)")
        with pytest.raises(UsageError, match="modulo itself"):
            ideal_reduce(p1, "p1(TM)", "p1(TM)")
        with pytest.raises(UsageError, match="different degrees"):
            ideal_reduce(p1, "p2(TM)", "p1(V)")
        with pytest.raises(UsageError, match="different degrees"):
            ideal_reduce(p1, "u", "p1(TM)")


class TestProperties:
    """Randomized suites; counts match the acceptance requirement."""

    N_CASES = 200

    def test_ring_axioms(self, rng):
        for _ in range(self.N_CASES):
            a = random_poly(rng, SPEC)
            b = random_poly(rng, SPEC)
            c = random_poly(rng, SPEC)
            assert a + b == b + a
            assert a * b == b * a
            assert (a + b) + c == a + (b + c)
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c

    def test_series_ring_axioms(self, rng):
        for _ in range(self.N_CASES):
            a = random_rational_series(rng, 3)
            b = random_rational_series(rng, 3)
            c = random_rational_series(rng, 3)
            assert (a + b) * c == a * c + b * c
            assert (a * b) * c == a * (b * c)

    def test_truncation_coherence(self, rng):
        for _ in range(self.N_CASES):
            n = rng.randint(2, 5)
            m = rng.randint(1, n)
            a = random_rational_series(rng, n)
            b = random_rational_series(rng, n)
            assert truncate(a * b, m) == truncate(a, m) * truncate(b, m)
            assert truncate(a + b, m) == truncate(a, m) + truncate(b, m)
            e = rng.randint(0, 4)
            assert truncate(a.powi(e), m) == truncate(a, m).powi(e)
            if a.coeffs[0] != 0:
                assert truncate(a.inv(), m) == truncate(a, m).inv()
                assert truncate(a.powi(-2), m) == truncate(a, m).powi(-2)

    def test_exp_inverse_pair(self, rng):
        one = GradedPoly.one(SPEC)
        for _ in range(self.N_CASES):
            x = random_nilpotent(rng, SPEC)
            e_plus = apply_series(taylor_exp(5), x)
            e_minus = apply_series(taylor_exp(5), -x)
            assert e_plus * e_minus == one

    def test_pontryagin_round_trip(self, rng):
        w1, w2, v1 = gens()
        e1 = w1 ** 2 + w2 ** 2
        e2 = w1 ** 2 * w2 ** 2
        for _ in range(self.N_CASES):
            p = (e1 * random_fraction_poly(rng, v1)
                 + e2 * random_fraction_poly(rng, v1))
            families = [("TM", ("w1", "w2"))]
            assert _expand(pontryagin_all(p, families), p.spec, families) == p

    def test_ideal_reduce_is_idempotent_homomorphism(self, rng):
        def reduce(x):
            return ideal_reduce(x, "p1(TM)", "p1(V)")

        for _ in range(self.N_CASES):
            p = random_poly(rng, PSPEC)
            q = random_poly(rng, PSPEC)
            rp = reduce(p)
            assert reduce(rp) == rp
            lhs = reduce(p * q)
            rhs = reduce(reduce(p) * reduce(q))
            assert lhs == rhs


def random_fraction_poly(rng, v1):
    from conftest import random_fraction
    return GradedPoly.constant(v1.spec, random_fraction(rng)) + v1 * random_fraction(rng)
