"""Shared helpers: random ring elements and series, generator substitutions."""

import random
import sys
from fractions import Fraction
from typing import Iterable, Mapping

import pytest

from anomcancel.algebra import GradedPoly, QSeries, RingSpec


@pytest.fixture
def rng():
    return random.Random(20240317)


@pytest.fixture
def cold_caches():
    """Empty every lru_cache of the package, so the test rebuilds each series."""
    for name, module in list(sys.modules.items()):
        if name == "anomcancel" or name.startswith("anomcancel."):
            for obj in vars(module).values():
                if hasattr(obj, "cache_clear"):
                    obj.cache_clear()


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
    return QSeries.rational([random_fraction(rng) for _ in range(2 * order + 1)], order)


def random_ring_series(rng: random.Random, spec: RingSpec, order: int,
                       terms: int = 3) -> QSeries:
    return QSeries([random_poly(rng, spec, terms) for _ in range(2 * order + 1)],
                   order, spec)


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
