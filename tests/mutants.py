"""A catalogue of mutants the tier-1 tests must kill, and its runner.

Usage (from the repository root):

    python3 tests/mutants.py              # every mutant
    python3 tests/mutants.py NAME ...     # the named mutants only

Each entry changes one exact snippet of one source file.  The runner copies
`src/`, `tests/`, `pyproject.toml`, `README.md` (a test reads its grid table)
and the CI workflow (a test reads its steps) to a temporary directory and requires
the unmutated copy to pass the union of the entries' test subsets.  Then, one
mutant at a time, it replaces the snippet in the copy, requires `pytest -x`
over the entry's subset (all of tier-1 when it has none) to fail, and puts
the file back.  An entry whose snippet does not occur exactly once is refused, so a
refactor that moves the code must update the catalogue rather than silently
drop a mutant.  A mutant is killed when pytest exits 1, with a failing test;
the exit code is 1 if an entry was refused or a mutant was not killed.

A surviving mutant is reported, not deleted: mend it with a test, or with a
stated argument that it is equivalent to the program.

This file is not a test module: pytest does not collect it.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    file: str                     # relative to the repository root
    snippet: str                  # must occur exactly once in the file
    replacement: str
    tests: tuple[str, ...] = ()   # pytest paths or node ids; () runs all of tier-1


def _key_without(position: int, name: str) -> str:
    """Source for `name`'s cache, keyed on its arguments without the one at
    `position`: the first build for a key serves every value of that argument."""
    return f"""def _key_drop(fn):
    memo = {{}}

    def cached(*args):
        key = args[:{position}] + args[{position} + 1:]
        if key not in memo:
            memo[key] = fn(*args)
        return memo[key]

    cached.cache_clear = memo.clear
    return cached


@_key_drop
def {name}("""


CATALOGUE = (
    # the BUNDLE route's closed-form exterior log (caught by THETA's literal products)
    Mutant("exterior-log-sign-power", "src/anomcancel/bundles.py",
           "c = 2 * (-1) ** (m + 1) * sign ** m", "c = 2 * (-1) ** (m + 1) * sign",
           ("tests/test_symmetrise.py", "tests/test_bundles.py")),
    Mutant("exterior-log-adams-power", "src/anomcancel/bundles.py",
           "c * m ** (2 * n - 1)", "c * m ** (2 * n)",
           ("tests/test_symmetrise.py", "tests/test_bundles.py")),
    # the THETA route's Jacobi product at x and 1/x (ring elements: series products)
    Mutant("theta-product-x-for-x-inv", "src/anomcancel/theta.py",
           "QSeries.binomial(x_inv * sign, h, order)", "QSeries.binomial(x * sign, h, order)",
           ("tests/test_theta.py", "tests/test_bundles.py")),
    # the same product at integer x = x_inv (the theta constants: in-place shift-adds)
    Mutant("theta-constant-bottom-up", "src/anomcancel/theta.py",
           "for n in range(2 * order, s - 1, -1):", "for n in range(s, 2 * order + 1):",
           ("tests/test_theta.py::TestThetaConstantsOracle",)),
    Mutant("theta-constant-skips-lowest-shift", "src/anomcancel/theta.py",
           "range(2 * order, s - 1, -1)", "range(2 * order, s, -1)",
           ("tests/test_theta.py::TestThetaConstantsOracle",)),
    Mutant("theta-constant-eta-factor-dropped", "src/anomcancel/theta.py",
           "((-1, 2 * j), (sign * x, h), (sign * x_inv, h))", "((sign * x, h), (sign * x_inv, h))",
           ("tests/test_theta.py::TestThetaConstantsOracle",)),
    # the literal A-hat and cosh series THETA multiplies in (BUNDLE reads their
    # logs off closed forms): only DOUBLE_ROUTE compares the two
    Mutant("taylor-sinh-half-w2-doubled", "src/anomcancel/algebra.py",
           "Fraction((n + 1) % 2, 2 ** n * math.factorial(n + 1))",
           "Fraction((n + 1) % 2 * (2 if n == 2 else 1), 2 ** n * math.factorial(n + 1))",
           ("tests/test_verifier.py::TestSingleCases::test_double_route",)),
    Mutant("taylor-cosh-half-w2-doubled", "src/anomcancel/algebra.py",
           "Fraction((n + 1) % 2, 2 ** n * math.factorial(n))",
           "Fraction((n + 1) % 2 * (2 if n == 2 else 1), 2 ** n * math.factorial(n))",
           ("tests/test_verifier.py::TestSingleCases::test_double_route",)),
    # COR32's constant 2^(a l - 3)
    Mutant("cor32-constant", "src/anomcancel/verifier.py",
           "const = _two_pow(a * l - 3)", "const = _two_pow(a * l - 2)",
           ("tests/test_verifier.py",)),
    # the terms of BUNDLE's z = p1_combo, which its lead forms' E2 rows run over;
    # THETA writes its own z, so DOUBLE_ROUTE alone sees them
    Mutant("e2-row-v-twist", "src/anomcancel/bundles.py",
           '("V", -(spec.a + 2 * spec.b))', '("V", -(spec.a + spec.b))',
           ("tests/test_verifier.py::TestSingleCases::test_double_route",)),
    Mutant("e2-row-last-pair-dropped", "src/anomcancel/bundles.py",
           'return ("u", 1), ("u\'", -1)', 'return (("u", 1),)',
           ("tests/test_verifier.py::TestSingleCases::test_double_route",)),
    # the integer log assembly of `symmetrise`
    Mutant("assembly-row-weight-denominator", "src/anomcancel/algebra.py",
           "m = e * (den // parts.den)", "m = e",
           ("tests/test_algebra.py",)),
    Mutant("assembly-power-sum-denominator", "src/anomcancel/algebra.py",
           "m = top // (den * s._den)", "m = top // den",
           ("tests/test_algebra.py",)),
    Mutant("assembly-later-family-row-dropped", "src/anomcancel/algebra.py",
           "families.setdefault(id(sums), (sums, []))[1].append((parts, e))",
           "families.setdefault(id(sums), (sums, [(parts, e)]))",
           ("tests/test_algebra.py",)),
    # the degree window of the ring-product kernel, and the degrees it is read at
    Mutant("window-lower-bound-ignored", "src/anomcancel/algebra.py",
           "if d > hi or d < lo:", "if d > hi:",
           ("tests/test_algebra.py",)),
    Mutant("window-upper-bound-ignored", "src/anomcancel/algebra.py",
           "hi = spec.cap if hi is None else min(hi, spec.cap)", "hi = spec.cap",
           ("tests/test_algebra.py",)),
    Mutant("beta-r-read-at-top-degree", "src/anomcancel/decomp.py",
           "spec, order, degree=4 * spec.k - 4)", "spec, order, degree=4 * spec.k)",
           ("tests/test_decomp.py",)),
    Mutant("fused-decompose-basis-sign", "src/anomcancel/decomp.py",
           "[(h[r], -basis[r][m]) for r in range(m)]", "[(h[r], basis[r][m]) for r in range(m)]",
           ("tests/test_decomp.py",)),
    # the one builder of a case request, from flags or a suite entry
    Mutant("request-tolerance-to-every-case", "src/anomcancel/cli.py",
           "tolerance=tolerance if case is CaseId.NUMERIC_MODULARITY else None",
           "tolerance=tolerance",
           ("tests/test_cli.py",)),
    Mutant("request-geometry-refusal-dropped", "src/anomcancel/cli.py",
           "if given and not families:", "if False:",
           ("tests/test_cli.py",)),
    # the import-time heap, frozen for the length of a command-line run
    Mutant("cli-heap-not-frozen", "src/anomcancel/cli.py",
           "    gc.freeze()\n", "",
           ("tests/test_cli.py::TestFrozenHeap",)),
    # the q-order bound, refused before any arithmetic
    Mutant("q-order-bound-dropped", "src/anomcancel/verifier.py",
           "if q is not None and q > MAX_Q_ORDER:", "if False:",
           ("tests/test_verifier.py", "tests/test_cli.py")),
    # the frozen value records: hash, equality, replace and assignment
    Mutant("record-hash-drops-last-field", "src/anomcancel/records.py",
           '_set(self, "_record_hash", hash(fields(self)))',
           '_set(self, "_record_hash", hash(fields(self)[:-1]))',
           ("tests/test_records.py",)),
    Mutant("record-eq-any-class", "src/anomcancel/records.py",
           "        if other.__class__ is not self.__class__:\n            return NotImplemented\n",
           "", ("tests/test_records.py",)),
    Mutant("record-replace-skips-post-init", "src/anomcancel/records.py",
           "    return type(obj)(**{**{name: getattr(obj, name) for name in obj.__record_fields__}, "
           "**changes})",
           "    new = object.__new__(type(obj))\n"
           "    for name in obj.__record_fields__:\n"
           "        _set(new, name, changes.get(name, getattr(obj, name)))\n"
           "    return new",
           ("tests/test_records.py",)),
    Mutant("record-setattr-assigns", "src/anomcancel/records.py",
           'raise AttributeError(f"cannot assign to or delete field {name!r}")',
           "_set(self, name, *value) if value else object.__delattr__(self, name)",
           ("tests/test_records.py",)),
    # canonical form and the equality contract
    Mutant("degree-part-not-normalised", "src/anomcancel/algebra.py",
           "return GradedPoly._make(self.spec, self._den, {deg: dict(b)})",
           "return GradedPoly(self.spec, self._den, {deg: dict(b)})",
           ("tests/test_algebra.py",)),
    Mutant("poly-equals-bool", "src/anomcancel/algebra.py",
           "if isinstance(other, (int, Fraction)) and not isinstance(other, bool):",
           "if isinstance(other, (int, Fraction)):",
           ("tests/test_algebra.py",)),
    Mutant("series-hash-keeps-ring", "src/anomcancel/algebra.py",
           "return hash((self.coeffs, self.order))", "return hash((self.coeffs, self.order, self.ring))",
           ("tests/test_algebra.py",)),
    Mutant("poly-constant-hash-keeps-ring", "src/anomcancel/algebra.py",
           "if not self._buckets.keys() - {0}:", "if False:",
           ("tests/test_algebra.py::TestGradedPoly::test_constants_hash_as_their_numbers",)),
    Mutant("log-parts-not-normalised", "src/anomcancel/algebra.py",
           "g = math.gcd(self.den, *(x for row in self.nums for x in row))", "g = 1",
           ("tests/test_algebra.py", "tests/test_symmetrise.py")),
    # the cache keys: the per-root tables on the factor and its small arguments,
    # the BUNDLE forms on every input they read: the ring, the rows and the order
    Mutant("root-table-key-without-order", "src/anomcancel/bundles.py",
           "@lru_cache(maxsize=None)\ndef _root_log(", _key_without(2, "_root_log"),
           ("tests/test_bundles.py",)),
    Mutant("root-table-key-without-kind", "src/anomcancel/bundles.py",
           "@lru_cache(maxsize=None)\ndef _root_log(", _key_without(0, "_root_log"),
           ("tests/test_bundles.py",)),
    Mutant("form-exp-key-without-order", "src/anomcancel/bundles.py",
           "@lru_cache(maxsize=None)\ndef _form_exp(", _key_without(2, "_form_exp"),
           ("tests/test_bundles.py",)),
    Mutant("form-exp-key-without-ring", "src/anomcancel/bundles.py",
           "@lru_cache(maxsize=None)\ndef _form_exp(", _key_without(0, "_form_exp"),
           ("tests/test_bundles.py",)),
    Mutant("bundle-rows-key-without-row", "src/anomcancel/bundles.py",
           "@lru_cache(maxsize=None)\ndef _bundle_rows(", _key_without(0, "_bundle_rows"),
           ("tests/test_bundles.py",)),
    Mutant("bundle-rows-key-without-a", "src/anomcancel/bundles.py",
           "@lru_cache(maxsize=None)\ndef _bundle_rows(", _key_without(1, "_bundle_rows"),
           ("tests/test_bundles.py",)),
    Mutant("bundle-rows-key-without-b", "src/anomcancel/bundles.py",
           "@lru_cache(maxsize=None)\ndef _bundle_rows(", _key_without(2, "_bundle_rows"),
           ("tests/test_bundles.py",)),
    # the packing bound on k, refused when the geometry is built
    Mutant("geometry-k-bound-off-by-one", "src/anomcancel/bundles.py",
           "if 2 * self.k > _MASK:", "if 2 * self.k > _MASK + 1:",
           ("tests/test_bundles.py", "tests/test_cli.py")),
    # the grid read off CASES: a block's twist pairs and its row's k pin; every
    # request is still built through CaseRequest, which refuses a k against its pin
    Mutant("grid-twist-pair-dropped", "src/anomcancel/verifier.py",
           "((1, 0), (2, 1))", "((1, 0),)",
           ("tests/test_verifier.py::TestSuite",)),
    Mutant("grid-k-pin-ignored", "src/anomcancel/verifier.py",
           'ks = (pins["k"],) if "k" in pins else (1, 2)', "ks = (1, 2)",
           ("tests/test_verifier.py::TestSuite::test_default_grid_shape",)),
    # the r = 1 bundle of the closed forms, as FamilyForms.twist terms
    Mutant("twist-ab-xi-xi-term", "src/anomcancel/bundles.py",
           '("u", 3, 1)', '("u", 2, 1)',
           ("tests/test_decomp.py::TestClosedForms",)),
    # the two routes sharing code: each computes the same value, so only the
    # route-independence tests tell them from the program.  THETA's tangent row
    # as A-hat over the inverse exterior block at t = -q^n; THETA's rows mapped to
    # tables by BUNDLE's `_symmetrise_rows`; BUNDLE's joint form as the exp of the
    # E2 rows its lead form reads
    Mutant("theta-rows-read-exterior-log", "src/anomcancel/bundles.py",
           "(_THETA_TANGENT_ROW,) + recipe",
           '(("TM", "ahat", 1), ("TM", ("int", -1), -1)) + recipe',
           ("tests/test_bundles.py::TestRouteIndependence",)),
    Mutant("theta-rows-via-bundle-map", "src/anomcancel/bundles.py",
           "res = symmetrise([(_root_log(factor, 4 * spec.k, order), spec.power_sums(roots), e)\n"
           "                      for roots, factor, e in rows], order)",
           "res = symmetrise(_symmetrise_rows(spec.ring(), tuple(rows), order), order)",
           ("tests/test_bundles.py::TestRouteIndependence",)),
    Mutant("bundle-joint-via-e2-exponent", "src/anomcancel/bundles.py",
           "factor = factor * p1_combo(spec) + QSeries.one(order, spec.ring())",
           'factor = _form_exp(spec.ring(), tuple((roots, ("E2", FAMILY_FORMS[spec.family]'
           '.e2_coefficient), e) for roots, e in _z_terms(spec)), order)',
           ("tests/test_bundles.py::TestRouteMutations",)),
    # THETA's recipe: one two-line row exponent, and its tangent row (DOUBLE_ROUTE sees both)
    Mutant("theta-two-line-row-exponent-flipped", "src/anomcancel/bundles.py",
           '("u", _T1, -2)', '("u", _T1, 2)',
           ("tests/test_bundles.py::TestRouteMutations",)),
    Mutant("theta-tangent-row-dropped", "src/anomcancel/bundles.py",
           "(_THETA_TANGENT_ROW,) + recipe", "recipe",
           ("tests/test_bundles.py::TestRouteMutations",)),
    # the E2 table both routes read, so DOUBLE_ROUTE cannot see it: its one row at
    # n = 2 instead of n = 1 (cut off at k = 1), against `e2_expm1_over_z`
    Mutant("e2-table-row-at-n-2", "src/anomcancel/bundles.py",
           "[[0] * len(e2), e2] + [[0] * len(e2)] * (cap // 4 - 1)",
           "([[0] * len(e2)] * 2 + [e2] + [[0] * len(e2)] * cap)[:cap // 4 + 1]",
           ("tests/test_bundles.py::TestQForms::test_e2_factor_times_inverse",)),
)


def _copy_tree(dest: Path) -> None:
    ignore = shutil.ignore_patterns("__pycache__", "*.pyc", "*.egg-info")
    for name in ("src", "tests"):
        shutil.copytree(ROOT / name, dest / name, ignore=ignore)
    for name in ("pyproject.toml", "README.md", ".github/workflows/tests.yml"):
        (dest / name).parent.mkdir(parents=True, exist_ok=True)
        shutil.copy2(ROOT / name, dest / name)


def _pytest(tree: Path, tests: tuple[str, ...]) -> int:
    env = {**os.environ, "PYTHONPATH": str(tree / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests]
    return subprocess.run(cmd, cwd=tree, env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.DEVNULL).returncode


def _subset(mutants) -> tuple[str, ...]:
    """The union of the mutants' subsets, or () for all of tier-1."""
    if any(not m.tests for m in mutants):
        return ()
    return tuple(sorted({t for m in mutants for t in m.tests}))


def main(argv: list[str]) -> int:
    names = {m.name for m in CATALOGUE}
    unknown = [n for n in argv if n not in names]
    if unknown:
        print("unknown mutants:", ", ".join(unknown), file=sys.stderr)
        return 2
    mutants = [m for m in CATALOGUE if not argv or m.name in argv]
    refused = [m.name for m in mutants
               if (ROOT / m.file).read_text(encoding="utf-8").count(m.snippet) != 1]
    for name in refused:
        print(f"REFUSED  {name}: its snippet does not occur exactly once")
    if refused:
        return 1
    survived = []
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        tree = Path(tmp)
        _copy_tree(tree)
        if _pytest(tree, _subset(mutants)) != 0:
            print("the unmutated tree fails its tests; no mutant was run")
            return 1
        for m in mutants:
            target = tree / m.file
            original = target.read_text(encoding="utf-8")
            target.write_text(original.replace(m.snippet, m.replacement), encoding="utf-8")
            start = time.perf_counter()
            code = _pytest(tree, m.tests)
            target.write_text(original, encoding="utf-8")
            # exit 1 is a failing test; any other code (an import or collection
            # error, no test run) shows nothing about the tests
            verdict = "killed" if code == 1 else "SURVIVED" if code == 0 else f"ERROR {code}"
            if verdict != "killed":
                survived.append(m.name)
            print(f"{verdict:<9}{m.name} ({time.perf_counter() - start:.1f} s)", flush=True)
    print(f"{len(mutants) - len(survived)} of {len(mutants)} mutants killed")
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
