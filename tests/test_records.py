"""The frozen value records: each of the eight value classes behaves as a frozen
dataclass, and a command-line start imports neither `dataclasses` nor `inspect`."""

import pickle
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

from anomcancel.algebra import GradedPoly, LogParts, RingSpec
from anomcancel.bundles import FamilyForms, Family, GeometrySpec
from anomcancel.decomp import ClosedFormCheck
from anomcancel.errors import UsageError
from anomcancel.records import record, replace
from anomcancel.verifier import CaseId, CaseRequest, CaseRow, Report

RING = RingSpec(gens=(("u", 2), ("p1(TM)", 4)), cap=4)
ONE = GradedPoly.one(RING)

# (record, its dataclass repr, a change its __post_init__ refuses, or None)
RECORDS = [
    (RING, "RingSpec(gens=(('u', 2), ('p1(TM)', 4)), cap=4)", {"cap": 0}),
    (LogParts(2, ((0,), (1,))), "LogParts(den=2, nums=((0,), (1,)))", None),
    (FamilyForms(("Q1", "Q2", "br", "betar"), euler_roots=(), e2_coefficient=F(1, 24),
                 euler_cosh=((), ()), blocks=((), ()), theta=None, theta_z=None,
                 twist=(("V", 1, "b"), ("V", -1, "a")), printed_readings=True),
     "FamilyForms(names=('Q1', 'Q2', 'br', 'betar'), euler_roots=(), "
     "e2_coefficient=Fraction(1, 24), euler_cosh=((), ()), blocks=((), ()), theta=None, "
     "theta_z=None, twist=(('V', 1, 'b'), ('V', -1, 'a')), printed_readings=True)", None),
    (GeometrySpec(k=1, l=1, a=1, b=0, family=Family.AB),
     "GeometrySpec(k=1, l=1, a=1, b=0, family=<Family.AB: 'ab'>)", {"k": 0}),
    (ClosedFormCheck("h0", ONE, (("printed", ONE),), "printed"),
     "ClosedFormCheck(name='h0', computed=GradedPoly(1), candidates=(('printed', GradedPoly(1)),), "
     "expected='printed')", None),
    (Report(case=CaseId.COR32, spec=None, q_order=0, verdict="pass"),
     "Report(case=<CaseId.COR32: 'COR32'>, spec=None, q_order=0, verdict='pass', residual_q=None, "
     "residual_degree=None, quantities=(), notes=(), millis=0)", None),
    (CaseRequest(CaseId.JACOBI_QSERIES, q_order=6),
     "CaseRequest(case=<CaseId.JACOBI_QSERIES: 'JACOBI_QSERIES'>, spec=None, q_order=6, "
     "perturb=False, tolerance=None)", {"q_order": -1}),
    (CaseRow(len, ()),
     "CaseRow(handler=<built-in function len>, families=(), pins=(), default_q_order=None, "
     "grid=())", None),
]


def field_values(obj) -> tuple:
    """The field tuple, read off the class's annotations, not the record's own getter."""
    return tuple(getattr(obj, name) for name in type(obj).__annotations__)


@pytest.mark.parametrize("obj, text, refused", RECORDS, ids=[type(r[0]).__name__ for r in RECORDS])
def test_behaves_as_a_frozen_dataclass(obj, text, refused):
    cls, names = type(obj), tuple(type(obj).__annotations__)
    assert hash(obj) == hash(field_values(obj))
    copy = replace(obj)
    assert copy is not obj and copy == obj and hash(copy) == hash(obj)
    # a pickle holds the fields, not the hash kept in this process
    pickled = pickle.dumps(obj)
    assert b"_record_hash" not in pickled and pickle.loads(pickled) == obj
    # equal field tuples in another record class are not equal
    twin = record(type(cls.__name__, (), {"__annotations__": dict(cls.__annotations__)}))
    other = twin(**dict(zip(names, field_values(obj))))
    assert obj != other and other != obj and obj.__eq__(other) is NotImplemented
    assert obj != field_values(obj)
    assert repr(obj) == text
    with pytest.raises(AttributeError):
        setattr(obj, names[0], field_values(obj)[0])
    with pytest.raises(AttributeError):
        delattr(obj, names[0])
    assert field_values(obj) == field_values(copy)
    if refused is not None:
        # replace builds through __init__, so __post_init__ checks the change
        with pytest.raises(UsageError):
            replace(obj, **refused)


def test_replace_of_a_geometry_checks_it():
    spec = GeometrySpec(k=1, l=1)
    assert replace(spec, k=2) == GeometrySpec(k=2, l=1)
    with pytest.raises(UsageError):
        replace(spec, k=0)


@pytest.mark.parametrize("args, kwargs", [
    ((1, 1, 1, 0, Family.AB, 5), {}),   # one positional past the fields
    ((1,), {"k": 1, "l": 1}),           # k given twice
    ((), {"k": 1}),                     # l missing
    ((), {"k": 1, "l": 1, "c": 2}),     # no field c
    ((), {"k": 1, "c": 2, "a": 1, "b": 0, "family": Family.AB}),  # l missing, c unknown
])
def test_construction_binds_each_field_once(args, kwargs):
    with pytest.raises(TypeError, match=r"GeometrySpec\(\) takes each of k, l, a, b, family once"):
        GeometrySpec(*args, **kwargs)
    assert GeometrySpec(1, 1, b=2) == GeometrySpec(k=1, l=1, a=1, b=2, family=Family.AB)


def test_cli_start_imports_neither_dataclasses_nor_inspect():
    # an isolated interpreter without site, so nothing but the package imports them
    src = Path(__file__).resolve().parent.parent / "src"
    code = (f"import sys; sys.path.insert(0, {str(src)!r}); import anomcancel.cli; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-I", "-S", "-c", code], capture_output=True,
                         text=True, check=True, timeout=60)
    assert out.stdout.strip() == "[]"
