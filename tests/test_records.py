"""The seven record types behave as immutable values: equality and hash by
fields within one class, a fixed repr, no assignment or deletion, keyword
construction, and copy/deepcopy/pickle round trips."""

import copy
import pickle
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from sternbrocot import (
    TAU2,
    ConvergenceReport,
    ConvergenceRow,
    ReducedRCF,
    RegularCF,
    SternBrocotLevel,
    XiSequence,
    XiTreeNode,
    expand_rcf,
)

from oracles import rcf_value

ROW = ConvergenceRow(2, Fraction(1, 2), "0.118")
ROW_REPR = "ConvergenceRow(n=2, empirical=Fraction(1, 2), abs_error_decimal='0.118')"
HALF_LEVEL = (Fraction(0), Fraction(1, 2), Fraction(1))
HALF_LEVEL_REPR = "(Fraction(0, 1), Fraction(1, 2), Fraction(1, 1))"

#: (class, fields by name, the repr of the record built from them)
RECORDS = [
    (RegularCF, {"quotients": (2, 3)}, "RegularCF(quotients=(2, 3))"),
    (ReducedRCF, {"digits": (2, 4)}, "ReducedRCF(digits=(2, 4))"),
    (SternBrocotLevel, {"index": 1, "elements": HALF_LEVEL},
     f"SternBrocotLevel(index=1, elements={HALF_LEVEL_REPR})"),
    (XiTreeNode, {"value": Fraction(3, 7), "digits": ReducedRCF((2, 4)), "level": 5},
     "XiTreeNode(value=Fraction(3, 7), digits=ReducedRCF(digits=(2, 4)), level=5)"),
    (XiSequence, {"index": 1, "elements": HALF_LEVEL},
     f"XiSequence(index=1, elements={HALF_LEVEL_REPR})"),
    (ConvergenceRow, {"n": 2, "empirical": Fraction(1, 2), "abs_error_decimal": "0.118"}, ROW_REPR),
    (ConvergenceReport,
     {"x": Fraction(1, 2), "target": TAU2, "tolerance": Fraction(1, 50), "rows": (ROW,),
      "passed": False},
     "ConvergenceReport(x=Fraction(1, 2), target=QuadSurd(Fraction(3, 2), Fraction(-1, 2)), "
     f"tolerance=Fraction(1, 50), rows=({ROW_REPR},), passed=False)"),
]
IDS = [cls.__name__ for cls, _, _ in RECORDS]


def build(cls, fields):
    """A record from fresh copies of its fields, positionally."""
    return cls(*(copy.deepcopy(value) for value in fields.values()))


@pytest.mark.parametrize("cls, fields, text", RECORDS, ids=IDS)
def test_equal_fields_give_equal_records_and_hashes(cls, fields, text):
    a, b = build(cls, fields), build(cls, fields)
    assert a is not b and a == b and not a != b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1


@pytest.mark.parametrize("cls, fields, text", RECORDS, ids=IDS)
def test_fields_read_back(cls, fields, text):
    record = build(cls, fields)
    assert {name: getattr(record, name) for name in fields} == fields


def test_equality_needs_the_same_class():
    assert RegularCF((2,)) != ReducedRCF((2,))
    assert not RegularCF((2,)) == ReducedRCF((2,))
    assert SternBrocotLevel(1, HALF_LEVEL) != XiSequence(1, HALF_LEVEL)
    assert RegularCF((2,)) != (2,)
    assert RegularCF((2, 3)) != RegularCF((3,))


@pytest.mark.parametrize("cls, fields, text", RECORDS, ids=IDS)
def test_fields_can_be_neither_assigned_nor_deleted(cls, fields, text):
    record = build(cls, fields)
    for name, value in fields.items():
        with pytest.raises(AttributeError):
            setattr(record, name, value)
        with pytest.raises(AttributeError):
            delattr(record, name)
        assert getattr(record, name) == value


@pytest.mark.parametrize("cls, fields, text", RECORDS, ids=IDS)
def test_repr(cls, fields, text):
    assert repr(build(cls, fields)) == text


@pytest.mark.parametrize("cls, fields, text", RECORDS, ids=IDS)
def test_keyword_construction(cls, fields, text):
    assert cls(**fields) == build(cls, fields)


@pytest.mark.parametrize("cls, fields, text", RECORDS, ids=IDS)
@pytest.mark.parametrize("clone", [copy.copy, copy.deepcopy,
                                   lambda record: pickle.loads(pickle.dumps(record))],
                         ids=["copy", "deepcopy", "pickle"])
def test_copies_are_equal(cls, fields, text, clone):
    record = build(cls, fields)
    twin = clone(record)
    assert type(twin) is cls and twin == record and hash(twin) == hash(record)


#: The four records whose constructor `_Record` derives from __slots__ alone.
DERIVED = [record for record in RECORDS if record[0] in (SternBrocotLevel, XiSequence,
                                                          ConvergenceRow, ConvergenceReport)]


@pytest.mark.parametrize("cls, fields, text", DERIVED, ids=[cls.__name__ for cls, _, _ in DERIVED])
def test_a_wrong_argument_list_is_a_type_error(cls, fields, text):
    values, (first, *_) = list(fields.values()), fields
    with pytest.raises(TypeError):
        cls(*values[:-1])  # a missing field
    with pytest.raises(TypeError):
        cls(*values, None)  # a surplus positional value
    with pytest.raises(TypeError):
        cls(*values, unknown=None)  # an unknown keyword
    with pytest.raises(TypeError):
        cls(*values[:-1], unknown=None)  # ... in place of the last field
    with pytest.raises(TypeError):
        cls(*values, **{first: values[0]})  # a field by position and by name
    with pytest.raises(TypeError):
        cls(*values[:-1], **{first: values[0]})  # ... with the last field missing


def test_constructors_still_validate():
    with pytest.raises(ValueError, match="final quotient >= 2"):
        RegularCF((2, 1))
    with pytest.raises(ValueError, match="digits must be >= 2"):
        ReducedRCF(digits=(1,))
    with pytest.raises(ValueError, match="digit sum minus one"):
        XiTreeNode(Fraction(3, 7), ReducedRCF((2, 4)), 4)
    with pytest.raises(ValueError, match="value of the digits"):
        XiTreeNode(Fraction(1, 3), ReducedRCF((2,)), 1)  # (2,) is 1/2
    assert RegularCF([2, 3]).quotients == (2, 3)  # any iterable becomes a tuple


EXPANDED = [Fraction(1), Fraction(1, 10 ** 30), Fraction(355, 1133), Fraction(10 ** 30, 10 ** 30 + 1)]
CLONES = (copy.copy, copy.deepcopy, lambda record: pickle.loads(pickle.dumps(record)))


def check_expanded(x):
    """expand_rcf(x), whose record is set without the constructor, is the
    record RegularCF builds from the same quotients, and behaves as one."""
    built = expand_rcf(x)
    record = RegularCF(built.quotients)
    assert type(built) is RegularCF and type(built.quotients) is tuple
    assert built == record and not built != record and hash(built) == hash(record)
    assert repr(built) == repr(record) and str(built) == str(record)
    if x == 1:  # the oracle reads () as 0; the record's () stands for x = 1
        assert built.quotients == ()
    else:
        assert rcf_value(built.quotients) == x
    for clone in CLONES:
        twin = clone(built)
        assert type(twin) is RegularCF and twin == record and hash(twin) == hash(record)
    with pytest.raises(AttributeError):
        built.quotients = ()
    with pytest.raises(AttributeError):
        del built.quotients


@pytest.mark.parametrize("x", EXPANDED, ids=["1", "1e-30", "355/1133", "quotient-1e30"])
def test_expand_rcf_builds_the_constructors_record(x):
    check_expanded(x)


@given(st.fractions(min_value=0, max_value=1, max_denominator=10 ** 12).filter(lambda x: x > 0))
def test_expand_rcf_builds_the_constructors_record_for_any_rational(x):
    check_expanded(x)
