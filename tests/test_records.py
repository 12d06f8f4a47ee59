"""The package's record classes: construction, repr, equality, hashing,
immutability, copy and pickle, and their validation errors.

These pin the behaviour every record keeps whatever implements it: the
constructor signature with its defaults, field names and order, ``==``
that refuses other classes, a hash over the field tuple for the frozen
records and none for the mutable ones, and the exact ``repr``.
"""

import copy
import pickle
from fractions import Fraction
from types import SimpleNamespace

import pytest

from skewplane.constructions import (
    CONCURRENT,
    PARALLEL,
    ConstructionTrace,
    DesarguesConfig,
    LineFrame,
    trace_addition,
)
from skewplane.errors import (
    BackendMismatchError,
    InvalidBaseError,
    InvalidConfigurationError,
)
from skewplane.expressions import Add, Literal, Neg
from skewplane.maps import (
    CrossRatioBase,
    Family,
    IdentityResult,
    SampleSet,
    VerificationReport,
)
from skewplane.plane import PlanePoint
from skewplane.scalars import (
    Immutable,
    PrimeField,
    Rational,
    RationalField,
    RationalQuaternion,
    Record,
)
from skewplane.selftest import SuiteResult


def rp(x, y):
    return PlanePoint(Rational(x), Rational(y))


def rp_repr(x, y):
    return f"PlanePoint(x=Rational({x}), y=Rational({y}))"


_FRAME = LineFrame.canonical(RationalField())
_TRACE = trace_addition(_FRAME, _FRAME.embed(Rational(2)), _FRAME.embed(Rational(3)), rp(0, 1))
_RESULT = IdentityResult("x", 3, 1, True)


class Triple(Immutable, Record):
    """A frozen record defined outside the package: ``Record`` gives it
    its slot setters when the class is created."""

    __slots__ = ("third", "first", "second")

    def __init__(self, third, first, second):
        self._init(third, first, second)


def _line_repr(base, direction):
    return (f"PlaneLine(base={rp_repr(*base)}, "
            f"direction=(Rational({direction[0]}), Rational({direction[1]})))")


#: class, field names, field values, frozen, the repr the record prints
RECORDS = {
    "PlanePoint": (
        PlanePoint, ("x", "y"), (Rational(1, 2), Rational(3)), True,
        "PlanePoint(x=Rational(1/2), y=Rational(3))"),
    "CrossRatioBase": (
        CrossRatioBase, ("family", "points"),
        (Family.B, (Rational(1), Rational(2), Rational(3))), True,
        "CrossRatioBase(family=<Family.B: 'B'>, "
        "points=(Rational(1), Rational(2), Rational(3)))"),
    "SampleSet": (
        SampleSet, ("values", "rejections"), ((Rational(1),), 2), True,
        "SampleSet(values=(Rational(1),), rejections=2)"),
    "IdentityResult": (
        IdentityResult,
        ("name", "samples", "rejections", "passed", "counterexample",
         "informational", "note"),
        ("x", 3, 1, False, "at 2", True, "attained 1"), False,
        "IdentityResult(name='x', samples=3, rejections=1, passed=False, "
        "counterexample='at 2', informational=True, note='attained 1')"),
    "VerificationReport": (
        VerificationReport, ("title", "results"), ("t", [_RESULT]), False,
        "VerificationReport(title='t', results=[IdentityResult(name='x', "
        "samples=3, rejections=1, passed=True, counterexample=None, "
        "informational=False, note=None)])"),
    "ConstructionTrace": (
        ConstructionTrace,
        ("kind", "frame", "a", "b", "aux", "p1", "result", "lines"),
        tuple(getattr(_TRACE, name) for name in
              ("kind", "frame", "a", "b", "aux", "p1", "result", "lines")),
        True,
        "ConstructionTrace(kind='add', frame=LineFrame(O=(0, 0), I=(1, 0)), "
        f"a={rp_repr(2, 0)}, b={rp_repr(3, 0)}, aux={rp_repr(0, 1)}, "
        f"p1={rp_repr(2, 1)}, result={rp_repr(5, 0)}, "
        f"lines=(('base', {_line_repr((0, 0), (1, 0))}), "
        f"('O-aux', {_line_repr((0, 0), (0, 1))}), "
        f"('step1', {_line_repr((0, 1), (1, 0))}), "
        f"('step2', {_line_repr((2, 0), (0, 1))}), "
        f"('B-aux', {_line_repr((0, 1), (1, '-1/3'))}), "
        f"('step3', {_line_repr((0, '5/3'), (1, '-1/3'))})))"),
    "DesarguesConfig": (
        DesarguesConfig, ("a", "b", "c", "ap", "bp", "cp", "variant", "center"),
        (rp(1, 0), rp(0, 1), rp(1, 1), rp(2, 0), rp(0, 2), rp(2, 2), CONCURRENT, rp(0, 0)),
        True,
        f"DesarguesConfig(a={rp_repr(1, 0)}, b={rp_repr(0, 1)}, c={rp_repr(1, 1)}, "
        f"ap={rp_repr(2, 0)}, bp={rp_repr(0, 2)}, cp={rp_repr(2, 2)}, "
        f"variant='concurrent', center={rp_repr(0, 0)})"),
    "SuiteResult": (
        SuiteResult, ("name", "passed", "detail"), ("s", True, "d"), False,
        "SuiteResult(name='s', passed=True, detail='d')"),
    "Triple": (
        Triple, ("third", "first", "second"), (3, 1, 2), True,
        "Triple(third=3, first=1, second=2)"),
}


@pytest.fixture(params=sorted(RECORDS))
def record(request):
    cls, names, values, frozen, text = RECORDS[request.param]
    return SimpleNamespace(cls=cls, names=names, values=values, frozen=frozen,
                           text=text, obj=cls(*values))


def test_positional_and_keyword_construction(record):
    by_keyword = record.cls(**dict(zip(record.names, record.values)))
    assert by_keyword == record.obj
    assert tuple(getattr(record.obj, name) for name in record.names) == record.values
    assert tuple(getattr(by_keyword, name) for name in record.names) == record.values


def test_repr(record):
    assert repr(record.obj) == record.text


def test_hash(record):
    if record.frozen:
        assert hash(record.obj) == hash(record.values)
        assert hash(record.cls(*record.values)) == hash(record.obj)
    else:
        with pytest.raises(TypeError):
            hash(record.obj)


def test_equality(record):
    same = record.cls(*record.values)
    assert record.obj == same and not record.obj != same
    twin = SimpleNamespace(**dict(zip(record.names, record.values)))
    assert record.obj != twin and not record.obj == twin
    assert record.obj != record.values
    assert record.obj.__eq__(twin) is NotImplemented


def test_equality_compares_every_field(record):
    for name in record.names:
        other = copy.copy(record.obj)
        object.__setattr__(other, name, object())
        assert other != record.obj, name


def test_assignment(record):
    name = record.names[0]
    if record.frozen:
        with pytest.raises(AttributeError):
            setattr(record.obj, name, record.values[0])
        with pytest.raises(AttributeError):
            delattr(record.obj, name)
        with pytest.raises(AttributeError):
            record.obj.unknown = 1
        assert getattr(record.obj, name) == record.values[0]
    else:
        setattr(record.obj, name, "changed")
        assert getattr(record.obj, name) == "changed"


@pytest.mark.parametrize("clone", [
    copy.copy,
    copy.deepcopy,
    lambda obj: pickle.loads(pickle.dumps(obj)),
], ids=["copy", "deepcopy", "pickle"])
def test_copy_and_pickle(record, clone):
    twin = clone(record.obj)
    assert type(twin) is record.cls
    assert repr(twin) == record.text
    if record.frozen:
        with pytest.raises(AttributeError):
            setattr(twin, record.names[0], record.values[0])
    assert twin == record.obj


#: One value of every other slotted class: the three scalar backends, a
#: canonical line, a line frame and an expression node.
OTHER_SLOTTED = {
    "LineFrame": _FRAME,
    "Rational": Rational(-3, 4),
    "PrimeFieldElement": PrimeField(7).from_int(5),
    "RationalQuaternion": RationalQuaternion(Fraction(1, 2), -3, Fraction(5, 6)),
    "PlaneLine": _TRACE.lines[-1][1],
    "Node": Add(Literal(Rational(1)), Neg(Literal(Rational(2, 3)))),
}


@pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
@pytest.mark.parametrize("name", sorted(RECORDS) + sorted(OTHER_SLOTTED))
def test_pickle_with_every_protocol(name, protocol):
    if name in RECORDS:
        cls, _, values, _, _ = RECORDS[name]
        value = cls(*values)
    else:
        value = OTHER_SLOTTED[name]
    str(value)  # a base keeps its printed form, and its pickle carries it
    twin = pickle.loads(pickle.dumps(value, protocol=protocol))
    assert type(twin) is type(value)
    assert twin == value and repr(twin) == repr(value) and str(twin) == str(value)
    slots = [slot for cls in type(value).__mro__ for slot in cls.__dict__.get("__slots__", ())]
    assert slots and all(getattr(twin, slot) == getattr(value, slot) for slot in slots)


def test_new_record_class_writes_fields_through_its_slot_setters():
    """``_setters`` are the ``__set__`` of the slots in field order, and
    ``_init`` writes as many leading fields as it is given."""
    assert Triple._setters == tuple(getattr(Triple, name).__set__
                                    for name in ("third", "first", "second"))
    value = Immutable.__new__(Triple)
    value._init(3, 1)
    assert (value.third, value.first) == (3, 1)
    with pytest.raises(AttributeError):
        value.second
    with pytest.raises(AttributeError):
        value.second = 2


def test_traces_on_equal_frames_are_equal():
    """A frame is a value: O and I decide ``==`` and the hash, so traces built
    on two separately constructed equal frames are equal too."""
    first, second = LineFrame(rp(1, 1), rp(2, 3)), LineFrame(rp(1, 1), rp(2, 3))
    assert first is not second and first == second and hash(first) == hash(second)
    assert first != LineFrame(rp(1, 1), rp(2, 4)) and first != (rp(1, 1), rp(2, 3))
    assert repr(first) == "LineFrame(O=(1, 1), I=(2, 3))"
    with pytest.raises(AttributeError):
        first.origin = rp(0, 0)
    traces = [trace_addition(frame, frame.embed(Rational(2)), frame.embed(Rational(3)),
                             rp(0, 1)) for frame in (first, second)]
    assert traces[0] == traces[1] and hash(traces[0]) == hash(traces[1])


class TestDefaults:
    def test_sample_set(self):
        assert SampleSet((Rational(1),)).rejections == 0

    def test_identity_result(self):
        result = IdentityResult("x", 3, 1, True)
        assert (result.counterexample, result.informational, result.note) == (None, False, None)

    def test_verification_report_lists_are_separate(self):
        first, second = VerificationReport("a"), VerificationReport("b")
        assert first.results == [] and first.results is not second.results
        first.results.append(_RESULT)
        assert second.results == []

    def test_desargues_center(self):
        cfg = DesarguesConfig(rp(1, 0), rp(0, 1), rp(1, 1), rp(2, 0), rp(0, 2), rp(2, 2),
                              PARALLEL)
        assert cfg.center is None


class TestValidation:
    def test_point_backends_must_agree(self):
        with pytest.raises(BackendMismatchError):
            PlanePoint(Rational(1), PrimeField(5).one())

    @pytest.mark.parametrize("points", [
        (Rational(1), Rational(2)),
        (Rational(1), Rational(2), Rational(3), Rational(4)),
        (Rational(1), Rational(1), Rational(3)),
        (Rational(1), Rational(2), Rational(0)),
    ], ids=["two", "four", "repeated", "zero"])
    def test_cross_ratio_base(self, points):
        with pytest.raises(InvalidBaseError):
            CrossRatioBase(Family.A, points)

    def test_repeated_point_message_names_the_base(self):
        with pytest.raises(InvalidBaseError, match=r"family A base \(1, 1, 3\)"):
            CrossRatioBase(Family.A, (Rational(1), Rational(1), Rational(3)))

    @pytest.mark.parametrize("variant,center,message", [
        ("skew", None, "unknown variant 'skew'"),
        (CONCURRENT, None, "concurrent variant needs a center point"),
    ])
    def test_desargues_config(self, variant, center, message):
        with pytest.raises(InvalidConfigurationError, match=message):
            DesarguesConfig(rp(1, 0), rp(0, 1), rp(1, 1), rp(2, 0), rp(0, 2), rp(2, 2),
                            variant, center)
