"""The frozen records of `mockfan._record.record` against their oracle: a
twin of each class made by `dataclasses.dataclass(frozen=True, ...)` over
the same annotations, defaults, `__post_init__` and other methods."""

import dataclasses
import functools
import itertools
import operator

import pytest

from mockfan import replace
from mockfan.cones import Face, cone_from_generators as cg
from mockfan.grassmann import (ConeCheck, GrassmannSpec, IndexData, VerificationReport,
                               index_data, verify)
from mockfan.subdivision import (ActiveSets, GlueResult, LiftedChart, LiftedExponent,
                                 MockPolytopeChart, SubdivisionResult, glue_charts, lift_chart,
                                 subdivide_chart)
from mockfan.volume import ClassLabel, StratumAnnotation

# what `record` writes into a class; a twin takes everything else
MADE_BY_RECORD = {"__init__", "__repr__", "__eq__", "__hash__", "__setattr__", "__delattr__",
                  "__lt__", "__le__", "__gt__", "__ge__", "_record_fields", "__dict__",
                  "__weakref__"}
PARAMS = {ActiveSets: {"eq": False}, ClassLabel: {"order": True}}


def twin(cls):
    namespace = {k: v for k, v in vars(cls).items() if k not in MADE_BY_RECORD}
    namespace["__qualname__"] = cls.__qualname__
    return dataclasses.dataclass(frozen=True, **PARAMS.get(cls, {}))(
        type(cls)(cls.__name__, cls.__bases__, namespace))


def chart():
    duals = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    return MockPolytopeChart("triangle", 3, duals, (LiftedExponent("a", (0, 0, 0), 2),
                                                    LiftedExponent("b", [1, -1, 0]),
                                                    LiftedExponent("c", (-1, 2, 0), 1)))


@functools.lru_cache(maxsize=None)
def report():
    return verify(GrassmannSpec(4, 2))


# one instance of each record, made by the program
EXAMPLES = {
    Face: lambda: cg(2, [(1, 0), (0, 1)]).faces()[1],
    GrassmannSpec: lambda: GrassmannSpec(5, 3, 2),
    IndexData: lambda: index_data(5),
    ConeCheck: lambda: report().checks[0],
    VerificationReport: report,
    LiftedExponent: lambda: chart().items[2],
    MockPolytopeChart: chart,
    ActiveSets: lambda: subdivide_chart(chart()).active_sets,
    SubdivisionResult: lambda: subdivide_chart(chart()),
    LiftedChart: lambda: lift_chart(chart()),
    GlueResult: lambda: glue_charts([subdivide_chart(chart())]),
    ClassLabel: ClassLabel.point,   # a hypersurface or symbolic class needs more than its kind
    StratumAnnotation: lambda: StratumAnnotation("c0", [ClassLabel.point()]),
}


@pytest.fixture(params=list(EXAMPLES), ids=operator.attrgetter("__name__"))
def case(request):
    """The record class, its twin, its field names and one instance's values."""
    cls = request.param
    oracle = twin(cls)
    names = [f.name for f in dataclasses.fields(oracle)]
    made = EXAMPLES[cls]()
    return cls, oracle, names, [getattr(made, n) for n in names]


def outcome(make, *args, **kwargs):
    """What a call gives: its repr, or the type and message of its error."""
    try:
        return "ok", repr(make(*args, **kwargs))
    except Exception as exc:   # compared, not handled
        return type(exc), str(exc)


def test_construction_agrees(case):
    cls, oracle, names, values = case
    required = sum(f.default is dataclasses.MISSING for f in dataclasses.fields(oracle))
    for args, kwargs in [(values, {}), ((), dict(zip(names, values))),
                         (values[:required], {}), (values[:1], dict(zip(names[1:], values[1:])))]:
        made, expected = cls(*args, **kwargs), oracle(*args, **kwargs)
        assert repr(made) == repr(expected)
        assert [getattr(made, n) for n in names] == [getattr(expected, n) for n in names]
        assert list(vars(made)) == list(vars(expected)) == names
    for args, kwargs in [(values[:required - 1], {}), ([*values, None], {}),
                         (values, {"nosuch": 1}), (values, {names[0]: values[0]}),
                         ((), dict(zip(names[1:], values[1:])))]:
        with pytest.raises(TypeError):
            oracle(*args, **kwargs)
        with pytest.raises(TypeError):
            cls(*args, **kwargs)


def test_equality_hash_and_repr_agree(case):
    cls, oracle, names, values = case
    made, expected = cls(*values), oracle(*values)
    other = twin(cls)(*values)   # equal fields, a third class
    assert repr(made) == repr(expected)
    assert (made == cls(*values)) == (expected == oracle(*values))
    assert (made == other) == (expected == other) and (other == made) == (other == expected)
    assert (made != other) == (expected != other) and (made != expected) == (expected != made)
    assert outcome(hash, made) == outcome(hash, expected)
    if cls is not ActiveSets:
        assert made == cls(*values) and made != other
        assert outcome(hash, made) == outcome(hash, tuple(values))


def test_assignment_and_deletion_raise(case):
    cls, oracle, names, values = case
    for made in (cls(*values), oracle(*values)):
        for name in [*names, "nosuch"]:
            with pytest.raises(AttributeError):
                setattr(made, name, None)
            with pytest.raises(AttributeError):
                delattr(made, name)
        assert [getattr(made, n) for n in names] == values


def test_replace_agrees(case):
    cls, oracle, names, values = case
    made, expected = cls(*values), oracle(*values)
    for name, value in zip(names, values):
        assert outcome(replace, made, **{name: value}) == outcome(
            dataclasses.replace, expected, **{name: value})
    assert outcome(replace, made) == outcome(dataclasses.replace, expected)
    with pytest.raises(TypeError):
        dataclasses.replace(expected, nosuch=1)
    with pytest.raises(TypeError):
        replace(made, nosuch=1)


@pytest.mark.parametrize("cls, args, kwargs", [
    (GrassmannSpec, (3, 2), {}),
    (GrassmannSpec, (5, 1), {}),
    (GrassmannSpec, (5, 2), {"l": 0}),
    (LiftedExponent, ("a", 5), {}),
    (MockPolytopeChart, ("two words", 2, ((0, 1),), (LiftedExponent("a", (0, 0)),)), {}),
    (MockPolytopeChart, ("c", 0, (), (LiftedExponent("a", ()),)), {}),
    (MockPolytopeChart, ("c", 2, ((0, 1),), (LiftedExponent("a", (0, 0)),)), {"scale": 0}),
    (MockPolytopeChart, ("c", 2, ((0, 1),), ()), {}),
    (MockPolytopeChart, ("c", 2, ((0, 1, 0),), (LiftedExponent("a", (0, 0)),)), {}),
    (MockPolytopeChart, ("c", 2, ((0, 1),), (LiftedExponent("a b", (0, 0)),)), {}),
    (MockPolytopeChart, ("c", 2, ((0, 1),), (LiftedExponent("a", (0, 0, 0)),)), {}),
    (MockPolytopeChart, ("c", 2, ((0, 1),), (LiftedExponent("a", (0, 0)),) * 2), {}),
    (StratumAnnotation, ("c0", ()), {}),
    (ClassLabel, ("hypersurface",), {}),
    (ClassLabel, ("hypersurface", "", 5, 0), {}),
    (ClassLabel, ("symbolic", "a b"), {}),
], ids=lambda x: getattr(x, "__name__", None))
def test_validation_errors_agree(cls, args, kwargs):
    expected = outcome(twin(cls), *args, **kwargs)
    assert expected[0] != "ok"
    assert outcome(cls, *args, **kwargs) == expected


@pytest.mark.parametrize("cls, values, change", [
    (GrassmannSpec, (5, 2, 1), {"n": 3}),
    (LiftedExponent, ("a", (1, 0), 0), {"exponent": [1, 2]}),
    (StratumAnnotation, ("c0", (ClassLabel.point(),)), {"labels": ()}),
    (StratumAnnotation, ("c0", (ClassLabel.point(),)), {"labels": [ClassLabel.point()]}),
])
def test_replace_runs_the_checks_again(cls, values, change):
    expected = outcome(dataclasses.replace, twin(cls)(*values), **change)
    assert outcome(replace, cls(*values), **change) == expected


def test_class_label_order_agrees():
    oracle = twin(ClassLabel)
    values = [("point", "", 0, 0), ("hypersurface", "", 5, 3), ("hypersurface", "", 5, 2),
              ("hypersurface", "", 7, 2), ("symbolic", "E(a)", 0, 0), ("symbolic", "E(b)", 0, 0)]
    for x, y in itertools.product(values, repeat=2):
        for op in (operator.lt, operator.le, operator.gt, operator.ge, operator.eq):
            assert op(ClassLabel(*x), ClassLabel(*y)) == op(oracle(*x), oracle(*y))
    assert ([repr(c) for c in sorted(ClassLabel(*v) for v in values)]
            == [repr(c) for c in sorted(oracle(*v) for v in values)])
    for made in (ClassLabel.point(), oracle("point")):
        with pytest.raises(TypeError):
            made < GrassmannSpec(4, 2)
        with pytest.raises(TypeError):
            made <= twin(ClassLabel)("point")


def test_cached_properties_agree():
    res = subdivide_chart(chart())
    for cls, source, name in [(SubdivisionResult, res, "faces_avoiding"),
                              (VerificationReport, report(), "lift"),
                              (VerificationReport, report(), "result")]:
        values = [getattr(source, f.name) for f in dataclasses.fields(twin(cls))]
        made, expected = cls(*values), twin(cls)(*values)
        assert name not in vars(made)
        got = getattr(made, name)
        assert getattr(made, name) is got and vars(made)[name] is got
        assert repr(got) == repr(getattr(expected, name))
