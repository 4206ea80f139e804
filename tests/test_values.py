"""The contract of the package's immutable value types.

Each type is built from its fields, in order, by position or by keyword,
with defaults for the trailing ones that have them.  Values of one type
with equal fields are equal and hash equal; values of two types never
compare equal.  Fields can be neither assigned nor deleted, the repr names
the class and every field, and a derived property computed on first use is
kept.
"""

from fractions import Fraction

import pytest

from zeroleak.graphs import Graph, Hypergraph, VertexSetFamily
from zeroleak.bounds import BoundsReport, GuessBudget
from zeroleak.leakage import StochasticMapping, ValidationReport
from zeroleak.lp import LinearProgram, LpSolution
from zeroleak.oracle import DistributionGrid, GuessFamily
from zeroleak.rationals import LeakageValue

F = Fraction
HALF = F(1, 2)


# per type: its field names in order, and a function returning fresh, equal field values
EXAMPLES = {
    Graph: (("vertex_count", "rows", "labels"), lambda: (3, (0b010, 0b101, 0b010), ("a", "b", "c"))),
    Hypergraph: (("vertex_ids", "hyperedges"), lambda: ((0, 1, 2), ((0, 1), (2,)))),
    VertexSetFamily: (("sets", "multiplicities"), lambda: (((0,), (1, 2)), (1, 2))),
    LinearProgram: (("objective", "constraints"), lambda: ((1, 2), (((1, 1), 3),))),
    LpSolution: (("value", "assignment", "duals"), lambda: (F(6), (F(0), F(3)), (F(2),))),
    LeakageValue: (("log2_of",), lambda: (F(5, 2),)),
    StochasticMapping: (
        ("t", "codewords", "denominator", "counts"),
        lambda: (1, ("y", "z"), 2, ((1, 1), (2, 0), (0, 2))),
    ),
    ValidationReport: (("ok", "witness"), lambda: (False, ("y", 0, 1))),
    BoundsReport: (
        ("lower", "upper", "tight", "provenance"),
        lambda: (LeakageValue(F(2)), LeakageValue(F(5, 2)), False, (("lower", "packing"), ("upper", "cover"))),
    ),
    GuessBudget: (
        ("kind", "count", "degree", "base", "values", "growth"),
        lambda: ("table", None, None, None, (1, 2, 4), F(2)),
    ),
    GuessFamily: (("kind", "t", "g", "sets"), lambda: ("singleton", 1, 1, (frozenset({0}), frozenset({1})))),
    DistributionGrid: (("resolution", "points"), lambda: (2, ((HALF, HALF), (F(1), F(0))))),
}
TYPES = list(EXAMPLES)
IDS = [cls.__name__ for cls in TYPES]


def build(cls):
    return cls(*EXAMPLES[cls][1]())


def test_the_table_covers_the_twelve_value_types():
    assert len(TYPES) == 12


@pytest.mark.parametrize("cls", TYPES, ids=IDS)
def test_positional_and_keyword_construction_agree(cls):
    names, fields = EXAMPLES[cls]
    by_position = cls(*fields())
    by_keyword = cls(**dict(zip(names, fields())))
    assert by_position == by_keyword
    assert tuple(getattr(by_position, name) for name in names) == fields()


def test_defaults_fill_the_trailing_fields():
    rows = (0b10, 0b01)
    assert Graph(2, rows).labels is None
    assert Graph(2, rows) == Graph(2, rows, None) == Graph(vertex_count=2, rows=rows)
    budgets = [
        (GuessBudget("constant", 3), "count", 3),
        (GuessBudget("polynomial", degree=2), "degree", 2),
        (GuessBudget("exponential", base=F(3, 2)), "base", F(3, 2)),
        (GuessBudget("table", values=(1, 2)), "values", (1, 2)),
    ]
    for budget, field, value in budgets:
        for name in ("count", "degree", "base", "values", "growth"):
            assert getattr(budget, name) == (value if name == field else None)
    assert GuessBudget.constant(3) == GuessBudget("constant", 3)


@pytest.mark.parametrize("cls", TYPES, ids=IDS)
def test_bad_argument_lists_are_type_errors(cls):
    names, fields = EXAMPLES[cls]
    with pytest.raises(TypeError):
        cls(*fields(), None)
    with pytest.raises(TypeError):
        cls(*fields(), no_such_field=1)
    with pytest.raises(TypeError):
        cls(*fields(), **{names[0]: fields()[0]})
    with pytest.raises(TypeError):
        cls()


@pytest.mark.parametrize("cls", TYPES, ids=IDS)
def test_equal_fields_give_equal_values_and_hashes(cls):
    a, b = build(cls), build(cls)
    assert a is not b
    assert a == b and not (a != b)
    assert hash(a) == hash(b)
    assert len({a, b}) == 1


def test_mappings_compare_in_lowest_terms():
    fine = StochasticMapping(1, ("y", "z"), 4, ((2, 2), (4, 0)))
    coarse = StochasticMapping(1, ("y", "z"), 2, ((1, 1), (2, 0)))
    assert fine == coarse and hash(fine) == hash(coarse)
    assert (fine.denominator, fine.counts) == (2, ((1, 1), (2, 0)))
    assert fine != StochasticMapping(1, ("y", "w"), 2, ((1, 1), (2, 0)))


@pytest.mark.parametrize("cls", TYPES, ids=IDS)
def test_values_of_two_types_are_never_equal(cls):
    value = build(cls)
    for other in map(build, TYPES):
        if type(other) is not cls:
            assert value != other and other != value
            assert not (value == other)


@pytest.mark.parametrize("cls", TYPES, ids=IDS)
def test_values_are_frozen(cls):
    names, fields = EXAMPLES[cls]
    value = build(cls)
    for name, original in zip(names, fields()):
        with pytest.raises(AttributeError):
            setattr(value, name, original)
        with pytest.raises(AttributeError):
            delattr(value, name)
        assert getattr(value, name) == original
    with pytest.raises(AttributeError):
        value.not_a_field = 1
    assert value == build(cls)


@pytest.mark.parametrize("cls", TYPES, ids=IDS)
def test_repr_names_the_class_and_its_fields(cls):
    names, _ = EXAMPLES[cls]
    value = build(cls)
    body = ", ".join(f"{name}={getattr(value, name)!r}" for name in names)
    assert repr(value) == f"{cls.__name__}({body})"


def test_derived_properties_are_cached():
    graph = build(Graph)
    assert graph.edges is graph.edges
    assert graph.edges == frozenset({(0, 1), (1, 2)})
    mapping = build(StochasticMapping)
    assert mapping.supports is mapping.supports
    assert mapping.supports == (0b011, 0b101)
    assert mapping.rows is mapping.rows
    assert mapping.rows == ((HALF, HALF), (F(1), F(0)), (F(0), F(1)))
