"""Semantics of the immutable records: equality, hashing, immutability, validation."""

import copy
import pickle
from fractions import Fraction

import pytest

from ordkit.digraphs import Digraph, Edge, Path, all_paths
from ordkit.edgerings import (
    BipartiteGraph,
    CMWitness,
    NamedIdeal,
    SimpleGraph,
    SquarefreeIdeal,
)
from ordkit.errors import OrdkitError
from ordkit.monomials import MonomialIdeal, minimalize
from ordkit.patterns import PatternMatrix, RationalMatrix
from ordkit.relations import (
    BubbleDecomposition,
    MonotoneMap,
    Preorder,
    PropertyFlags,
    Relation,
)
from ordkit.topology import FiniteTopology


def _chain(n):
    return Preorder(Relation(n, tuple(((1 << n) - 1) >> x << x for x in range(n))))


# Each factory builds a fresh record, so two calls give equal but distinct objects.
FACTORIES = {
    "Relation": lambda: Relation(2, (1, 3)),
    "Preorder": lambda: _chain(2),
    "PropertyFlags": lambda: PropertyFlags(True, False, True, False, False),
    "BubbleDecomposition": lambda: BubbleDecomposition(((0,), (1,)), _chain(2)),
    "MonotoneMap": lambda: MonotoneMap(_chain(2), _chain(3), (0, 2)),
    "FiniteTopology": lambda: FiniteTopology(2, (0, 2, 3)),
    "Edge": lambda: Edge(0, 1, "e"),
    "Digraph": lambda: Digraph(2, (Edge(0, 1, "e"),)),
    "Path": lambda: Path(0, (Edge(0, 1, "e"), Edge(1, 1, "f"))),
    "MonomialIdeal": lambda: MonomialIdeal(2, ((0, 2), (1, 0))),
    "PatternMatrix": lambda: PatternMatrix(2, (3, 2)),
    "RationalMatrix": lambda: RationalMatrix(2, ((Fraction(1), Fraction(1, 2)), (Fraction(0), Fraction(1)))),
    "NamedIdeal": lambda: NamedIdeal(("x", "y"), MonomialIdeal(2, ((0, 2), (1, 0)))),
    "SquarefreeIdeal": lambda: SquarefreeIdeal(("x", "y"), MonomialIdeal(2, ((1, 1),))),
    "SimpleGraph": lambda: SimpleGraph(("a", "b", "c"), ((0, 1), (1, 2))),
    "BipartiteGraph": lambda: BipartiteGraph(("a",), ("b", "c"), (3,)),
    "CMWitness": lambda: CMWitness((0,), Preorder(Relation(1, (1,)))),
}

# For each class, a record that differs from the factory's in the last field only.
VARIANTS = {
    "Relation": lambda: Relation(2, (3, 3)),
    "Preorder": lambda: Preorder(Relation(2, (3, 3))),
    "PropertyFlags": lambda: PropertyFlags(True, False, True, False, True),
    "BubbleDecomposition": lambda: BubbleDecomposition(((0,), (1,)), Preorder(Relation(2, (1, 2)))),
    "MonotoneMap": lambda: MonotoneMap(_chain(2), _chain(3), (1, 2)),
    "FiniteTopology": lambda: FiniteTopology(2, (0, 1, 3)),
    "Edge": lambda: Edge(0, 1, "f"),
    "Digraph": lambda: Digraph(2, (Edge(0, 1, "f"),)),
    "Path": lambda: Path(0, (Edge(0, 1, "e"),)),
    "MonomialIdeal": lambda: MonomialIdeal(2, ((0, 3), (1, 0))),
    "PatternMatrix": lambda: PatternMatrix(2, (3, 3)),
    "RationalMatrix": lambda: RationalMatrix(2, ((Fraction(1), Fraction(1, 3)), (Fraction(0), Fraction(1)))),
    "NamedIdeal": lambda: NamedIdeal(("x", "y"), MonomialIdeal(2, ((0, 1), (1, 0)))),
    "SquarefreeIdeal": lambda: SquarefreeIdeal(("x", "y"), MonomialIdeal(2, ((0, 1),))),
    "SimpleGraph": lambda: SimpleGraph(("a", "b", "c"), ((0, 1),)),
    "BipartiteGraph": lambda: BipartiteGraph(("a",), ("b", "c"), (1,)),
    "CMWitness": lambda: CMWitness((0,), _chain(2)),
}

# Field names in declaration order, as the constructors take them.
FIELDS = {
    "Relation": ("n", "rows"),
    "Preorder": ("rel",),
    "PropertyFlags": ("partial_order", "equivalence", "total", "discrete", "coarse"),
    "BubbleDecomposition": ("blocks", "quotient"),
    "MonotoneMap": ("source", "target", "values"),
    "FiniteTopology": ("n", "opens"),
    "Edge": ("src", "dst", "label"),
    "Digraph": ("n", "edges"),
    "Path": ("start", "edges"),
    "MonomialIdeal": ("nvars", "gens"),
    "PatternMatrix": ("n", "rows"),
    "RationalMatrix": ("n", "entries"),
    "NamedIdeal": ("ground", "ideal"),
    "SquarefreeIdeal": ("ground", "ideal"),
    "SimpleGraph": ("vertices", "edges"),
    "BipartiteGraph": ("a_names", "b_names", "relation"),
    "CMWitness": ("matching", "poset"),
}

NAMES = sorted(FACTORIES)


def test_every_record_class_is_covered():
    assert len(NAMES) == 17 and set(FIELDS) == set(FACTORIES) == set(VARIANTS)


@pytest.mark.parametrize("name", NAMES)
def test_equal_fields_give_equal_records_with_equal_hashes(name):
    a, b = FACTORIES[name](), FACTORIES[name]()
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1


@pytest.mark.parametrize("name", NAMES)
def test_a_different_field_gives_an_unequal_record(name):
    record, variant = FACTORIES[name](), VARIANTS[name]()
    last = FIELDS[name][-1]
    assert getattr(record, last) != getattr(variant, last)
    assert all(getattr(record, f) == getattr(variant, f) for f in FIELDS[name][:-1])
    assert record != variant and not record == variant


@pytest.mark.parametrize("name", NAMES)
def test_fields_cannot_be_assigned_or_deleted(name):
    record = FACTORIES[name]()
    before = [getattr(record, f) for f in FIELDS[name]]
    for field in FIELDS[name]:
        with pytest.raises(AttributeError):
            setattr(record, field, None)
        with pytest.raises(AttributeError):
            delattr(record, field)
    with pytest.raises(AttributeError):
        record.extra = 1
    assert [getattr(record, f) for f in FIELDS[name]] == before
    assert not hasattr(record, "__dict__")


@pytest.mark.parametrize("name", NAMES)
def test_repr_lists_the_fields_in_order(name):
    record = FACTORIES[name]()
    fields = ", ".join(f"{f}={getattr(record, f)!r}" for f in FIELDS[name])
    assert repr(record) == f"{name}({fields})"


@pytest.mark.parametrize("name", NAMES)
def test_copy_and_pickle_round_trip(name):
    record = FACTORIES[name]()
    for twin in (copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
        assert type(twin) is type(record) and twin == record


@pytest.mark.parametrize("name", NAMES)
def test_keyword_construction(name):
    record = FACTORIES[name]()
    fields = {f: getattr(record, f) for f in FIELDS[name]}
    assert type(record)(**fields) == record


def test_property_flags_by_keyword():
    flags = PropertyFlags(partial_order=True, equivalence=False, total=True, discrete=False, coarse=False)
    assert flags == PropertyFlags(True, False, True, False, False)
    assert flags.partial_order and flags.total and not flags.coarse


def test_named_and_squarefree_ideals_never_compare_equal():
    ground, ideal = ("x", "y"), MonomialIdeal(2, ((1, 1),))
    named, squarefree = NamedIdeal(ground, ideal), SquarefreeIdeal(ground, ideal)
    assert named != squarefree and squarefree != named
    assert not named == squarefree
    assert len({named, squarefree}) == 2


def test_records_do_not_equal_their_field_tuples():
    assert Relation(2, (1, 3)) != (2, (1, 3))
    assert Edge(0, 1, "e") != Path(0, ())


def test_trusted_monomial_ideal_equals_the_validated_one():
    gens = [(2, 0, 1), (0, 1, 1), (1, 1, 0), (2, 1, 1), (0, 3, 0)]
    trusted = minimalize(3, gens)
    checked = MonomialIdeal(trusted.nvars, trusted.gens)
    assert trusted == checked and hash(trusted) == hash(checked)
    assert repr(trusted) == repr(checked)


def test_trusted_paths_equal_the_validated_ones():
    edges = (Edge(0, 1, "a"), Edge(0, 1, "b"), Edge(1, 2, "c"), Edge(0, 2, "d"), Edge(2, 3, "e"))
    grown = all_paths(Digraph(4, edges))
    assert len(grown) == 4 + 5 + 4 + 2
    for path in grown:
        checked = Path(path.start, path.edges)
        assert path == checked and hash(path) == hash(checked)


def _message(make):
    with pytest.raises(OrdkitError) as info:
        make()
    return str(info.value)


# Every validation message the constructors raise, as "<module>.<op>: <message>".
VALIDATION = [
    (lambda: Relation(0, ()), "order-core.relation: point count 0 outside 1..16"),
    (lambda: Relation(17, (0,) * 17), "order-core.relation: point count 17 outside 1..16"),
    (lambda: Relation(2, (1,)), "order-core.relation: expected 2 rows, got 1"),
    (lambda: Relation(2, (4, 2)), "order-core.relation: row 0 has bits beyond point 1"),
    (lambda: Preorder(Relation(2, (0, 2))), "order-core.preorder: not reflexive: missing 0 <= 0"),
    (
        lambda: Preorder(Relation(3, (0b011, 0b110, 0b100))),
        "order-core.preorder: not transitive: 0 <= 1 and 1 <= 2 but not 0 <= 2",
    ),
    (lambda: MonotoneMap(_chain(2), _chain(2), (0,)), "order-core.monotone-map: expected 2 values, got 1"),
    (
        lambda: MonotoneMap(_chain(2), _chain(2), (0, 5)),
        "order-core.monotone-map: value 5 outside target points",
    ),
    (
        lambda: MonotoneMap(_chain(2), _chain(2), (1, 0)),
        "order-core.monotone-map: not monotone: 0 <= 1 but f(0) = 1 is not below f(1) = 0",
    ),
    (lambda: FiniteTopology(0, (0,)), "finite-topology.topology: need at least one point"),
    (lambda: FiniteTopology(1, (1, 0)), "finite-topology.topology: opens must be sorted and distinct"),
    (lambda: Digraph(-1, ()), "digraph-paths.digraph: vertex count -1 outside 0..65536"),
    (lambda: Digraph(2, (Edge(0, 2, "e"),)), "digraph-paths.digraph: edge e endpoint outside 0..1"),
    (
        lambda: Digraph(2, (Edge(0, 1, "e"), Edge(1, 0, "e"))),
        "digraph-paths.digraph: duplicate edge label 'e'",
    ),
    (lambda: Path(0, (Edge(1, 2, "e"),)), "digraph-paths.path: edge e starts at 1, expected 0"),
    (lambda: MonomialIdeal(-1, ()), "monomial-ideals.ideal: negative variable count"),
    (
        lambda: MonomialIdeal(2, ((1,),)),
        "monomial-ideals.ideal: generator (1,) has wrong length for 2 variables",
    ),
    (lambda: MonomialIdeal(2, ((-1, 0),)), "monomial-ideals.ideal: negative exponent in (-1, 0)"),
    (
        lambda: MonomialIdeal(2, ((1, 0), (0, 1))),
        "monomial-ideals.ideal: generators must be sorted and distinct",
    ),
    (lambda: MonomialIdeal(2, ((0, 1), (1, 1))), "monomial-ideals.ideal: generator (0, 1) divides (1, 1)"),
    (lambda: PatternMatrix(2, (3,)), "pattern-groups.pattern: bad shape"),
    (lambda: PatternMatrix(1, (3,)), "pattern-groups.pattern: row 0 has bits beyond the size"),
    (lambda: PatternMatrix(2, (2, 2)), "pattern-groups.pattern: diagonal entry (0, 0) must be allowed"),
    (
        lambda: RationalMatrix(2, ((Fraction(1),), (Fraction(1),))),
        "pattern-groups.matrix: matrix is not square of the stated size",
    ),
    (
        lambda: NamedIdeal(("x", "x"), MonomialIdeal(2, ())),
        "edge-rings.ideal: duplicate ground set names",
    ),
    (lambda: NamedIdeal(("x",), MonomialIdeal(2, ())), "edge-rings.ideal: 2 variables but 1 ground names"),
    (
        lambda: SquarefreeIdeal(("x",), MonomialIdeal(2, ())),
        "edge-rings.ideal: 2 variables but 1 ground names",
    ),
    (
        lambda: SquarefreeIdeal(("x", "y"), MonomialIdeal(2, ((2, 0),))),
        "edge-rings.ideal: generator (2, 0) is not squarefree",
    ),
    (lambda: SimpleGraph(("a", "a"), ()), "edge-rings.graph: duplicate vertex names"),
    (lambda: SimpleGraph(("a", "b"), ((0, 5),)), "edge-rings.graph: edge (0, 5) out of range"),
    (lambda: SimpleGraph(("a", "b"), ((0, 0),)), "edge-rings.graph: loop at vertex a"),
    (
        lambda: SimpleGraph(("a", "b"), ((1, 0),)),
        "edge-rings.graph: edges must be sorted pairs without repeats",
    ),
    (
        lambda: SimpleGraph(("a", "b"), ((0, 1), (0, 1))),
        "edge-rings.graph: edges must be sorted pairs without repeats",
    ),
    (
        lambda: BipartiteGraph(("a", "b"), ("c",), (1,)),
        "edge-rings.bipartite: one relation row per A-vertex required",
    ),
    (
        lambda: BipartiteGraph(("a",), ("c",), (2,)),
        "edge-rings.bipartite: relation row has bits beyond side B",
    ),
]


@pytest.mark.parametrize("make, expected", VALIDATION, ids=[m for _, m in VALIDATION])
def test_validation_messages_are_unchanged(make, expected):
    assert _message(make) == expected
