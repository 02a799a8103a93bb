from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ordkit.digraphs import Digraph, Edge
from ordkit.edgerings import BipartiteGraph, SimpleGraph
from ordkit.errors import OrdkitError
from ordkit.relations import Preorder, Relation, closure
from ordkit.textio import (
    ParseError,
    document_text,
    parse_bipartite,
    parse_digraph,
    parse_document,
    parse_graph,
    parse_int_tuples,
    parse_matrices,
    parse_matrix,
    parse_monomials,
    parse_preorder,
    parse_topology,
    render_bipartite,
    render_digraph,
    render_graph,
    render_int_tuples,
    render_matrix,
    render_monomials,
    render_preorder,
    render_topology,
    render_hasse,
)
from ordkit.topology import from_preorder
from tests import oracles


name_st = st.from_regex(r"[a-z][a-z0-9]{0,3}", fullmatch=True)
names_st = st.lists(name_st, min_size=1, max_size=5, unique=True)

preorder_with_names = names_st.flatmap(
    lambda names: st.tuples(
        st.just(tuple(names)),
        st.tuples(*([st.integers(0, (1 << len(names)) - 1)] * len(names))).map(
            lambda rows: closure(Relation(len(names), rows))
        ),
    )
)


@st.composite
def digraphs_with_names(draw):
    names = tuple(draw(names_st))
    n = len(names)
    ends = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=6))
    labels = draw(st.lists(name_st, min_size=len(ends), max_size=len(ends), unique=True))
    edges = tuple(Edge(src, dst, label) for (src, dst), label in zip(ends, labels))
    return Digraph(n, edges), names


@st.composite
def simple_graphs(draw):
    names = tuple(draw(names_st))
    n = len(names)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    return SimpleGraph(names, tuple(sorted(edges)))


@st.composite
def bipartite_graphs(draw):
    names = tuple(draw(names_st))
    k = draw(st.integers(0, len(names)))
    a_names, b_names = names[:k], names[k:]
    row = st.integers(0, (1 << len(b_names)) - 1)
    return BipartiteGraph(a_names, b_names, tuple(draw(row) for _ in a_names))


class TestPreorderGrammar:
    def test_two_chain(self):
        p, names = parse_preorder("n=2; pairs: v<=w")
        assert p == Preorder.chain(2) and names == ("v", "w")

    def test_default_names_for_three_points(self):
        p, names = parse_preorder("n=3; pairs: x<=y, y<=x")
        assert names == ("x", "y", "z")
        assert p.le(0, 1) and p.le(1, 0) and not p.le(0, 2)

    def test_unknown_point_name(self):
        with pytest.raises(ParseError, match="unknown point name 'u'"):
            parse_preorder("n=2; pairs: v<=u")

    def test_explicit_points_header(self):
        p, names = parse_preorder("n=2; points: hi,lo; pairs: lo<=hi")
        assert names == ("hi", "lo") and p.le(1, 0)

    def test_closure_applied_by_default(self):
        p, _ = parse_preorder("n=3; pairs: x<=y, y<=z")
        assert p.le(0, 2)

    def test_strict_mode_reports_missing_pair(self):
        with pytest.raises(OrdkitError, match="missing pair"):
            parse_preorder("n=2; pairs: v<=w", close=False)

    def test_strict_mode_accepts_closed_input(self):
        text = "n=2; pairs: v<=v, w<=w, v<=w"
        p, _ = parse_preorder(text, close=False)
        assert p == Preorder.chain(2)

    @settings(max_examples=80)
    @given(preorder_with_names)
    def test_round_trip(self, case):
        names, p = case
        assert parse_preorder(render_preorder(p, names)) == (p, names)


class TestMonomialGrammar:
    def test_basic_generators(self):
        vectors, names = parse_monomials("x^2, x*y, y^3")
        assert names == ("x", "y")
        assert vectors == [(2, 0), (1, 1), (0, 3)]

    def test_three_variable_ideal(self):
        vectors, names = parse_monomials("x, y^2, y*z, z^3")
        assert names == ("x", "y", "z")
        assert vectors == [(1, 0, 0), (0, 2, 0), (0, 1, 1), (0, 0, 3)]

    def test_double_caret_reports_column(self):
        with pytest.raises(ParseError, match="column 3"):
            parse_monomials("x^^2")

    def test_vars_header_fixes_order(self):
        vectors, names = parse_monomials("vars: z,y,x; x*y")
        assert names == ("z", "y", "x")
        assert vectors == [(0, 1, 1)]

    def test_vars_header_rejects_duplicates(self):
        with pytest.raises(ParseError, match="duplicate variable"):
            parse_monomials("vars: x,x; x")

    def test_vars_header_rejects_unknown_names(self):
        with pytest.raises(ParseError, match="not in vars header"):
            parse_monomials("vars: x,y; x*w")

    def test_unit_generator_and_repeats(self):
        vectors, names = parse_monomials("1, x*x")
        assert vectors == [(0,), (2,)]

    def test_zero_ideal_with_header(self):
        vectors, names = parse_monomials("vars: x,y;")
        assert vectors == [] and names == ("x", "y")

    @settings(max_examples=80)
    @given(
        names_st,
        st.data(),
    )
    def test_round_trip(self, names, data):
        n = len(names)
        vectors = data.draw(
            st.lists(st.tuples(*([st.integers(0, 4)] * n)), min_size=0, max_size=4)
        )
        text = render_monomials(vectors, names)
        assert parse_monomials(text) == (list(vectors), tuple(names))


def _monomials_outcome(parse, text):
    try:
        return parse(text)
    except ParseError as e:
        return str(e)


# Tokens of the monomial grammar, with the near misses that its quirks turn
# on: "12" is 1 then an unexpected '2', only space, tab and newline are
# blanks while "vars\r:" is a header, and "\u0663" (Arabic-Indic three) is
# a digit.
MONOMIAL_TOKENS = [
    "x", "y", "z", "x1", "a.b", "a.", "w", "X", "vars", "vars:", "vars :", "vars\r:",
    "0", "1", "12", "00", "^", "^2", "^0", "^12", "^\u0663", "\u0663",
    "*", ",", ";", " ", "\t", "\n", "\r", "\x0b", "\xa0",
]


class TestMonomialGrammarAgainstTheScanner:
    """The pattern-based parser against the character scanner it replaced."""

    @settings(max_examples=400)
    @given(st.booleans(), st.lists(st.sampled_from(MONOMIAL_TOKENS), max_size=12))
    def test_token_strings(self, header, tokens):
        text = ("vars: " if header else "") + "".join(tokens)
        assert _monomials_outcome(parse_monomials, text) == _monomials_outcome(
            oracles.parse_monomials, text
        )

    @settings(max_examples=200)
    @given(st.text())
    def test_any_text(self, text):
        assert _monomials_outcome(parse_monomials, text) == _monomials_outcome(
            oracles.parse_monomials, text
        )


@pytest.mark.parametrize(
    "text, column, message",
    [
        ("vars: x,  ;", 11, "expected a variable name"),
        ("vars: ab.c, y ,ab.c ; x", 20, "duplicate variable 'ab.c' in vars header"),
        ("vars: x  y; x", 10, "expected ';' after vars header"),
        ("x * \t, y", 6, "expected a variable name or 1"),
        ("vars: x; x*  w", 14, "variable 'w' not in vars header"),
        ("x^ 2", 3, "expected a positive exponent after ^"),
        ("x * y^00", 7, "exponent must be positive"),
        ("x, 12", 5, "unexpected character '2'"),
    ],
)
def test_monomial_messages_and_columns(text, column, message):
    with pytest.raises(ParseError) as info:
        parse_monomials(text)
    assert info.value.column == column
    assert str(info.value) == f"parse error at column {column}: {message}"


@pytest.mark.parametrize(
    "text, expected",
    [
        ("x^\u0663", ([(3,)], ("x",))),
        ("vars\r\x0b: x; x", ([(1,)], ("x",))),
        ("  vars :z ,y;y", ([(0, 1)], ("z", "y"))),
        ("y*x^2, 1,", ([(1, 2), (0, 0)], ("y", "x"))),
        ("", ([], ())),
    ],
)
def test_monomial_grammar_quirks(text, expected):
    assert parse_monomials(text) == expected


class TestDigraphGrammar:
    def test_parallel_arrow_digraph(self):
        q, names = parse_digraph("n=3; edges: a->b:e, a->b:f, b->c:g, a->c:h")
        assert names == ("a", "b", "c")
        assert [e.label for e in q.edges] == ["e", "f", "g", "h"]

    def test_labels_autogenerated(self):
        q, _ = parse_digraph("n=2; edges: a->b, a->b")
        assert [e.label for e in q.edges] == ["e0", "e1"]

    def test_bare_count_with_edge_lines(self):
        q, names = parse_digraph("3\na->b:e\nb->c:g\n")
        assert names == ("a", "b", "c")
        assert [e.label for e in q.edges] == ["e", "g"]

    @settings(max_examples=80)
    @given(digraphs_with_names())
    def test_round_trip_property(self, case):
        q, names = case
        assert parse_digraph(render_digraph(q, names)) == (q, names)

    def test_round_trip(self):
        q = Digraph(3, (Edge(0, 1, "e"), Edge(0, 1, "f"), Edge(1, 2, "g")))
        names = ("a", "b", "c")
        assert parse_digraph(render_digraph(q, names)) == (q, names)


class TestGraphGrammar:
    def test_bare_edge_list(self):
        g = parse_graph("a-b, b-c, c-d")
        assert g.vertices == ("a", "b", "c", "d")
        assert g.edges == ((0, 1), (1, 2), (2, 3))

    def test_points_header_allows_isolated_vertices(self):
        g = parse_graph("points: a,b,c; edges: a-b")
        assert g.vertices == ("a", "b", "c") and g.edges == ((0, 1),)

    def test_loop_rejected(self):
        with pytest.raises(ParseError, match="loop"):
            parse_graph("a-a")

    @settings(max_examples=80)
    @given(simple_graphs())
    def test_round_trip_property(self, g):
        assert parse_graph(render_graph(g)) == g

    def test_round_trip(self):
        g = SimpleGraph(("a", "b", "c"), ((0, 1), (0, 2)))
        assert parse_graph(render_graph(g)) == g


class TestBipartiteGrammar:
    def test_parts_and_edges(self):
        g = parse_bipartite("A: a,c | B: b,d | edges: a-b, b-c, c-d")
        assert g.a_names == ("a", "c") and g.b_names == ("b", "d")
        assert g.relation == (0b01, 0b11)

    def test_edge_within_one_side_rejected(self):
        with pytest.raises(ParseError, match="does not join"):
            parse_bipartite("A: a,c | B: b,d | edges: a-c")

    @settings(max_examples=80)
    @given(bipartite_graphs())
    def test_round_trip_property(self, g):
        assert parse_bipartite(render_bipartite(g)) == g

    def test_round_trip(self):
        g = BipartiteGraph(("a", "c"), ("b", "d"), (0b01, 0b11))
        assert parse_bipartite(render_bipartite(g)) == g


class TestMatrixGrammar:
    def test_rational_entries(self):
        g = parse_matrix("1,0; 1/2,3")
        assert g.entries[1][0] == Fraction(1, 2)

    def test_bad_literal(self):
        with pytest.raises(ParseError, match="bad rational"):
            parse_matrix("1,x; 0,1")

    def test_non_square_rejected(self):
        with pytest.raises(ParseError, match="square"):
            parse_matrix("1,0,0; 0,1,0")

    def test_many_round_trip(self):
        mats = parse_matrices("1,0;0,1 | 1,1/3;0,2")
        assert len(mats) == 2
        for m in mats:
            assert parse_matrix(render_matrix(m)) == m


class TestTopologyGrammar:
    def test_opens_parse_and_validate(self):
        t, names = parse_topology("points: v,w; opens: {}, {w}, {v,w}")
        assert t.opens == (0, 2, 3) and names == ("v", "w")

    def test_axiom_violation_is_domain_error(self):
        with pytest.raises(OrdkitError, match="union"):
            parse_topology("points: a,b,c; opens: {}, {a}, {b}, {a,b,c}")

    def test_unknown_point(self):
        with pytest.raises(ParseError, match="unknown point"):
            parse_topology("points: a,b; opens: {}, {c}, {a,b}")

    @settings(max_examples=80)
    @given(preorder_with_names)
    def test_round_trip_property(self, case):
        names, p = case
        t = from_preorder(p)
        assert parse_topology(render_topology(t, names)) == (t, names)

    def test_round_trip(self):
        for p in [Preorder.chain(3), Preorder.discrete(2), Preorder.coarse(2)]:
            t = from_preorder(p)
            names = tuple(f"p{i}" for i in range(p.n))
            assert parse_topology(render_topology(t, names)) == (t, names)


class TestIntTuples:
    def test_parse(self):
        assert parse_int_tuples("1,2; 0,3") == [(1, 2), (0, 3)]

    def test_round_trip(self):
        values = [(0, 1, 5), (2, 2, 2)]
        assert parse_int_tuples(render_int_tuples(values)) == values

    def test_bad_token(self):
        with pytest.raises(ParseError, match="bad integer"):
            parse_int_tuples("1,a")


class TestDiagrams:
    def test_two_chain_hasse(self):
        out = render_hasse(Preorder.chain(2), ("v", "w"))
        assert '"v" -> "w";' in out and "rankdir=BT" in out

    def test_coarse_pair_is_single_bubble_node(self):
        out = render_hasse(Preorder.coarse(2), ("v", "w"))
        assert '"v,w";' in out and "->" not in out

    def test_bubble_under_singleton(self):
        p = Preorder.from_pairs(3, [(0, 1), (1, 0), (0, 2)])
        out = render_hasse(p, ("x", "y", "z"))
        assert '"x,y" -> "z";' in out

    def test_three_chain_has_covers_only(self):
        out = render_hasse(Preorder.chain(3), ("a", "b", "c"))
        assert '"a" -> "b";' in out and '"b" -> "c";' in out
        assert '"a" -> "c";' not in out


class TestDocuments:
    def test_byte_identical_round_trip(self):
        doc = {"kind": "preorder", "n": 2, "points": ["v", "w"], "pairs": [["v", "w"]]}
        text = document_text(doc)
        assert document_text(parse_document(text)) == text

    def test_canonical_key_order(self):
        assert document_text({"b": 1, "a": 2}) == '{\n  "a": 2,\n  "b": 1\n}\n'

    @settings(max_examples=50)
    @given(
        st.recursive(
            st.one_of(st.integers(), st.text(max_size=8), st.booleans()),
            lambda inner: st.one_of(
                st.lists(inner, max_size=4),
                st.dictionaries(st.text(max_size=6), inner, max_size=4),
            ),
            max_leaves=20,
        )
    )
    def test_round_trip_any_document(self, doc):
        text = document_text(doc)
        assert document_text(parse_document(text)) == text


# One input per ParseError message of the five section grammars, plus the
# cases whose message depends on which check runs first.
GRAMMAR_ERRORS = [
    (parse_preorder, "2; pairs: v<=w", "expected n=<count> first, got '2'"),
    (parse_preorder, "n=2; foo: x", "unknown section 'foo: x'"),
    (parse_preorder, "n=2; points: a,B", "bad point name 'B'"),
    (parse_preorder, "n=2; pairs: v<=W", "bad point name 'W'"),
    (parse_preorder, "n=2; pairs: v-w", "expected a<=b, got 'v-w'"),
    (parse_preorder, "n=2; points: a,b,c", "3 point names for n=2"),
    (parse_preorder, "n=2; points: a,a", "duplicate point names"),
    (parse_preorder, "n=2; pairs: v<=u", "unknown point name 'u'"),
    (parse_preorder, "n=2; points: a,B; foo", "bad point name 'B'"),
    (parse_preorder, "n=2; points: A; points: a,b", "bad point name 'A'"),
    (parse_preorder, "n=2; pairs: v-w, x; foo", "unknown section 'foo'"),
    (parse_digraph, "n=x; edges: a->b", "expected n=<count> first, got 'n=x'"),
    (parse_digraph, "n=2; pairs: a<=b", "unknown section 'pairs: a<=b'"),
    (parse_digraph, "n=2; points: a,B", "bad point name 'B'"),
    (parse_digraph, "n=2; edges: a-b", "expected src->dst:label, got 'a-b'"),
    (parse_digraph, "n=2; points: a,b,c", "need 2 distinct vertex names"),
    (parse_digraph, "n=2; points: a,a", "need 2 distinct vertex names"),
    (parse_digraph, "n=2; edges: c->a", "unknown vertex name 'c'"),
    (parse_digraph, "2\na->b\nb->x", "unknown vertex name 'x'"),
    (parse_digraph, "n=2; points: x,Y; foo", "bad point name 'Y'"),
    (parse_digraph, "n=2; points: A; points: a,b", "bad point name 'A'"),
    (parse_graph, "foo: a-b", "unknown section 'foo: a-b'"),
    (parse_graph, "points: a,B", "bad vertex name 'B'"),
    (parse_graph, "a-B", "bad vertex name 'B'"),
    (parse_graph, "a+b", "expected a-b, got 'a+b'"),
    (parse_graph, "points: a,b; edges: a-c", "unknown vertex name 'c'"),
    (parse_graph, "a-b, b-b", "loop at vertex 'b'"),
    (parse_graph, "points: a,B; foo", "bad vertex name 'B'"),
    (parse_graph, "points: A; points: a,b", "bad vertex name 'A'"),
    (parse_graph, "points: a,b; a-b", "unknown section 'a-b'"),
    (parse_graph, "a-b; c-d", "unknown section 'c-d'"),
    (parse_graph, "edges: a-b; c-d", "unknown section 'c-d'"),
    (parse_graph, "points: a,a,b; edges: a-b", "duplicate vertex names"),
    (parse_graph, "points: a,a; edges: a-c", "duplicate vertex names"),
    (parse_bipartite, "A: a | B: b | foo", "unknown section 'foo'"),
    (parse_bipartite, "A: a,C | B: b", "bad vertex name 'C'"),
    (parse_bipartite, "A: a | B: b,C", "bad vertex name 'C'"),
    (parse_bipartite, "A: a | B: b | edges: a+b", "expected a-b, got 'a+b'"),
    (parse_bipartite, "A: a | B: a", "sides A and B must not share names"),
    (parse_bipartite, "A: a,c | B: b | edges: a-c", "edge 'a-c' does not join side A to side B"),
    (parse_bipartite, "A: a,C | B: b | foo", "bad vertex name 'C'"),
    (parse_bipartite, "A: C | A: a | B: b", "bad vertex name 'C'"),
    (parse_bipartite, "B: b | edges: a-b", "need both 'A:' and 'B:' sections"),
    (parse_bipartite, "A: a", "need both 'A:' and 'B:' sections"),
    (parse_bipartite, "A: a,a | B: b", "duplicate vertex names"),
    (parse_bipartite, "A: a | B: b,c,b", "duplicate vertex names"),
    (parse_bipartite, "A: a,a | B: a", "sides A and B must not share names"),
    (parse_bipartite, "A: a,a | B: b | edges: a+b", "duplicate vertex names"),
    (parse_topology, "points: a; opens: {}, {a}; foo", "unknown section 'foo'"),
    (parse_topology, "points: a,B; opens: {}", "bad point name 'B'"),
    (parse_topology, "points: a", "need both 'points:' and 'opens:' sections"),
    (parse_topology, "opens: {}", "need both 'points:' and 'opens:' sections"),
    (parse_topology, "points: a,a; opens: {}", "duplicate point names"),
    (parse_topology, "points: a; opens: {}, a", "expected {...} set, got 'a'"),
    (parse_topology, "points: a; opens: {}, {b}", "unknown point name 'b'"),
    (parse_topology, "points: a,B; foo", "bad point name 'B'"),
    (parse_topology, "points: A; points: a; opens: {}, {a}", "bad point name 'A'"),
]


@pytest.mark.parametrize(
    "parse, text, expected",
    GRAMMAR_ERRORS,
    ids=[f"{parse.__name__}:{text}" for parse, text, _ in GRAMMAR_ERRORS],
)
def test_grammar_messages_are_unchanged(parse, text, expected):
    with pytest.raises(ParseError) as info:
        parse(text)
    assert str(info.value) == "parse error: " + expected


@pytest.mark.parametrize(
    "parse, text, same_as",
    [
        (parse_preorder, "n=2;; ; pairs: w<=v ;", "n=2; pairs: w<=v"),
        (parse_preorder, "n=2; pairs: v-w; pairs: v<=w", "n=2; pairs: v<=w"),
        (parse_graph, ";; a-b; edges: c-d", "edges: c-d"),
        (parse_topology, "opens: {}, {a}; points: b; points: a", "points: a; opens: {}, {a}"),
    ],
)
def test_empty_parts_are_skipped_and_a_later_section_replaces_an_earlier_one(parse, text, same_as):
    assert parse(text) == parse(same_as)
