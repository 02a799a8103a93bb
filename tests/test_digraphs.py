import itertools
import random

import pytest

from ordkit.digraphs import (
    Digraph,
    Edge,
    Path,
    all_paths,
    compose,
    count_digraph_homs,
    digraph_of_preorder,
    hom_paths,
    iter_paths,
    reachability_preorder,
)
from ordkit.errors import OrdkitError
from ordkit.relations import Preorder, enumerate_preorders, monotone_maps
from tests import oracles


@pytest.fixture
def triangle():
    """Two parallel arrows a->b, one b->c, and a shortcut a->c."""
    return Digraph(3, (Edge(0, 1, "e"), Edge(0, 1, "f"), Edge(1, 2, "g"), Edge(0, 2, "h")))


def words(paths):
    return sorted("".join(p.labels) if p.labels else f"1_{p.start}" for p in paths)


class TestCompose:
    def test_empty_path_is_two_sided_identity(self, triangle):
        e = Path(0, triangle.edges[:1])
        assert compose(Path(0, ()), e) == e
        assert compose(e, Path(1, ())) == e

    def test_e_then_g(self, triangle):
        e, g = triangle.edges[0], triangle.edges[2]
        eg = compose(Path(0, (e,)), Path(1, (g,)))
        assert eg.start == 0 and eg.end == 2 and eg.labels == ("e", "g")

    def test_g_then_e_rejected(self, triangle):
        e, g = triangle.edges[0], triangle.edges[2]
        with pytest.raises(OrdkitError, match="endpoint mismatch"):
            compose(Path(1, (g,)), Path(0, (e,)))

    def test_associative_on_all_triples(self, triangle):
        pool = all_paths(triangle)
        for a, b, c in itertools.product(pool, repeat=3):
            if a.end == b.start and b.end == c.start:
                assert compose(compose(a, b), c) == compose(a, compose(b, c))

    def test_associative_on_random_chain_triples(self):
        rng = random.Random(7)
        line = Digraph(5, tuple(Edge(i, i + 1, f"t{i}") for i in range(4)))
        pool = all_paths(line)
        for _ in range(200):
            a = rng.choice(pool)
            bs = [p for p in pool if p.start == a.end]
            b = rng.choice(bs)
            cs = [p for p in pool if p.start == b.end]
            c = rng.choice(cs)
            assert compose(compose(a, b), c) == compose(a, compose(b, c))


class TestPaths:
    def test_parallel_arrow_digraph_has_nine_paths(self, triangle):
        found = list(iter_paths(triangle, 2))
        assert len(found) == 9
        assert words(found) == sorted(
            ["1_0", "1_1", "1_2", "e", "f", "g", "h", "eg", "fg"]
        )

    def test_complete_set_equals_bounded_set_on_acyclic(self, triangle):
        assert words(all_paths(triangle)) == words(iter_paths(triangle, 5))

    def test_single_vertex_no_edges(self):
        assert len(list(iter_paths(Digraph(1, ()), 3))) == 1

    def test_cycle_makes_complete_request_fail(self):
        loop = Digraph(2, (Edge(0, 1, "u"), Edge(1, 0, "v")))
        with pytest.raises(OrdkitError, match="cycle"):
            all_paths(loop)

    def test_three_morphisms_a_to_c(self, triangle):
        found = hom_paths(triangle, 0, 2)
        assert words(found) == ["eg", "fg", "h"]

    def test_hom_endpoint_identity_and_empty(self, triangle):
        assert words(hom_paths(triangle, 0, 0)) == ["1_0"]
        assert hom_paths(triangle, 2, 0) == []

    def test_cycle_check_on_long_chain_needs_no_recursion(self):
        n = 2000
        chain = tuple(Edge(v, v + 1, f"e{v}") for v in range(n - 1))
        assert not Digraph(n, chain).has_cycle()
        assert Digraph(n, chain + (Edge(n - 1, 0, "back"),)).has_cycle()

    def test_duplicate_labels_rejected(self):
        with pytest.raises(OrdkitError, match="duplicate"):
            Digraph(2, (Edge(0, 1, "e"), Edge(0, 1, "e")))


def random_multigraph(rng, n):
    """Random edges, parallel ones included, mostly along a shuffled vertex order.

    Each edge runs back against the order, or is a loop, with a chance drawn
    per graph, so that acyclic and cyclic inputs both occur.
    """
    order = rng.sample(range(n), n)
    back = rng.choice((0, 0.05, 0.2, 0.5))
    pairs = []
    for _ in range(rng.randint(0, 2 * n)):
        i, j = sorted(rng.choices(range(n), k=2))
        if rng.random() < back:
            i, j = j, i
        elif i == j:
            continue
        pairs += [(order[i], order[j])] * rng.choice((1, 1, 2))
    return Digraph(n, tuple(Edge(a, b, f"e{k}") for k, (a, b) in enumerate(pairs)))


class TestHasCycle:
    def test_source_peeling_agrees_with_depth_first_search(self):
        rng = random.Random(89)
        cyclic = 0
        for _ in range(5000):
            q = random_multigraph(rng, rng.randint(0, 12))
            assert q.has_cycle() == oracles.has_cycle(q), q
            cyclic += q.has_cycle()
        assert 1000 < cyclic < 4000


class TestReachability:
    def test_parallel_arrow_digraph_gives_three_chain(self, triangle):
        assert reachability_preorder(triangle) == Preorder.chain(3)

    def test_edgeless_gives_discrete(self):
        assert reachability_preorder(Digraph(3, ())) == Preorder.discrete(3)

    def test_two_cycle_gives_coarse(self):
        loop = Digraph(2, (Edge(0, 1, "u"), Edge(1, 0, "v")))
        assert reachability_preorder(loop) == Preorder.coarse(2)

    def test_round_trip_through_digraph_of_preorder(self):
        for n in range(1, 5):
            for p in enumerate_preorders(n):
                assert reachability_preorder(digraph_of_preorder(p)) == p


class TestDigraphOfPreorder:
    def test_discrete_pair_gives_two_loops(self):
        d = digraph_of_preorder(Preorder.discrete(2))
        assert len(d.edges) == 2 and all(e.src == e.dst for e in d.edges)

    def test_two_chain_gives_three_edges(self):
        assert len(digraph_of_preorder(Preorder.chain(2)).edges) == 3

    def test_coarse_pair_gives_four_edges(self):
        assert len(digraph_of_preorder(Preorder.coarse(2)).edges) == 4


def small_multigraphs(max_vertices=3, max_edges=4):
    for n in range(1, max_vertices + 1):
        slots = [(s, t) for s in range(n) for t in range(n)]
        for k in range(max_edges + 1):
            for combo in itertools.combinations_with_replacement(slots, k):
                yield Digraph(
                    n, tuple(Edge(s, t, f"e{i}") for i, (s, t) in enumerate(combo))
                )


class TestHomCounting:
    def test_single_edge_into_doubled_two_chain(self):
        q = Digraph(2, (Edge(0, 1, "x"),))
        assert count_digraph_homs(q, digraph_of_preorder(Preorder.chain(2))) == 3

    def test_edgeless_counts_vertex_maps(self):
        q = Digraph(3, ())
        d = digraph_of_preorder(Preorder.chain(2))
        assert count_digraph_homs(q, d) == 2**3

    def test_two_cycle_must_collapse(self):
        q = Digraph(2, (Edge(0, 1, "u"), Edge(1, 0, "v")))
        assert count_digraph_homs(q, digraph_of_preorder(Preorder.chain(2))) == 2

    def test_matches_brute_force_pair_enumeration(self, triangle):
        d = digraph_of_preorder(Preorder.chain(2))
        brute = 0
        for f in itertools.product(range(d.n), repeat=triangle.n):
            per_edge = []
            for e in triangle.edges:
                per_edge.append(
                    [x for x in d.edges if x.src == f[e.src] and x.dst == f[e.dst]]
                )
            count = 1
            for options in per_edge:
                count *= len(options)
            brute += count
        assert count_digraph_homs(triangle, d) == brute

    def test_adjunction_count_identity_on_the_grid(self):
        preorder_pool = [p for n in range(1, 4) for p in enumerate_preorders(n)]
        for q in small_multigraphs():
            reach = reachability_preorder(q)
            for p in preorder_pool:
                assert count_digraph_homs(q, digraph_of_preorder(p)) == len(
                    monotone_maps(reach, p)
                )
