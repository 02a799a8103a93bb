import ast
import itertools
import random
from pathlib import Path

import pytest

from ordkit.edgerings import (
    BipartiteGraph,
    SquarefreeIdeal,
    alexander_dual,
    antichain_dimension,
    co_letterplace,
    doubled_poset_ideal,
    edge_ideal,
    has_linear_resolution_shape,
    is_cm_bipartite,
    kdim_artinian,
    letterplace,
    quotient_identify,
)
from ordkit.errors import OrdkitError
from ordkit.monomials import minimalize
from ordkit.relations import (
    Preorder,
    are_isomorphic,
    classify,
    enumerate_preorders,
    monotone_maps,
    relabel,
)
from ordkit.textio import parse_bipartite, parse_graph, render_ideal
from tests import oracles

GOLDEN = Path(__file__).parent / "golden"


def posets(n):
    return [p for p in enumerate_preorders(n) if classify(p).partial_order]


def shuffled_poset_graph(rng, n):
    """A random poset, and its graph with point x as A-vertex ``label[x]`` and B-vertex ``place[x]``."""
    rank = rng.sample(range(n), n)
    p = Preorder.from_pairs(n, [(x, y) for x in range(n) for y in range(n) if rank[x] < rank[y] and rng.random() < 0.2])
    label, place = rng.sample(range(n), n), rng.sample(range(n), n)
    relation = [0] * n
    for x, y in p.pairs():
        relation[label[x]] |= 1 << place[y]
    names = tuple(f"a{i}" for i in range(n)), tuple(f"b{j}" for j in range(n))
    return p, label, place, BipartiteGraph(*names, tuple(relation))


class TestEdgeIdeal:
    def test_path_graph(self):
        g = parse_graph("a-b, b-c, c-d")
        assert render_ideal(edge_ideal(g)) == "vars: a,b,c,d; c*d, b*c, a*b"

    def test_four_cycle(self):
        g = parse_graph("a-b, b-c, c-d, d-a")
        assert sorted(edge_ideal(g).ideal.gens) == sorted(
            [(1, 1, 0, 0), (0, 1, 1, 0), (0, 0, 1, 1), (1, 0, 0, 1)]
        )

    def test_edgeless_graph_gives_zero_ideal(self):
        g = parse_graph("points: a,b; edges:")
        assert edge_ideal(g).ideal.is_zero


class TestDoubledPosetIdeal:
    def test_two_chain_has_three_generators(self):
        ideal = doubled_poset_ideal(Preorder.chain(2), ["v", "w"])
        assert render_ideal(ideal) == "vars: v.1,w.1,v.2,w.2; w.1*w.2, v.1*w.2, v.1*v.2"

    def test_discrete_pair_gives_perfect_matching(self):
        ideal = doubled_poset_ideal(Preorder.discrete(2), ["v", "w"])
        assert len(ideal.ideal.gens) == 2

    def test_singleton(self):
        ideal = doubled_poset_ideal(Preorder.discrete(1), ["v"])
        assert render_ideal(ideal) == "vars: v.1,v.2; v.1*v.2"

    def test_non_poset_rejected(self):
        with pytest.raises(OrdkitError, match="antisymmetric"):
            doubled_poset_ideal(Preorder.coarse(2))


class TestQuotientIdentify:
    def test_doubled_two_chain_collapses_to_squares_and_product(self):
        ideal = quotient_identify(doubled_poset_ideal(Preorder.chain(2), ["v", "w"]))
        assert render_ideal(ideal) == "vars: v,w; w^2, v*w, v^2"

    def test_doubled_discrete_pair(self):
        ideal = quotient_identify(doubled_poset_ideal(Preorder.discrete(2), ["v", "w"]))
        assert sorted(ideal.ideal.gens) == [(0, 2), (2, 0)]

    def test_doubled_singleton(self):
        ideal = quotient_identify(doubled_poset_ideal(Preorder.discrete(1), ["v"]))
        assert ideal.ideal.gens == ((2,),)

    def test_undoubled_ground_rejected(self):
        plain = SquarefreeIdeal(("a", "b"), minimalize(2, [(1, 1)]))
        with pytest.raises(OrdkitError, match="doubled|base"):
            quotient_identify(plain)


class TestArtinianDimension:
    def test_two_chain_quotient_is_three_dimensional(self):
        assert kdim_artinian(minimalize(2, [(2, 0), (1, 1), (0, 2)])) == 3

    def test_pure_squares(self):
        assert kdim_artinian(minimalize(2, [(2, 0), (0, 2)])) == 4

    def test_single_variable(self):
        assert kdim_artinian(minimalize(1, [(1,)])) == 1

    def test_uncovered_variable_reported(self):
        with pytest.raises(OrdkitError, match="pure power of variable y"):
            kdim_artinian(minimalize(2, [(2, 0)]), names=("x", "y"))

    def test_matches_direct_standard_monomial_count(self):
        from ordkit.monomials import contains, monomials_up_to_degree

        ideal = minimalize(2, [(3, 0), (1, 2), (0, 3)])
        standard = [
            m for m in monomials_up_to_degree(2, 6) if not contains(ideal, m)
        ]
        assert kdim_artinian(ideal) == len(standard)


class TestDimensionIdentity:
    def test_two_chain_antichain_count(self):
        assert antichain_dimension(Preorder.chain(2)) == 3

    def test_discrete_pair(self):
        assert antichain_dimension(Preorder.discrete(2)) == 4

    def test_three_chain(self):
        assert antichain_dimension(Preorder.chain(3)) == 4

    def test_non_poset_rejected(self):
        with pytest.raises(OrdkitError, match="antisymmetric"):
            antichain_dimension(Preorder.coarse(2))

    def test_kdim_equals_antichain_count_up_to_four_points(self):
        for n in range(1, 5):
            for p in posets(n):
                quotient = quotient_identify(doubled_poset_ideal(p))
                assert kdim_artinian(quotient.ideal, quotient.ground) == antichain_dimension(p)


def all_bipartite(n):
    for masks in itertools.product(range(1 << n), repeat=n):
        yield BipartiteGraph(
            tuple(f"a{i}" for i in range(n)),
            tuple(f"b{j}" for j in range(n)),
            masks,
        )


class TestCMBipartite:
    def test_path_graph_witness_is_two_chain(self):
        g = parse_bipartite("A: a,c | B: b,d | edges: a-b, b-c, c-d")
        witness = is_cm_bipartite(g)
        assert witness is not None
        assert witness.matching == (0, 1)
        assert are_isomorphic(witness.poset, Preorder.chain(2))

    def test_four_cycle_has_no_witness(self):
        g = parse_bipartite("A: a,c | B: b,d | edges: a-b, b-c, c-d, d-a")
        assert is_cm_bipartite(g) is None

    def test_perfect_matching_witnesses_discrete_poset(self):
        for k in (1, 2, 3):
            g = BipartiteGraph(
                tuple(f"a{i}" for i in range(k)),
                tuple(f"b{i}" for i in range(k)),
                tuple(1 << i for i in range(k)),
            )
            witness = is_cm_bipartite(g)
            assert witness is not None and witness.poset == Preorder.discrete(k)

    def test_unequal_sides_give_none(self):
        g = BipartiteGraph(("a",), ("b", "c"), (0b11,))
        assert is_cm_bipartite(g) is None

    def test_guard(self):
        big = BipartiteGraph(
            tuple(f"a{i}" for i in range(17)),
            tuple(f"b{i}" for i in range(17)),
            tuple(0 for _ in range(17)),
        )
        with pytest.raises(OrdkitError, match="guard"):
            is_cm_bipartite(big)

    def test_soundness_on_all_small_bipartite_graphs(self):
        for n in (1, 2, 3):
            for g in all_bipartite(n):
                witness = is_cm_bipartite(g)
                if witness is None:
                    continue
                rebuilt = [0] * n
                for v in range(n):
                    for w in range(n):
                        if witness.poset.le(v, w):
                            rebuilt[v] |= 1 << witness.matching[w]
                assert tuple(rebuilt) == g.relation

    def test_soundness_on_random_four_by_four_relations(self):
        import random

        rng = random.Random(99)
        for _ in range(1500):
            masks = tuple(rng.randrange(16) for _ in range(4))
            g = BipartiteGraph(
                tuple(f"a{i}" for i in range(4)),
                tuple(f"b{j}" for j in range(4)),
                masks,
            )
            witness = is_cm_bipartite(g)
            if witness is None:
                continue
            rebuilt = [0] * 4
            for v in range(4):
                for w in range(4):
                    if witness.poset.le(v, w):
                        rebuilt[v] |= 1 << witness.matching[w]
            assert tuple(rebuilt) == masks
            assert classify(witness.poset).partial_order

    def test_completeness_on_doubled_posets_up_to_four_points(self):
        for n in range(1, 5):
            for p in posets(n):
                g = BipartiteGraph(
                    tuple(f"v{i}.1" for i in range(n)),
                    tuple(f"v{i}.2" for i in range(n)),
                    p.rows,
                )
                witness = is_cm_bipartite(g)
                assert witness is not None
                assert are_isomorphic(witness.poset, p)

    def test_the_graph_of_a_poset_has_exactly_one_perfect_matching(self):
        # The fact the peel relies on: i <= match(i) for all i forces the identity.
        for n in range(1, 5):
            for p in posets(n):
                assert list(oracles.perfect_matchings(p.rows)) == [tuple(range(n))]

    def test_seeded_posets_on_eleven_to_sixteen_points_with_both_sides_shuffled(self):
        rng = random.Random(26)
        for _ in range(60):
            p, label, place, g = shuffled_poset_graph(rng, rng.randint(11, 16))
            witness = is_cm_bipartite(g)
            assert witness is not None
            assert witness.poset == relabel(p, label)
            assert all(witness.matching[label[x]] == place[x] for x in range(p.n))

    def test_one_bit_mutations_give_none_or_a_witness_that_rebuilds_the_relation(self):
        rng = random.Random(27)
        kept = 0
        for _ in range(300):
            n = rng.randint(11, 16)
            g = shuffled_poset_graph(rng, n)[3]
            relation = list(g.relation)
            relation[rng.randrange(n)] ^= 1 << rng.randrange(n)
            g = BipartiteGraph(g.a_names, g.b_names, tuple(relation))
            witness = is_cm_bipartite(g)
            if witness is None:
                continue
            kept += 1
            assert classify(witness.poset).partial_order
            rebuilt = [sum(1 << witness.matching[w] for w in range(n) if witness.poset.le(v, w)) for v in range(n)]
            assert tuple(rebuilt) == g.relation
        assert 0 < kept < 300


class TestLinearResolutionShape:
    def test_full_relation(self):
        g = parse_bipartite("A: a1,a2 | B: b1,b2 | edges: a1-b1, a1-b2, a2-b1, a2-b2")
        assert has_linear_resolution_shape(g)

    def test_path_neighborhoods_form_a_chain(self):
        g = parse_bipartite("A: a,c | B: b,d | edges: a-b, b-c, c-d")
        assert has_linear_resolution_shape(g)

    def test_two_matching_is_incomparable(self):
        g = parse_bipartite("A: a1,a2 | B: b1,b2 | edges: a1-b1, a2-b2")
        assert not has_linear_resolution_shape(g)

    def test_agrees_with_total_order_brute_force(self):
        """Oracle: some pair of total orders makes the relation an up-set of
        the product order; rectangular side sizes included."""
        for na in (1, 2, 3):
            for nb in (1, 2, 3):
                for masks in itertools.product(range(1 << nb), repeat=na):
                    g = BipartiteGraph(
                        tuple(f"a{i}" for i in range(na)),
                        tuple(f"b{j}" for j in range(nb)),
                        masks,
                    )
                    brute = any(
                        all(
                            g.has(i2, j2)
                            for i in range(na)
                            for j in range(nb)
                            if g.has(i, j)
                            for i2 in range(na)
                            if sigma[i2] >= sigma[i]
                            for j2 in range(nb)
                            if tau[j2] >= tau[j]
                        )
                        for sigma in itertools.permutations(range(na))
                        for tau in itertools.permutations(range(nb))
                    )
                    assert brute == has_linear_resolution_shape(g), masks


class TestLetterplace:
    def test_l2_of_two_chain_matches_doubled_ideal(self):
        lp = letterplace(Preorder.chain(2), Preorder.chain(2), ["i", "j"], ["v", "w"])
        doubled = doubled_poset_ideal(Preorder.chain(2), ["v", "w"])
        relabeled = {
            tuple(sorted(f"{b}.{2 if a == 'j' else 1}" for a, b in
                         (part.split(".") for part in
                          (lp.ground[i] for i, e in enumerate(g) if e))))
            for g in lp.ideal.gens
        }
        expected = {
            tuple(sorted(lp_part for lp_part, e in zip(doubled.ground, g) if e))
            for g in doubled.ideal.gens
        }
        assert relabeled == expected
        assert len(lp.ideal.gens) == 3

    def test_two_chain_letterplace_matches_doubled_ideal_for_all_small_posets(self):
        two = Preorder.chain(2)
        swap = {"c1": "1", "c2": "2"}
        for n in range(1, 5):
            for v in posets(n):
                names = tuple(f"q{k}" for k in range(n))
                lp = letterplace(two, v, ("c1", "c2"), names)
                dbl = doubled_poset_ideal(v, names)
                lp_sets = {
                    frozenset(
                        f"{qn}.{swap[pn]}"
                        for i, e in enumerate(g)
                        if e
                        for pn, qn in [lp.ground[i].split(".")]
                    )
                    for g in lp.ideal.gens
                }
                dbl_sets = {
                    frozenset(name for name, e in zip(dbl.ground, g) if e)
                    for g in dbl.ideal.gens
                }
                assert lp_sets == dbl_sets

    def test_l1_lists_the_points(self):
        lp = letterplace(Preorder.discrete(1), Preorder.chain(3))
        assert [sum(g) for g in lp.ideal.gens] == [1, 1, 1]

    def test_l2_of_discrete_pair_keeps_constant_maps(self):
        lp = letterplace(Preorder.chain(2), Preorder.discrete(2))
        assert len(lp.ideal.gens) == 2

    def test_coarse_source_into_discrete_keeps_only_constants(self):
        lp = letterplace(Preorder.coarse(2), Preorder.discrete(2))
        assert lp.ideal.gens == ((0, 1, 0, 1), (1, 0, 1, 0))

    def test_generator_count_is_hom_count(self):
        for p in enumerate_preorders(2):
            for q in enumerate_preorders(2):
                lp = letterplace(p, q)
                assert len(lp.ideal.gens) == len(monotone_maps(p, q))


class TestCoLetterplace:
    def test_singleton_with_constants(self):
        ideal = co_letterplace(Preorder.discrete(1), [(0,), (1,)], 1, ["v"])
        assert render_ideal(ideal) == "vars: v.0,v.1; v.1, v.0"

    def test_two_chain_full_hom_depth_one(self):
        two = Preorder.chain(2)
        maps = [f.values for f in monotone_maps(two, Preorder.chain(2))]
        ideal = co_letterplace(two, maps, 1, ["v", "w"])
        assert [sum(g) for g in ideal.ideal.gens] == [2, 2, 2]

    def test_missing_smaller_map_rejected(self):
        two = Preorder.chain(2)
        with pytest.raises(OrdkitError, match="down-set violation.*\\(0, 0\\)"):
            co_letterplace(two, [(0, 1)], 1, ["v", "w"])

    def test_non_monotone_map_rejected(self):
        two = Preorder.chain(2)
        with pytest.raises(OrdkitError, match="monotone"):
            co_letterplace(two, [(1, 0), (0, 0)], 1, ["v", "w"])

    @pytest.mark.parametrize(
        "order, maps, missing",
        [
            # The first listed map in ascending order, then its first missing cover by point.
            (Preorder.discrete(2), [(1, 1)], (0, 1)),
            (Preorder.discrete(2), [(1, 1), (0, 0), (0, 1)], (1, 0)),
            (Preorder.discrete(2), [(1, 1), (1, 0)], (0, 0)),
            # Lowering w in v <= w to below v is not monotone, so only (0, 1) is a cover of (1, 1).
            (Preorder.chain(2), [(1, 1)], (0, 1)),
            (Preorder.chain(2), [(1, 1), (0, 1)], (0, 0)),
            (Preorder.chain(3), [(0, 1, 1), (1, 1, 1)], (0, 0, 1)),
        ],
    )
    def test_down_set_witness_is_the_first_missing_cover(self, order, maps, missing):
        with pytest.raises(OrdkitError) as info:
            co_letterplace(order, maps, 1)
        assert str(info.value) == (
            f"edge-rings.co_letterplace: down-set violation: missing pointwise-smaller map {missing}"
        )

    def test_cover_check_matches_the_all_maps_scan_on_random_map_sets(self):
        rng = random.Random(2005)
        pool = [p for n in range(1, 5) for p in posets(n)]
        outcomes = {True: 0, False: 0}
        for _ in range(3000):
            order = rng.choice(pool)
            d = rng.randint(0, 3 if order.n <= 3 else 2)
            homs = [f.values for f in monotone_maps(order, Preorder.chain(d + 1))]
            picked = rng.sample(homs, rng.randint(0, min(len(homs), 5)))
            if rng.random() < 0.5:
                # Down-close the picked maps, then sometimes drop one map again.
                picked = [g for g in homs if any(all(a <= b for a, b in zip(g, f)) for f in picked)]
                if picked and rng.random() < 0.5:
                    picked.remove(rng.choice(picked))
            rng.shuffle(picked)
            expected = oracles.missing_smaller_map(order, picked, d)
            try:
                co_letterplace(order, picked, d)
            except OrdkitError as exc:
                assert expected is not None, (order, picked, d)
                named = ast.literal_eval(str(exc).rpartition(" map ")[2])
                assert named in homs and named not in picked
                assert any(
                    sum(b - a for a, b in zip(named, f)) == 1 and all(a <= b for a, b in zip(named, f))
                    for f in picked
                )
                outcomes[False] += 1
            else:
                assert expected is None, (order, picked, d)
                outcomes[True] += 1
        assert min(outcomes.values()) > 750, outcomes


class TestPosetPreamble:
    """The three poset-taking kernels share one preamble, each tagging errors with its own name."""

    @pytest.mark.parametrize(
        "call, op",
        [
            (lambda order, names: doubled_poset_ideal(order, names), "doubled_poset_ideal"),
            (lambda order, names: co_letterplace(order, [], 0, names), "co_letterplace"),
            (lambda order, names: antichain_dimension(order), "antichain_dimension"),
        ],
    )
    def test_messages_name_the_operation(self, call, op):
        with pytest.raises(OrdkitError) as caught:
            call(Preorder.coarse(2), ["v"])
        assert str(caught.value) == f"edge-rings.{op}: preorder is not antisymmetric"
        if op != "antichain_dimension":
            with pytest.raises(OrdkitError) as caught:
                call(Preorder.chain(2), ["v"])
            assert str(caught.value) == f"edge-rings.{op}: one name per point required"

    def test_default_names(self):
        ideal = doubled_poset_ideal(Preorder.chain(2))
        assert ideal.ground == ("v0.1", "v1.1", "v0.2", "v1.2")
        assert co_letterplace(Preorder.chain(2), [(0, 0)], 0).ground == ("v0.0", "v1.0")


class TestAlexanderDual:
    def test_single_edge(self):
        ideal = SquarefreeIdeal(("a", "b"), minimalize(2, [(1, 1)]))
        assert alexander_dual(ideal).ideal.gens == ((0, 1), (1, 0))

    def test_two_points_back_to_edge(self):
        ideal = SquarefreeIdeal(("a", "b"), minimalize(2, [(1, 0), (0, 1)]))
        assert alexander_dual(ideal).ideal.gens == ((1, 1),)

    def test_path_ideal_dual_per_hitting_sets(self):
        ideal = edge_ideal(parse_graph("a-b, b-c, c-d"))
        dual = alexander_dual(ideal)
        assert render_ideal(dual) == "vars: a,b,c,d; b*d, b*c, a*c"

    def test_zero_ideal_rejected(self):
        with pytest.raises(OrdkitError, match="zero ideal"):
            alexander_dual(SquarefreeIdeal(("a",), minimalize(1, [])))

    def test_involution_on_all_small_edge_ideals(self):
        for n in (2, 3, 4):
            vertices = tuple(f"v{i}" for i in range(n))
            pairs = list(itertools.combinations(range(n), 2))
            for r in range(1, len(pairs) + 1):
                for chosen in itertools.combinations(pairs, r):
                    g = edge_ideal(
                        type(parse_graph("a-b"))(vertices, tuple(chosen))
                    )
                    assert alexander_dual(alexander_dual(g)) == g

    def test_involution_on_random_squarefree_ideals(self):
        import random

        rng = random.Random(5)
        names = tuple("abcdef")
        for _ in range(300):
            supports = {
                tuple(sorted(rng.sample(range(6), rng.randint(1, 4))))
                for _ in range(rng.randint(1, 5))
            }
            gens = [tuple(1 if i in s else 0 for i in range(6)) for s in supports]
            ideal = SquarefreeIdeal(names, minimalize(6, gens))
            assert alexander_dual(alexander_dual(ideal)) == ideal


class TestLetterplaceDualityGolden:
    def test_full_hom_duals_match_golden_file(self):
        lines = []
        for name, order in [("chain2", Preorder.chain(2)), ("discrete2", Preorder.discrete(2))]:
            for d in (1, 2):
                maps = [f.values for f in monotone_maps(order, Preorder.chain(d + 1))]
                co = co_letterplace(order, maps, d, ["v", "w"])
                dual = alexander_dual(co)
                lines.append(f"case={name} d={d}")
                lines.append(f"co: {render_ideal(co)}")
                lines.append(f"dual: {render_ideal(dual)}")
        recorded = (GOLDEN / "letterplace_duality.txt").read_text().strip().splitlines()
        assert lines == recorded

    def test_dual_generator_degrees_follow_the_letterplace_pattern(self):
        for d in (1, 2, 3):
            two = Preorder.chain(2)
            maps = [f.values for f in monotone_maps(two, Preorder.chain(d + 1))]
            dual = alexander_dual(co_letterplace(two, maps, d, ["v", "w"]))
            assert all(sum(g) == d + 1 for g in dual.ideal.gens)
            assert len(dual.ideal.gens) == d + 2
