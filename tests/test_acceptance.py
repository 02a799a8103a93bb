"""Acceptance suite: one test per criterion, each printing a pass line.

Every check here is exact; the only tolerances are the stated wall-clock
budgets, asserted per criterion.
"""

import itertools
import random
import time
from pathlib import Path

from ordkit.digraphs import (
    Digraph,
    Edge,
    all_paths,
    count_digraph_homs,
    digraph_of_preorder,
    hom_paths,
    reachability_preorder,
)
from ordkit.edgerings import (
    BipartiteGraph,
    SquarefreeIdeal,
    alexander_dual,
    antichain_dimension,
    doubled_poset_ideal,
    edge_ideal,
    is_cm_bipartite,
    kdim_artinian,
    letterplace,
    quotient_identify,
)
from ordkit.monomials import (
    associated_preorder,
    associated_preorder_by_definition,
    chain_point,
    contains,
    is_most_degenerate,
    is_strongly_stable,
    minimalize,
    monomials_up_to_degree,
    permute_ideal,
    ss_to_upset,
    upset_to_ss,
)
from ordkit.patterns import (
    PatternMatrix,
    diagonal,
    identity,
    membership,
    pattern_closed_under_product,
    pattern_from_preorder,
    permutation_matrix,
    preorder_of_subgroup,
    standard_generators,
)
from ordkit.errors import OrdkitError
from ordkit.relations import (
    Preorder,
    are_isomorphic,
    canonical_form,
    classify,
    enumerate_preorders,
    monotone_maps,
    refines,
    truncated_chain_map,
    check_galois_connection,
)
from ordkit.topology import from_preorder, to_preorder
from ordkit.textio import parse_graph, render_ideal
from tests.conftest import three_point_classes
from tests.oracles import enumerate_topologies
from tests.test_monomials import FAMILY, random_ideals, standard_total_order

GOLDEN = Path(__file__).parent / "golden"


class Budget:
    def __init__(self, criterion: str, seconds: float):
        self.criterion = criterion
        self.seconds = seconds

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        if exc_type is None:
            assert elapsed < self.seconds, f"{self.criterion}: {elapsed:.2f}s over budget"
            print(f"PASS {self.criterion} [{elapsed:.2f}s < {self.seconds:.0f}s]")
        else:
            print(f"FAIL {self.criterion}")
        return False


def oracle_count_preorders(n):
    """Naive pair-set filter over every diagonal-fixed relation."""
    points = range(n)
    off_diag = [(x, y) for x in points for y in points if x != y]
    count = 0
    for bits in itertools.product((False, True), repeat=len(off_diag)):
        rel = {(x, x) for x in points}
        rel.update(pair for pair, keep in zip(off_diag, bits) if keep)
        if all(
            (x, z) in rel
            for (x, y) in rel
            for (y2, z) in rel
            if y == y2
        ):
            count += 1
    return count


def test_criterion_01_preorder_counts():
    with Budget("criterion 1a: preorder counts 1, 4, 29", 1.0):
        assert [sum(1 for _ in enumerate_preorders(n)) for n in (1, 2, 3)] == [1, 4, 29]
    with Budget("criterion 1b: n=4 count equals brute-force oracle and golden file", 5.0):
        enumerated = sum(1 for _ in enumerate_preorders(4))
        oracle = oracle_count_preorders(4)
        golden = int((GOLDEN / "preorder_count_n4.txt").read_text())
        assert enumerated == oracle == golden


def test_criterion_02_isomorphism_classes():
    with Budget("criterion 2: 3/9 classes and the catalogue subsets", 1.0):
        assert len({canonical_form(p) for p in enumerate_preorders(2)}) == 3
        classes = three_point_classes()
        form_to_name = {canonical_form(p): name for name, p in classes.items()}
        assert len(form_to_name) == 9
        seen = set()
        partial, total, equiv = set(), set(), set()
        for p in enumerate_preorders(3):
            name = form_to_name[canonical_form(p)]
            seen.add(name)
            flags = classify(p)
            class_flags = classify(classes[name])
            assert (flags.partial_order, flags.total, flags.equivalence) == (
                class_flags.partial_order,
                class_flags.total,
                class_flags.equivalence,
            )
            if flags.partial_order:
                partial.add(name)
            if flags.total:
                total.add(name)
            if flags.equivalence:
                equiv.add(name)
        assert seen == set("abcdefghi")
        assert partial == set("abcde")
        assert total == set("eghi")
        assert equiv == set("afi")


def test_criterion_03_topology_round_trips():
    with Budget("criterion 3: topology/preorder round trips and the n=3 count", 30.0):
        for n in range(1, 5):
            for p in enumerate_preorders(n):
                assert to_preorder(from_preorder(p)) == p
        for n in range(1, 4):
            for t in enumerate_topologies(n):
                assert from_preorder(to_preorder(t)) == t
        assert sum(1 for _ in enumerate_topologies(3)) == 29


def small_multigraphs():
    for n in range(1, 4):
        slots = [(s, t) for s in range(n) for t in range(n)]
        for k in range(5):
            for combo in itertools.combinations_with_replacement(slots, k):
                yield Digraph(
                    n, tuple(Edge(s, t, f"e{i}") for i, (s, t) in enumerate(combo))
                )


def test_criterion_04_free_category_desk_check():
    with Budget("criterion 4a: parallel-arrow digraph has 9 paths, 3 morphisms a->c", 1.0):
        q = Digraph(3, (Edge(0, 1, "e"), Edge(0, 1, "f"), Edge(1, 2, "g"), Edge(0, 2, "h")))
        assert len(all_paths(q)) == 9
        words = sorted("".join(p.labels) for p in hom_paths(q, 0, 2))
        assert words == ["eg", "fg", "h"]
    with Budget("criterion 4b: adjunction count identity on the full grid", 60.0):
        preorder_pool = [p for n in range(1, 4) for p in enumerate_preorders(n)]
        for q in small_multigraphs():
            reach = reachability_preorder(q)
            for p in preorder_pool:
                assert count_digraph_homs(q, digraph_of_preorder(p)) == len(
                    monotone_maps(reach, p)
                )


def test_criterion_05_associated_preorder_oracle():
    with Budget("criterion 5: generator rule equals definitional rule; named cases", 10.0):
        for ideal in FAMILY:
            assert associated_preorder(ideal) == associated_preorder_by_definition(ideal)
        for ideal in random_ideals(20260809, 500):
            assert associated_preorder(ideal) == associated_preorder_by_definition(ideal)
        assert classify(associated_preorder(minimalize(2, [(2, 0), (0, 2)]))).discrete
        power = minimalize(
            3, [(2, 0, 0), (0, 2, 0), (0, 0, 2), (1, 1, 0), (1, 0, 1), (0, 1, 1)]
        )
        assert classify(associated_preorder(power)).coarse
        mixed = minimalize(3, [(1, 0, 0), (0, 2, 0), (0, 1, 1), (0, 0, 3)])
        p = associated_preorder(mixed)
        assert classify(p).total and p.le(2, 1) and p.le(1, 0) and not p.le(0, 1)


def test_criterion_06_strong_stability():
    with Budget("criterion 6: strong stability and most-degenerate equivalence", 30.0):
        worked = minimalize(2, [(2, 0), (1, 1), (0, 3)])
        assert is_strongly_stable(worked) and is_most_degenerate(worked)
        squares = minimalize(2, [(2, 0), (0, 2)])
        assert not is_strongly_stable(squares) and not is_most_degenerate(squares)
        for ideal in FAMILY:
            by_permutation = any(
                is_strongly_stable(permute_ideal(ideal, perm))
                for perm in itertools.permutations(range(ideal.nvars))
            )
            assert is_most_degenerate(ideal) == by_permutation
            assert is_strongly_stable(ideal) == refines(
                standard_total_order(ideal.nvars), associated_preorder(ideal)
            )


def test_criterion_07_upset_bijection():
    with Budget("criterion 7: membership equivalence and both round trips", 30.0):
        for ideal in FAMILY:
            if not is_strongly_stable(ideal):
                continue
            chains = ss_to_upset(ideal)
            assert upset_to_ss(chains, ideal.nvars) == ideal
            assert ss_to_upset(upset_to_ss(chains, ideal.nvars)) == chains
            for m in monomials_up_to_degree(ideal.nvars, ideal.max_degree() + 2):
                in_upset = any(
                    all(a >= b for a, b in zip(chain_point(m), u)) for u in chains
                )
                assert contains(ideal, m) == in_upset


CLASS_PATTERNS = {
    "a": ["100", "010", "001"],
    "b": ["110", "010", "001"],
    "c": ["101", "011", "001"],
    "d": ["111", "010", "001"],
    "e": ["111", "011", "001"],
    "f": ["100", "011", "011"],
    "g": ["111", "011", "011"],
    "h": ["111", "111", "001"],
    "i": ["111", "111", "111"],
}

PATTERN_LABELINGS = {
    "a": Preorder.discrete(3),
    "b": Preorder.from_pairs(3, [(1, 0)]),
    "c": Preorder.from_pairs(3, [(2, 0), (2, 1)]),
    "d": Preorder.from_pairs(3, [(1, 0), (2, 0)]),
    "e": Preorder.from_pairs(3, [(2, 1), (1, 0)]),
    "f": Preorder.from_pairs(3, [(1, 2), (2, 1)]),
    "g": Preorder.from_pairs(3, [(1, 2), (2, 1), (1, 0)]),
    "h": Preorder.from_pairs(3, [(0, 1), (1, 0), (2, 0)]),
    "i": Preorder.coarse(3),
}


def test_criterion_08_pattern_groups():
    with Budget("criterion 8: patterns, closure law, Galois property, round trips", 10.0):
        classes = three_point_classes()
        for key, expected in CLASS_PATTERNS.items():
            labeled = PATTERN_LABELINGS[key]
            assert canonical_form(labeled) == canonical_form(classes[key])
            pat = pattern_from_preorder(labeled)
            rows = [
                "".join("1" if pat.allows(v, w) else "0" for w in range(3))
                for v in range(3)
            ]
            assert rows == expected

        for bits in range(64):
            rows = [0b001, 0b010, 0b100]
            for k, (v, w) in enumerate([(0, 1), (0, 2), (1, 0), (1, 2), (2, 0), (2, 1)]):
                if bits >> k & 1:
                    rows[v] |= 1 << w
            closed = pattern_closed_under_product(PatternMatrix(3, tuple(rows)))
            try:
                Preorder(3, tuple(rows))
                is_preorder = True
            except OrdkitError:
                is_preorder = False
            assert closed == is_preorder

        pool = list(enumerate_preorders(3))
        gen_pool = [standard_generators(p) for p in pool[:6]] + [
            tuple(permutation_matrix(perm) for perm in itertools.permutations(range(3))),
            (identity(3),),
        ]
        for q in pool:
            assert preorder_of_subgroup(standard_generators(q)) == q
            for gens in gen_pool:
                assert refines(preorder_of_subgroup(gens), q) == all(
                    membership(g, q) for g in gens
                )

        normalizer = [
            permutation_matrix(perm) for perm in itertools.permutations(range(3))
        ] + [diagonal([1, 2, 3])]
        assert classify(preorder_of_subgroup(normalizer)).coarse


def test_criterion_09_edge_rings():
    with Budget("criterion 9: edge ideals, dimensions, CM witnesses", 30.0):
        path = parse_graph("a-b, b-c, c-d")
        assert sorted(edge_ideal(path).ideal.gens) == sorted(
            [(1, 1, 0, 0), (0, 1, 1, 0), (0, 0, 1, 1)]
        )
        two_chain = Preorder.chain(2)
        quotient = quotient_identify(doubled_poset_ideal(two_chain, ["a", "c"]))
        assert kdim_artinian(quotient.ideal, quotient.ground) == 3

        four_cycle = BipartiteGraph(("a", "c"), ("b", "d"), (0b11, 0b11))
        assert is_cm_bipartite(four_cycle) is None

        for n in range(1, 5):
            for p in enumerate_preorders(n):
                if not classify(p).partial_order:
                    continue
                q = quotient_identify(doubled_poset_ideal(p))
                assert kdim_artinian(q.ideal, q.ground) == antichain_dimension(p)

        for n in (1, 2, 3):
            for masks in itertools.product(range(1 << n), repeat=n):
                g = BipartiteGraph(
                    tuple(f"a{i}" for i in range(n)),
                    tuple(f"b{j}" for j in range(n)),
                    masks,
                )
                witness = is_cm_bipartite(g)
                if witness is not None:
                    rebuilt = [0] * n
                    for v in range(n):
                        for w in range(n):
                            if witness.poset.le(v, w):
                                rebuilt[v] |= 1 << witness.matching[w]
                    assert tuple(rebuilt) == masks
            for p in enumerate_preorders(n):
                if not classify(p).partial_order:
                    continue
                doubled = BipartiteGraph(
                    tuple(f"v{i}.1" for i in range(n)),
                    tuple(f"v{i}.2" for i in range(n)),
                    p.rows,
                )
                witness = is_cm_bipartite(doubled)
                assert witness is not None and are_isomorphic(witness.poset, p)


def test_criterion_10_letterplace_duality():
    with Budget("criterion 10: letterplace identification and Alexander duality", 5.0):
        two = Preorder.chain(2)
        lp = letterplace(two, two, ["one", "two"], ["v", "w"])
        doubled = doubled_poset_ideal(two, ["v", "w"])
        swap = {"one": "1", "two": "2"}
        relabeled = {
            frozenset(
                f"{qn}.{swap[pn]}"
                for i, e in enumerate(g)
                if e
                for pn, qn in [lp.ground[i].split(".")]
            )
            for g in lp.ideal.gens
        }
        expected = {
            frozenset(name for name, e in zip(doubled.ground, g) if e)
            for g in doubled.ideal.gens
        }
        assert relabeled == expected

        pool = [edge_ideal(parse_graph("a-b, b-c, c-d"))]
        rng = random.Random(10)
        names = tuple("abcdef")
        for _ in range(100):
            supports = {
                tuple(sorted(rng.sample(range(6), rng.randint(1, 4))))
                for _ in range(rng.randint(1, 5))
            }
            gens = [tuple(1 if i in s else 0 for i in range(6)) for s in supports]
            pool.append(SquarefreeIdeal(names, minimalize(6, gens)))
        for ideal in pool:
            assert alexander_dual(alexander_dual(ideal)) == ideal

        dual = alexander_dual(edge_ideal(parse_graph("a-b, b-c, c-d")))
        assert render_ideal(dual) == "vars: a,b,c,d; b*d, b*c, a*c"


def test_criterion_11_appendix_galois_check():
    with Budget("criterion 11: ceiling-half adjoint passes, floor fails", 1.0):
        double = truncated_chain_map(10, lambda k: 2 * k)
        ceil_half = truncated_chain_map(10, lambda k: (k + 1) // 2)
        floor_half = truncated_chain_map(10, lambda k: k // 2)
        assert check_galois_connection(ceil_half, double)
        assert not check_galois_connection(double, floor_half)
        assert not check_galois_connection(floor_half, double)
