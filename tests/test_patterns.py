import itertools
import random
import time
from fractions import Fraction

import pytest

from ordkit.errors import OrdkitError
from ordkit.patterns import (
    PatternMatrix,
    diagonal,
    elementary,
    identity,
    invariant_subsets,
    is_invertible,
    matrix,
    membership,
    pattern_closed_under_product,
    pattern_from_preorder,
    permutation_matrix,
    preorder_of_subgroup,
    standard_generators,
)
from ordkit.relations import (
    Preorder,
    canonical_form,
    classify,
    enumerate_preorders,
    refines,
    relabel,
    up_sets,
)
from ordkit.topology import from_preorder
from tests.conftest import three_point_classes


def rows_of(pat):
    return ["".join("1" if pat.allows(v, w) else "0" for w in range(pat.n)) for v in range(pat.n)]


# One matrix zero pattern per three-point class; the labeling pins the
# exact matrix (row v, column w allowed when w <= v).
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


class TestPatternFromPreorder:
    def test_descending_total_order_gives_upper_triangular(self):
        desc = relabel(Preorder.chain(3), (2, 1, 0))
        assert rows_of(pattern_from_preorder(desc)) == ["111", "011", "001"]

    def test_discrete_gives_diagonal_torus(self):
        assert rows_of(pattern_from_preorder(Preorder.discrete(3))) == ["100", "010", "001"]

    def test_coarse_gives_full_group(self):
        assert rows_of(pattern_from_preorder(Preorder.coarse(3))) == ["111", "111", "111"]

    def test_all_six_labeled_total_orders_give_six_patterns(self):
        perms = list(itertools.permutations(range(3)))
        patterns = {
            tuple(rows_of(pattern_from_preorder(relabel(Preorder.chain(3), perm))))
            for perm in perms
        }
        assert len(patterns) == 6
        assert ("111", "011", "001") in patterns

    def test_six_total_order_matrix_patterns_bit_exact(self):
        def total(top, mid, low):
            return Preorder.from_pairs(3, [(low, mid), (mid, top), (low, top)])

        x, y, z = 0, 1, 2
        displayed = {
            (x, y, z): ["111", "011", "001"],
            (x, z, y): ["111", "010", "011"],
            (y, z, x): ["100", "111", "101"],
            (y, x, z): ["101", "111", "001"],
            (z, x, y): ["110", "010", "111"],
            (z, y, x): ["100", "110", "111"],
        }
        for order, expected in displayed.items():
            assert rows_of(pattern_from_preorder(total(*order))) == expected

    def test_refinement_makes_pattern_groups_grow(self):
        pool = list(enumerate_preorders(3))
        for p in pool:
            for q in pool:
                if refines(p, q):
                    pat_p = pattern_from_preorder(p)
                    pat_q = pattern_from_preorder(q)
                    assert all(
                        pat_p.rows[v] & ~pat_q.rows[v] == 0 for v in range(3)
                    )

    def test_nine_class_patterns_bit_exact(self):
        classes = three_point_classes()
        for key, expected in CLASS_PATTERNS.items():
            labeled = PATTERN_LABELINGS[key]
            assert canonical_form(labeled) == canonical_form(classes[key]), key
            assert rows_of(pattern_from_preorder(labeled)) == expected, key


class TestClosedUnderProduct:
    def test_all_nine_patterns_closed(self):
        for key, labeled in PATTERN_LABELINGS.items():
            assert pattern_closed_under_product(pattern_from_preorder(labeled)), key

    def test_missing_composite_detected(self):
        pat = PatternMatrix(3, (0b011, 0b110, 0b100))
        assert not pattern_closed_under_product(pat)

    def test_diagonal_closed(self):
        assert pattern_closed_under_product(PatternMatrix(2, (1, 2)))

    def test_closure_iff_transitive_iff_preorder_on_all_64(self):
        closed_count = 0
        for bits in range(64):
            rows = [0b001, 0b010, 0b100]
            for k, (v, w) in enumerate(
                [(0, 1), (0, 2), (1, 0), (1, 2), (2, 0), (2, 1)]
            ):
                if bits >> k & 1:
                    rows[v] |= 1 << w
            pat = PatternMatrix(3, tuple(rows))
            closed = pattern_closed_under_product(pat)
            try:
                Preorder(3, tuple(rows))
                is_preorder = True
            except OrdkitError:
                is_preorder = False
            assert closed == is_preorder
            closed_count += closed
        assert closed_count == 29


class TestMembership:
    def test_identity_in_every_group(self):
        for p in enumerate_preorders(3):
            assert membership(identity(3), p)

    def test_transvection_witnesses_comparability(self):
        for p in enumerate_preorders(3):
            for x in range(3):
                for y in range(3):
                    if x == y:
                        continue
                    assert membership(elementary(3, y, x, 1), p) == p.le(x, y)

    def test_singular_reported_distinctly(self):
        singular = matrix([[1, 1], [0, 0]])
        with pytest.raises(OrdkitError, match="singular"):
            membership(singular, Preorder.coarse(2))

    def test_size_mismatch(self):
        with pytest.raises(OrdkitError, match="size mismatch"):
            membership(identity(2), Preorder.discrete(3))

    def test_rational_entries_inside_pattern(self):
        g = matrix([[Fraction(1, 2), 0], [Fraction(3, 7), 1]])
        assert membership(g, Preorder.chain(2))
        assert not membership(g, Preorder.discrete(2))


def gaussian_invertible(g):
    """Plain Fraction elimination, as an independent oracle for Bareiss."""
    rows = [list(r) for r in g.entries]
    n = g.n
    for k in range(n):
        pivot = next((i for i in range(k, n) if rows[i][k] != 0), None)
        if pivot is None:
            return False
        rows[k], rows[pivot] = rows[pivot], rows[k]
        for i in range(k + 1, n):
            factor = rows[i][k] / rows[k][k]
            for j in range(k, n):
                rows[i][j] -= factor * rows[k][j]
    return True


class TestInvertibility:
    def test_diagonal_and_permutations_invertible(self):
        assert is_invertible(diagonal([1, 2, 3]))
        for perm in itertools.permutations(range(3)):
            assert is_invertible(permutation_matrix(perm))

    def test_rank_deficient_detected(self):
        assert not is_invertible(matrix([[1, 2], [2, 4]]))
        assert not is_invertible(matrix([[0, 1], [0, 2]]))

    def test_needs_row_swap(self):
        assert is_invertible(matrix([[0, 1], [1, 0]]))

    def test_bareiss_agrees_with_fraction_elimination(self):
        rng = random.Random(1234)
        for _ in range(300):
            n = rng.randint(1, 4)
            ents = [
                [
                    Fraction(rng.randint(-4, 4), rng.randint(1, 5))
                    if rng.random() < 0.7
                    else Fraction(0)
                    for _ in range(n)
                ]
                for _ in range(n)
            ]
            g = matrix(ents)
            assert is_invertible(g) == gaussian_invertible(g)


class TestInvariantSubsets:
    def test_identity_alone_leaves_everything_invariant(self):
        t = invariant_subsets([identity(2)])
        assert t.opens == (0, 1, 2, 3)

    def test_upper_triangular_elementaries_of_descending_chain(self):
        desc = relabel(Preorder.chain(3), (2, 1, 0))
        t = invariant_subsets(list(standard_generators(desc)))
        assert t.opens == tuple(up_sets(desc))
        assert len(t.opens) == 4

    def test_standard_generators_carve_out_exactly_the_up_sets(self):
        for p in enumerate_preorders(3):
            t = invariant_subsets(list(standard_generators(p)))
            assert t.opens == tuple(up_sets(p))

    def test_permutation_matrices_leave_only_trivial_subsets(self):
        gens = [permutation_matrix(perm) for perm in itertools.permutations(range(3))]
        assert invariant_subsets(gens).opens == (0, 7)

    def test_brute_force_subset_scan(self):
        gens = list(standard_generators(Preorder.from_pairs(3, [(0, 1)])))
        t = invariant_subsets(gens)
        for mask in range(8):
            expected = all(
                g.entries[v][w] == 0
                for w in range(3)
                if mask >> w & 1
                for v in range(3)
                if not mask >> v & 1
                for g in gens
            )
            assert (mask in t.opens) == expected

    def test_singular_generator_rejected(self):
        with pytest.raises(OrdkitError, match="singular"):
            invariant_subsets([matrix([[1, 0], [1, 0]])])


class TestGaloisCorrespondence:
    def test_normalizer_example_gives_coarse(self):
        gens = [permutation_matrix(perm) for perm in itertools.permutations(range(3))]
        gens.append(diagonal([1, 2, 3]))
        assert classify(preorder_of_subgroup(gens)).coarse

    def test_identity_generators_give_discrete(self):
        assert preorder_of_subgroup([identity(3)]) == Preorder.discrete(3)

    def test_round_trip_two_chain(self):
        two = Preorder.chain(2)
        assert preorder_of_subgroup(standard_generators(two)) == two

    def test_round_trip_all_three_point_preorders(self):
        for p in enumerate_preorders(3):
            assert preorder_of_subgroup(standard_generators(p)) == p

    def test_round_trip_four_point_class_representatives(self):
        seen = set()
        for p in enumerate_preorders(4):
            form = canonical_form(p)
            if form in seen:
                continue
            seen.add(form)
            assert preorder_of_subgroup(standard_generators(p)) == p
        assert len(seen) == 33

    def test_adjunction_inequality_both_ways(self):
        rng = random.Random(2024)
        pool = list(enumerate_preorders(3))
        gen_pool = [standard_generators(p) for p in pool[:8]] + [
            tuple(permutation_matrix(perm) for perm in itertools.permutations(range(3))),
            (identity(3),),
            (elementary(3, 2, 0, 1), diagonal([2, 3, 5])),
        ]
        for _ in range(12):
            gens = []
            for _ in range(rng.randint(1, 3)):
                g = identity(3)
                for p in rng.sample(pool, 2):
                    g = g * rng.choice(standard_generators(p))
                gens.append(g)
            gen_pool.append(tuple(gens))
        for q in pool:
            for gens in gen_pool:
                lhs = refines(preorder_of_subgroup(gens), q)
                rhs = all(membership(g, q) for g in gens)
                assert lhs == rhs


class TestStandardGenerators:
    def test_discrete_pair_gives_torus_only(self):
        gens = standard_generators(Preorder.discrete(2))
        assert len(gens) == 1 and gens[0] == diagonal([1, 2])

    def test_two_chain_adds_one_transvection(self):
        gens = standard_generators(Preorder.chain(2))
        assert len(gens) == 2 and gens[1] == elementary(2, 1, 0, 1)

    def test_coarse_pair_adds_both_transvections(self):
        assert len(standard_generators(Preorder.coarse(2))) == 3

    def test_seeded_posets_on_seven_to_sixteen_points_round_trip(self):
        """The cap on standard generators is the preorder's own 16-point cap."""
        rng = random.Random(27)
        start = time.perf_counter()
        for _ in range(20):
            n = rng.randint(7, 16)
            rank, density = rng.sample(range(n), n), rng.choice((0.2, 0.4, 0.7))
            pairs = [(x, y) for x in range(n) for y in range(n) if rank[x] < rank[y] and rng.random() < density]
            p = Preorder.from_pairs(n, pairs)
            gens = standard_generators(p)
            assert preorder_of_subgroup(gens) == p
            assert invariant_subsets(gens) == from_preorder(p)
        coarse = Preorder.coarse(16)
        gens = standard_generators(coarse)
        assert len(gens) == 241 and preorder_of_subgroup(gens) == coarse
        assert time.perf_counter() - start < 2.0

    def test_product_stability_under_membership(self):
        rng = random.Random(41)
        pool = list(enumerate_preorders(3))
        for _ in range(150):
            p = rng.choice(pool)
            gens = standard_generators(p)
            g, h = rng.choice(gens), rng.choice(gens)
            assert membership(g * h, p)
