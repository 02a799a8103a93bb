import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ordkit import relations
from ordkit.errors import OrdkitError
from ordkit.relations import (
    MonotoneMap,
    Preorder,
    Relation,
    are_isomorphic,
    bubbles,
    canonical_form,
    check_galois_connection,
    classify,
    closure,
    encode,
    decode,
    enumerate_preorders,
    monotone_maps,
    refines,
    relabel,
    truncated_chain_map,
    up_sets,
)
from tests import oracles
from tests.oracles import antichains


def all_relations(n):
    for masks in itertools.product(range(1 << n), repeat=n):
        yield Relation(n, masks)


preorders = st.integers(1, 4).flatmap(
    lambda n: st.tuples(*([st.integers(0, (1 << n) - 1)] * n)).map(
        lambda rows: closure(Relation(n, rows))
    )
)


class TestClosure:
    def test_empty_relation_gives_discrete(self):
        assert closure(Relation(2, (0, 0))) == Preorder.discrete(2)

    def test_two_step_chain_adds_composite_and_diagonal(self):
        p = closure(Relation.from_pairs(3, [(0, 1), (1, 2)]))
        assert p == Preorder.chain(3)
        assert p.le(0, 2)

    def test_symmetric_pair_closes_to_coarse(self):
        assert closure(Relation.from_pairs(2, [(0, 1), (1, 0)])) == Preorder.coarse(2)

    def test_idempotent_on_all_small_relations(self):
        for r in all_relations(3):
            once = closure(r)
            assert closure(once) == once

    def test_matches_naive_fixpoint_on_all_small_relations(self):
        for r in all_relations(3):
            pairs = set(r.pairs()) | {(x, x) for x in range(3)}
            while True:
                extra = {
                    (x, z)
                    for (x, y) in pairs
                    for (y2, z) in pairs
                    if y == y2 and (x, z) not in pairs
                }
                if not extra:
                    break
                pairs |= extra
            assert set(closure(r).pairs()) == pairs


class TestConstruction:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_exactly_the_closed_rows_build_a_preorder(self, n):
        for rows in itertools.product(range(1 << n), repeat=n):
            closed = closure(Relation(n, rows))
            if closed.rows == rows:
                p = Preorder(n, rows)
                assert p == closed and hash(p) == hash(closed)
            else:
                with pytest.raises(OrdkitError) as info:
                    Preorder(n, rows)
                assert str(info.value).startswith(
                    ("order-core.preorder: not reflexive", "order-core.preorder: not transitive")
                )


class TestClassify:
    def test_three_chain_is_total_partial_order(self, classes):
        flags = classify(classes["e"])
        assert flags.total and flags.partial_order
        assert not flags.equivalence and not flags.coarse and not flags.discrete

    def test_coarse_is_total_equivalence(self, classes):
        flags = classify(classes["i"])
        assert flags.coarse and flags.equivalence and flags.total

    def test_singleton_has_all_flags(self):
        flags = classify(Preorder.discrete(1))
        assert flags == classify(Preorder.coarse(1))
        assert all(
            [flags.partial_order, flags.equivalence, flags.total, flags.discrete, flags.coarse]
        )

    def test_flag_implications_hold_everywhere(self):
        for p in enumerate_preorders(3):
            flags = classify(p)
            if flags.discrete:
                assert flags.partial_order and flags.equivalence
            if flags.coarse:
                assert flags.total and flags.equivalence

    def test_catalogue_of_nine_classes(self, classes):
        partial = {k for k, p in classes.items() if classify(p).partial_order}
        total = {k for k, p in classes.items() if classify(p).total}
        equiv = {k for k, p in classes.items() if classify(p).equivalence}
        assert partial == {"a", "b", "c", "d", "e"}
        assert total == {"e", "g", "h", "i"}
        assert equiv == {"a", "f", "i"}
        assert {k for k, p in classes.items() if classify(p).discrete} == {"a"}
        assert {k for k, p in classes.items() if classify(p).coarse} == {"i"}


def random_preorder(rng, n):
    """Points dealt into blocks, the blocks ordered as an antichain, a chain or a random DAG."""
    k = rng.randint(1, n)
    block = [rng.randrange(k) for _ in range(n)]
    density = rng.choice((0, 1, rng.random()))
    pairs = [
        (x, y)
        for x in range(n)
        for y in range(n)
        if block[x] == block[y] or block[x] < block[y] and rng.random() < density
    ]
    return closure(Relation.from_pairs(n, pairs))


class TestRowReadings:
    """``classify`` and ``bubbles`` read rows and columns; the oracles scan pairs of points."""

    def test_every_preorder_up_to_five_points(self):
        for n in range(1, 6):
            for p in enumerate_preorders(n):
                assert classify(p) == oracles.classify(p), p.rows
                assert bubbles(p) == oracles.bubbles(p), p.rows

    def test_seeded_random_preorders_on_six_to_sixteen_points(self):
        rng = random.Random(83)
        seen = {name: set() for name in ("partial_order", "equivalence", "total")}
        for _ in range(2000):
            p = random_preorder(rng, rng.randint(6, 16))
            flags = classify(p)
            assert flags == oracles.classify(p), p.rows
            assert bubbles(p) == oracles.bubbles(p), p.rows
            for name, values in seen.items():
                values.add(getattr(flags, name))
        assert all(values == {False, True} for values in seen.values())


class TestBubbles:
    def test_bubble_plus_singleton_quotients_to_discrete_pair(self, classes):
        dec = bubbles(classes["f"])
        assert dec.blocks == ((0, 1), (2,))
        assert dec.quotient == Preorder.discrete(2)

    def test_bubble_under_singleton_quotients_to_chain(self, classes):
        for key in ("g", "h"):
            dec = bubbles(classes[key])
            assert are_isomorphic(dec.quotient, Preorder.chain(2))

    def test_partial_orders_quotient_to_themselves(self):
        for p in enumerate_preorders(3):
            if classify(p).partial_order:
                dec = bubbles(p)
                assert dec.blocks == tuple((x,) for x in range(3))
                assert dec.quotient == p

    def test_quotient_always_antisymmetric_and_recovers_comparabilities(self):
        for p in enumerate_preorders(3):
            dec = bubbles(p)
            assert classify(dec.quotient).partial_order
            block_of = {x: i for i, block in enumerate(dec.blocks) for x in block}
            for x in range(p.n):
                for y in range(p.n):
                    assert p.le(x, y) == dec.quotient.le(block_of[x], block_of[y])

    def test_induced_equivalences_match_the_catalogue(self, classes):
        def induced(p):
            rows = tuple(
                sum(1 << y for y in range(p.n) if p.le(x, y) and p.le(y, x)) for x in range(p.n)
            )
            return Preorder(p.n, rows)

        for key in "abcde":
            assert induced(classes[key]) == classes["a"]
        for key in "fgh":
            assert are_isomorphic(induced(classes[key]), classes["f"])


class TestRefines:
    def test_discrete_refines_everything(self):
        for p in enumerate_preorders(3):
            assert refines(Preorder.discrete(3), p)

    def test_everything_refines_coarse(self):
        for p in enumerate_preorders(3):
            assert refines(p, Preorder.coarse(3))

    def test_opposite_chains_do_not_refine_each_other(self):
        up = Preorder.chain(2)
        down = relabel(up, (1, 0))
        assert not refines(up, down) and not refines(down, up)

    def test_size_mismatch_rejected(self):
        with pytest.raises(OrdkitError, match="refines"):
            refines(Preorder.discrete(2), Preorder.discrete(3))

    def test_is_partial_order_on_all_three_point_preorders(self):
        pool = list(enumerate_preorders(3))
        for p in pool:
            assert refines(p, p)
        for p, q in itertools.permutations(pool, 2):
            if refines(p, q) and refines(q, p):
                assert p == q
        for p in pool:
            for q in pool:
                for r in pool:
                    if refines(p, q) and refines(q, r):
                        assert refines(p, r)


def brute_force_up_sets(p):
    out = []
    for mask in range(1 << p.n):
        members = [x for x in range(p.n) if mask >> x & 1]
        if all(not p.le(x, y) or mask >> y & 1 for x in members for y in range(p.n)):
            out.append(mask)
    return out


class TestUpSets:
    def test_discrete_pair_has_all_subsets(self):
        assert up_sets(Preorder.discrete(2)) == [0, 1, 2, 3]

    def test_two_chain_matches_brute_force(self):
        p = Preorder.chain(2)
        assert up_sets(p) == brute_force_up_sets(p) == [0, 2, 3]

    def test_coarse_pair_matches_brute_force(self):
        p = Preorder.coarse(2)
        assert up_sets(p) == brute_force_up_sets(p) == [0, 3]

    def test_matches_brute_force_everywhere(self):
        for n in (1, 2, 3):
            for p in enumerate_preorders(n):
                assert up_sets(p) == brute_force_up_sets(p)

    def test_up_set_family_is_a_distributive_lattice(self):
        for n in range(1, 5):
            for p in enumerate_preorders(n):
                family = set(up_sets(p))
                for a in family:
                    for b in family:
                        assert a | b in family and a & b in family
                sample = sorted(family)
                for a, b, c in itertools.product(sample, repeat=3):
                    assert a | (b & c) == (a | b) & (a | c)


class TestEnumeration:
    def test_small_counts(self):
        assert sum(1 for _ in enumerate_preorders(1)) == 1
        assert sum(1 for _ in enumerate_preorders(2)) == 4
        assert sum(1 for _ in enumerate_preorders(3)) == 29

    def test_stream_is_deduplicated_and_sorted(self):
        for n in (2, 3):
            codes = [encode(p) for p in enumerate_preorders(n)]
            assert codes == sorted(set(codes))

    def test_out_of_range_rejected(self):
        with pytest.raises(OrdkitError, match="enumerate_preorders"):
            list(enumerate_preorders(0))
        with pytest.raises(OrdkitError, match="enumerate_preorders"):
            list(enumerate_preorders(6))

    def test_env_var_lowers_guard(self, monkeypatch):
        monkeypatch.setenv("ORDKIT_MAX_N", "2")
        with pytest.raises(OrdkitError):
            list(enumerate_preorders(3))
        assert sum(1 for _ in enumerate_preorders(2)) == 4

    def test_stream_matches_product_filter_oracle(self):
        for n in range(1, 6):
            assert list(enumerate_preorders(n)) == list(oracles.enumerate_preorders(n))

    def test_six_point_stream_has_the_a000798_count_in_ascending_codes(self, monkeypatch):
        monkeypatch.setattr(relations, "ENUMERATION_CAP", 6)
        codes = [encode(p) for p in enumerate_preorders(6)]
        assert len(codes) == 209_527
        assert all(a < b for a, b in zip(codes, codes[1:]))


class TestCanonicalForm:
    def test_all_six_labeled_three_chains_share_one_form(self):
        chains = [relabel(Preorder.chain(3), perm) for perm in itertools.permutations(range(3))]
        assert len({encode(c) for c in chains}) == 6
        assert len({canonical_form(c) for c in chains}) == 1

    def test_nine_classes_on_three_points(self):
        forms = {canonical_form(p) for p in enumerate_preorders(3)}
        assert len(forms) == 9

    def test_three_classes_on_two_points(self):
        assert len({canonical_form(p) for p in enumerate_preorders(2)}) == 3

    def test_isomorphic_to_itself(self, classes):
        for p in classes.values():
            assert are_isomorphic(p, p)

    def test_decode_inverts_encode(self):
        for p in enumerate_preorders(3):
            assert decode(3, encode(p)) == p

    @settings(max_examples=60)
    @given(preorders, st.randoms(use_true_random=False))
    def test_invariant_under_relabeling(self, p, rng):
        perm = list(range(p.n))
        rng.shuffle(perm)
        assert canonical_form(p) == canonical_form(relabel(p, tuple(perm)))

    def test_guard_rejects_large_carriers(self):
        with pytest.raises(OrdkitError, match="canonical_form"):
            canonical_form(Preorder.discrete(9))

    def test_matches_brute_force_on_every_preorder_up_to_five_points(self):
        for n in range(1, 6):
            forms: dict[int, int] = {}
            for p in enumerate_preorders(n):
                if encode(p) not in forms:
                    orbit = oracles.orbit(p)
                    forms.update(dict.fromkeys(orbit, min(orbit)))
                assert canonical_form(p) == forms[encode(p)]

    def test_matches_brute_force_on_seeded_random_preorders(self):
        rng = random.Random(2002)
        for n in (6, 7, 8, 6, 7, 8, 6, 7, 6, 7):
            rows = [(1 << n) - 1] * n
            for _ in range(rng.randint(1, 3)):
                rows = [row & rng.getrandbits(n) for row in rows]
            p = closure(Relation(n, tuple(rows)))
            assert canonical_form(p) == oracles.canonical_form(p), p.rows

    def test_matches_brute_force_on_symmetric_eight_point_preorders(self):
        def chain_product(a, b):
            return Preorder.from_pairs(
                a * b,
                [
                    (i * b + j, k * b + m)
                    for i, j, k, m in itertools.product(range(a), range(b), range(a), range(b))
                    if i <= k and j <= m
                ],
            )

        family = {
            "discrete": Preorder.discrete(8),
            "coarse": Preorder.coarse(8),
            "chain": Preorder.chain(8),
            "4x2 chains": chain_product(4, 2),
            "crown": Preorder.from_pairs(8, [(i, 4 + j) for i in range(4) for j in range(4) if i != j]),
            "K4,4": Preorder.from_pairs(8, [(i, 4 + j) for i in range(4) for j in range(4)]),
            "four bubbles": Preorder.from_pairs(8, [(x, x ^ 1) for x in range(8)]),
        }
        perm = list(range(8))
        random.Random(16).shuffle(perm)
        for name, p in family.items():
            expected = oracles.canonical_form(p)
            assert canonical_form(p) == canonical_form(relabel(p, perm)) == expected, name


class TestMonotoneMaps:
    def test_hom_into_singleton_is_constant(self, classes):
        for p in classes.values():
            assert len(monotone_maps(p, Preorder.discrete(1))) == 1

    def test_hom_chain2_to_chain2(self):
        two = Preorder.chain(2)
        maps = [f.values for f in monotone_maps(two, two)]
        assert maps == [(0, 0), (0, 1), (1, 1)]

    def test_hom_from_point_hits_every_point(self, classes):
        one = Preorder.discrete(1)
        for p in classes.values():
            assert len(monotone_maps(one, p)) == p.n

    def test_exhaustive_against_filtered_product(self):
        pool = [p for n in range(1, 4) for p in enumerate_preorders(n)]
        assert Preorder.from_pairs(3, [(0, 1), (1, 0)]) in pool and Preorder.chain(2) in pool
        for p in pool:
            for q in pool:
                brute = [
                    values
                    for values in itertools.product(range(q.n), repeat=p.n)
                    if all(q.le(values[x], values[y]) for x, y in p.pairs())
                ]
                assert [f.values for f in monotone_maps(p, q)] == brute

    def test_non_monotone_values_rejected(self):
        with pytest.raises(OrdkitError, match="monotone"):
            MonotoneMap(Preorder.chain(2), Preorder.chain(2), (1, 0))


class TestGaloisConnection:
    def test_ceiling_half_is_left_adjoint_to_clamped_doubling(self):
        ceil_half = truncated_chain_map(10, lambda k: (k + 1) // 2)
        double = truncated_chain_map(10, lambda k: 2 * k)
        assert check_galois_connection(ceil_half, double)

    def test_identity_pair_passes(self):
        ident = truncated_chain_map(10, lambda k: k)
        assert check_galois_connection(ident, ident)

    def test_doubling_on_the_left_with_floor_fails(self):
        double = truncated_chain_map(10, lambda k: 2 * k)
        floor_half = truncated_chain_map(10, lambda k: k // 2)
        assert not check_galois_connection(double, floor_half)

    def test_floor_on_the_left_also_fails(self):
        double = truncated_chain_map(10, lambda k: 2 * k)
        floor_half = truncated_chain_map(10, lambda k: k // 2)
        assert not check_galois_connection(floor_half, double)

    def test_endpoint_mismatch_rejected(self):
        f = truncated_chain_map(3, lambda k: k)
        g = truncated_chain_map(4, lambda k: k)
        with pytest.raises(OrdkitError, match="endpoint"):
            check_galois_connection(f, g)

    def test_unit_and_counit_agree_with_the_pairwise_definition(self, classes):
        # Every pair of monotone maps f: Q -> P, g: P -> Q, non-antisymmetric preorders included.
        pool = [p for n in (1, 2) for p in enumerate_preorders(n)] + list(classes.values())
        verdicts = set()
        for q in pool:
            for p in pool:
                backward = monotone_maps(p, q)
                for f in monotone_maps(q, p):
                    for g in backward:
                        verdict = check_galois_connection(f, g)
                        assert verdict == oracles.check_galois_connection(f, g), (f, g)
                        verdicts.add(verdict)
        assert verdicts == {True, False}


class TestAntichains:
    def test_two_chain_has_three(self):
        assert len(antichains(Preorder.chain(2))) == 3

    def test_discrete_has_all_subsets(self):
        for n in (1, 2, 3, 4):
            assert len(antichains(Preorder.discrete(n))) == 1 << n

    def test_coarse_pair_has_three(self):
        assert len(antichains(Preorder.coarse(2))) == 3

    def test_matches_brute_force(self):
        for p in enumerate_preorders(3):
            brute = [
                mask
                for mask in range(8)
                if all(
                    not (p.le(x, y) or p.le(y, x))
                    for x in range(3)
                    for y in range(x + 1, 3)
                    if mask >> x & 1 and mask >> y & 1
                )
            ]
            assert antichains(p) == brute


class TestOrbitCounting:
    def orbit_size(self, p):
        return len({encode(relabel(p, perm)) for perm in itertools.permutations(range(p.n))})

    def test_orbit_sizes_sum_to_29(self, classes):
        sizes = {k: self.orbit_size(p) for k, p in classes.items()}
        assert sizes == {"a": 1, "b": 6, "c": 3, "d": 3, "e": 6, "f": 3, "g": 3, "h": 3, "i": 1}
        assert sum(sizes.values()) == 29

    def test_total_count_matches_orbit_weighted_classes(self, classes):
        by_class_total = sum(
            self.orbit_size(p) for k, p in classes.items() if classify(p).total
        )
        labeled_total = sum(1 for p in enumerate_preorders(3) if classify(p).total)
        assert labeled_total == by_class_total == 13
