import itertools
import random
import re
import time

import pytest

from ordkit.errors import OrdkitError
from ordkit.relations import Preorder, classify, enumerate_preorders, refines, up_sets
from ordkit.topology import (
    enumerate_topologies,
    from_preorder,
    is_t0,
    minimal_open,
    to_preorder,
    validate,
)
from tests import oracles


def brute_force_topologies(n):
    """Filter every family of intermediate subsets for the closure axioms."""
    full = (1 << n) - 1
    middles = list(range(1, full))
    found = []
    for r in range(len(middles) + 1):
        for chosen in itertools.combinations(middles, r):
            family = {0, full, *chosen}
            if all(
                u & v in family and u | v in family
                for u in family
                for v in family
            ):
                found.append(tuple(sorted(family)))
    return sorted(found)


class TestValidate:
    def test_indiscrete_family_is_valid(self):
        t = validate([0, 3], 2)
        assert t.opens == (0, 3)

    def test_full_power_set_is_valid(self):
        for n in (1, 2, 3):
            t = validate(range(1 << n), n)
            assert len(t.opens) == 1 << n

    def test_union_gap_reports_witness_pair(self):
        with pytest.raises(OrdkitError, match=r"union.*\{0\}, \{1\}"):
            validate([0b000, 0b001, 0b010, 0b111], 3)

    def test_missing_empty_or_full_reported_first(self):
        with pytest.raises(OrdkitError, match="empty"):
            validate([1, 3], 2)
        with pytest.raises(OrdkitError, match="full"):
            validate([0, 1], 2)

    def test_intersection_gap_reports_witness_pair(self):
        with pytest.raises(OrdkitError, match="intersection"):
            validate([0b0000, 0b0011, 0b0110, 0b0111, 0b1111], 4)

    def test_intersection_is_checked_before_union(self):
        with pytest.raises(OrdkitError, match=r"intersection: witness pair \{0,1\}, \{1,2\}"):
            validate([0b0000, 0b0011, 0b0110, 0b1111], 4)

    def test_negative_mask_is_outside_the_carrier(self):
        for n in (0, 2):
            with pytest.raises(OrdkitError, match=f"subset mask outside {n}-point carrier"):
                validate([-1, 0, (1 << n) - 1], n)


def _verdict(check, family, n):
    try:
        return check(family, n)
    except OrdkitError as err:
        return str(err)


WITNESS = re.compile(r"finite-topology\.validate: not closed under (\w+): witness pair \{(.*)\}, \{(.*)\}")


def _seeded_families(count, seed=24):
    """Random masks on 1..5 points, each family sometimes missing the empty or full set,
    and the up-sets of random preorders with one mask dropped or added."""
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(1, 5)
        full = (1 << n) - 1
        if rng.random() < 0.5:
            family = {rng.randrange(full + 1) for _ in range(rng.randint(0, 2 * n))}
            family |= {mask for mask in (0, full) if rng.random() < 0.9}
        else:
            p = Preorder.from_pairs(n, [(rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(0, n))])
            family = set(up_sets(p))
            family ^= {rng.randrange(full + 1)} if rng.random() < 0.7 else set()
        yield sorted(family, key=lambda _: rng.random()), n


class TestValidateAgainstPairwiseScan:
    def test_seeded_families_give_the_same_verdict_and_message(self):
        # A named pair may differ from the scan's first one, but it must be a real witness.
        verdicts = []
        for family, n in _seeded_families(3000):
            ours, theirs = _verdict(validate, family, n), _verdict(oracles.validate, family, n)
            verdicts.append(ours)
            found = WITNESS.fullmatch(str(ours))
            if found is None:
                assert ours == theirs
                continue
            assert isinstance(theirs, str) and "witness pair" in theirs
            u, v = (sum(1 << int(x) for x in text.split(",") if x) for text in found.group(2, 3))
            meet_or_join = u & v if found[1] == "intersection" else u | v
            assert u in family and v in family and meet_or_join not in family
        assert sum(isinstance(ours, str) for ours in verdicts) > 1000
        assert sum(not isinstance(ours, str) for ours in verdicts) > 1000

    def test_every_up_set_family_on_up_to_four_points_is_accepted(self):
        for n in range(1, 5):
            for p in enumerate_preorders(n):
                opens = up_sets(p)
                assert validate(opens, n) == oracles.validate(opens, n) == from_preorder(p)

    @pytest.mark.parametrize(
        "family, n",
        [
            ([0], 0),
            ([0, 1], 1),
            ([0], 1),
            ([0, (1 << 17) - 1], 17),
            ([0, 1, (1 << 17) - 1], 17),
            ([0, 1, 2, (1 << 18) - 1], 18),
            ([0, 1, 2, 3, (1 << 18) - 1], 18),
            ([0, 3, 5, (1 << 20) - 1], 20),
            ([0, 1 << 19, (1 << 20) - 1, 1 << 20], 20),
        ],
    )
    def test_edge_cases_on_zero_one_and_many_points(self, family, n):
        assert _verdict(validate, family, n) == _verdict(oracles.validate, family, n)

    def test_all_subsets_of_sixteen_points_validate_in_under_two_seconds(self):
        start = time.perf_counter()
        t = validate(range(1 << 16), 16)
        assert time.perf_counter() - start < 2.0
        assert len(t.opens) == 1 << 16 and is_t0(t)


class TestFromPreorder:
    def test_discrete_preorder_gives_discrete_topology(self):
        assert from_preorder(Preorder.discrete(2)).opens == (0, 1, 2, 3)

    def test_two_chain_gives_three_opens(self):
        assert from_preorder(Preorder.chain(2)).opens == (0, 2, 3)

    def test_coarse_gives_indiscrete(self):
        assert from_preorder(Preorder.coarse(2)).opens == (0, 3)

    def test_always_passes_the_axiom_checker(self):
        for p in enumerate_preorders(3):
            t = from_preorder(p)
            assert validate(t.opens, 3) == t


class TestToPreorder:
    def test_discrete_topology_gives_discrete_preorder(self):
        assert to_preorder(validate(range(4), 2)) == Preorder.discrete(2)

    def test_indiscrete_gives_coarse(self):
        assert to_preorder(validate([0, 3], 2)) == Preorder.coarse(2)

    def test_chain_topology_gives_chain(self):
        assert to_preorder(validate([0, 2, 3], 2)) == Preorder.chain(2)

    def test_definition_check_over_opens(self):
        t = validate([0, 2, 3], 2)
        p = to_preorder(t)
        for x in range(2):
            for y in range(2):
                holds = all(mask >> y & 1 for mask in t.opens if mask >> x & 1)
                assert p.le(x, y) == holds

    def test_minimal_open_is_smallest_open_neighbourhood(self):
        for p in enumerate_preorders(3):
            t = from_preorder(p)
            for x in range(3):
                u = minimal_open(t, x)
                assert u in t.opens and u >> x & 1
                assert all(u & ~mask == 0 for mask in t.opens if mask >> x & 1)


class TestRoundTrips:
    def test_preorder_to_topology_and_back_up_to_four_points(self):
        for n in range(1, 5):
            for p in enumerate_preorders(n):
                assert to_preorder(from_preorder(p)) == p

    def test_topology_to_preorder_and_back_up_to_three_points(self):
        for n in range(1, 4):
            for t in oracles.enumerate_topologies(n):
                assert from_preorder(to_preorder(t)) == t

    def test_more_comparabilities_give_fewer_up_sets(self):
        pool = list(enumerate_preorders(3))
        for p in pool:
            for q in pool:
                if refines(p, q):
                    assert set(from_preorder(q).opens) <= set(from_preorder(p).opens)


class TestEnumeration:
    def test_singleton_carrier_has_one_topology(self):
        assert sum(1 for _ in enumerate_topologies(1)) == 1

    def test_counts_match_preorder_counts(self):
        for n in range(1, 5):
            t_count = sum(1 for _ in oracles.enumerate_topologies(n))
            p_count = sum(1 for _ in enumerate_preorders(n))
            assert t_count == p_count

    def test_matches_independent_family_filter(self):
        for n in (1, 2, 3):
            direct = sorted(t.opens for t in enumerate_topologies(n))
            assert direct == brute_force_topologies(n)

    def test_stream_order_matches_the_family_growth(self):
        """The sorted preorder images come in the closed-family growth's depth-first order."""
        for n in range(1, 5):
            assert list(enumerate_topologies(n)) == list(oracles.enumerate_topologies(n))
        assert list(enumerate_topologies(5)) == list(oracles.enumerate_topologies(5))

    def test_no_duplicates_on_four_points(self):
        seen = [t.opens for t in enumerate_topologies(4)]
        assert len(seen) == len(set(seen))

    def test_out_of_range_rejected(self):
        with pytest.raises(OrdkitError, match="enumerate_preorders"):
            list(enumerate_topologies(6))

    def test_env_var_lowers_guard(self, monkeypatch):
        monkeypatch.setenv("ORDKIT_MAX_N", "2")
        with pytest.raises(OrdkitError):
            list(enumerate_topologies(3))


class TestT0:
    def test_discrete_is_t0(self):
        assert is_t0(validate(range(8), 3))

    def test_indiscrete_pair_is_not_t0(self):
        assert not is_t0(validate([0, 3], 2))

    def test_t0_count_matches_labeled_poset_count(self):
        t0_count = sum(1 for t in enumerate_topologies(3) if is_t0(t))
        poset_count = sum(1 for p in enumerate_preorders(3) if classify(p).partial_order)
        assert t0_count == poset_count == 19


class TestBubbleQuotientLattice:
    def test_open_families_match_up_sets_of_the_bubble_poset(self):
        """Opens are unions of bubbles, so the lattice of opens is the up-set
        lattice of the quotient poset."""
        from ordkit.relations import bubbles, up_sets

        for n in (1, 2, 3):
            for t in oracles.enumerate_topologies(n):
                dec = bubbles(to_preorder(t))
                assert classify(dec.quotient).partial_order
                assert len(up_sets(dec.quotient)) == len(t.opens)
