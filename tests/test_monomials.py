import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ordkit.errors import OrdkitError
from ordkit.monomials import (
    BOREL_MOVES_CAP,
    MonomialIdeal,
    associated_preorder,
    associated_preorder_by_definition,
    chain_monomial,
    chain_point,
    contains,
    is_most_degenerate,
    is_strongly_stable,
    minimalize,
    monomials_up_to_degree,
    permute_ideal,
    ss_to_upset,
    stabilizer,
    upset_to_ss,
)
from ordkit.relations import Preorder, classify, refines, relabel
from tests import oracles


X2_Y2 = minimalize(2, [(2, 0), (0, 2)])
X2_XY_Y3 = minimalize(2, [(2, 0), (1, 1), (0, 3)])
POWER_2_3 = minimalize(3, [(2, 0, 0), (0, 2, 0), (0, 0, 2), (1, 1, 0), (1, 0, 1), (0, 1, 1)])
X_Y2_YZ_Z3 = minimalize(3, [(1, 0, 0), (0, 2, 0), (0, 1, 1), (0, 0, 3)])


def small_family():
    """Exhaustive over one and two variables with degree <= 3; all ideals on
    three variables spanned by at most three such generators; the zero and
    unit ideals."""
    seen = {}

    def add(nvars, gens):
        ideal = minimalize(nvars, gens)
        seen.setdefault((nvars, ideal.gens), ideal)

    for nvars in (1, 2):
        monos = [m for m in monomials_up_to_degree(nvars, 3) if sum(m) > 0]
        for r in range(len(monos) + 1):
            for chosen in itertools.combinations(monos, r):
                add(nvars, chosen)
    monos3 = [m for m in monomials_up_to_degree(3, 3) if sum(m) > 0]
    for r in range(4):
        for chosen in itertools.combinations(monos3, r):
            add(3, chosen)
    add(1, [(0,)])
    add(2, [(0, 0)])
    add(3, [(0, 0, 0)])
    return list(seen.values())


FAMILY = small_family()


def random_ideals(seed, count):
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        n = rng.randint(1, 3)
        gens = [tuple(rng.randint(0, 3) for _ in range(n)) for _ in range(rng.randint(1, 4))]
        out.append(minimalize(n, gens))
    return out


class TestMinimalize:
    def test_divisibility_filtered(self):
        assert minimalize(2, [(2, 0), (3, 0), (0, 1)]).gens == ((0, 1), (2, 0))

    def test_empty_is_zero_ideal(self):
        ideal = minimalize(2, [])
        assert ideal.is_zero

    def test_common_multiple_collapses(self):
        assert minimalize(2, [(1, 1), (2, 1), (1, 2)]).gens == ((1, 1),)

    def test_unit_generator_swallows_everything(self):
        assert minimalize(2, [(0, 0), (1, 0), (0, 3)]).gens == ((0, 0),)

    def test_idempotent(self):
        ideal = minimalize(3, [(1, 0, 2), (0, 1, 1), (2, 2, 2)])
        assert minimalize(3, ideal.gens) == ideal

    def test_invariants_enforced(self):
        with pytest.raises(OrdkitError, match="divides"):
            MonomialIdeal(2, ((1, 0), (2, 0)))
        with pytest.raises(OrdkitError, match="sorted"):
            MonomialIdeal(2, ((2, 0), (0, 2), (2, 0)))


class TestContains:
    def test_positive_membership(self):
        assert contains(X2_Y2, (2, 1))

    def test_xy_stays_outside_x2_y2(self):
        assert not contains(X2_Y2, (1, 1))

    def test_zero_ideal_contains_nothing(self):
        assert not contains(minimalize(2, []), (5, 5))

    def test_size_mismatch_rejected(self):
        with pytest.raises(OrdkitError, match="contains"):
            contains(X2_Y2, (1, 1, 1))


class TestAssociatedPreorder:
    def test_pure_squares_give_discrete(self):
        assert classify(associated_preorder(X2_Y2)).discrete

    def test_power_ideal_gives_coarse(self):
        assert classify(associated_preorder(POWER_2_3)).coarse

    def test_mixed_ideal_gives_total_order_with_x_on_top(self):
        p = associated_preorder(X_Y2_YZ_Z3)
        assert classify(p).total and classify(p).partial_order
        assert p.le(1, 0) and p.le(2, 1) and not p.le(0, 1)

    def test_zero_and_unit_ideals_give_coarse(self):
        assert classify(associated_preorder(minimalize(2, []))).coarse
        assert classify(associated_preorder(minimalize(2, [(0, 0)]))).coarse

    def test_generator_rule_matches_definition_on_family(self):
        for ideal in FAMILY:
            assert associated_preorder(ideal) == associated_preorder_by_definition(ideal)

    def test_generator_rule_matches_definition_on_seeded_instances(self):
        for ideal in random_ideals(20260809, 500):
            assert associated_preorder(ideal) == associated_preorder_by_definition(ideal)

    def test_output_is_always_a_valid_preorder(self):
        for ideal in FAMILY:
            p = associated_preorder(ideal)
            assert isinstance(p, Preorder)


def standard_total_order(n):
    """x0 > x1 > ... as a preorder: later variables sit below earlier ones."""
    return relabel(Preorder.chain(n), tuple(range(n - 1, -1, -1)))


class TestStrongStability:
    def test_mixed_power_ideal_is_strongly_stable(self):
        assert is_strongly_stable(X2_XY_Y3)

    def test_pure_squares_are_not(self):
        assert not is_strongly_stable(X2_Y2)

    def test_mixed_ideal_is_strongly_stable(self):
        assert is_strongly_stable(X_Y2_YZ_Z3)

    def test_variable_order_argument(self):
        mirrored = minimalize(2, [(0, 2), (1, 1), (3, 0)])
        assert not is_strongly_stable(mirrored)
        assert is_strongly_stable(mirrored, order=(1, 0))

    def test_equivalent_to_refinement_of_standard_order(self):
        for ideal in FAMILY:
            expected = refines(standard_total_order(ideal.nvars), associated_preorder(ideal))
            assert is_strongly_stable(ideal) == expected

    def test_most_degenerate_iff_permutation_strongly_stable(self):
        for ideal in FAMILY:
            by_permutation = any(
                is_strongly_stable(permute_ideal(ideal, perm))
                for perm in itertools.permutations(range(ideal.nvars))
            )
            assert is_most_degenerate(ideal) == by_permutation

    def test_named_most_degenerate_cases(self):
        assert is_most_degenerate(X2_XY_Y3)
        assert not is_most_degenerate(X2_Y2)
        assert is_most_degenerate(POWER_2_3)


class TestStabilizer:
    def test_pure_squares_have_full_symmetry(self):
        assert stabilizer(X2_Y2) == [(0, 1), (1, 0)]

    def test_mixed_ideal_is_rigid(self):
        assert stabilizer(X_Y2_YZ_Z3) == [(0, 1, 2)]

    def test_zero_ideal_has_full_symmetry(self):
        assert len(stabilizer(minimalize(3, []))) == 6

    def test_guard(self):
        with pytest.raises(OrdkitError, match="stabilizer"):
            stabilizer(minimalize(9, []))

    def test_stabilizer_fixes_associated_preorder(self):
        for ideal in FAMILY:
            p = associated_preorder(ideal)
            for perm in stabilizer(ideal):
                assert relabel(p, perm) == p

    def test_permuting_transports_the_preorder(self):
        for ideal in random_ideals(99, 100):
            perm = tuple(reversed(range(ideal.nvars)))
            assert associated_preorder(permute_ideal(ideal, perm)) == relabel(
                associated_preorder(ideal), perm
            )


class TestUpsetBijection:
    def test_chain_point_and_back(self):
        for m in monomials_up_to_degree(3, 4):
            u = chain_point(m)
            assert all(a <= b for a, b in zip(u, u[1:]))
            assert chain_monomial(u) == m

    def test_mixed_power_ideal_minimal_points(self):
        assert ss_to_upset(X2_XY_Y3) == ((0, 3), (1, 2))

    def test_single_variable(self):
        assert ss_to_upset(minimalize(1, [(1,)])) == ((1,),)

    def test_round_trip_on_mixed_power_ideal(self):
        assert upset_to_ss(ss_to_upset(X2_XY_Y3), 2) == X2_XY_Y3

    def test_round_trips_both_ways_on_family(self):
        for ideal in FAMILY:
            if not is_strongly_stable(ideal):
                continue
            chains = ss_to_upset(ideal)
            assert upset_to_ss(chains, ideal.nvars) == ideal
            assert ss_to_upset(upset_to_ss(chains, ideal.nvars)) == chains

    def test_membership_equivalence_up_to_slack_two(self):
        for ideal in FAMILY:
            if not is_strongly_stable(ideal):
                continue
            chains = ss_to_upset(ideal)
            bound = ideal.max_degree() + 2
            for m in monomials_up_to_degree(ideal.nvars, bound):
                in_upset = any(
                    all(a >= b for a, b in zip(chain_point(m), u)) for u in chains
                )
                assert contains(ideal, m) == in_upset

    def test_not_strongly_stable_rejected(self):
        with pytest.raises(OrdkitError, match="strongly stable"):
            ss_to_upset(X2_Y2)

    def test_bad_chain_rejected(self):
        with pytest.raises(OrdkitError, match="weakly increasing"):
            upset_to_ss([(2, 1)], 2)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except OrdkitError as exc:
        return str(exc)


# Up to five chains of up to five entries in 0..7; a drawn chain is sorted
# unless ``raw`` keeps its order, which lets some be rejected.
upsets = st.integers(0, 5).flatmap(
    lambda n: st.tuples(
        st.lists(st.lists(st.integers(0, 7), min_size=n, max_size=n), max_size=5), st.just(n), st.booleans()
    )
)
ideals_and_orders = st.integers(0, 5).flatmap(
    lambda n: st.tuples(
        st.lists(st.tuples(*[st.integers(0, 3)] * n), max_size=6).map(lambda gens: minimalize(n, gens)),
        st.permutations(range(n)),
    )
)


def borel_closure(nvars, gens, order):
    """The ideal of every monomial that moving exponents to earlier variables of ``order`` reaches from ``gens``."""
    seen, todo = set(gens), list(gens)
    while todo:
        m = todo.pop()
        for j in range(1, nvars):
            if not m[order[j]]:
                continue
            for i in range(j):
                moved = list(m)
                moved[order[j]] -= 1
                moved[order[i]] += 1
                if tuple(moved) not in seen:
                    seen.add(tuple(moved))
                    todo.append(tuple(moved))
    return minimalize(nvars, seen)


class TestAgainstOracles:
    @settings(max_examples=400, deadline=None)
    @given(upsets)
    def test_upset_to_ss_matches_generate_and_filter(self, drawn):
        chains, nvars, raw = drawn
        chains = [tuple(u if raw else sorted(u)) for u in chains]
        got = _outcome(upset_to_ss, chains, nvars)
        assert got == _outcome(oracles.upset_to_ss, chains, nvars)
        if isinstance(got, MonomialIdeal):
            assert MonomialIdeal(nvars, got.gens) == got

    @settings(max_examples=300, deadline=None)
    @given(ideals_and_orders)
    def test_strong_stability_matches_the_generator_scan(self, drawn):
        ideal, order = drawn
        assert is_strongly_stable(ideal) == oracles.is_strongly_stable(ideal)
        assert is_strongly_stable(ideal, order) == oracles.is_strongly_stable(ideal, order)

    def test_strong_stability_matches_the_generator_scan_on_seeded_borel_closures(self):
        """Adjacent transfers decide: every other ideal is Borel-closed for a random order."""
        rng = random.Random(27)
        cases = stable = 0
        for k in range(3000):
            n = rng.randint(1, 5)
            order = tuple(rng.sample(range(n), n))
            top = 1 if k % 2 else 3
            gens = [tuple(rng.randint(0, top) for _ in range(n)) for _ in range(rng.randint(1, 4))]
            ideal = borel_closure(n, gens, order) if k % 2 else minimalize(n, gens)
            for chain in (None, order):
                got = is_strongly_stable(ideal, chain)
                assert got == oracles.is_strongly_stable(ideal, chain)
                cases, stable = cases + 1, stable + got
            if k % 2:
                assert got
        assert cases == 6000 and stable >= 0.4 * cases

    def test_monomials_up_to_degree_lists_each_vector_once(self):
        for nvars in range(5):
            for bound in range(5):
                listed = list(monomials_up_to_degree(nvars, bound))
                box = itertools.product(range(bound + 1), repeat=nvars)
                assert sorted(listed) == [m for m in box if sum(m) <= bound]
                assert len(set(listed)) == len(listed)

    def test_borel_move_guard_before_any_move(self):
        for chains, nvars in [([(0, 0, 0, 0, 400)], 5), ([(0, 10**20)], 2)]:
            with pytest.raises(OrdkitError, match=f"Borel moves exceeds guard {BOREL_MOVES_CAP}"):
                upset_to_ss(chains, nvars)
        assert len(upset_to_ss([(0, 0, 0, 0, 40)], 5).gens) == 135751

    def test_one_variable_needs_no_enumeration(self):
        assert upset_to_ss([(10**20,)], 1).gens == ((10**20,),)

    def test_empty_upset_and_no_variables(self):
        assert upset_to_ss([], 3) == MonomialIdeal(3, ())
        assert upset_to_ss([(), ()], 0) == MonomialIdeal(0, ((),))
        with pytest.raises(OrdkitError, match="negative variable count"):
            upset_to_ss([], -1)
