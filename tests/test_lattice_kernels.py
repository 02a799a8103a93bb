"""The up-set enumerator and the kernels derived from it against their oracles.

``up_sets`` builds the up-sets bubble by bubble from the top, the pattern
group kernels read their preorder off the generators' column supports, and
``antichain_dimension`` counts up-sets.  Each is compared with the 2^n
subset scan in ``tests/oracles.py``: exhaustively at small sizes and on
seeded random inputs.
"""

import random
from fractions import Fraction

import pytest

from ordkit.edgerings import antichain_dimension
from ordkit.errors import OrdkitError
from ordkit.patterns import (
    identity,
    invariant_subsets,
    is_invertible,
    matrix,
    permutation_matrix,
    preorder_of_subgroup,
)
from ordkit.relations import Preorder, Relation, bubbles, classify, closure, enumerate_preorders, up_sets
from tests import oracles


def preorder_with_bubbles(rng, n):
    """Points dealt into fewer blocks than points, blocks ordered by a random DAG."""
    k = rng.randint(n // 2, n - 1)
    block = list(range(k)) + [rng.randrange(k) for _ in range(n - k)]
    rng.shuffle(block)
    density = rng.random() ** 2 / 2
    above = {(i, j) for i in range(k) for j in range(i + 1, k) if rng.random() < density}
    pairs = [
        (x, y)
        for x in range(n)
        for y in range(n)
        if block[x] == block[y] or (block[x], block[y]) in above
    ]
    return closure(Relation.from_pairs(n, pairs))


def random_generator(rng, n):
    """A permutation matrix, a permuted triangular matrix, or a random invertible one."""
    perm = rng.sample(range(n), n)
    kind = rng.choice(("permutation", "triangular", "random"))
    if kind == "permutation":
        return permutation_matrix(perm)
    if kind == "triangular":
        entries = [[0] * n for _ in range(n)]
        for j in range(n):
            entries[perm[j]][j] = rng.choice((1, -1, 2, Fraction(1, 2)))
            for i in range(j):
                if rng.random() < 0.3:
                    entries[perm[i]][j] = rng.choice((1, -3, Fraction(2, 3)))
        return matrix(entries)
    while True:
        g = matrix([[rng.choice((0, 0, 0, 1, -1, 2)) for _ in range(n)] for _ in range(n)])
        if is_invertible(g):
            return g


def outcome(fn, *args):
    try:
        return fn(*args)
    except OrdkitError as exc:
        return ("error", exc.module, exc.op, exc.message)


class TestUpSets:
    def test_every_preorder_up_to_five_points(self):
        for n in range(1, 6):
            for p in enumerate_preorders(n):
                assert up_sets(p) == oracles.up_sets(p), p.rows

    def test_seeded_random_preorders_with_bubbles(self):
        rng = random.Random(7)
        for _ in range(300):
            p = preorder_with_bubbles(rng, rng.randint(6, 16))
            assert len(bubbles(p).blocks) < p.n
            assert up_sets(p) == oracles.up_sets(p), p.rows

    def test_discrete_sixteen_points_gives_every_subset(self):
        p = Preorder.discrete(16)
        assert up_sets(p) == oracles.up_sets(p) == list(range(1 << 16))

    @pytest.mark.parametrize("n", [1, 7, 16])
    def test_coarse_and_chain(self, n):
        full = (1 << n) - 1
        assert up_sets(Preorder.coarse(n)) == [0, full]
        assert up_sets(Preorder.chain(n)) == sorted(full >> k << k for k in range(n + 1))


class TestPatternKernels:
    def test_seeded_random_generator_sets(self):
        rng = random.Random(11)
        moved = 0
        for _ in range(300):
            n = rng.randint(1, 7)
            gens = [random_generator(rng, n) for _ in range(rng.randint(1, 3))]
            moved += sum(any(g.entries[w][w] == 0 for w in range(n)) for g in gens)
            assert preorder_of_subgroup(gens) == oracles.preorder_of_subgroup(gens)
            assert invariant_subsets(gens) == oracles.invariant_subsets(gens)
        # Generators whose columns miss the diagonal leave reflexivity to the closure.
        assert moved > 100

    def test_generator_errors_match(self):
        cases = [
            [],
            [matrix([[1, 1], [1, 1]])],
            [identity(2), matrix([[0, 0], [0, 0]])],
            [identity(2), identity(3)],
            [identity(17)],
        ]
        for gens in cases:
            expected = outcome(oracles.invariant_subsets, gens)
            assert expected[0] == "error"
            assert outcome(invariant_subsets, gens) == expected
            assert outcome(preorder_of_subgroup, gens) == expected


class TestAntichainDimension:
    def test_every_partial_order_up_to_five_points(self):
        checked = 0
        for n in range(1, 6):
            for p in enumerate_preorders(n):
                if classify(p).partial_order:
                    assert antichain_dimension(p) == len(oracles.antichains(p)), p.rows
                    checked += 1
                else:
                    with pytest.raises(OrdkitError, match="not antisymmetric"):
                        antichain_dimension(p)
        assert checked == 1 + 3 + 19 + 219 + 4231
