"""The output-sensitive ideal kernels against their brute-force oracles.

``minimalize`` (degree-ordered scan, trusted result), ``alexander_dual``
(Berge's sequential transversals) and ``kdim_artinian`` (slicing on the last
variable) are compared with the pairwise scan, the subset scan and the box
scan in ``tests/oracles.py``: exhaustively at small sizes, on seeded random
ideals, on the benchmark's input shapes and on dense powers of the maximal
ideal.
"""

import itertools
import math
import random

import pytest

from ordkit.edgerings import SquarefreeIdeal, alexander_dual, kdim_artinian
from ordkit.errors import OrdkitError
from ordkit.monomials import MonomialIdeal, minimalize, monomials_up_to_degree
from tests import oracles


def squarefree(nvars, supports):
    gens = [tuple(s >> i & 1 for i in range(nvars)) for s in supports]
    return SquarefreeIdeal(tuple(f"x{i}" for i in range(nvars)), minimalize(nvars, gens))


def every_squarefree_ideal(nvars):
    """Each antichain of subsets of the variables, as the ideal it generates."""
    subsets = range(1 << nvars)
    for family in range(1 << (1 << nvars)):
        chosen = [s for s in subsets if family >> s & 1]
        if all(a == b or a & ~b for a in chosen for b in chosen):
            yield chosen, squarefree(nvars, chosen)


def check_dual(ideal):
    assert alexander_dual(ideal) == oracles.alexander_dual(ideal)


def check_kdim(nvars, gens):
    ideal = minimalize(nvars, gens)
    assert ideal == oracles.minimalize(nvars, gens)
    assert kdim_artinian(ideal) == oracles.kdim_artinian(ideal), ideal.gens


def artinian_gens(rng, nvars, top, extra):
    powers = [tuple(rng.randint(1, top) if i == v else 0 for i in range(nvars)) for v in range(nvars)]
    extras = [tuple(rng.randint(0, top) for _ in range(nvars)) for _ in range(extra)]
    return powers + [m for m in extras if any(m)]


def matching_supports(rng, edges, triples):
    """Disjoint edges plus triples across them, as in the ``ideal-kernels`` workload."""
    supports = {(2 * i, 2 * i + 1) for i in range(edges)}
    while len(supports) < edges + triples:
        supports.add(tuple(sorted(2 * e + rng.randint(0, 1) for e in rng.sample(range(edges), 3))))
    return [sum(1 << v for v in s) for s in supports]


class TestExhaustive:
    def test_every_squarefree_ideal_up_to_four_variables(self):
        counts = []
        for nvars in range(5):
            seen = 0
            for chosen, ideal in every_squarefree_ideal(nvars):
                seen += 1
                assert ideal.ideal.gens == oracles.minimalize(nvars, ideal.ideal.gens).gens
                if chosen:
                    check_dual(ideal)
            counts.append(seen)
        assert counts == [2, 3, 6, 20, 168]  # Dedekind numbers

    def test_minimalize_on_every_family_up_to_three_variables(self):
        for nvars in range(4):
            subsets = range(1 << nvars)
            for family in range(1 << (1 << nvars)):
                gens = [tuple(s >> i & 1 for i in range(nvars)) for s in subsets if family >> s & 1]
                assert minimalize(nvars, gens) == oracles.minimalize(nvars, gens)

    def test_kdim_on_small_boxes(self):
        for nvars in (1, 2, 3):
            box = [m for m in itertools.product(range(3), repeat=nvars) if any(m)]
            for tops in itertools.product((1, 3), repeat=nvars):
                powers = [tuple(t if i == v else 0 for i in range(nvars)) for v, t in enumerate(tops)]
                for r in range(3):
                    for extra in itertools.combinations(box, r):
                        check_kdim(nvars, powers + list(extra))


class TestSeededRandom:
    def test_dual_on_random_squarefree_ideals_up_to_nine_variables(self):
        rng = random.Random(11)
        for _ in range(500):
            nvars = rng.randint(1, 9)
            supports = [rng.randrange(1, 1 << nvars) for _ in range(rng.randint(1, 8))]
            ideal = squarefree(nvars, supports)
            assert ideal.ideal == oracles.minimalize(nvars, ideal.ideal.gens)
            check_dual(ideal)

    def test_kdim_and_minimalize_on_random_ideals_up_to_four_variables(self):
        rng = random.Random(12)
        for _ in range(500):
            nvars = rng.randint(1, 4)
            check_kdim(nvars, artinian_gens(rng, nvars, 5, rng.randint(0, 6)))


class TestWorkloadShapes:
    @pytest.mark.parametrize("edges", [7, 8])
    def test_dual_of_disjoint_edges_plus_two_triples(self, edges):
        rng = random.Random(edges)
        check_dual(squarefree(2 * edges, matching_supports(rng, edges, 2)))

    def test_kdim_of_a_44_50_56_box_with_eight_generators(self):
        rng = random.Random(3)
        powers = [tuple(p if i == v else 0 for i in range(3)) for v, p in enumerate((44, 50, 56))]
        check_kdim(3, powers + [tuple(rng.randint(20, 40) for _ in range(3)) for _ in range(8)])

    @pytest.mark.parametrize("d", range(1, 13))
    def test_kdim_of_dense_powers_of_the_maximal_ideal(self, d):
        gens = [m for m in monomials_up_to_degree(3, d + 1) if sum(m) >= d]
        ideal = minimalize(3, gens)
        assert ideal.gens == tuple(sorted(m for m in gens if sum(m) == d))
        assert kdim_artinian(ideal) == oracles.kdim_artinian(ideal) == math.comb(d + 2, 3)


class TestBoundary:
    def test_direct_construction_keeps_full_validation(self):
        with pytest.raises(OrdkitError, match="sorted and distinct"):
            MonomialIdeal(2, ((2, 0), (0, 2)))
        with pytest.raises(OrdkitError, match="sorted and distinct"):
            MonomialIdeal(2, ((0, 2), (0, 2), (2, 0)))
        with pytest.raises(OrdkitError, match=r"generator \(1, 0\) divides \(2, 0\)"):
            MonomialIdeal(2, ((1, 0), (2, 0)))

    def test_trusted_result_passes_full_validation(self):
        rng = random.Random(13)
        for _ in range(200):
            nvars = rng.randint(0, 4)
            gens = [tuple(rng.randint(0, 3) for _ in range(nvars)) for _ in range(rng.randint(0, 6))]
            ideal = minimalize(nvars, gens)
            assert MonomialIdeal(nvars, ideal.gens) == ideal

    def test_minimalize_checks_its_input_with_the_same_messages(self):
        with pytest.raises(OrdkitError, match="negative variable count"):
            minimalize(-1, [])
        with pytest.raises(OrdkitError, match=r"generator \(1,\) has wrong length for 2 variables"):
            minimalize(2, [(1, 0), (1,)])
        with pytest.raises(OrdkitError, match=r"negative exponent in \(-1, 2\)"):
            minimalize(2, [(-1, 2), (0, 1)])

    def test_unit_ideal_has_no_standard_monomials(self):
        for nvars in range(5):
            ideal = minimalize(nvars, [(0,) * nvars] + [(1,) * nvars])
            assert ideal.gens == ((0,) * nvars,)
            assert kdim_artinian(ideal) == oracles.kdim_artinian(ideal) == 0
        with pytest.raises(OrdkitError, match="no pure power of variable x0"):
            kdim_artinian(minimalize(2, [(0, 1), (1, 1)]))

    def test_zero_variable_kernels(self):
        assert kdim_artinian(minimalize(0, [])) == 1
        assert kdim_artinian(minimalize(0, [()])) == 0
        assert alexander_dual(squarefree(0, [0])).ideal.gens == ()
