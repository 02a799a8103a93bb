"""Monomial ideals, their associated preorders, and strong stability.

Monomials are exponent tuples.  The zero ideal has no generators; the unit
ideal is generated by the all-zero exponent vector.  Both are legal inputs:
their associated preorder is the coarse one, the defining implication being
vacuous for the first and universally true for the second.

Everything here is characteristic-free combinatorics.  In characteristic
zero, strong stability coincides with invariance under upper triangular
coordinate changes; no group action is computed here.  Strong stability is
the transfer test of the associated preorder.  Up-sets of chain points over
the standard chain of variables give ideals by Borel moves; other total
preorders in place of the chain are an extension point.
"""

from __future__ import annotations

import itertools
import math
from operator import add, itemgetter, sub
from typing import Iterable, Iterator, Sequence

from .errors import OrdkitError
from .relations import (
    Preorder,
    Record,
    _bits,
    check_point_count,
    classify,
)

Monomial = tuple[int, ...]

STABILIZER_CAP = 8
BOREL_MOVES_CAP = 200_000


def divides(a: Monomial, b: Monomial) -> bool:
    return all(ai <= bi for ai, bi in zip(a, b))


def degree(m: Monomial) -> int:
    return sum(m)


def _check_gens(nvars: int, gens: Iterable[Monomial]) -> None:
    """Reject a negative variable count, then any generator of the wrong length or sign."""
    if nvars < 0:
        raise OrdkitError("monomial-ideals", "ideal", "negative variable count")
    for g in gens:
        if len(g) != nvars:
            raise OrdkitError(
                "monomial-ideals", "ideal", f"generator {g} has wrong length for {nvars} variables"
            )
        if any(e < 0 for e in g):
            raise OrdkitError("monomial-ideals", "ideal", f"negative exponent in {g}")


class MonomialIdeal(Record):
    """A minimal tuple of generating ``Monomial``s in ``nvars`` variables, sorted for determinism."""

    __slots__ = ("nvars", "gens")

    def _check(self) -> None:
        nvars, gens = self.nvars, self.gens
        _check_gens(nvars, gens)
        if tuple(sorted(set(gens))) != gens:
            raise OrdkitError("monomial-ideals", "ideal", "generators must be sorted and distinct")
        for a in gens:
            for b in gens:
                if a != b and divides(a, b):
                    raise OrdkitError("monomial-ideals", "ideal", f"generator {a} divides {b}")

    @property
    def is_zero(self) -> bool:
        return not self.gens

    def max_degree(self) -> int:
        return max((degree(g) for g in self.gens), default=0)


class NamedIdeal(Record):
    """A ``MonomialIdeal`` over a ``ground`` tuple of variable names.

    Its errors keep the ``edge-rings.ideal`` tag of the squarefree ideals
    that extend it, so every named-ideal refusal reads the same; the
    messages are pinned byte for byte by ``tests/test_records.py``.
    """

    __slots__ = ("ground", "ideal")

    def _check(self) -> None:
        ground, ideal = self.ground, self.ideal
        if len(set(ground)) != len(ground):
            raise OrdkitError("edge-rings", "ideal", "duplicate ground set names")
        if ideal.nvars != len(ground):
            raise OrdkitError(
                "edge-rings",
                "ideal",
                f"{ideal.nvars} variables but {len(ground)} ground names",
            )


def minimalize(nvars: int, gens: Iterable[Monomial]) -> MonomialIdeal:
    """Divisibility-minimal antichain generating the same ideal.

    A proper divisor has strictly lower degree, so scanning in ascending
    degree and testing each monomial against the kept ones of lower degree
    finds every redundant one: a divisor that was dropped has a kept divisor
    of its own, which divides the monomial too.
    """
    pool = sorted(set(tuple(g) for g in gens))
    _check_gens(nvars, pool)
    kept: list[Monomial] = []
    for _, group in itertools.groupby(sorted(pool, key=degree), key=degree):
        below = tuple(kept)
        kept.extend(g for g in group if not any(divides(h, g) for h in below))
    return MonomialIdeal._trusted(nvars, tuple(sorted(kept)))


def contains(ideal: MonomialIdeal, m: Monomial) -> bool:
    if len(m) != ideal.nvars:
        raise OrdkitError(
            "monomial-ideals", "contains", f"monomial has {len(m)} exponents, ideal has {ideal.nvars} variables"
        )
    return any(divides(g, m) for g in ideal.gens)


def _transfers(ideal: MonomialIdeal, x: int, y: int) -> bool:
    """Whether y*(g/x) lies in the ideal for every generator g divisible by x."""
    step = [(i == y) - (i == x) for i in range(ideal.nvars)]
    return all(contains(ideal, tuple(map(add, g, step))) for g in ideal.gens if g[x])


def associated_preorder(ideal: MonomialIdeal) -> Preorder:
    """x <= y when multiplying any monomial into the ideal via x also works via y.

    Checked on generators by ``_transfers``: a witness x*m in the ideal that
    has m itself outside forces a generator g dividing x*m with g/x dividing
    m, so the generator-level check is equivalent to the quantified definition.
    """
    n = ideal.nvars
    check_point_count(n, "monomial-ideals", "associated_preorder")
    rows = tuple(sum(1 << y for y in range(n) if _transfers(ideal, x, y)) for x in range(n))
    return Preorder(n, rows)


def associated_preorder_by_definition(ideal: MonomialIdeal) -> Preorder:
    """Quantified form of the associated preorder, for cross-checking.

    Tests x <= y against every monomial m of total degree up to the maximal
    generator degree, which any minimal counterexample m = g/x stays under:
    row x keeps each y with y*m in the ideal if x*m is.
    """
    n = ideal.nvars
    rows = [(1 << n) - 1] * n
    for m in monomials_up_to_degree(n, ideal.max_degree()):
        times = (tuple(e + (i == x) for i, e in enumerate(m)) for x in range(n))
        into = sum(1 << x for x, xm in enumerate(times) if contains(ideal, xm))
        rows = [row & into if into >> x & 1 else row for x, row in enumerate(rows)]
    return Preorder(n, tuple(rows))


def monomials_up_to_degree(nvars: int, bound: int) -> Iterator[Monomial]:
    """Every exponent vector of total degree at most ``bound``."""
    return map(chain_monomial, itertools.combinations_with_replacement(range(bound + 1), nvars))


def is_strongly_stable(ideal: MonomialIdeal, order: Sequence[int] | None = None) -> bool:
    """Whether the associated preorder contains the chain ``order``.

    ``order`` lists the variables from largest to smallest; default is the
    standard order x0 > x1 > ... > x(n-1).  The ideal is strongly stable when
    every later variable transfers to every earlier one; the transfers form
    the associated preorder, which is transitive, so the adjacent pairs decide.
    """
    n = ideal.nvars
    order = tuple(range(n)) if order is None else tuple(order)
    if sorted(order) != list(range(n)):
        raise OrdkitError("monomial-ideals", "is_strongly_stable", f"{order} is not a permutation")
    return all(_transfers(ideal, order[j + 1], order[j]) for j in range(n - 1))


def is_most_degenerate(ideal: MonomialIdeal) -> bool:
    """True when the associated preorder is total."""
    return classify(associated_preorder(ideal)).total


def permute_monomial(m: Monomial, perm: Sequence[int]) -> Monomial:
    out = [0] * len(m)
    for i, e in enumerate(m):
        out[perm[i]] = e
    return tuple(out)


def permute_ideal(ideal: MonomialIdeal, perm: Sequence[int]) -> MonomialIdeal:
    return MonomialIdeal(ideal.nvars, tuple(sorted(permute_monomial(g, perm) for g in ideal.gens)))


def iter_stabilizer(ideal: MonomialIdeal) -> Iterator[tuple[int, ...]]:
    """All variable permutations fixing the ideal, ascending lexicographically.

    The variable count is checked when called; the permutations then stream
    from a pruned search that picks the images of x0, x1, ... depth first:
    variable i may go to j only when the exponent pairs (g[i], g[k]) over the
    generators form the same multiset as (g[j], g[perm[k]]) for every k < i.
    Interned as pair kinds, those cuts are ANDs of bit masks over j, kept for
    every open position; the one for k = 0 already gives x_i and x_j the same
    exponent multiset.  When each open position allows exactly the unused
    variables, and all the pairs among those positions and variables are of
    one kind, every arrangement of the unused variables passes the cuts: the
    subtree is ``itertools.permutations`` of them.  A permutation gets the
    exact test, that the permuted generators are the generators, unless no
    generator involves more than two variables: then the pair multisets
    already determine the generators.
    """
    n = ideal.nvars
    if n > STABILIZER_CAP:
        raise OrdkitError(
            "monomial-ideals", "stabilizer", f"{n} variables exceeds guard {STABILIZER_CAP}"
        )
    columns = list(zip(*ideal.gens)) or [()] * n
    kinds: dict[tuple, int] = {}
    pair = [
        tuple(kinds.setdefault(tuple(sorted(zip(columns[i], columns[k]))), len(kinds)) for k in range(n))
        for i in range(n)
    ]
    # like[v][t]: the j != v with pair kind t against v.
    like = [[0] * len(kinds) for _ in range(n)]
    for j in range(n):
        for v in range(n):
            if v != j:
                like[v][pair[j][v]] |= 1 << j
    exact = any(n - g.count(0) > 2 for g in ideal.gens)
    gens = set(ideal.gens)
    everyone = (1 << n) - 1

    def grow(prefix: tuple[int, ...], masks: tuple[int, ...], free: int) -> Iterator[tuple[int, ...]]:
        """The permutations below ``prefix``; ``masks`` allows the values at the open positions."""
        i = len(prefix)
        if masks.count(free) == len(masks):
            inside = list(_bits(free | everyone >> i << i))
            if len({pair[a][b] for a in inside for b in inside if a != b}) < 2:
                for tail in itertools.permutations(_bits(free)):
                    perm = prefix + tail
                    # itemgetter(*perm) applies the inverse permutation, which fixes the
                    # generators exactly when perm does; a generator in three variables
                    # means n >= 3, so it returns tuples.
                    if not exact or gens.issuperset(map(itemgetter(*perm), ideal.gens)):
                        yield perm
                return
        for v in _bits(masks[0]):
            rest = tuple(m & like[v][pair[r][i]] for r, m in enumerate(masks[1:], i + 1))
            if 0 not in rest:
                yield from grow(prefix + (v,), rest, free ^ 1 << v)

    return grow((), (everyone,) * n, everyone)


def stabilizer_order(ideal: MonomialIdeal) -> int:
    """The number of variable permutations fixing the ideal, counted off ``iter_stabilizer``."""
    return sum(1 for _ in iter_stabilizer(ideal))


def stabilizer(ideal: MonomialIdeal) -> list[tuple[int, ...]]:
    """``iter_stabilizer`` as a list."""
    return list(iter_stabilizer(ideal))


def chain_point(m: Monomial) -> tuple[int, ...]:
    """Partial-sum coordinates of a monomial: u_i = e_1 + ... + e_i."""
    return tuple(itertools.accumulate(m))


def chain_monomial(u: Sequence[int]) -> Monomial:
    """Inverse of chain_point on weakly increasing vectors."""
    return tuple(map(sub, u, (0, *u)))


def ss_to_upset(ideal: MonomialIdeal) -> tuple[tuple[int, ...], ...]:
    """Minimal points of the up-set of weakly increasing vectors matching the ideal."""
    if not is_strongly_stable(ideal):
        raise OrdkitError(
            "monomial-ideals", "ss_to_upset", "ideal is not strongly stable for the standard order"
        )
    return minimalize(ideal.nvars, map(chain_point, ideal.gens)).gens


def _chain_points(low: Sequence[int], top: int) -> list[tuple[int, ...]]:
    """The weakly increasing vectors v >= ``low`` with entries at most ``top``, ascending."""
    points = [()]
    for floor in low:
        points = [v + (k,) for v in points for k in range(max(v[-1:] + (floor,)), top + 1)]
    return points


def upset_to_ss(chains: Iterable[Sequence[int]], nvars: int) -> MonomialIdeal:
    """The strongly stable ideal whose monomials map onto the given up-set.

    Its minimal generators are the Borel moves v >= u, v[-1] == u[-1], of the
    listed u that lowering any exponent (1 off v[i:]) takes out of the ideal:
    those above no minimal listed point of lower degree, since a move above a
    listed point is above a minimal one.
    """
    pts = [tuple(u) for u in chains]
    for u in pts:
        if len(u) != nvars:
            raise OrdkitError(
                "monomial-ideals", "upset_to_ss", f"chain {u} has wrong length for {nvars} variables"
            )
        if any(a > b for a, b in zip(u, u[1:])):
            raise OrdkitError("monomial-ideals", "upset_to_ss", f"chain {u} is not weakly increasing")
        if any(e < 0 for e in u):
            raise OrdkitError("monomial-ideals", "upset_to_ss", f"chain {u} has a negative entry")
    if not pts or not nvars:  # no variables: () is the monomial 1
        return minimalize(nvars, pts)
    bound = sum(math.comb(u[-1] - u[0] + nvars - 1, nvars - 1) for u in pts)
    if bound > BOREL_MOVES_CAP:
        raise OrdkitError(
            "monomial-ideals", "upset_to_ss", f"{bound} Borel moves exceeds guard {BOREL_MOVES_CAP}"
        )
    nearest_first = sorted(minimalize(nvars, pts).gens, key=itemgetter(-1), reverse=True)
    gens = []
    for u in pts:
        below = [w for w in nearest_first if w[-1] < u[-1]]
        gens += (chain_monomial(v) for v in _chain_points(u, u[-1]) if not any(divides(w, v) for w in below))
    # One ascending run per u: chain_monomial keeps lexicographic order.
    return MonomialIdeal._trusted(nvars, tuple(dict.fromkeys(sorted(gens))))
