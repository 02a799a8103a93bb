"""Finite topologies as explicit families of subset masks.

A family closed under pairwise union and intersection that contains the
empty set and the full set is a topology here; arbitrary unions reduce to
pairwise ones on a finite carrier.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from .errors import OrdkitError
from .relations import Preorder, Record, Relation, _bits, _env_cap, _setattr, up_sets

TOPOLOGY_ENUMERATION_CAP = 4


def _set_text(mask: int) -> str:
    return "{" + ",".join(str(x) for x in _bits(mask)) + "}"


class FiniteTopology(Record):
    """Open sets of a topology on ``0..n-1``, stored as sorted bit masks."""

    __slots__ = ("n", "opens")

    def __init__(self, n: int, opens: tuple[int, ...]):
        _setattr(self, "n", n)
        _setattr(self, "opens", opens)
        if n < 1:
            raise OrdkitError("finite-topology", "topology", "need at least one point")
        if tuple(sorted(set(opens))) != opens:
            raise OrdkitError("finite-topology", "topology", "opens must be sorted and distinct")


def validate(family: Iterable[int], n: int) -> FiniteTopology:
    """Check the three topology axioms, reporting the first violated one."""
    opens = sorted(set(family))
    full = (1 << n) - 1
    if any(mask & ~full or mask < 0 for mask in opens):
        raise OrdkitError("finite-topology", "validate", f"subset mask outside {n}-point carrier")
    if 0 not in opens:
        raise OrdkitError("finite-topology", "validate", "missing empty set")
    if full not in opens:
        raise OrdkitError("finite-topology", "validate", "missing full set")
    members = set(opens)
    for i, u in enumerate(opens):
        for v in opens[i + 1 :]:
            if u & v not in members:
                raise OrdkitError(
                    "finite-topology",
                    "validate",
                    f"not closed under intersection: witness pair {_set_text(u)}, {_set_text(v)}",
                )
    for i, u in enumerate(opens):
        for v in opens[i + 1 :]:
            if u | v not in members:
                raise OrdkitError(
                    "finite-topology",
                    "validate",
                    f"not closed under union: witness pair {_set_text(u)}, {_set_text(v)}",
                )
    return FiniteTopology(n, tuple(opens))


def from_preorder(p: Preorder) -> FiniteTopology:
    """The topology whose opens are the up-sets of ``p``."""
    return FiniteTopology(p.n, tuple(up_sets(p)))


def minimal_open(t: FiniteTopology, x: int) -> int:
    """Intersection of all opens containing ``x``."""
    out = (1 << t.n) - 1
    for mask in t.opens:
        if mask >> x & 1:
            out &= mask
    return out


def to_preorder(t: FiniteTopology) -> Preorder:
    """x <= y when every open containing x also contains y."""
    rows = tuple(minimal_open(t, x) for x in range(t.n))
    return Preorder(Relation(t.n, rows))


def is_t0(t: FiniteTopology) -> bool:
    """True when distinct points have distinct open neighbourhood filters."""
    from .relations import classify

    return classify(to_preorder(t)).partial_order


def _close(family: frozenset[int]) -> frozenset[int]:
    out = set(family)
    frontier = list(out)
    while frontier:
        fresh = []
        members = list(out)
        for u in frontier:
            for v in members:
                for w in (u | v, u & v):
                    if w not in out:
                        out.add(w)
                        fresh.append(w)
        frontier = fresh
    return frozenset(out)


def enumerate_topologies(n: int) -> Iterator[FiniteTopology]:
    """Every topology on n labeled points, grown directly as closed families.

    Families are built by adding masks in ascending order and closing under
    union and intersection; a branch is kept only when the added mask is the
    smallest new member, which makes each family appear exactly once.  This
    stays independent of the preorder enumeration so the two can be played
    against each other.
    """
    cap = _env_cap(TOPOLOGY_ENUMERATION_CAP)
    if not 1 <= n <= cap:
        raise OrdkitError(
            "finite-topology", "enumerate_topologies", f"n={n} outside guard 1..{cap}"
        )
    full = (1 << n) - 1
    base = frozenset({0, full})

    def grow(family: frozenset[int], last: int) -> Iterator[FiniteTopology]:
        yield FiniteTopology(n, tuple(sorted(family)))
        for mask in range(last + 1, full):
            if mask in family:
                continue
            grown = _close(family | {mask})
            if min(grown - family) == mask:
                yield from grow(grown, mask)

    yield from grow(base, 0)
