"""Finite topologies as explicit families of subset masks.

A family closed under pairwise union and intersection that contains the
empty set and the full set is a topology here; arbitrary unions reduce to
pairwise ones on a finite carrier.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from .errors import OrdkitError
from .relations import Preorder, Record, _bits, classify, enumerate_preorders, up_sets


def _set_text(mask: int) -> str:
    return "{" + ",".join(str(x) for x in _bits(mask)) + "}"


class FiniteTopology(Record):
    """Open sets of a topology on ``0..n-1``, stored as sorted bit masks."""

    __slots__ = ("n", "opens")

    def _check(self) -> None:
        n, opens = self.n, self.opens
        if n < 1:
            raise OrdkitError("finite-topology", "topology", "need at least one point")
        if tuple(sorted(set(opens))) != opens:
            raise OrdkitError("finite-topology", "topology", "opens must be sorted and distinct")


def validate(family: Iterable[int], n: int) -> FiniteTopology:
    """Check the three topology axioms, reporting the first violated one.

    The minimal open U_x is read as the least open holding x, so it must lie
    inside every open holding x; the first that it does not names the
    intersection witness, since their meet is a smaller open holding x.
    Every open is the union of the U_x of its points (Alexandroff 1937), so
    the family is a topology exactly when it also holds ``u | U_x`` for each
    open u and point x not in u; the first it lacks names the union witness.
    Both passes take n steps per open.
    """
    opens = sorted(set(family))
    full = (1 << n) - 1
    if any(mask & ~full for mask in opens):
        raise OrdkitError("finite-topology", "validate", f"subset mask outside {n}-point carrier")
    if 0 not in opens:
        raise OrdkitError("finite-topology", "validate", "missing empty set")
    if full not in opens:
        raise OrdkitError("finite-topology", "validate", "missing full set")
    t = FiniteTopology(n, tuple(opens))
    members, minimal = set(opens), [minimal_open(t, x) for x in range(n)]
    for x, least in enumerate(minimal):
        for u in opens:
            if u >> x & 1 and least & ~u:
                raise _not_closed("intersection", least, u)
    for u in opens:
        for x in range(n):
            if not u >> x & 1 and u | minimal[x] not in members:
                raise _not_closed("union", u, minimal[x])
    return t


def _not_closed(word: str, u: int, v: int) -> OrdkitError:
    message = f"not closed under {word}: witness pair {_set_text(u)}, {_set_text(v)}"
    return OrdkitError("finite-topology", "validate", message)


def from_preorder(p: Preorder) -> FiniteTopology:
    """The topology whose opens are the up-sets of ``p``.

    ``up_sets`` returns them sorted and distinct, so they are not checked again.
    """
    return FiniteTopology._trusted(p.n, tuple(up_sets(p)))


def minimal_open(t: FiniteTopology, x: int) -> int:
    """The minimal open U_x: it lies inside every open holding ``x``, so it is the first of them.

    A record whose opens all miss ``x`` gives the full set, the meet of no opens.
    """
    return next((u for u in t.opens if u >> x & 1), (1 << t.n) - 1)


def to_preorder(t: FiniteTopology) -> Preorder:
    """x <= y when every open containing x also contains y."""
    rows = tuple(minimal_open(t, x) for x in range(t.n))
    return Preorder(t.n, rows)


def is_t0(t: FiniteTopology) -> bool:
    """True when distinct points have distinct minimal opens, so distinct open filters."""
    return classify(to_preorder(t)).partial_order


def enumerate_topologies(n: int) -> Iterator[FiniteTopology]:
    """Every topology on n labeled points: the up-set topologies of the preorders.

    They come ordered by their generator lists, so a family comes before
    the families that its generators extend.  An up-set topology is generated
    by its principal up-sets, so that list is the distinct rows but the full one.
    Finite topologies are exactly these up-set families (Alexandroff 1937), so
    the preorder stream's guard is the only one, and its length is their count.
    """
    ordered = sorted(enumerate_preorders(n), key=lambda p: sorted(set(p.rows) - {(1 << p.n) - 1}))
    yield from map(from_preorder, ordered)
