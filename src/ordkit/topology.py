"""Finite topologies as explicit families of subset masks.

A family closed under pairwise union and intersection that contains the
empty set and the full set is a topology here; arbitrary unions reduce to
pairwise ones on a finite carrier.
"""

from __future__ import annotations

from operator import and_, or_
from typing import Iterable, Iterator

from .errors import OrdkitError
from .relations import (
    MAX_POINTS,
    Preorder,
    Record,
    _bits,
    _env_cap,
    classify,
    enumerate_preorders,
    up_sets,
)

TOPOLOGY_ENUMERATION_CAP = 4


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

    Every open is an up-set of the specialization preorder (``to_preorder``),
    so the family is a topology exactly when it holds all of that preorder's
    up-sets.  Otherwise, or above ``MAX_POINTS``, where ``up_sets`` could list
    2^n sets, the pairwise scan decides and names the first witness pair.
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
    if n <= MAX_POINTS and len(up_sets(to_preorder(t))) == len(opens):
        return t
    members = set(opens)
    for word, op in (("intersection", and_), ("union", or_)):
        for i, u in enumerate(opens):
            for v in opens[i + 1 :]:
                if op(u, v) not in members:
                    raise OrdkitError(
                        "finite-topology",
                        "validate",
                        f"not closed under {word}: witness pair {_set_text(u)}, {_set_text(v)}",
                    )
    return t


def from_preorder(p: Preorder) -> FiniteTopology:
    """The topology whose opens are the up-sets of ``p``.

    ``up_sets`` returns them sorted and distinct, so they are not checked again.
    """
    return FiniteTopology._trusted(p.n, tuple(up_sets(p)))


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
    return Preorder(t.n, rows)


def is_t0(t: FiniteTopology) -> bool:
    """True when distinct points have distinct open neighbourhood filters."""
    return classify(to_preorder(t)).partial_order


def enumerate_topologies(n: int) -> Iterator[FiniteTopology]:
    """Every topology on n labeled points: the up-set topologies of the preorders.

    They come ordered by their generator lists, so a family comes before
    the families that its generators extend.  An up-set topology is generated
    by its principal up-sets, so that list is the distinct rows but the full one.
    """
    cap = _env_cap(TOPOLOGY_ENUMERATION_CAP)
    if not 1 <= n <= cap:
        raise OrdkitError(
            "finite-topology", "enumerate_topologies", f"n={n} outside guard 1..{cap}"
        )
    full = (1 << n) - 1
    ordered = sorted(enumerate_preorders(n), key=lambda p: sorted(set(p.rows) - {full}))
    yield from map(from_preorder, ordered)
