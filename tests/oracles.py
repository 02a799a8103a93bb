"""Brute-force reference implementations that the pruned searches replace.

Each one is the plain generate-and-filter definition, kept only so tests
can compare the fast versions in ``ordkit`` against it.
"""

from __future__ import annotations

import itertools
from typing import Iterator, Sequence

from ordkit.relations import Preorder, Relation, _bits, _string_key


def _transitive(rows: Sequence[int]) -> bool:
    for row in rows:
        for y in _bits(row):
            if rows[y] & ~row:
                return False
    return True


def enumerate_preorders(n: int) -> Iterator[Preorder]:
    """Filter every reflexive row product for transitivity, ascending in the encoding."""
    choices = [
        sorted((m for m in range(1 << n) if m >> x & 1), key=lambda m: _string_key(m, n))
        for x in range(n)
    ]
    for rows in itertools.product(*choices):
        if _transitive(rows):
            yield Preorder(Relation(n, rows))


def orbit(p: Preorder) -> set[int]:
    """Packed encodings of all n! relabelings.

    Giving label i to point ``perm[i]`` makes entry (i, j) of the relabelled
    incidence matrix ``perm[i] <= perm[j]``; the encoding reads it row-major.
    """
    out = set()
    for perm in itertools.permutations(range(p.n)):
        code = 0
        for x in perm:
            for y in perm:
                code = code << 1 | p.rows[x] >> y & 1
        out.add(code)
    return out


def canonical_form(p: Preorder) -> int:
    """Minimum packed encoding over all n! relabelings."""
    return min(orbit(p))
