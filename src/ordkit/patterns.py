"""Pattern matrix groups attached to preorders, over exact rationals.

The pattern of a preorder allows entry (v, w) exactly when w <= v, so its
rows are the preorder's transposed rows and its closure under the boolean
product is the preorder's transitivity.  A descending total order on the
display order gives the upper triangular matrices, the discrete preorder
the diagonal torus, and the coarse preorder the full matrix group.  Column
y of a matrix is the image of basis vector y; a subset is invariant when
every generator keeps those columns inside it.  Invariance under a finite
generator set already gives invariance under the generated group: products
clearly preserve it, and an invertible g with g<Y> inside <Y> forces
equality by dimension, so inverses preserve it too.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Sequence

from .errors import OrdkitError
from .relations import MAX_POINTS, Preorder, Record, Relation, _bits, _transpose, closure
from .topology import FiniteTopology, from_preorder


class PatternMatrix(Record):
    """Boolean zero pattern; bit w of rows[v] set when entry (v, w) may be nonzero."""

    __slots__ = ("n", "rows")

    def _check(self) -> None:
        n, rows = self.n, self.rows
        if n < 1 or len(rows) != n:
            raise OrdkitError("pattern-groups", "pattern", "bad shape")
        full = (1 << n) - 1
        for v, row in enumerate(rows):
            if row & ~full:
                raise OrdkitError("pattern-groups", "pattern", f"row {v} has bits beyond the size")
            if not row >> v & 1:
                raise OrdkitError(
                    "pattern-groups", "pattern", f"diagonal entry ({v}, {v}) must be allowed"
                )

    def allows(self, v: int, w: int) -> bool:
        return bool(self.rows[v] >> w & 1)


class RationalMatrix(Record):
    """An ``n`` by ``n`` matrix whose ``entries`` are a tuple of rows of ``Fraction``s."""

    __slots__ = ("n", "entries")

    def _check(self) -> None:
        n, entries = self.n, self.entries
        if n < 1 or len(entries) != n or any(len(r) != n for r in entries):
            raise OrdkitError("pattern-groups", "matrix", "matrix is not square of the stated size")

    def __mul__(self, other: "RationalMatrix") -> "RationalMatrix":
        if self.n != other.n:
            raise OrdkitError("pattern-groups", "matrix", f"size mismatch: {self.n} vs {other.n}")
        rows = tuple(
            tuple(sum((self.entries[i][k] * other.entries[k][j] for k in range(self.n)), Fraction(0)) for j in range(self.n))
            for i in range(self.n)
        )
        return RationalMatrix(self.n, rows)

    def support(self) -> list[tuple[int, int]]:
        return [
            (v, w) for v in range(self.n) for w in range(self.n) if self.entries[v][w] != 0
        ]


def matrix(rows: Sequence[Sequence]) -> RationalMatrix:
    ents = tuple(tuple(Fraction(x) for x in row) for row in rows)
    return RationalMatrix(len(ents), ents)


def identity(n: int) -> RationalMatrix:
    return matrix([[1 if i == j else 0 for j in range(n)] for i in range(n)])


def diagonal(values: Sequence) -> RationalMatrix:
    n = len(values)
    return matrix([[values[i] if i == j else 0 for j in range(n)] for i in range(n)])


def elementary(n: int, v: int, w: int, value=1) -> RationalMatrix:
    """Identity plus ``value`` at row v, column w."""
    ents = [[Fraction(1) if i == j else Fraction(0) for j in range(n)] for i in range(n)]
    ents[v][w] += Fraction(value)
    return RationalMatrix(n, tuple(tuple(r) for r in ents))


def permutation_matrix(perm: Sequence[int]) -> RationalMatrix:
    """Sends basis vector x to basis vector perm[x]."""
    n = len(perm)
    return matrix([[1 if perm[j] == i else 0 for j in range(n)] for i in range(n)])


def is_invertible(g: RationalMatrix) -> bool:
    """Nonzero determinant via fraction-free (Bareiss) elimination on scaled rows."""
    scaled = []
    for row in g.entries:
        mult = lcm(*(x.denominator for x in row)) if row else 1
        scaled.append([int(x * mult) for x in row])
    n = g.n
    prev = 1
    for k in range(n):
        if scaled[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if scaled[i][k] != 0), None)
            if swap is None:
                return False
            scaled[k], scaled[swap] = scaled[swap], scaled[k]
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                scaled[i][j] = (scaled[i][j] * scaled[k][k] - scaled[i][k] * scaled[k][j]) // prev
            scaled[i][k] = 0
        prev = scaled[k][k]
    return scaled[n - 1][n - 1] != 0


def pattern_from_preorder(p: Preorder) -> PatternMatrix:
    """Entry (v, w) may be nonzero exactly when w <= v: the transposed rows of ``p``."""
    return PatternMatrix._trusted(p.n, tuple(_transpose(p.rows)))


def pattern_closed_under_product(pat: PatternMatrix) -> bool:
    """True when the pattern's boolean square stays inside it: its rows are transitive."""
    rows = pat.rows
    return all(rows[k] & ~row == 0 for row in rows for k in _bits(row))


def membership(g: RationalMatrix, p: Preorder) -> bool:
    """Invertible and supported on the pattern of ``p``; singular input is an error."""
    if g.n != p.n:
        raise OrdkitError("pattern-groups", "membership", f"size mismatch: matrix {g.n}, preorder {p.n}")
    if not is_invertible(g):
        raise OrdkitError("pattern-groups", "membership", "matrix is singular")
    return all(p.le(w, v) for v, w in g.support())


def _check_generators(gens: Sequence[RationalMatrix], op: str) -> int:
    if not gens:
        raise OrdkitError("pattern-groups", op, "empty generator set")
    n = gens[0].n
    if n > MAX_POINTS:
        raise OrdkitError("pattern-groups", op, f"size {n} exceeds the {MAX_POINTS}-point cap")
    for k, g in enumerate(gens):
        if g.n != n:
            raise OrdkitError("pattern-groups", op, f"generator {k} has size {g.n}, expected {n}")
        if not is_invertible(g):
            raise OrdkitError("pattern-groups", op, f"generator {k} is singular")
    return n


def invariant_subsets(gens: Sequence[RationalMatrix]) -> FiniteTopology:
    """Subsets whose coordinate subspace every generator maps into itself."""
    return from_preorder(preorder_of_subgroup(gens))


def preorder_of_subgroup(gens: Sequence[RationalMatrix]) -> Preorder:
    """The preorder whose up-sets are exactly the invariant subsets: the
    closure of ``w <= v`` over the nonzero entries (v, w) of the generators."""
    n = _check_generators(gens, "invariant_subsets")
    rows = [0] * n
    for g in gens:
        for v, w in g.support():
            rows[w] |= 1 << v
    return closure(Relation(n, tuple(rows)))


def standard_generators(p: Preorder) -> tuple[RationalMatrix, ...]:
    """A torus element with distinct entries plus one transvection per strict pair."""
    gens = [diagonal(list(range(1, p.n + 1)))]
    for x, y in p.strict_pairs():
        gens.append(elementary(p.n, y, x, 1))
    return tuple(gens)
