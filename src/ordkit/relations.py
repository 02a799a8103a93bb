"""Preorders on labeled finite point sets.

Points are the integers ``0..n-1``.  A relation is stored as ``n`` machine
words: bit ``y`` of ``rows[x]`` is set when the pair ``(x, y)`` is in the
relation, read as ``x <= y``.  Reflexive-transitive closure, refinement,
quotients and Hom-sets are then word-parallel row operations.
"""

from __future__ import annotations

import os
from operator import attrgetter
from typing import Callable, Iterable, Iterator, Sequence

from .errors import OrdkitError

MAX_POINTS = 16
ENUMERATION_CAP = 5
CANONICAL_CAP = 8


def _env_cap(stated: int) -> int:
    """Enumeration guard, lowered (never raised) by ORDKIT_MAX_N."""
    raw = os.environ.get("ORDKIT_MAX_N")
    if raw is None:
        return stated
    try:
        return min(stated, int(raw))
    except ValueError:
        return stated


def _bits(mask: int) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


_setattr = object.__setattr__


class Record:
    """An immutable record whose fields are its ``__slots__``.

    Each subclass lists its own fields in ``__slots__`` and sets them with
    ``_setattr`` in an explicit ``__init__`` before validating them.  As for a
    frozen dataclass, assignment and deletion raise ``AttributeError``, only
    records of the same class compare equal, and equality, hashing and the
    repr follow the fields in order.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls):
        cls._fields = cls._fields + vars(cls).get("__slots__", ())
        cls._key = attrgetter(*cls._fields)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key(self) == self._key(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({fields})"

    def __reduce__(self):
        # Copying and pickling rebuild through __init__, which assigns the slots.
        return self.__class__, tuple(getattr(self, name) for name in self._fields)


def check_point_count(n: int) -> None:
    """Reject a carrier size outside 1..MAX_POINTS before anything is built for it."""
    if not 1 <= n <= MAX_POINTS:
        raise OrdkitError("order-core", "relation", f"point count {n} outside 1..{MAX_POINTS}")


class Relation(Record):
    """A binary relation on ``n`` points with no order axioms assumed."""

    __slots__ = ("n", "rows")

    def __init__(self, n: int, rows: tuple[int, ...]):
        _setattr(self, "n", n)
        _setattr(self, "rows", rows)
        check_point_count(n)
        if len(rows) != n:
            raise OrdkitError("order-core", "relation", f"expected {n} rows, got {len(rows)}")
        full = (1 << n) - 1
        for x, row in enumerate(rows):
            if row & ~full:
                raise OrdkitError("order-core", "relation", f"row {x} has bits beyond point {n - 1}")

    @classmethod
    def from_pairs(cls, n: int, pairs: Iterable[tuple[int, int]]) -> "Relation":
        rows = [0] * n
        for x, y in pairs:
            if not (0 <= x < n and 0 <= y < n):
                raise OrdkitError("order-core", "relation", f"pair ({x}, {y}) out of range for n={n}")
            rows[x] |= 1 << y
        return cls(n, tuple(rows))

    def has(self, x: int, y: int) -> bool:
        return bool(self.rows[x] >> y & 1)

    def pairs(self) -> list[tuple[int, int]]:
        return [(x, y) for x in range(self.n) for y in _bits(self.rows[x])]


class Preorder(Record):
    """A reflexive and transitive relation; ``le(x, y)`` reads ``x <= y``."""

    __slots__ = ("rel",)

    def __init__(self, rel: Relation):
        _setattr(self, "rel", rel)
        rows = rel.rows
        for x in range(rel.n):
            if not rows[x] >> x & 1:
                raise OrdkitError("order-core", "preorder", f"not reflexive: missing {x} <= {x}")
            for y in _bits(rows[x]):
                if rows[y] & ~rows[x]:
                    z = next(_bits(rows[y] & ~rows[x]))
                    raise OrdkitError(
                        "order-core",
                        "preorder",
                        f"not transitive: {x} <= {y} and {y} <= {z} but not {x} <= {z}",
                    )

    @property
    def n(self) -> int:
        return self.rel.n

    @property
    def rows(self) -> tuple[int, ...]:
        return self.rel.rows

    def le(self, x: int, y: int) -> bool:
        return self.rel.has(x, y)

    def pairs(self) -> list[tuple[int, int]]:
        return self.rel.pairs()

    def strict_pairs(self) -> list[tuple[int, int]]:
        return [(x, y) for x, y in self.rel.pairs() if x != y]

    @classmethod
    def from_pairs(cls, n: int, pairs: Iterable[tuple[int, int]]) -> "Preorder":
        """Reflexive-transitive closure of the listed pairs."""
        return closure(Relation.from_pairs(n, pairs))

    @classmethod
    def discrete(cls, n: int) -> "Preorder":
        check_point_count(n)
        return cls(Relation(n, tuple(1 << x for x in range(n))))

    @classmethod
    def coarse(cls, n: int) -> "Preorder":
        check_point_count(n)
        full = (1 << n) - 1
        return cls(Relation(n, (full,) * n))

    @classmethod
    def chain(cls, n: int) -> "Preorder":
        """Ascending chain 0 <= 1 <= ... <= n-1."""
        check_point_count(n)
        full = (1 << n) - 1
        return cls(Relation(n, tuple((full >> x) << x for x in range(n))))


class PropertyFlags(Record):
    __slots__ = ("partial_order", "equivalence", "total", "discrete", "coarse")

    def __init__(self, partial_order: bool, equivalence: bool, total: bool, discrete: bool, coarse: bool):
        _setattr(self, "partial_order", partial_order)
        _setattr(self, "equivalence", equivalence)
        _setattr(self, "total", total)
        _setattr(self, "discrete", discrete)
        _setattr(self, "coarse", coarse)


class BubbleDecomposition(Record):
    """Mutual-comparability classes and the partial order they inherit."""

    __slots__ = ("blocks", "quotient")

    def __init__(self, blocks: tuple[tuple[int, ...], ...], quotient: Preorder):
        _setattr(self, "blocks", blocks)
        _setattr(self, "quotient", quotient)


class MonotoneMap(Record):
    """An order preserving map between two preorders."""

    __slots__ = ("source", "target", "values")

    def __init__(self, source: Preorder, target: Preorder, values: tuple[int, ...]):
        _setattr(self, "source", source)
        _setattr(self, "target", target)
        _setattr(self, "values", values)
        if len(values) != source.n:
            raise OrdkitError(
                "order-core",
                "monotone-map",
                f"expected {source.n} values, got {len(values)}",
            )
        for v in values:
            if not 0 <= v < target.n:
                raise OrdkitError("order-core", "monotone-map", f"value {v} outside target points")
        for x, y in source.pairs():
            if not target.le(values[x], values[y]):
                raise OrdkitError(
                    "order-core",
                    "monotone-map",
                    f"not monotone: {x} <= {y} but f({x}) = {values[x]} "
                    f"is not below f({y}) = {values[y]}",
                )

    def __call__(self, x: int) -> int:
        return self.values[x]


def closure(r: Relation) -> Preorder:
    """Smallest preorder containing ``r`` (reflexive-transitive closure)."""
    rows = list(r.rows)
    for x in range(r.n):
        rows[x] |= 1 << x
    for k in range(r.n):
        bit = 1 << k
        for x in range(r.n):
            if rows[x] & bit:
                rows[x] |= rows[k]
    return Preorder(Relation(r.n, tuple(rows)))


def classify(p: Preorder) -> PropertyFlags:
    n, rows = p.n, p.rows
    diagonal = tuple(1 << x for x in range(n))
    full = (1 << n) - 1
    antisymmetric = all(not (p.le(x, y) and p.le(y, x)) for x in range(n) for y in range(x + 1, n))
    symmetric = all(rows[x] >> y & 1 == rows[y] >> x & 1 for x in range(n) for y in range(x + 1, n))
    total = all(p.le(x, y) or p.le(y, x) for x in range(n) for y in range(x + 1, n))
    return PropertyFlags(
        partial_order=antisymmetric,
        equivalence=symmetric,
        total=total,
        discrete=rows == diagonal,
        coarse=rows == (full,) * n,
    )


def bubbles(p: Preorder) -> BubbleDecomposition:
    """Blocks of mutual comparability and the induced partial order on them."""
    seen: dict[int, int] = {}
    blocks: list[tuple[int, ...]] = []
    for x in range(p.n):
        if x in seen:
            continue
        members = tuple(y for y in _bits(p.rows[x]) if p.le(y, x))
        for y in members:
            seen[y] = len(blocks)
        blocks.append(members)
    reps = [block[0] for block in blocks]
    rows = tuple(
        sum(1 << j for j, rj in enumerate(reps) if p.le(ri, rj)) for ri in reps
    )
    quotient = Preorder(Relation(len(blocks), rows))
    return BubbleDecomposition(tuple(blocks), quotient)


def refines(p: Preorder, q: Preorder) -> bool:
    """True when every comparability of ``p`` also holds in ``q``."""
    if p.n != q.n:
        raise OrdkitError("order-core", "refines", f"size mismatch: {p.n} vs {q.n}")
    return all(pr & ~qr == 0 for pr, qr in zip(p.rows, q.rows))


def up_sets(p: Preorder) -> list[int]:
    """All upward-closed subsets as bit masks, ascending."""
    out = []
    for mask in range(1 << p.n):
        if all(p.rows[x] & ~mask == 0 for x in _bits(mask)):
            out.append(mask)
    return out


def antichains(p: Preorder) -> list[int]:
    """All subsets with no two distinct comparable members, as masks."""
    comparable = [
        sum(1 << y for y in range(p.n) if y != x and (p.le(x, y) or p.le(y, x)))
        for x in range(p.n)
    ]
    out = []
    for mask in range(1 << p.n):
        if all(mask & comparable[x] == 0 for x in _bits(mask)):
            out.append(mask)
    return out


def _string_key(mask: int, n: int) -> int:
    """Value of the row mask read as a bit string with column 0 first."""
    rev = 0
    for y in range(n):
        if mask >> y & 1:
            rev |= 1 << (n - 1 - y)
    return rev


def encode(p: Preorder) -> int:
    """Packed bit encoding: the incidence matrix read row-major."""
    code = 0
    for row in p.rows:
        code = code << p.n | _string_key(row, p.n)
    return code


def decode(n: int, code: int) -> Preorder:
    mask = (1 << n) - 1
    keys = []
    for _ in range(n):
        keys.append(code & mask)
        code >>= n
    return Preorder(Relation(n, tuple(_string_key(k, n) for k in reversed(keys))))


def enumerate_preorders(n: int) -> Iterator[Preorder]:
    """Every preorder on n labeled points, ascending in the packed encoding.

    Rows are assigned in order, each drawn from its candidates in ascending
    string order, and a candidate is rejected as soon as it breaks
    transitivity against an assigned row.
    """
    cap = _env_cap(ENUMERATION_CAP)
    if not 1 <= n <= cap:
        raise OrdkitError("order-core", "enumerate_preorders", f"n={n} outside guard 1..{cap}")
    choices = [
        sorted((m for m in range(1 << n) if m >> x & 1), key=lambda m: _string_key(m, n))
        for x in range(n)
    ]
    rows = [0] * n

    def extend(k: int) -> Iterator[Preorder]:
        if k == n:
            yield Preorder(Relation(n, tuple(rows)))
            return
        above = [rows[x] for x in range(k) if rows[x] >> k & 1]
        for r in choices[k]:
            if any(r & ~row for row in above):
                continue
            if any(rows[y] & ~r for y in _bits(r & ((1 << k) - 1))):
                continue
            rows[k] = r
            yield from extend(k + 1)

    yield from extend(0)


def relabel(p: Preorder, perm: Sequence[int]) -> Preorder:
    """Rename point x to perm[x]."""
    rows = [0] * p.n
    for x in range(p.n):
        for y in _bits(p.rows[x]):
            rows[perm[x]] |= 1 << perm[y]
    return Preorder(Relation(p.n, tuple(rows)))


def canonical_form(p: Preorder) -> int:
    """Minimum packed encoding over all relabelings.

    Label i is searched over an ordered partition of the unlabelled points.
    Rows 0..i-1 are fixed by the partition, and row i is smallest when its
    point comes from the first cell and every cell lists the points outside
    its up-set first, so only the points that tie for that row are tried.
    Each choice splits every cell by its up-set.  A branch whose rows exceed
    the best prefix found is cut, and a tied point is skipped when swapping
    it with one already tried is an automorphism fixing the labelled points
    and the cells.
    """
    n = p.n
    if n > CANONICAL_CAP:
        raise OrdkitError(
            "order-core", "canonical_form", f"n={n} exceeds factorial-search guard {CANONICAL_CAP}"
        )
    up = p.rows
    down = [sum(1 << x for x in range(n) if up[x] >> y & 1) for y in range(n)]
    order: list[int] = []
    best: int | None = None

    def twins(a: int, b: int) -> bool:
        # Points that tie for a row already relate to each other the same
        # way, so equal up- and down-sets outside the pair make the swap an
        # automorphism.
        rest = ~(1 << a | 1 << b)
        return (up[a] ^ up[b]) & rest == 0 and (down[a] ^ down[b]) & rest == 0

    def row_of(b: int, cells: list[int]) -> int:
        row = 0
        for x in order:
            row = row << 1 | up[b] >> x & 1
        row = row << 1 | 1
        for cell in cells:
            cell &= ~(1 << b)
            row = row << cell.bit_count() | (1 << (up[b] & cell).bit_count()) - 1
        return row

    def search(cells: list[int], code: int) -> None:
        nonlocal best
        i = len(order)
        if i == n:
            if best is None or code < best:
                best = code
            return
        rows = {b: row_of(b, cells) for b in _bits(cells[0])}
        low = min(rows.values())
        code = code << n | low
        if best is not None and code > best >> n * (n - i - 1):
            return
        tried: list[int] = []
        for b, row in rows.items():
            if row != low or any(twins(b, t) for t in tried):
                continue
            tried.append(b)
            split = []
            for cell in cells:
                cell &= ~(1 << b)
                split += [part for part in (cell & ~up[b], cell & up[b]) if part]
            order.append(b)
            search(split, code)
            order.pop()

    search([(1 << n) - 1], 0)
    return best


def are_isomorphic(p: Preorder, q: Preorder) -> bool:
    return p.n == q.n and canonical_form(p) == canonical_form(q)


def monotone_maps(p: Preorder, q: Preorder) -> list[MonotoneMap]:
    """All order preserving maps p -> q, lexicographic in the value tuples."""
    out: list[MonotoneMap] = []
    values = [0] * p.n

    def assign(x: int):
        if x == p.n:
            out.append(MonotoneMap(p, q, tuple(values)))
            return
        for v in range(q.n):
            ok = True
            for y in range(x):
                if p.le(x, y) and not q.le(v, values[y]):
                    ok = False
                    break
                if p.le(y, x) and not q.le(values[y], v):
                    ok = False
                    break
            if ok:
                values[x] = v
                assign(x + 1)

    assign(0)
    return out


def check_galois_connection(f: MonotoneMap, g: MonotoneMap) -> bool:
    """True when f(q) <= p exactly where q <= g(p); f sits in the left-adjoint slot."""
    if f.source != g.target or f.target != g.source:
        raise OrdkitError(
            "order-core", "check_galois_connection", "endpoint mismatch between the two maps"
        )
    q_side, p_side = f.source, f.target
    for q in range(q_side.n):
        for p in range(p_side.n):
            if p_side.le(f(q), p) != q_side.le(q, g(p)):
                return False
    return True


def truncated_chain_map(d: int, fn: Callable[[int], int]) -> MonotoneMap:
    """fn restricted to the chain {0..d}, with values clamped into range."""
    c = Preorder.chain(d + 1)
    return MonotoneMap(c, c, tuple(min(max(fn(k), 0), d) for k in range(d + 1)))
