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
    try:
        return min(stated, int(os.environ["ORDKIT_MAX_N"]))
    except (KeyError, ValueError):
        return stated


def _bits(mask: int) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _transpose(rows: Sequence[int]) -> list[int]:
    """The square bit matrix read by columns: bit x of entry y is bit y of ``rows[x]``."""
    return [sum(1 << x for x, row in enumerate(rows) if row >> y & 1) for y in range(len(rows))]


def _assignments(n: int, allowed: Callable[[list[int]], int]) -> Iterator[tuple[int, ...]]:
    """Each tuple of ``n >= 1`` values whose value at x is a bit of ``allowed(prefix)``.

    ``prefix`` holds the values at 0..x-1.  The tuples come in ascending
    order, and a prefix with no allowed value cuts its whole subtree.
    """
    values: list[int] = []
    masks = [allowed(values)]
    while masks:
        mask = masks.pop()
        del values[len(masks) :]
        if mask:
            low = mask & -mask
            masks.append(mask ^ low)
            values.append(low.bit_length() - 1)
            if len(values) == n:
                yield tuple(values)
            else:
                masks.append(allowed(values))


class Record:
    """An immutable record whose fields are its ``__slots__``, after its base's.

    The constructor binds them by position or by name and calls ``_check``,
    which a class with an invariant overrides; ``_trusted`` skips it.  As for
    a frozen dataclass, assignment and deletion raise ``AttributeError``, only
    records of the same class compare equal, and equality, hashing and the
    repr follow the fields in order.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls):
        cls._fields = cls._fields + vars(cls).get("__slots__", ())
        cls._key = attrgetter(*cls._fields)
        # The slot descriptors' setters, called without an attribute lookup.
        cls._setters = tuple(getattr(cls, name).__set__ for name in cls._fields)

    def __init__(self, *values, **named):
        if named or len(values) != len(self._fields):
            values = self._bind(values, named)
        self._set_fields(values)
        self._check()

    @classmethod
    def _bind(cls, values: tuple, named: dict) -> tuple:
        """The field values in field order, from values by position and then by name."""
        fields, rest = cls._fields, cls._fields[len(values) :]
        if len(values) > len(fields) or named.keys() != set(rest):
            raise TypeError(f"{cls.__qualname__}() takes its fields {fields} once each, by position or name")
        return values + tuple(named[field] for field in rest)

    def _set_fields(self, values) -> None:
        for set_field, value in zip(self._setters, values):
            set_field(self, value)

    def _check(self) -> None:
        """Raise ``OrdkitError`` unless the fields meet the class invariant."""

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

    @classmethod
    def _trusted(cls, *values):
        """The record of field values, in field order, that the caller has shown valid."""
        record = object.__new__(cls)
        record._set_fields(values)
        return record


def check_point_count(n: int, module: str = "order-core", op: str = "relation") -> None:
    """Reject a carrier size outside 1..MAX_POINTS before anything is built for it."""
    if not 1 <= n <= MAX_POINTS:
        raise OrdkitError(module, op, f"point count {n} outside 1..{MAX_POINTS}")


class Relation(Record):
    """A binary relation on ``n`` points, held in ``n`` int ``rows``, with no order axioms assumed."""

    __slots__ = ("n", "rows")

    def _check(self) -> None:
        n, rows = self.n, self.rows
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


class Preorder(Relation):
    """A reflexive and transitive ``Relation``; ``le(x, y)`` reads ``x <= y``."""

    __slots__ = ()

    def _check(self) -> None:
        super()._check()
        rows = self.rows
        for x in range(self.n):
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

    le = Relation.has

    def strict_pairs(self) -> list[tuple[int, int]]:
        return [(x, y) for x, y in self.pairs() if x != y]

    @classmethod
    def from_pairs(cls, n: int, pairs: Iterable[tuple[int, int]]) -> "Preorder":
        """Reflexive-transitive closure of the listed pairs."""
        return closure(Relation.from_pairs(n, pairs))

    @classmethod
    def discrete(cls, n: int) -> "Preorder":
        check_point_count(n)
        return cls(n, tuple(1 << x for x in range(n)))

    @classmethod
    def coarse(cls, n: int) -> "Preorder":
        check_point_count(n)
        return cls(n, ((1 << n) - 1,) * n)

    @classmethod
    def chain(cls, n: int) -> "Preorder":
        """Ascending chain 0 <= 1 <= ... <= n-1."""
        check_point_count(n)
        return cls(n, tuple((1 << n) - (1 << x) for x in range(n)))


class PropertyFlags(Record):
    """Which of the named kinds a preorder is, one bool each."""

    __slots__ = ("partial_order", "equivalence", "total", "discrete", "coarse")


class BubbleDecomposition(Record):
    """Mutual-comparability classes, as tuples of points, and the ``Preorder`` they inherit."""

    __slots__ = ("blocks", "quotient")


class MonotoneMap(Record):
    """An order preserving map between two preorders; the int ``values[x]`` is the image of x."""

    __slots__ = ("source", "target", "values")

    def _check(self) -> None:
        source, target, values = self.source, self.target, self.values
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
    return Preorder(r.n, tuple(rows))


def classify(p: Preorder) -> PropertyFlags:
    """The kinds, read off the rows and columns: a partial order has distinct
    rows, an equivalence has rows equal to its columns, and a total preorder
    has every row ORed with its column full."""
    n, rows = p.n, p.rows
    cols = tuple(_transpose(rows))
    full = (1 << n) - 1
    return PropertyFlags(
        partial_order=len(set(rows)) == n,
        equivalence=rows == cols,
        total=all(row | col == full for row, col in zip(rows, cols)),
        discrete=rows == tuple(1 << x for x in range(n)),
        coarse=rows == (full,) * n,
    )


def bubbles(p: Preorder) -> BubbleDecomposition:
    """The classes of equal rows, by least point, and the partial order they inherit."""
    blocks: dict[int, tuple[int, ...]] = {}
    for x, row in enumerate(p.rows):
        blocks[row] = blocks.get(row, ()) + (x,)
    reps = [block[0] for block in blocks.values()]
    rows = tuple(sum(1 << j for j, y in enumerate(reps) if row >> y & 1) for row in blocks)
    return BubbleDecomposition(tuple(blocks.values()), Preorder(len(reps), rows))


def refines(p: Preorder, q: Preorder) -> bool:
    """True when every comparability of ``p`` also holds in ``q``."""
    if p.n != q.n:
        raise OrdkitError("order-core", "refines", f"size mismatch: {p.n} vs {q.n}")
    return all(pr & ~qr == 0 for pr, qr in zip(p.rows, q.rows))


def up_sets(p: Preorder) -> list[int]:
    """All upward-closed subsets as bit masks, ascending.

    The bubbles (points with equal rows) are added from the top, in ascending
    row size, and a set built so far takes a bubble only when it already
    holds the rest of that bubble's row, so only up-sets are ever built.
    """
    blocks: dict[int, int] = {}
    for x, row in enumerate(p.rows):
        blocks[row] = blocks.get(row, 0) | 1 << x
    out = [0]
    for row in sorted(blocks, key=int.bit_count):
        block = blocks[row]
        above = row & ~block
        out += [mask | block for mask in out if above & ~mask == 0]
    out.sort()
    return out


def _string_key(mask: int, n: int) -> int:
    """Value of the row mask read as a bit string with column 0 first."""
    return int(f"{mask:0{n}b}"[::-1], 2)


def encode(p: Preorder) -> int:
    """Packed bit encoding: the incidence matrix read row-major."""
    code = 0
    for row in p.rows:
        code = code << p.n | _string_key(row, p.n)
    return code


def decode(n: int, code: int) -> Preorder:
    mask = (1 << n) - 1
    return Preorder(n, tuple(_string_key(code >> n * (n - 1 - x) & mask, n) for x in range(n)))


def enumerate_preorders(n: int) -> Iterator[Preorder]:
    """Every preorder on n labeled points, ascending in the packed encoding.

    One ``_assignments`` walk over keys, v for the row ``_string_key(v, n)``:
    point k takes rows that hold k, lie inside each picked row holding k,
    and contain the row of each picked y they hold.
    """
    cap = _env_cap(ENUMERATION_CAP)
    if not 1 <= n <= cap:
        raise OrdkitError("order-core", "enumerate_preorders", f"n={n} outside guard 1..{cap}")
    rows = [_string_key(v, n) for v in range(1 << n)]
    holds = [sum(1 << v for v, row in enumerate(rows) if row >> k & 1) for k in range(n)]
    inside = [sum(1 << v for v, row in enumerate(rows) if row & ~r == 0) for r in rows]
    around = _transpose(inside)

    def allowed(keys: list[int]) -> int:
        k = len(keys)
        mask = holds[k]
        for y, v in enumerate(keys):
            if rows[v] >> k & 1:
                mask &= inside[v]
            mask &= around[v] | ~holds[y]
        return mask

    for keys in _assignments(n, allowed):
        yield Preorder._trusted(n, tuple(rows[v] for v in keys))


def relabel(p: Preorder, perm: Sequence[int]) -> Preorder:
    """Rename point x to perm[x]."""
    rows = [0] * p.n
    for x in range(p.n):
        for y in _bits(p.rows[x]):
            rows[perm[x]] |= 1 << perm[y]
    return Preorder(p.n, tuple(rows))


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
    down = _transpose(up)
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


def _monotone_values(p: Preorder, q: Preorder) -> Iterator[tuple[int, ...]]:
    """The value tuples of the order preserving maps p -> q, lexicographic.

    The values allowed at x are the AND of the down-set rows of the values at
    the assigned points above x and the up-set rows of those below it.
    """
    up, down, full = q.rows, _transpose(q.rows), (1 << q.n) - 1
    links = [
        ([y for y in range(x) if p.le(x, y)], [y for y in range(x) if p.le(y, x)]) for x in range(p.n)
    ]

    def allowed(values: list[int]) -> int:
        above, below = links[len(values)]
        mask = full
        for y in above:
            mask &= down[values[y]]
        for y in below:
            mask &= up[values[y]]
        return mask

    return _assignments(p.n, allowed)


def monotone_maps(p: Preorder, q: Preorder) -> list[MonotoneMap]:
    """``_monotone_values`` as ``MonotoneMap`` records."""
    return [MonotoneMap._trusted(p, q, values) for values in _monotone_values(p, q)]


def check_galois_connection(f: MonotoneMap, g: MonotoneMap) -> bool:
    """True when f(q) <= p exactly where q <= g(p); f sits in the left-adjoint slot.

    For monotone maps that is the unit q <= g(f(q)) and the counit f(g(p)) <= p.
    """
    if f.source != g.target or f.target != g.source:
        raise OrdkitError(
            "order-core", "check_galois_connection", "endpoint mismatch between the two maps"
        )
    q_side, p_side = f.source, f.target
    unit = all(q_side.le(q, g(f(q))) for q in range(q_side.n))
    return unit and all(p_side.le(f(g(p)), p) for p in range(p_side.n))


def truncated_chain_map(d: int, fn: Callable[[int], int]) -> MonotoneMap:
    """fn restricted to the chain {0..d}, with values clamped into range."""
    c = Preorder.chain(d + 1)
    return MonotoneMap(c, c, tuple(min(max(fn(k), 0), d) for k in range(d + 1)))
