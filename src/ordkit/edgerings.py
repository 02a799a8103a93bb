"""Edge ideals, the poset <-> Cohen-Macaulay bipartite dictionary, and
letterplace machinery with squarefree Alexander duality.

Ground sets carry variable names; product ground sets use dotted names like
``v.1`` so a doubled vertex set or a product of two preorders stays readable
in rendered output.
"""

from __future__ import annotations

from typing import Iterator, Sequence

from .errors import OrdkitError
from .monomials import Monomial, MonomialIdeal, minimalize
from .relations import (
    MonotoneMap,
    Preorder,
    Record,
    Relation,
    _bits,
    _setattr,
    antichains,
    classify,
    monotone_maps,
)

CM_SIDE_CAP = 10
DUAL_GROUND_CAP = 20


class NamedIdeal(Record):
    """A monomial ideal over a named ground set of variables."""

    __slots__ = ("ground", "ideal")

    def __init__(self, ground: tuple[str, ...], ideal: MonomialIdeal):
        _setattr(self, "ground", ground)
        _setattr(self, "ideal", ideal)
        if len(set(ground)) != len(ground):
            raise OrdkitError("edge-rings", "ideal", "duplicate ground set names")
        if ideal.nvars != len(ground):
            raise OrdkitError(
                "edge-rings",
                "ideal",
                f"{ideal.nvars} variables but {len(ground)} ground names",
            )


class SquarefreeIdeal(NamedIdeal):
    __slots__ = ()

    def __init__(self, ground: tuple[str, ...], ideal: MonomialIdeal):
        super().__init__(ground, ideal)
        for g in ideal.gens:
            if any(e > 1 for e in g):
                raise OrdkitError("edge-rings", "ideal", f"generator {g} is not squarefree")

    def supports(self) -> list[int]:
        return [sum(1 << i for i, e in enumerate(g) if e) for g in self.ideal.gens]


class SimpleGraph(Record):
    """No loops, no multi-edges; vertices carry names."""

    __slots__ = ("vertices", "edges")

    def __init__(self, vertices: tuple[str, ...], edges: tuple[tuple[int, int], ...]):
        _setattr(self, "vertices", vertices)
        _setattr(self, "edges", edges)
        if len(set(vertices)) != len(vertices):
            raise OrdkitError("edge-rings", "graph", "duplicate vertex names")
        n = len(vertices)
        seen = set()
        for a, b in edges:
            if not (0 <= a < n and 0 <= b < n):
                raise OrdkitError("edge-rings", "graph", f"edge ({a}, {b}) out of range")
            if a == b:
                raise OrdkitError("edge-rings", "graph", f"loop at vertex {vertices[a]}")
            if a > b or (a, b) in seen:
                raise OrdkitError("edge-rings", "graph", "edges must be sorted pairs without repeats")
            seen.add((a, b))


class BipartiteGraph(Record):
    """A relation between two named sides, stored as bit rows over side B."""

    __slots__ = ("a_names", "b_names", "relation")

    def __init__(self, a_names: tuple[str, ...], b_names: tuple[str, ...], relation: tuple[int, ...]):
        _setattr(self, "a_names", a_names)
        _setattr(self, "b_names", b_names)
        _setattr(self, "relation", relation)
        if len(relation) != len(a_names):
            raise OrdkitError("edge-rings", "bipartite", "one relation row per A-vertex required")
        full = (1 << len(b_names)) - 1
        if any(row & ~full for row in relation):
            raise OrdkitError("edge-rings", "bipartite", "relation row has bits beyond side B")

    def has(self, i: int, j: int) -> bool:
        return bool(self.relation[i] >> j & 1)


class CMWitness(Record):
    """A matching A -> B and the partial order it reads off the relation."""

    __slots__ = ("matching", "poset")

    def __init__(self, matching: tuple[int, ...], poset: Preorder):
        _setattr(self, "matching", matching)
        _setattr(self, "poset", poset)


def edge_ideal(g: SimpleGraph) -> SquarefreeIdeal:
    """One quadratic squarefree generator per edge."""
    n = len(g.vertices)
    gens = []
    for a, b in g.edges:
        exps = [0] * n
        exps[a] = exps[b] = 1
        gens.append(tuple(exps))
    return SquarefreeIdeal(g.vertices, minimalize(n, gens))


def doubled_names(names: Sequence[str]) -> tuple[str, ...]:
    return tuple(f"{v}.1" for v in names) + tuple(f"{v}.2" for v in names)


def doubled_poset_ideal(order: Preorder, names: Sequence[str] | None = None) -> SquarefreeIdeal:
    """Generators (v,1)(w,2) for every v <= w in a partial order."""
    if not classify(order).partial_order:
        raise OrdkitError("edge-rings", "doubled_poset_ideal", "preorder is not antisymmetric")
    n = order.n
    names = tuple(names) if names is not None else tuple(f"v{i}" for i in range(n))
    if len(names) != n:
        raise OrdkitError("edge-rings", "doubled_poset_ideal", "one name per point required")
    gens = []
    for v, w in order.pairs():
        exps = [0] * (2 * n)
        exps[v] += 1
        exps[n + w] += 1
        gens.append(tuple(exps))
    return SquarefreeIdeal(doubled_names(names), minimalize(2 * n, gens))


def quotient_identify(ideal: SquarefreeIdeal) -> NamedIdeal:
    """Substitute (v,2) -> (v,1), modelling the variable-difference quotient."""
    bases: dict[str, set[str]] = {}
    for name in ideal.ground:
        stem, dot, copy = name.rpartition(".")
        if dot != "." or copy not in ("1", "2"):
            raise OrdkitError(
                "edge-rings", "quotient_identify", f"ground name {name!r} is not of the form base.1/base.2"
            )
        bases.setdefault(stem, set()).add(copy)
    if any(copies != {"1", "2"} for copies in bases.values()):
        stem = next(s for s, c in bases.items() if c != {"1", "2"})
        raise OrdkitError("edge-rings", "quotient_identify", f"ground set is not doubled at {stem!r}")
    base_names = tuple(sorted(bases, key=lambda s: ideal.ground.index(f"{s}.1")))
    index = {name: i for i, name in enumerate(base_names)}
    gens = []
    for g in ideal.ideal.gens:
        exps = [0] * len(base_names)
        for pos, e in enumerate(g):
            stem = ideal.ground[pos].rpartition(".")[0]
            exps[index[stem]] += e
        gens.append(tuple(exps))
    return NamedIdeal(base_names, minimalize(len(base_names), gens))


def kdim_artinian(ideal: MonomialIdeal, names: Sequence[str] | None = None) -> int:
    """Count the monomials outside an artinian ideal by slicing on the last variable.

    The unit ideal, whose generator is 1, leaves nothing outside it.
    """
    if any(not any(g) for g in ideal.gens):
        return 0
    for v in range(ideal.nvars):
        if not any(g[v] > 0 and all(e == 0 for i, e in enumerate(g) if i != v) for g in ideal.gens):
            label = names[v] if names is not None else f"x{v}"
            raise OrdkitError(
                "edge-rings", "kdim_artinian", f"not artinian: no pure power of variable {label}"
            )
    if ideal.nvars == 0:
        return 1
    return _standard_count(ideal.nvars, ideal.gens)


def _standard_count(nvars: int, gens: Sequence[Monomial]) -> int:
    """Standard monomials of an artinian ideal in ``nvars >= 1`` variables.

    Between consecutive exponents of the last variable the slice ideal in the
    other variables, generated by the heads of the generators at or below
    that exponent, is constant: each interval adds its width times the
    slice's count.  The pure power of the last variable has a zero head, and
    from there on the slice contains 1.
    """
    if nvars == 1:
        return min(g[0] for g in gens)
    last = nvars - 1
    order = sorted(gens, key=lambda g: g[last])
    total = 0
    heads: list[Monomial] = []
    for g, after in zip(order, order[1:]):
        heads.append(g[:last])
        if not any(heads[-1]):
            break
        width = after[last] - g[last]
        if width:
            total += width * _standard_count(last, heads)
    return total


def antichain_dimension(order: Preorder) -> int:
    """Antichain count; the standard monomials of the poset quotient ideal."""
    if not classify(order).partial_order:
        raise OrdkitError("edge-rings", "antichain_dimension", "preorder is not antisymmetric")
    return len(antichains(order))


def _perfect_matchings(g: BipartiteGraph) -> Iterator[tuple[int, ...]]:
    """Matchings as B-index tuples over A in order, lexicographically ascending."""
    size = len(g.a_names)
    used = 0
    pick: list[int] = []

    def extend(i: int) -> Iterator[tuple[int, ...]]:
        nonlocal used
        if i == size:
            yield tuple(pick)
            return
        for j in _bits(g.relation[i] & ~used):
            used |= 1 << j
            pick.append(j)
            yield from extend(i + 1)
            pick.pop()
            used ^= 1 << j

    yield from extend(0)


def is_cm_bipartite(g: BipartiteGraph) -> CMWitness | None:
    """Search for a matching that turns the relation into a partial order.

    Candidate diagonals are perfect matchings of the graph itself, since a
    reflexive identification must use actual edges; the lexicographically
    smallest matching that validates wins.  Bit j of row i says that A_i is
    joined to the match of A_j, so every row is reflexive by construction;
    transitivity and antisymmetry are tested on the rows directly, and only
    the winner becomes a ``Preorder``.  Empty sides have no point set and
    give no witness.
    """
    if len(g.a_names) > CM_SIDE_CAP or len(g.b_names) > CM_SIDE_CAP:
        raise OrdkitError("edge-rings", "is_cm_bipartite", f"side exceeds guard {CM_SIDE_CAP}")
    n = len(g.a_names)
    if n != len(g.b_names) or n == 0:
        return None
    for matching in _perfect_matchings(g):
        rows = tuple(
            sum(1 << j for j, b in enumerate(matching) if rel >> b & 1) for rel in g.relation
        )
        if all(
            rows[j] & ~row == 0 and not rows[j] >> i & 1
            for i, row in enumerate(rows)
            for j in _bits(row & ~(1 << i))
        ):
            return CMWitness(matching, Preorder(Relation(n, rows)))
    return None


def has_linear_resolution_shape(g: BipartiteGraph) -> bool:
    """True when the A-side neighborhoods form a chain under inclusion,
    equivalently when total orders on both sides make the relation an up-set
    of the product order."""
    hoods = sorted(g.relation, key=lambda mask: bin(mask).count("1"))
    return all(a & ~b == 0 for a, b in zip(hoods, hoods[1:]))


def letterplace(
    p: Preorder,
    q: Preorder,
    p_names: Sequence[str] | None = None,
    q_names: Sequence[str] | None = None,
) -> SquarefreeIdeal:
    """Generators are the graphs of all order preserving maps p -> q."""
    p_names = tuple(p_names) if p_names is not None else tuple(f"p{i}" for i in range(p.n))
    q_names = tuple(q_names) if q_names is not None else tuple(f"q{j}" for j in range(q.n))
    if len(p_names) != p.n or len(q_names) != q.n:
        raise OrdkitError("edge-rings", "letterplace", "one name per point required")
    ground = tuple(f"{a}.{b}" for a in p_names for b in q_names)
    gens = []
    for f in monotone_maps(p, q):
        exps = [0] * (p.n * q.n)
        for x in range(p.n):
            exps[x * q.n + f(x)] = 1
        gens.append(tuple(exps))
    return SquarefreeIdeal(ground, minimalize(p.n * q.n, gens))


def co_letterplace(
    order: Preorder,
    maps: Sequence[Sequence[int]],
    depth: int | None = None,
    names: Sequence[str] | None = None,
) -> SquarefreeIdeal:
    """Generators are the graphs of an explicit down-set of maps into {0..depth}."""
    if not classify(order).partial_order:
        raise OrdkitError("edge-rings", "co_letterplace", "preorder is not antisymmetric")
    n = order.n
    names = tuple(names) if names is not None else tuple(f"v{i}" for i in range(n))
    if len(names) != n:
        raise OrdkitError("edge-rings", "co_letterplace", "one name per point required")
    listed = []
    for f in maps:
        f = tuple(f)
        if len(f) != n or any(v < 0 for v in f):
            raise OrdkitError("edge-rings", "co_letterplace", f"map {f} has the wrong shape")
        listed.append(f)
    d = depth if depth is not None else max((max(f) for f in listed), default=0)
    target = Preorder.chain(d + 1)
    for f in listed:
        if any(v > d for v in f):
            raise OrdkitError("edge-rings", "co_letterplace", f"map {f} exceeds depth {d}")
        MonotoneMap(order, target, f)  # raises when not order preserving
    listed_set = set(listed)
    for g in monotone_maps(order, target):
        if g.values in listed_set:
            continue
        if any(all(a <= b for a, b in zip(g.values, f)) for f in listed_set):
            raise OrdkitError(
                "edge-rings",
                "co_letterplace",
                f"down-set violation: missing pointwise-smaller map {g.values}",
            )
    ground = tuple(f"{v}.{k}" for v in names for k in range(d + 1))
    gens = []
    for f in sorted(listed_set):
        exps = [0] * (n * (d + 1))
        for x in range(n):
            exps[x * (d + 1) + f[x]] = 1
        gens.append(tuple(exps))
    return SquarefreeIdeal(ground, minimalize(n * (d + 1), gens))


def alexander_dual(ideal: SquarefreeIdeal) -> SquarefreeIdeal:
    """Minimal transversals of the generator supports, over the same ground set.

    Equivalently the generators of the intersection of the variable primes
    spanned by each support.  Berge's sequential algorithm: fold in one
    support at a time; each transversal that misses it grows by each of its
    variables, and a grown one is kept unless a transversal that already hit
    the support lies inside it.  Nothing else can: the earlier transversals
    form an antichain, so the result stays minimal without a pairwise scan.
    """
    if ideal.ideal.is_zero:
        raise OrdkitError("edge-rings", "alexander_dual", "the zero ideal has no dual here")
    supports = ideal.supports()
    universe = 0
    for s in supports:
        universe |= s
    if bin(universe).count("1") > DUAL_GROUND_CAP:
        raise OrdkitError("edge-rings", "alexander_dual", f"support union exceeds guard {DUAL_GROUND_CAP}")
    transversals = [0]
    for s in supports:
        hit = [t for t in transversals if t & s]
        grown = [t | 1 << v for t in transversals if not t & s for v in _bits(s)]
        transversals = hit + [m for m in grown if not any(h & ~m == 0 for h in hit)]
    n = len(ideal.ground)
    gens = sorted(tuple(mask >> i & 1 for i in range(n)) for mask in transversals)
    return SquarefreeIdeal(ideal.ground, MonomialIdeal._trusted(n, tuple(gens)))
