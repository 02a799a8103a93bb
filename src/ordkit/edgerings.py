"""Edge ideals, the poset <-> Cohen-Macaulay bipartite dictionary, and
letterplace machinery with squarefree Alexander duality.

Ground sets carry variable names; product ground sets use dotted names like
``v.1`` so a doubled vertex set or a product of two preorders stays readable
in rendered output.  The co-letterplace ideal of the full Hom(P, [d+1]) is
the letterplace ideal L(P, [d+1]) into the chain, so ``co_letterplace`` is
left only the explicitly listed down-sets of maps.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .errors import OrdkitError
from .monomials import Monomial, MonomialIdeal, NamedIdeal, minimalize
from .relations import (
    MAX_POINTS,
    MonotoneMap,
    Preorder,
    Record,
    _bits,
    _monotone_values,
    _transpose,
    classify,
    up_sets,
)

DUAL_GROUND_CAP = 20


class SquarefreeIdeal(NamedIdeal):
    __slots__ = ()

    def _check(self) -> None:
        super()._check()
        for g in self.ideal.gens:
            if any(e > 1 for e in g):
                raise OrdkitError("edge-rings", "ideal", f"generator {g} is not squarefree")

    def supports(self) -> list[int]:
        return [sum(1 << i for i, e in enumerate(g) if e) for g in self.ideal.gens]


class SimpleGraph(Record):
    """Named ``vertices`` and sorted index pairs as ``edges``; no loops, no multi-edges."""

    __slots__ = ("vertices", "edges")

    def _check(self) -> None:
        vertices, edges = self.vertices, self.edges
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
    """A relation between two sides of named points, stored as int bit rows over side B."""

    __slots__ = ("a_names", "b_names", "relation")

    def _check(self) -> None:
        relation = self.relation
        if len(relation) != len(self.a_names):
            raise OrdkitError("edge-rings", "bipartite", "one relation row per A-vertex required")
        full = (1 << len(self.b_names)) - 1
        if any(row & ~full for row in relation):
            raise OrdkitError("edge-rings", "bipartite", "relation row has bits beyond side B")

    def has(self, i: int, j: int) -> bool:
        return bool(self.relation[i] >> j & 1)


class CMWitness(Record):
    """A matching A -> B, as a tuple of B indices, and the ``Preorder`` it reads off the relation."""

    __slots__ = ("matching", "poset")


def _squarefree(ground: Sequence[str], supports: Iterable[Iterable[int]]) -> SquarefreeIdeal:
    """The ideal over ``ground`` with one generator per support, a collection of variable indices."""
    gens = []
    for support in supports:
        exps = [0] * len(ground)
        for i in support:
            exps[i] = 1
        gens.append(tuple(exps))
    return SquarefreeIdeal(ground, minimalize(len(ground), gens))


def edge_ideal(g: SimpleGraph) -> SquarefreeIdeal:
    """One quadratic squarefree generator per edge."""
    return _squarefree(g.vertices, g.edges)


def doubled_names(names: Sequence[str]) -> tuple[str, ...]:
    return tuple(f"{v}.1" for v in names) + tuple(f"{v}.2" for v in names)


def _poset_names(order: Preorder, names: Sequence[str] | None, op: str) -> tuple[str, ...]:
    """One name per point of a partial order, v0, v1, ... by default; ``op`` tags the errors."""
    if not classify(order).partial_order:
        raise OrdkitError("edge-rings", op, "preorder is not antisymmetric")
    names = tuple(names) if names is not None else tuple(f"v{i}" for i in range(order.n))
    if len(names) != order.n:
        raise OrdkitError("edge-rings", op, "one name per point required")
    return names


def doubled_poset_ideal(order: Preorder, names: Sequence[str] | None = None) -> SquarefreeIdeal:
    """Generators (v,1)(w,2) for every v <= w in a partial order."""
    names, n = _poset_names(order, names, "doubled_poset_ideal"), order.n
    return _squarefree(doubled_names(names), ((v, n + w) for v, w in order.pairs()))


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
    """Antichain count (the standard monomials of the poset quotient ideal),
    as the up-set count: each antichain is the minimal points of one up-set."""
    _poset_names(order, None, "antichain_dimension")
    return len(up_sets(order))


def is_cm_bipartite(g: BipartiteGraph) -> CMWitness | None:
    """Peel the graph down to the matching that makes it the graph of a poset.

    A bipartite graph is Cohen-Macaulay exactly when it is the graph of a
    poset, A_x joined to B_y for x <= y (Herzog and Hibi, J. Algebraic
    Combin. 22 (2005)).  There a maximal point's A-vertex has only its own
    edge, and removing the pair leaves the graph of the rest, so an A-vertex
    with exactly one edge to an unused B-vertex is matched until none is
    left.  Each match is forced, so a finished peel is the only perfect
    matching.  Bit j of row i says that A_i is joined to the match of A_j,
    and transitive rows are a poset: equal rows would allow a second
    matching.  Empty or unequal sides give no witness.
    """
    if len(g.a_names) > MAX_POINTS or len(g.b_names) > MAX_POINTS:
        raise OrdkitError("edge-rings", "is_cm_bipartite", f"side exceeds guard {MAX_POINTS}")
    n, relation = len(g.a_names), g.relation
    if n != len(g.b_names) or n == 0:
        return None
    matching, used = [-1] * n, 0
    for _ in range(n):
        i = next((i for i in range(n) if matching[i] < 0 and (relation[i] & ~used).bit_count() == 1), None)
        if i is None:
            return None
        matching[i] = (relation[i] & ~used).bit_length() - 1
        used |= 1 << matching[i]
    rows = tuple(sum(1 << j for j, b in enumerate(matching) if rel >> b & 1) for rel in relation)
    if any(rows[j] & ~rows[i] for i in range(n) for j in _bits(rows[i])):
        return None
    return CMWitness(tuple(matching), Preorder._trusted(n, rows))


def has_linear_resolution_shape(g: BipartiteGraph) -> bool:
    """True when the A-side neighborhoods form a chain under inclusion,
    equivalently when total orders on both sides make the relation an up-set
    of the product order."""
    hoods = sorted(g.relation, key=int.bit_count)
    return all(a & ~b == 0 for a, b in zip(hoods, hoods[1:]))


def _graph_ideal(sources: Sequence[str], images: Sequence, maps: Iterable[Sequence[int]]) -> SquarefreeIdeal:
    """The graphs of ``maps``, as squarefree generators over the ground names ``source.image``."""
    ground = tuple(f"{a}.{b}" for a in sources for b in images)
    return _squarefree(ground, ((x * len(images) + v for x, v in enumerate(f)) for f in maps))


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
    return _graph_ideal(p_names, q_names, _monotone_values(p, q))


def co_letterplace(
    order: Preorder,
    maps: Sequence[Sequence[int]],
    depth: int | None = None,
    names: Sequence[str] | None = None,
) -> SquarefreeIdeal:
    """Generators are the graphs of an explicit down-set of maps into {0..depth}.

    Lowering a listed f by one at a point x where that stays monotone must
    give a listed map.  That is enough: if f lies above an unlisted g, x
    minimal among the points where f > g gives such a map, still above g.
    The first listed f in ascending order that fails names its first missing map.
    """
    names, n = _poset_names(order, names, "co_letterplace"), order.n
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
    listed = sorted(listed_set)
    strictly_below = [row & ~(1 << x) for x, row in enumerate(_transpose(order.rows))]
    for f in listed:
        for x in range(n):
            g = f[:x] + (f[x] - 1,) + f[x + 1 :]
            if f[x] and all(f[y] < f[x] for y in _bits(strictly_below[x])) and g not in listed_set:
                message = f"down-set violation: missing pointwise-smaller map {g}"
                raise OrdkitError("edge-rings", "co_letterplace", message)
    return _graph_ideal(names, range(d + 1), listed)


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
    if universe.bit_count() > DUAL_GROUND_CAP:
        raise OrdkitError("edge-rings", "alexander_dual", f"support union exceeds guard {DUAL_GROUND_CAP}")
    transversals = [0]
    for s in supports:
        hit = [t for t in transversals if t & s]
        grown = [t | 1 << v for t in transversals if not t & s for v in _bits(s)]
        transversals = hit + [m for m in grown if not any(h & ~m == 0 for h in hit)]
    n = len(ideal.ground)
    gens = sorted(tuple(mask >> i & 1 for i in range(n)) for mask in transversals)
    return SquarefreeIdeal(ideal.ground, MonomialIdeal._trusted(n, tuple(gens)))
