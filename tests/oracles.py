"""Brute-force reference implementations that the pruned searches and the
output-sensitive kernels replace.

Each one is the plain generate-and-filter definition, kept only so tests
can compare the fast versions in ``ordkit`` against it.  The monomial
grammar's reference is the character-by-character scanner that the
pattern-based ``textio.parse_monomials`` replaced.  ``classify`` and
``bubbles`` scan pairs of points where ``ordkit`` compares rows and
columns, ``has_cycle`` is the three-colour depth-first search that
Kahn's source peeling replaced, ``check_galois_connection`` tests every
pair of points where ``ordkit`` tests the unit and the counit,
``validate`` closes every pair of opens where ``ordkit`` joins each open
with the minimal opens, and ``is_strongly_stable`` moves exponent to every
larger variable where ``ordkit`` tests the adjacent transfers.
"""

from __future__ import annotations

import itertools
import re
from operator import and_, or_
from typing import Iterator, Sequence

from ordkit import monomials
from ordkit.digraphs import Digraph, Path
from ordkit.edgerings import CMWitness, SquarefreeIdeal
from ordkit.errors import OrdkitError
from ordkit.monomials import (
    STABILIZER_CAP,
    Monomial,
    MonomialIdeal,
    chain_point,
    contains,
    divides,
    monomials_up_to_degree,
    permute_monomial,
)
from ordkit.patterns import RationalMatrix, _check_generators
from ordkit.relations import (
    BubbleDecomposition,
    MonotoneMap,
    Preorder,
    PropertyFlags,
    _bits,
    _string_key,
)
from ordkit.textio import _NAME, ParseError
from ordkit.topology import FiniteTopology, _set_text, to_preorder


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
            yield Preorder(n, rows)


def classify(p: Preorder) -> PropertyFlags:
    """The kinds by a scan of every pair of points."""
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
    """Blocks of mutual comparability, each found by scanning its least point's row."""
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
    rows = tuple(sum(1 << j for j, rj in enumerate(reps) if p.le(ri, rj)) for ri in reps)
    quotient = Preorder(len(blocks), rows)
    return BubbleDecomposition(tuple(blocks), quotient)


def up_sets(p: Preorder) -> list[int]:
    """Every subset mask that holds the whole row of each of its points, ascending."""
    masks = range(1 << p.n)
    for x, row in enumerate(p.rows):
        masks = [mask for mask in masks if not mask >> x & 1 or row & ~mask == 0]
    return list(masks)


def antichains(p: Preorder) -> list[int]:
    """Every subset mask with no two distinct comparable members, ascending."""
    comparable = [
        sum(1 << y for y in range(p.n) if y != x and (p.le(x, y) or p.le(y, x)))
        for x in range(p.n)
    ]
    return [
        mask for mask in range(1 << p.n) if all(mask & comparable[x] == 0 for x in _bits(mask))
    ]


def invariant_subsets(gens: Sequence[RationalMatrix]) -> FiniteTopology:
    """Every subset mask that holds, for each of its points w, the support of
    column w of every generator."""
    n = _check_generators(gens, "invariant_subsets")
    col_support = [
        [sum(1 << v for v in range(n) if g.entries[v][w] != 0) for w in range(n)] for g in gens
    ]
    opens = [
        mask
        for mask in range(1 << n)
        if all(cols[w] & ~mask == 0 for cols in col_support for w in _bits(mask))
    ]
    return FiniteTopology(n, tuple(opens))


def preorder_of_subgroup(gens: Sequence[RationalMatrix]) -> Preorder:
    """The specialization preorder of the enumerated invariant subsets."""
    return to_preorder(invariant_subsets(gens))


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


def validate(family, n: int) -> FiniteTopology:
    """Check the three topology axioms by closing every pair of opens, reporting the first violated one."""
    opens = sorted(set(family))
    full = (1 << n) - 1
    if any(mask & ~full for mask in opens):
        raise OrdkitError("finite-topology", "validate", f"subset mask outside {n}-point carrier")
    if 0 not in opens:
        raise OrdkitError("finite-topology", "validate", "missing empty set")
    if full not in opens:
        raise OrdkitError("finite-topology", "validate", "missing full set")
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
    return FiniteTopology(n, tuple(opens))


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


def minimalize(nvars: int, gens) -> MonomialIdeal:
    """Drop every generator that another one divides, by a pairwise scan."""
    pool = sorted(set(tuple(g) for g in gens))
    kept = [g for g in pool if not any(h != g and divides(h, g) for h in pool)]
    return MonomialIdeal(nvars, tuple(kept))


def upset_to_ss(chains, nvars: int) -> MonomialIdeal:
    """Minimalize every monomial up to the top degree whose chain point lies above a listed one."""
    pts = []
    for u in chains:
        u = tuple(u)
        if len(u) != nvars:
            raise OrdkitError(
                "monomial-ideals", "upset_to_ss", f"chain {u} has wrong length for {nvars} variables"
            )
        if any(a > b for a, b in zip(u, u[1:])):
            raise OrdkitError("monomial-ideals", "upset_to_ss", f"chain {u} is not weakly increasing")
        if any(e < 0 for e in u):
            raise OrdkitError("monomial-ideals", "upset_to_ss", f"chain {u} has a negative entry")
        pts.append(u)
    if not pts:
        return MonomialIdeal(nvars, ())
    bound = max(u[-1] for u in pts) if nvars else 0
    members = [
        m
        for m in monomials_up_to_degree(nvars, bound)
        if any(all(a >= b for a, b in zip(chain_point(m), u)) for u in pts)
    ]
    return monomials.minimalize(nvars, members)


def is_strongly_stable(ideal: MonomialIdeal, order: Sequence[int] | None = None) -> bool:
    """Swap each variable of each generator for every larger one and look the result up."""
    n = ideal.nvars
    order = tuple(range(n)) if order is None else tuple(order)
    if sorted(order) != list(range(n)):
        raise OrdkitError("monomial-ideals", "is_strongly_stable", f"{order} is not a permutation")
    for g in ideal.gens:
        for pos_j, var_j in enumerate(order):
            if g[var_j] == 0:
                continue
            for var_i in order[:pos_j]:
                swapped = list(g)
                swapped[var_j] -= 1
                swapped[var_i] += 1
                if not contains(ideal, tuple(swapped)):
                    return False
    return True


def alexander_dual(ideal: SquarefreeIdeal) -> SquarefreeIdeal:
    """Every subset of the support union that hits all supports, filtered for minimality."""
    if ideal.ideal.is_zero:
        raise OrdkitError("edge-rings", "alexander_dual", "the zero ideal has no dual here")
    supports = ideal.supports()
    universe = 0
    for s in supports:
        universe |= s
    positions = list(_bits(universe))
    hitting = []
    for choice in range(1 << len(positions)):
        mask = 0
        for k in _bits(choice):
            mask |= 1 << positions[k]
        if all(mask & s for s in supports):
            hitting.append(mask)
    minimal = [m for m in hitting if all(not (h != m and h & ~m == 0) for h in hitting)]
    n = len(ideal.ground)
    gens = [tuple(1 if mask >> i & 1 else 0 for i in range(n)) for mask in minimal]
    return SquarefreeIdeal(ideal.ground, minimalize(n, gens))


def kdim_artinian(ideal: MonomialIdeal) -> int:
    """Scan the box below the pure powers for monomials outside the ideal.

    The generator 1 counts as the zeroth power of every variable.
    """
    bounds = [
        min(g[v] for g in ideal.gens if not any(e for i, e in enumerate(g) if i != v))
        for v in range(ideal.nvars)
    ]
    return sum(1 for m in itertools.product(*(range(b) for b in bounds)) if not contains(ideal, m))


def stabilizer(ideal: MonomialIdeal) -> list[tuple[int, ...]]:
    """Every one of the n! variable permutations that maps the generators onto themselves."""
    if ideal.nvars > STABILIZER_CAP:
        raise OrdkitError(
            "monomial-ideals", "stabilizer", f"{ideal.nvars} variables exceeds guard {STABILIZER_CAP}"
        )
    gens = set(ideal.gens)
    return [
        perm
        for perm in itertools.permutations(range(ideal.nvars))
        if {permute_monomial(g, perm) for g in gens} == gens
    ]


def has_cycle(q: Digraph) -> bool:
    """Three-colour depth-first search with an explicit stack."""
    succ: list[list[int]] = [[] for _ in range(q.n)]
    for e in q.edges:
        succ[e.src].append(e.dst)
    color = [0] * q.n
    for root in range(q.n):
        if color[root]:
            continue
        color[root] = 1
        stack = [(root, iter(succ[root]))]
        while stack:
            v, todo = stack[-1]
            for w in todo:
                if color[w] == 1:
                    return True
                if color[w] == 0:
                    color[w] = 1
                    stack.append((w, iter(succ[w])))
                    break
            else:
                color[v] = 2
                stack.pop()
    return False


def paths_up_to_length(q: Digraph, limit: int) -> list[Path]:
    """The empty paths, then each layer grown from the last by every edge out of its ends."""
    if limit < 0:
        raise OrdkitError("digraph-paths", "paths", "negative length bound")
    out_edges: list[list] = [[] for _ in range(q.n)]
    for e in q.edges:
        out_edges[e.src].append(e)
    layer = [Path(v, ()) for v in range(q.n)]
    found = list(layer)
    for _ in range(limit):
        layer = [Path(p.start, p.edges + (e,)) for p in layer for e in out_edges[p.end]]
        found.extend(layer)
    return found


def all_paths(q: Digraph) -> list[Path]:
    """``paths_up_to_length`` at the longest length an acyclic digraph allows."""
    if has_cycle(q):
        raise OrdkitError(
            "digraph-paths", "paths", "directed cycle found: the free category has infinitely many paths"
        )
    return paths_up_to_length(q, max(q.n - 1, 0))


def hom_paths(q: Digraph, a: int, b: int, limit: int | None = None) -> list[Path]:
    """Every path of the digraph up to the bound, filtered for those from a to b."""
    pool = all_paths(q) if limit is None else paths_up_to_length(q, limit)
    return [p for p in pool if p.start == a and p.end == b]


def perfect_matchings(relation: Sequence[int], prefix: tuple[int, ...] = ()) -> Iterator[tuple]:
    """The permutations of side B that use only edges, placed A-vertex by A-vertex, ascending."""
    i = len(prefix)
    if i == len(relation):
        yield prefix
        return
    for b in range(len(relation)):
        if relation[i] >> b & 1 and b not in prefix:
            yield from perfect_matchings(relation, prefix + (b,))


def is_cm_bipartite(g) -> CMWitness | None:
    """Validate a full ``Preorder`` for every perfect matching until one is a partial order."""
    n = len(g.a_names)
    if n != len(g.b_names):
        return None
    for matching in perfect_matchings(g.relation):
        rows = tuple(sum(1 << j for j in range(n) if g.has(i, matching[j])) for i in range(n))
        try:
            order = Preorder(n, rows)
        except OrdkitError:
            continue
        if classify(order).partial_order:
            return CMWitness(matching, order)
    return None


def check_galois_connection(f: MonotoneMap, g: MonotoneMap) -> bool:
    """The definition itself: f(q) <= p exactly where q <= g(p), over every pair of points."""
    q_side, p_side = f.source, f.target
    for q in range(q_side.n):
        for p in range(p_side.n):
            if p_side.le(f(q), p) != q_side.le(q, g(p)):
                return False
    return True


def missing_smaller_map(order: Preorder, listed, depth: int) -> tuple[int, ...] | None:
    """The first unlisted monotone map into {0..depth} below a listed one, scanning every map."""
    listed = {tuple(f) for f in listed}
    for g in itertools.product(range(depth + 1), repeat=order.n):
        monotone = all(g[x] <= g[y] for x, y in order.pairs())
        if monotone and g not in listed and any(all(a <= b for a, b in zip(g, f)) for f in listed):
            return g
    return None


class _Scanner:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    @property
    def column(self) -> int:
        return self.pos + 1

    def peek(self) -> str:
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def skip_space(self):
        while self.peek() in (" ", "\t", "\n"):
            self.pos += 1

    def take(self, pattern: re.Pattern) -> str | None:
        m = pattern.match(self.text, self.pos)
        if not m:
            return None
        self.pos = m.end()
        return m.group(0)


_INT = re.compile(r"\d+")


def parse_monomials(text: str) -> tuple[list[Monomial], tuple[str, ...]]:
    """Comma-separated generators; each is ``1`` or ``name(^exp)?`` factors
    joined by ``*``.  Names get indices in first-appearance order unless a
    ``vars:`` header fixes them."""
    s = _Scanner(text)
    s.skip_space()
    names: list[str] = []
    fixed = False
    if s.take(re.compile(r"vars\s*:")):
        fixed = True
        while True:
            s.skip_space()
            name = s.take(_NAME)
            if name is None:
                raise ParseError("expected a variable name", s.column)
            if name in names:
                raise ParseError(f"duplicate variable {name!r} in vars header", s.column)
            names.append(name)
            s.skip_space()
            if s.peek() == ",":
                s.pos += 1
                continue
            break
        s.skip_space()
        if s.peek() != ";":
            raise ParseError("expected ';' after vars header", s.column)
        s.pos += 1

    exps_by_gen: list[dict[str, int]] = []
    s.skip_space()
    while s.peek():
        factors: dict[str, int] = {}
        if s.peek() == "1":
            s.pos += 1
        else:
            while True:
                s.skip_space()
                col = s.column
                name = s.take(_NAME)
                if name is None:
                    raise ParseError("expected a variable name or 1", s.column)
                if fixed and name not in names:
                    raise ParseError(f"variable {name!r} not in vars header", col)
                if not fixed and name not in names:
                    names.append(name)
                exp = 1
                if s.peek() == "^":
                    s.pos += 1
                    digits = s.take(_INT)
                    if digits is None:
                        raise ParseError("expected a positive exponent after ^", s.column)
                    exp = int(digits)
                    if exp == 0:
                        raise ParseError("exponent must be positive", s.column - len(digits))
                factors[name] = factors.get(name, 0) + exp
                s.skip_space()
                if s.peek() == "*":
                    s.pos += 1
                    continue
                break
        exps_by_gen.append(factors)
        s.skip_space()
        if s.peek() == ",":
            s.pos += 1
            s.skip_space()
            continue
        if s.peek():
            raise ParseError(f"unexpected character {s.peek()!r}", s.column)
    vectors = [
        tuple(factors.get(name, 0) for name in names) for factors in exps_by_gen
    ]
    return vectors, tuple(names)
