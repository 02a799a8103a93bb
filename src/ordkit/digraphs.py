"""Directed multigraphs, bounded path sets, and reachability preorders."""

from __future__ import annotations

import itertools
from typing import Iterator, Sequence

from .errors import OrdkitError
from .relations import Preorder, Record, Relation, check_point_count, closure

MAX_VERTICES = 1 << 16


def check_vertex_count(n: int) -> None:
    """Reject a vertex count outside 0..MAX_VERTICES before anything is built for it."""
    if not 0 <= n <= MAX_VERTICES:
        raise OrdkitError("digraph-paths", "digraph", f"vertex count {n} outside 0..{MAX_VERTICES}")


class Edge(Record):
    """A labeled edge from vertex ``src`` to vertex ``dst``; the label is a str."""

    __slots__ = ("src", "dst", "label")


class Digraph(Record):
    """Vertices ``0..n-1`` and a tuple of ``Edge``s; parallel edges are first-class."""

    __slots__ = ("n", "edges")

    def _check(self) -> None:
        n, edges = self.n, self.edges
        check_vertex_count(n)
        labels = set()
        for e in edges:
            if not (0 <= e.src < n and 0 <= e.dst < n):
                raise OrdkitError(
                    "digraph-paths", "digraph", f"edge {e.label} endpoint outside 0..{n - 1}"
                )
            if e.label in labels:
                raise OrdkitError("digraph-paths", "digraph", f"duplicate edge label {e.label!r}")
            labels.add(e.label)

    def has_cycle(self) -> bool:
        """Kahn's source peeling: a vertex on or past a cycle never loses all its in-edges."""
        into = [0] * self.n
        for e in self.edges:
            into[e.dst] += 1
        out = _out_edges(self)
        sources = [v for v in range(self.n) if not into[v]]
        for v in sources:  # grows while it is read: a head whose last in-edge goes is a source
            for _, w in out[v]:
                into[w] -= 1
                if not into[w]:
                    sources.append(w)
        return len(sources) < self.n


class Path(Record):
    """A composable tuple of ``Edge``s from vertex ``start``; the empty path carries only ``start``."""

    __slots__ = ("start", "edges")

    def _check(self) -> None:
        at = self.start
        for e in self.edges:
            if e.src != at:
                raise OrdkitError(
                    "digraph-paths", "path", f"edge {e.label} starts at {e.src}, expected {at}"
                )
            at = e.dst

    @property
    def end(self) -> int:
        return self.edges[-1].dst if self.edges else self.start

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(e.label for e in self.edges)

    def __len__(self) -> int:
        return len(self.edges)


def compose(a: Path, b: Path) -> Path:
    """Concatenation; defined only when ``a`` ends where ``b`` starts."""
    if a.end != b.start:
        raise OrdkitError(
            "digraph-paths", "compose", f"endpoint mismatch: first ends at {a.end}, second starts at {b.start}"
        )
    return Path(a.start, a.edges + b.edges)


def _out_edges(q: Digraph) -> list[list[tuple[Edge, int]]]:
    """Each vertex's out-edges, with their heads, in edge order."""
    out: list[list[tuple[Edge, int]]] = [[] for _ in range(q.n)]
    for e in q.edges:
        out[e.src].append((e, e.dst))
    return out


def _ways(
    q: Digraph, limit: int, source: int | None = None, target: int | None = None
) -> Iterator[dict[int, int]]:
    """Rows ``ways[k]`` for k = 0, 1, ..., limit: v -> the paths of exactly k edges from v.

    With a ``target``, only the paths that end there count.  With a
    ``source``, only the edges out of the vertices it reaches count, so a
    cycle that the source cannot reach does not keep the rows going.  A
    row keeps only its non-zero entries, and the rows stop at the first
    empty one, since no longer path extends past it.
    """
    tails = q.edges
    if source is not None:
        out = _out_edges(q)
        seen, todo = {source}, [source]
        while todo:
            for _, w in out[todo.pop()]:
                if w not in seen:
                    seen.add(w)
                    todo.append(w)
        tails = [e for e in q.edges if e.src in seen]
    into: list[list[int]] = [[] for _ in range(q.n)]
    for e in tails:
        into[e.dst].append(e.src)
    row = dict.fromkeys(range(q.n) if target is None else (target,), 1)
    for _ in range(limit + 1):
        if not row:
            return
        yield row
        nxt: dict[int, int] = {}
        for w, ways in row.items():
            for v in into[w]:
                nxt[v] = nxt.get(v, 0) + ways
        row = nxt


def _limit(q: Digraph, limit: int | None) -> int:
    """The length bound, checked; ``None`` asks for every path, on acyclic inputs only."""
    if limit is None:
        if q.has_cycle():
            raise OrdkitError(
                "digraph-paths", "paths", "directed cycle found: the free category has infinitely many paths"
            )
        limit = max(q.n - 1, 0)
    if limit < 0:
        raise OrdkitError("digraph-paths", "paths", "negative length bound")
    return limit


def _walk(
    q: Digraph, limit: int, source: int | None = None, target: int | None = None, carry=None
) -> Iterator[tuple[int, int, tuple]]:
    """The paths within ``limit`` edges, from ``source`` and to ``target`` where given.

    Listed length by length, and each length in lexicographic order of its
    start and its edges, by a depth-first search that holds one iterator
    per edge of the current path.  An edge is taken only when its head
    still has a path of exactly the edges left, by the ``_ways`` rows.
    Each path comes as ``(start, end, edges)``, with each edge carried as
    ``carry(edge)``, or as the ``Edge`` itself when ``carry`` is None.
    """
    alive = [bytearray(map(row.__contains__, range(q.n))) for row in _ways(q, limit, source, target)]
    out = _out_edges(q)
    if carry is not None:
        out = [[(carry(e), w) for e, w in row] for row in out]
    for length, reach in enumerate(alive):
        for start in range(q.n) if source is None else (source,):
            if not reach[start]:
                continue
            if not length:
                yield start, start, ()
                continue
            edges: list = []
            stack = [iter(out[start])]  # stack[d] picks edges[d]
            while stack:
                depth = len(stack) - 1
                row = alive[length - depth - 1]
                del edges[depth:]
                if depth + 1 == length:
                    for e, w in stack.pop():
                        if row[w]:
                            yield start, w, (*edges, e)
                    continue
                for e, w in stack[-1]:
                    if row[w]:
                        edges.append(e)
                        stack.append(iter(out[w]))
                        break
                else:
                    stack.pop()


def path_rows(
    q: Digraph, names: Sequence[str], limit: int | None, source: int | None = None, target: int | None = None
):
    """``iter_hom_paths`` as the CLI's rows ``{"end", "labels", "start", "word"}``, in a row function.

    A row function is what ``_jsonwriter.write_json`` takes for an array.
    ``_walk`` carries each edge as its label quoted for JSON, less the
    quotes, so a row is two joins and one ``%`` fill.
    """
    from ._jsonwriter import quote

    limit = _limit(q, limit)
    quoted = [quote(name) for name in names]

    def rows(indent: str) -> Iterator[str]:
        inner, deeper = indent + "  ", indent + "    "
        head, tail = f'{{{inner}"end": %s,{inner}"labels": ', f',{inner}"start": %s,{inner}"word": '
        full, empty = f'{head}[{deeper}"%s"{inner}]{tail}"%s"{indent}}}', f"{head}[]{tail}%s{indent}}}"
        comma = f'",{deeper}"'
        for start, end, edges in _walk(q, limit, source, target, lambda e: quote(e.label)[1:-1]):
            if edges:
                yield full % (quoted[end], comma.join(edges), quoted[start], "".join(edges))
            else:
                yield empty % (quoted[start], quoted[start], quote(f"1_{names[start]}"))

    return rows


def count_paths(q: Digraph, limit: int | None = None) -> int:
    """The number of paths ``iter_paths`` lists, from the ``_ways`` rows alone."""
    return sum(sum(row.values()) for row in _ways(q, _limit(q, limit)))


def iter_paths(q: Digraph, limit: int | None = None) -> Iterator[Path]:
    """All paths with at most ``limit`` edges, every path (acyclic only) when None.

    The empty paths come first, one per vertex, then the paths of one edge,
    and so on; paths of one length are in lexicographic order of their
    start and their edges.
    """
    # every path found is valid by construction
    yield from (Path._trusted(start, edges) for start, _, edges in _walk(q, _limit(q, limit)))


def paths_up_to_length(q: Digraph, limit: int) -> list[Path]:
    """All paths with at most ``limit`` edges, one empty path per vertex first."""
    return list(iter_paths(q, limit))


def all_paths(q: Digraph) -> list[Path]:
    """The complete morphism set of the free category; acyclic inputs only."""
    return list(iter_paths(q))


def count_hom_paths(q: Digraph, a: int, b: int, limit: int | None = None) -> int:
    """The number of paths ``iter_hom_paths`` lists, from the ``_ways`` rows alone."""
    limit = _limit(q, limit)
    if not (0 <= a < q.n and 0 <= b < q.n):
        return 0
    return sum(row.get(a, 0) for row in _ways(q, limit, a, b))


def iter_hom_paths(q: Digraph, a: int, b: int, limit: int | None = None) -> Iterator[Path]:
    """Paths from a to b, length-bounded or complete (acyclic only) when limit is None.

    Listed by length, each length in ``iter_paths`` order.
    """
    limit = _limit(q, limit)
    if 0 <= a < q.n and 0 <= b < q.n:
        yield from (Path._trusted(start, edges) for start, _, edges in _walk(q, limit, a, b))


def hom_paths(q: Digraph, a: int, b: int, limit: int | None = None) -> list[Path]:
    """``iter_hom_paths`` as a list."""
    return list(iter_hom_paths(q, a, b, limit))


def reachability_preorder(q: Digraph) -> Preorder:
    """x <= y when some (possibly empty) path runs from x to y."""
    check_point_count(q.n, "digraph-paths", "reachability_preorder")
    return closure(Relation.from_pairs(q.n, [(e.src, e.dst) for e in q.edges]))


def digraph_of_preorder(p: Preorder) -> Digraph:
    """One edge per comparability, loops included."""
    edges = tuple(Edge(x, y, f"e{x}_{y}") for x, y in p.pairs())
    return Digraph(p.n, edges)


def count_digraph_homs(q: Digraph, d: Digraph) -> int:
    """Number of (vertex map, edge map) pairs preserving incidence."""
    arrow_count: dict[tuple[int, int], int] = {}
    for e in d.edges:
        arrow_count[(e.src, e.dst)] = arrow_count.get((e.src, e.dst), 0) + 1
    total = 0
    for f in itertools.product(range(d.n), repeat=q.n):
        ways = 1
        for e in q.edges:
            ways *= arrow_count.get((f[e.src], f[e.dst]), 0)
            if ways == 0:
                break
        total += ways
    return total
