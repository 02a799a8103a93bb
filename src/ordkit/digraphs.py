"""Directed multigraphs, bounded path sets, and reachability preorders."""

from __future__ import annotations

import itertools

from .errors import OrdkitError
from .relations import Preorder, Record, Relation, _setattr, check_point_count, closure

MAX_VERTICES = 1 << 16


def check_vertex_count(n: int) -> None:
    """Reject a vertex count outside 0..MAX_VERTICES before anything is built for it."""
    if not 0 <= n <= MAX_VERTICES:
        raise OrdkitError("digraph-paths", "digraph", f"vertex count {n} outside 0..{MAX_VERTICES}")


class Edge(Record):
    __slots__ = ("src", "dst", "label")

    def __init__(self, src: int, dst: int, label: str):
        _setattr(self, "src", src)
        _setattr(self, "dst", dst)
        _setattr(self, "label", label)


class Digraph(Record):
    """Vertices ``0..n-1`` and labeled edges; parallel edges are first-class."""

    __slots__ = ("n", "edges")

    def __init__(self, n: int, edges: tuple[Edge, ...]):
        _setattr(self, "n", n)
        _setattr(self, "edges", edges)
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
        """Three-colour depth-first search with an explicit stack."""
        succ = [[e.dst for e in out] for out in _out_edges(self)]
        color = [0] * self.n
        for root in range(self.n):
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


def _out_edges(q: Digraph) -> list[list[Edge]]:
    """Each vertex's outgoing edges, in edge order."""
    out: list[list[Edge]] = [[] for _ in range(q.n)]
    for e in q.edges:
        out[e.src].append(e)
    return out


class Path(Record):
    """A composable edge sequence; the empty path carries only its base vertex."""

    __slots__ = ("start", "edges")

    def __init__(self, start: int, edges: tuple[Edge, ...]):
        _setattr(self, "start", start)
        _setattr(self, "edges", edges)
        at = start
        for e in edges:
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


def _check_bound(limit: int) -> None:
    if limit < 0:
        raise OrdkitError("digraph-paths", "paths", "negative length bound")


def _check_acyclic(q: Digraph) -> None:
    if q.has_cycle():
        raise OrdkitError(
            "digraph-paths", "paths", "directed cycle found: the free category has infinitely many paths"
        )


def _grow(q: Digraph, layer: list[Path], limit: int, dist: list) -> list[Path]:
    """``layer`` and its extensions by up to ``limit`` edges, layer after layer.

    A path grows by each edge out of its end, in edge order, whose head can
    still reach a target with the edges left: ``dist[v]`` is the length of a
    shortest path from v to a target, and 0 everywhere keeps every path.
    An edge out of a path's end composes with it, so no path is checked again.
    """
    out_edges = _out_edges(q)
    extend = Path._trusted
    found = list(layer)
    for left in range(limit - 1, -1, -1):
        layer = [
            extend(p.start, p.edges + (e,)) for p in layer for e in out_edges[p.end] if dist[e.dst] <= left
        ]
        if not layer:
            break
        found.extend(layer)
    return found


def paths_up_to_length(q: Digraph, limit: int) -> list[Path]:
    """All paths with at most ``limit`` edges, one empty path per vertex first."""
    _check_bound(limit)
    return _grow(q, [Path(v, ()) for v in range(q.n)], limit, [0] * q.n)


def all_paths(q: Digraph) -> list[Path]:
    """The complete morphism set of the free category; acyclic inputs only."""
    _check_acyclic(q)
    return paths_up_to_length(q, max(q.n - 1, 0))


def hom_paths(q: Digraph, a: int, b: int, limit: int | None = None) -> list[Path]:
    """Paths from a to b, length-bounded or complete (acyclic only) when limit is None.

    Listed by length, each length in ``paths_up_to_length`` order.  Only the
    paths from ``a`` are grown, and only through edges whose head reaches
    ``b`` within the edges left, by the distances of a reverse breadth-first
    search from ``b``.
    """
    if limit is None:
        _check_acyclic(q)
        limit = max(q.n - 1, 0)
    _check_bound(limit)
    if not (0 <= a < q.n and 0 <= b < q.n):
        return []
    into: list[list[int]] = [[] for _ in range(q.n)]
    for e in q.edges:
        into[e.dst].append(e.src)
    far = float("inf")
    dist = [far] * q.n
    dist[b] = 0
    frontier = [b]
    while frontier:
        nxt = []
        for v in frontier:
            for u in into[v]:
                if dist[u] == far:
                    dist[u] = dist[v] + 1
                    nxt.append(u)
        frontier = nxt
    return [p for p in _grow(q, [Path(a, ())], limit, dist) if p.end == b]


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
