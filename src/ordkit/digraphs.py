"""Directed multigraphs, bounded path sets, and reachability preorders."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .errors import OrdkitError
from .relations import MAX_POINTS, Preorder, Relation, closure

MAX_VERTICES = 1 << 16


def check_vertex_count(n: int) -> None:
    """Reject a vertex count outside 0..MAX_VERTICES before anything is built for it."""
    if not 0 <= n <= MAX_VERTICES:
        raise OrdkitError("digraph-paths", "digraph", f"vertex count {n} outside 0..{MAX_VERTICES}")


@dataclass(frozen=True)
class Edge:
    src: int
    dst: int
    label: str


@dataclass(frozen=True)
class Digraph:
    """Vertices ``0..n-1`` and labeled edges; parallel edges are first-class."""

    n: int
    edges: tuple[Edge, ...]

    def __post_init__(self):
        check_vertex_count(self.n)
        labels = set()
        for e in self.edges:
            if not (0 <= e.src < self.n and 0 <= e.dst < self.n):
                raise OrdkitError(
                    "digraph-paths", "digraph", f"edge {e.label} endpoint outside 0..{self.n - 1}"
                )
            if e.label in labels:
                raise OrdkitError("digraph-paths", "digraph", f"duplicate edge label {e.label!r}")
            labels.add(e.label)

    def out_edges(self, v: int) -> list[Edge]:
        return [e for e in self.edges if e.src == v]

    def has_cycle(self) -> bool:
        """Three-colour depth-first search with an explicit stack."""
        succ: list[list[int]] = [[] for _ in range(self.n)]
        for e in self.edges:
            succ[e.src].append(e.dst)
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


@dataclass(frozen=True)
class Path:
    """A composable edge sequence; the empty path carries only its base vertex."""

    start: int
    edges: tuple[Edge, ...]

    def __post_init__(self):
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


def paths_up_to_length(q: Digraph, limit: int) -> list[Path]:
    """All paths with at most ``limit`` edges, one empty path per vertex first."""
    if limit < 0:
        raise OrdkitError("digraph-paths", "paths", "negative length bound")
    layer = [Path(v, ()) for v in range(q.n)]
    out = list(layer)
    for _ in range(limit):
        layer = [Path(p.start, p.edges + (e,)) for p in layer for e in q.out_edges(p.end)]
        out.extend(layer)
        if not layer:
            break
    return out


def all_paths(q: Digraph) -> list[Path]:
    """The complete morphism set of the free category; acyclic inputs only."""
    if q.has_cycle():
        raise OrdkitError(
            "digraph-paths", "paths", "directed cycle found: the free category has infinitely many paths"
        )
    return paths_up_to_length(q, max(q.n - 1, 0))


def hom_paths(q: Digraph, a: int, b: int, limit: int | None = None) -> list[Path]:
    """Paths from a to b, length-bounded or complete (acyclic only) when limit is None."""
    pool = all_paths(q) if limit is None else paths_up_to_length(q, limit)
    return [p for p in pool if p.start == a and p.end == b]


def reachability_preorder(q: Digraph) -> Preorder:
    """x <= y when some (possibly empty) path runs from x to y."""
    if not 1 <= q.n <= MAX_POINTS:
        raise OrdkitError(
            "digraph-paths", "reachability_preorder", f"point count {q.n} outside 1..{MAX_POINTS}"
        )
    return closure(Relation.from_pairs(q.n, [(e.src, e.dst) for e in q.edges]))


def digraph_of_preorder(p: Preorder) -> Digraph:
    """One edge per comparability, loops included."""
    edges = tuple(Edge(x, y, f"e{x}_{y}") for x, y in p.pairs())
    return Digraph(p.n, edges)


def _vertex_maps(n: int, m: int) -> Iterator[tuple[int, ...]]:
    if n == 0:
        yield ()
        return
    stack = [()]
    while stack:
        head = stack.pop()
        if len(head) == n:
            yield head
            continue
        for v in range(m - 1, -1, -1):
            stack.append(head + (v,))


def count_digraph_homs(q: Digraph, d: Digraph) -> int:
    """Number of (vertex map, edge map) pairs preserving incidence."""
    arrow_count: dict[tuple[int, int], int] = {}
    for e in d.edges:
        arrow_count[(e.src, e.dst)] = arrow_count.get((e.src, e.dst), 0) + 1
    total = 0
    for f in _vertex_maps(q.n, d.n):
        ways = 1
        for e in q.edges:
            ways *= arrow_count.get((f[e.src], f[e.dst]), 0)
            if ways == 0:
                break
        total += ways
    return total
