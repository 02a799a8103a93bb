"""Text grammars and serializers shared by the CLI.

Every domain value has a matching parse/render pair such that
``parse(render(x)) == x``.  Structured command output goes through
``write_document``, which streams canonical JSON that round-trips
byte-identically; ``document_text`` is the same text as one string.

Only the order core is imported up front.  Each parser imports the layer
module whose types it builds, and the two document functions import the
writer in ``_jsonwriter`` (which imports ``json``), so a command loads only
what it uses.
"""

from __future__ import annotations

import re
from collections.abc import Iterable
from typing import TYPE_CHECKING, Sequence, TextIO

from .errors import OrdkitError
from .relations import Preorder, Relation, _bits, _transpose, bubbles, check_point_count, closure

if TYPE_CHECKING:
    from .digraphs import Digraph
    from .edgerings import BipartiteGraph, SimpleGraph
    from .monomials import Monomial, NamedIdeal
    from .patterns import RationalMatrix
    from .topology import FiniteTopology


class ParseError(Exception):
    """Input text rejected, with a 1-based column when known."""

    def __init__(self, message: str, column: int | None = None):
        if column is not None:
            message = f"parse error at column {column}: {message}"
        else:
            message = f"parse error: {message}"
        super().__init__(message)
        self.column = column


_NAME = re.compile(r"[a-z][a-z0-9]*(?:\.[a-z0-9]+)*")


def _check_name(token: str, what: str) -> str:
    if not _NAME.fullmatch(token):
        raise ParseError(f"bad {what} name {token!r}")
    return token


def _items(text: str) -> list[str]:
    """The stripped, non-empty entries of a comma-separated list."""
    return [item for item in map(str.strip, text.split(",")) if item]


def parse_names(text: str, what: str) -> list[str]:
    """The names of a comma-separated list, each checked; empty entries are skipped."""
    return [_check_name(t, what) for t in _items(text)]


def _split(item: str, sep: str) -> tuple[str, str]:
    """The stripped sides of ``a<sep>b``."""
    if sep not in item:
        raise ParseError(f"expected a{sep}b, got {item!r}")
    left, _, right = item.partition(sep)
    return left.strip(), right.strip()


def _lookup(index: dict[str, int], name: str, what: str) -> int:
    """``index[name]``, where a missing name is an unknown ``what`` name."""
    if name not in index:
        raise ParseError(f"unknown {what} name {name!r}")
    return index[name]


def _index(names: Sequence[str], what: str) -> dict[str, int]:
    """Each name's position, refusing a repeated name."""
    index = {name: i for i, name in enumerate(names)}
    if len(index) < len(names):
        raise ParseError(f"duplicate {what} names")
    return index


def _count_head(text: str, pattern: str) -> tuple[int, list[str]]:
    """The count of the ``n=<k>`` part that ``pattern`` matches, and the parts after it."""
    head, *parts = text.split(";")
    m = re.fullmatch(pattern, head.strip())
    if not m:
        raise ParseError(f"expected n=<count> first, got {head.strip()!r}")
    return int(m.group(1)), parts


def _sections(parts: Iterable[str], keys: tuple[str, ...], what: str) -> dict:
    """Each non-empty part by the key it starts with (``key:``); a later part
    replaces an earlier one and any other part is an unknown section.

    The name lists ``points:``, ``A:`` and ``B:`` are checked as ``what``
    names as soon as they are met, so a bad name is reported before an
    unknown section that follows it.
    """
    found = {}
    for part in map(str.strip, parts):
        if not part:
            continue
        key, colon, body = part.partition(":")
        if not colon or key not in keys:
            raise ParseError(f"unknown section {part!r}")
        found[key] = parse_names(body, what) if key in ("points", "A", "B") else body
    return found


def _names(names: Sequence[str] | None, n: int) -> tuple[str, ...]:
    """``names``, or ``p0 .. p<n-1>`` when a renderer is given none."""
    return tuple(names) if names is not None else tuple(f"p{i}" for i in range(n))


# ---------------------------------------------------------------- preorders


def default_point_names(n: int) -> tuple[str, ...]:
    """Point names used when no ``points:`` header is given.

    Small carriers follow the usual hand-drawn conventions: {v, w} for two
    points and {x, y, z} for three.
    """
    check_point_count(n)
    table = {1: ("x",), 2: ("v", "w"), 3: ("x", "y", "z")}
    return table[n] if n in table else tuple(f"p{i}" for i in range(n))


def default_vertex_names(n: int) -> tuple[str, ...]:
    """Digraph vertices default to a, b, c, ..."""
    from .digraphs import check_vertex_count

    check_vertex_count(n)
    return tuple("abcdefghijklmnopqrstuvwxyz"[:n]) if n <= 26 else tuple(f"p{i}" for i in range(n))


def parse_preorder(text: str, close: bool = True) -> tuple[Preorder, tuple[str, ...]]:
    """Grammar: ``n=<k>[; points: a,b,c][; pairs: a<=b, c<=d]``.

    With ``close`` the listed pairs are closed reflexively and transitively;
    without it the listed relation must already be a preorder on the nose.
    """
    n, parts = _count_head(text, r"n\s*=\s*(\d+)")
    found = _sections(parts, ("points", "pairs"), "point")
    raw_pairs = [
        [_check_name(side, "point") for side in _split(item, "<=")]
        for item in _items(found.get("pairs", ""))
    ]
    points = found["points"] if "points" in found else default_point_names(n)
    if len(points) != n:
        raise ParseError(f"{len(points)} point names for n={n}")
    index = _index(points, "point")
    pairs = [[_lookup(index, name, "point") for name in pair] for pair in raw_pairs]
    listed = Relation.from_pairs(n, pairs)
    closed = closure(listed)
    if not close:
        for x in range(n):
            gap = closed.rows[x] & ~listed.rows[x]
            if gap:
                y = next(_bits(gap))
                raise OrdkitError(
                    "cli-io",
                    "parse_preorder",
                    f"relation is not reflexive-transitive: missing pair {points[x]}<={points[y]}",
                )
    return closed, tuple(points)


def render_preorder(p: Preorder, names: Sequence[str] | None = None) -> str:
    names = _names(names, p.n)
    parts = [f"n={p.n}", "points: " + ",".join(names)]
    strict = p.strict_pairs()
    if strict:
        parts.append("pairs: " + ", ".join(f"{names[x]}<={names[y]}" for x, y in strict))
    return "; ".join(parts)


# ---------------------------------------------------------------- monomials


def parse_monomials(text: str) -> tuple[list[Monomial], tuple[str, ...]]:
    """Comma-separated generators; each is ``1`` or ``name(^exp)?`` factors
    joined by ``*``.  Names get indices in first-appearance order unless a
    ``vars:`` header fixes them.  Blanks are spaces, tabs and newlines.  A
    factor match without a name ends where the missing name is reported."""
    blanks = re.compile(r"[ \t\n]*").match
    factor = re.compile(rf"[ \t\n]*(?:({_NAME.pattern})(\^(\d*))?)?").match
    head = re.match(r"[ \t\n]*vars\s*:", text)
    index: dict[str, int] = {}
    pos = 0
    if head:
        pos = head.end()
        while True:
            m = factor(text, pos)
            name = m[1]
            if name is None:
                raise ParseError("expected a variable name", m.end() + 1)
            pos = m.end(1)
            if name in index:
                raise ParseError(f"duplicate variable {name!r} in vars header", pos + 1)
            index[name] = len(index)
            pos = blanks(text, pos).end()
            if text[pos : pos + 1] != ",":
                break
            pos += 1
        if text[pos : pos + 1] != ";":
            raise ParseError("expected ';' after vars header", pos + 1)
        pos += 1

    exps_by_gen: list[dict[str, int]] = []
    pos = blanks(text, pos).end()
    while pos < len(text):
        factors: dict[str, int] = {}
        if text[pos] == "1":
            pos += 1
        else:
            while True:
                m = factor(text, pos)
                name, caret, digits = m.groups()
                if name is None:
                    raise ParseError("expected a variable name or 1", m.end() + 1)
                if name not in index:
                    if head:
                        raise ParseError(f"variable {name!r} not in vars header", m.start(1) + 1)
                    index[name] = len(index)
                exp = 1
                if caret:
                    if not digits:
                        raise ParseError("expected a positive exponent after ^", m.end() + 1)
                    exp = int(digits)
                    if exp == 0:
                        raise ParseError("exponent must be positive", m.start(3) + 1)
                factors[name] = factors.get(name, 0) + exp
                pos = blanks(text, m.end()).end()
                if text[pos : pos + 1] != "*":
                    break
                pos += 1
        exps_by_gen.append(factors)
        pos = blanks(text, pos).end()
        if text[pos : pos + 1] == ",":
            pos = blanks(text, pos + 1).end()
        elif pos < len(text):
            raise ParseError(f"unexpected character {text[pos]!r}", pos + 1)
    names = tuple(index)
    return [tuple(factors.get(name, 0) for name in names) for factors in exps_by_gen], names


def render_monomial(m: Monomial, names: Sequence[str]) -> str:
    factors = []
    for name, e in zip(names, m):
        if e == 1:
            factors.append(name)
        elif e > 1:
            factors.append(f"{name}^{e}")
    return "*".join(factors) if factors else "1"


def render_monomials(vectors: Sequence[Monomial], names: Sequence[str]) -> str:
    if not names:
        return ", ".join("1" for _ in vectors)
    head = "vars: " + ",".join(names) + ";"
    if not vectors:
        return head
    return head + " " + ", ".join(render_monomial(m, names) for m in vectors)


def render_ideal(ideal: NamedIdeal) -> str:
    return render_monomials(ideal.ideal.gens, ideal.ground)


# ---------------------------------------------------------------- digraphs


def parse_digraph(text: str) -> tuple[Digraph, tuple[str, ...]]:
    """Grammar: ``n=<k>[; points: a,b,c][; edges: a->b:e, b->c:g]``.

    A bare count is accepted for ``n=<k>``, and a count line followed by one
    edge per line works as well.
    """
    from .digraphs import Digraph, Edge

    text = text.strip()
    if ";" not in text and "\n" in text:
        head, *rest = [line.strip() for line in text.splitlines() if line.strip()]
        text = f"{head}; edges: {','.join(rest)}"
    n, parts = _count_head(text, r"(?:n\s*=\s*)?(\d+)")
    found = _sections(parts, ("points", "edges"), "point")
    word = _NAME.pattern
    edge = re.compile(rf"({word})\s*->\s*({word})(?:\s*:\s*({word}))?")
    raw = []
    for item in _items(found.get("edges", "")):
        m = edge.fullmatch(item)
        if not m:
            raise ParseError(f"expected src->dst:label, got {item!r}")
        raw.append(m.groups())
    points = found["points"] if "points" in found else default_vertex_names(n)
    index = {name: i for i, name in enumerate(points)}
    if len(points) != n or len(index) != n:
        raise ParseError(f"need {n} distinct vertex names")
    edges = tuple(
        Edge(_lookup(index, src, "vertex"), _lookup(index, dst, "vertex"), label or f"e{k}")
        for k, (src, dst, label) in enumerate(raw)
    )
    _index([e.label for e in edges], "edge label")
    return Digraph(n, edges), tuple(points)


def render_digraph(q: Digraph, names: Sequence[str] | None = None) -> str:
    names = _names(names, q.n)
    parts = [f"n={q.n}", "points: " + ",".join(names)]
    if q.edges:
        parts.append(
            "edges: " + ", ".join(f"{names[e.src]}->{names[e.dst]}:{e.label}" for e in q.edges)
        )
    return "; ".join(parts)


# ---------------------------------------------------------------- graphs


def parse_graph(text: str) -> SimpleGraph:
    """Grammar: ``[points: a,b,c;] edges: a-b, b-c`` or a bare edge list."""
    from .edgerings import SimpleGraph

    parts = [part for part in map(str.strip, text.split(";")) if part]
    if parts and ":" not in parts[0]:
        parts[0] = "edges:" + parts[0]
    found = _sections(parts, ("points", "edges"), "vertex")
    points = found.get("points")
    index = _index(points or (), "vertex")
    raw = []
    for item in _items(found.get("edges", "")):
        a, b = [_check_name(side, "vertex") for side in _split(item, "-")]
        if points is None:
            index.setdefault(a, len(index))
            index.setdefault(b, len(index))
        raw.append((a, _lookup(index, a, "vertex"), _lookup(index, b, "vertex")))
    edges = set()
    for a, i, j in raw:
        if i == j:
            raise ParseError(f"loop at vertex {a!r}")
        edges.add((min(i, j), max(i, j)))
    names = points if points is not None else list(index)
    return SimpleGraph(tuple(names), tuple(sorted(edges)))


def render_graph(g: SimpleGraph) -> str:
    head = "points: " + ",".join(g.vertices) + "; edges:"
    if not g.edges:
        return head
    return head + " " + ", ".join(f"{g.vertices[a]}-{g.vertices[b]}" for a, b in g.edges)


def parse_bipartite(text: str) -> BipartiteGraph:
    """Grammar: ``A: a,c | B: b,d | edges: a-b, c-d``."""
    from .edgerings import BipartiteGraph

    found = _sections(text.split("|"), ("A", "B", "edges"), "vertex")
    if "A" not in found or "B" not in found:
        raise ParseError("need both 'A:' and 'B:' sections")
    a_names, b_names = found["A"], found["B"]
    if set(a_names) & set(b_names):
        raise ParseError("sides A and B must not share names")
    a_index, b_index = _index(a_names, "vertex"), _index(b_names, "vertex")
    rows = [0] * len(a_names)
    for item in _items(found.get("edges", "")):
        left, right = _split(item, "-")
        if left in b_index and right in a_index:
            left, right = right, left
        if left not in a_index or right not in b_index:
            raise ParseError(f"edge {item!r} does not join side A to side B")
        rows[a_index[left]] |= 1 << b_index[right]
    return BipartiteGraph(tuple(a_names), tuple(b_names), tuple(rows))


def render_bipartite(g: BipartiteGraph) -> str:
    edges = [
        f"{g.a_names[i]}-{g.b_names[j]}"
        for i, row in enumerate(g.relation)
        for j in _bits(row)
    ]
    return (
        "A: " + ",".join(g.a_names) + " | B: " + ",".join(g.b_names) + " | edges:"
        + (" " + ", ".join(edges) if edges else "")
    )


# ---------------------------------------------------------------- matrices


def parse_matrix(text: str) -> RationalMatrix:
    """Rows split by ';', entries by ','; entries are integers or p/q."""
    from fractions import Fraction

    from .patterns import RationalMatrix

    rows = []
    for row_text in text.split(";"):
        row = []
        for entry in row_text.split(","):
            entry = entry.strip()
            try:
                row.append(Fraction(entry))
            except (ValueError, ZeroDivisionError):
                raise ParseError(f"bad rational literal {entry!r}")
        rows.append(tuple(row))
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ParseError("matrix must be square")
    return RationalMatrix(n, tuple(rows))


def render_matrix(g: RationalMatrix) -> str:
    return "; ".join(",".join(str(x) for x in row) for row in g.entries)


def parse_matrices(text: str) -> list[RationalMatrix]:
    return [parse_matrix(part) for part in text.split("|")]


# ---------------------------------------------------------------- topologies


def parse_topology(text: str) -> tuple[FiniteTopology, tuple[str, ...]]:
    """Grammar: ``points: a,b; opens: {}, {a}, {a,b}`` (axioms are checked)."""
    from .topology import validate

    found = _sections(text.split(";"), ("points", "opens"), "point")
    if "points" not in found or "opens" not in found:
        raise ParseError("need both 'points:' and 'opens:' sections")
    index = _index(found["points"], "point")
    masks = []
    for m in re.finditer(r"\{([^{}]*)\}|([^\s,{}]+)", found["opens"]):
        if m.group(2) is not None:
            raise ParseError(f"expected {{...}} set, got {m.group(2)!r}")
        mask = 0
        for token in _items(m.group(1)):
            mask |= 1 << _lookup(index, token, "point")
        masks.append(mask)
    return validate(masks, len(index)), tuple(index)


def render_topology(t: FiniteTopology, names: Sequence[str] | None = None) -> str:
    names = _names(names, t.n)
    opens = ", ".join("{" + ",".join(names[x] for x in _bits(mask)) + "}" for mask in t.opens)
    return "points: " + ",".join(names) + "; opens: " + opens


# ---------------------------------------------------------------- tuples


def parse_int_tuples(text: str) -> list[tuple[int, ...]]:
    """Semicolon-separated tuples of comma-separated naturals: ``1,2; 0,3``."""
    out = []
    for part in text.split(";"):
        part = part.strip()
        if not part:
            continue
        try:
            out.append(tuple(int(tok) for tok in part.split(",")))
        except ValueError:
            raise ParseError(f"bad integer tuple {part!r}")
    return out


def render_int_tuples(tuples: Sequence[Sequence[int]]) -> str:
    return "; ".join(",".join(str(v) for v in t) for t in tuples)


# ---------------------------------------------------------------- diagrams


def render_hasse(p: Preorder, names: Sequence[str] | None = None) -> str:
    """Hasse diagram of the bubble quotient in DOT, greater elements above."""
    names = _names(names, p.n)
    dec = bubbles(p)
    labels = [",".join(names[x] for x in block) for block in dec.blocks]
    q = dec.quotient
    cols = _transpose(q.rows)
    covers = [(i, j) for i, j in q.strict_pairs() if q.rows[i] & cols[j] == 1 << i | 1 << j]
    lines = ["digraph hasse {", "  rankdir=BT;"]
    lines.extend(f'  "{label}";' for label in labels)
    lines.extend(f'  "{labels[i]}" -> "{labels[j]}";' for i, j in covers)
    lines.append("}")
    return "\n".join(lines)


def render_digraph_dot(q: Digraph, names: Sequence[str] | None = None) -> str:
    names = _names(names, q.n)
    lines = ["digraph g {"]
    lines.extend(f'  "{name}";' for name in names)
    lines.extend(
        f'  "{names[e.src]}" -> "{names[e.dst]}" [label="{e.label}"];' for e in q.edges
    )
    lines.append("}")
    return "\n".join(lines)


# ---------------------------------------------------------------- documents


def write_document(doc, out: TextIO) -> None:
    """Write the canonical JSON text of ``doc`` to ``out`` batch by batch."""
    from ._jsonwriter import write_json

    write_json(doc, out.write)


def document_text(doc) -> str:
    """Canonical JSON: sorted keys, two-space indent, trailing newline."""
    from ._jsonwriter import write_json

    batches: list[str] = []
    write_json(doc, batches.append)
    return "".join(batches)
