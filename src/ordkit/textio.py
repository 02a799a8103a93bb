"""Text grammars and serializers shared by the CLI.

Every domain value has a matching parse/render pair such that
``parse(render(x)) == x``.  Structured command output goes through
``write_document``, which streams canonical JSON that round-trips
byte-identically; ``document_text`` is the same text as one string.

Only the order core is imported up front.  Each parser imports the layer
module whose types it builds, and the JSON writer imports ``json``, so a
command loads only what it uses.
"""

from __future__ import annotations

import re
from itertools import islice
from typing import TYPE_CHECKING, Iterator, Sequence, TextIO

from .errors import OrdkitError
from .relations import Preorder, Relation, _bits, bubbles, check_point_count, closure

if TYPE_CHECKING:
    from .digraphs import Digraph
    from .edgerings import BipartiteGraph, NamedIdeal, SimpleGraph
    from .monomials import Monomial
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
    token = token.strip()
    if not _NAME.fullmatch(token):
        raise ParseError(f"bad {what} name {token!r}")
    return token


def _split_sections(text: str) -> list[str]:
    return [part.strip() for part in text.split(";")]


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
    if n <= 26:
        return tuple(chr(ord("a") + i) for i in range(n))
    return tuple(f"p{i}" for i in range(n))


def parse_preorder(text: str, close: bool = True) -> tuple[Preorder, tuple[str, ...]]:
    """Grammar: ``n=<k>[; points: a,b,c][; pairs: a<=b, c<=d]``.

    With ``close`` the listed pairs are closed reflexively and transitively;
    without it the listed relation must already be a preorder on the nose.
    """
    sections = _split_sections(text)
    head = sections[0]
    m = re.fullmatch(r"n\s*=\s*(\d+)", head)
    if not m:
        raise ParseError(f"expected n=<count> first, got {head!r}")
    n = int(m.group(1))
    points: list[str] | None = None
    pair_text = ""
    for part in sections[1:]:
        if not part:
            continue
        if part.startswith("points:"):
            points = [_check_name(t, "point") for t in part[len("points:") :].split(",") if t.strip()]
        elif part.startswith("pairs:"):
            pair_text = part[len("pairs:") :]
        else:
            raise ParseError(f"unknown section {part!r}")
    raw_pairs: list[tuple[str, str]] = []
    for item in pair_text.split(","):
        item = item.strip()
        if not item:
            continue
        if "<=" not in item:
            raise ParseError(f"expected a<=b, got {item!r}")
        left, right = item.split("<=", 1)
        raw_pairs.append((_check_name(left, "point"), _check_name(right, "point")))
    if points is None:
        points = list(default_point_names(n))
    if len(points) != n:
        raise ParseError(f"{len(points)} point names for n={n}")
    if len(set(points)) != n:
        raise ParseError("duplicate point names")
    index = {name: i for i, name in enumerate(points)}
    pairs = []
    for left, right in raw_pairs:
        if left not in index or right not in index:
            missing = left if left not in index else right
            raise ParseError(f"unknown point name {missing!r}")
        pairs.append((index[left], index[right]))
    if close:
        return closure(Relation.from_pairs(n, pairs)), tuple(points)
    listed = Relation.from_pairs(n, pairs)
    closed = closure(listed)
    for x in range(n):
        gap = closed.rows[x] & ~listed.rows[x]
        if gap:
            y = next(_bits(gap))
            raise OrdkitError(
                "cli-io",
                "parse_preorder",
                f"relation is not reflexive-transitive: missing pair {points[x]}<={points[y]}",
            )
    return Preorder(listed), tuple(points)


def render_preorder(p: Preorder, names: Sequence[str] | None = None) -> str:
    names = tuple(names) if names is not None else tuple(f"p{i}" for i in range(p.n))
    parts = [f"n={p.n}", "points: " + ",".join(names)]
    strict = p.strict_pairs()
    if strict:
        parts.append("pairs: " + ", ".join(f"{names[x]}<={names[y]}" for x, y in strict))
    return "; ".join(parts)


# ---------------------------------------------------------------- monomials


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
    sections = _split_sections(text)
    m = re.fullmatch(r"(?:n\s*=\s*)?(\d+)", sections[0])
    if not m:
        raise ParseError(f"expected n=<count> first, got {sections[0]!r}")
    n = int(m.group(1))
    points: list[str] | None = None
    edge_text = ""
    for part in sections[1:]:
        if not part:
            continue
        if part.startswith("points:"):
            points = [_check_name(t, "point") for t in part[len("points:") :].split(",") if t.strip()]
        elif part.startswith("edges:"):
            edge_text = part[len("edges:") :]
        else:
            raise ParseError(f"unknown section {part!r}")
    name_re = _NAME.pattern
    raw: list[tuple[str, str, str | None]] = []
    for item in edge_text.split(","):
        item = item.strip()
        if not item:
            continue
        m = re.fullmatch(rf"({name_re})\s*->\s*({name_re})(?:\s*:\s*({name_re}))?", item)
        if not m:
            raise ParseError(f"expected src->dst:label, got {item!r}")
        raw.append((m.group(1), m.group(2), m.group(3)))
    if points is None:
        points = list(default_vertex_names(n))
    if len(points) != n or len(set(points)) != n:
        raise ParseError(f"need {n} distinct vertex names")
    index = {name: i for i, name in enumerate(points)}
    edges = []
    for k, (src, dst, label) in enumerate(raw):
        if src not in index or dst not in index:
            missing = src if src not in index else dst
            raise ParseError(f"unknown vertex name {missing!r}")
        edges.append(Edge(index[src], index[dst], label if label is not None else f"e{k}"))
    return Digraph(n, tuple(edges)), tuple(points)


def render_digraph(q: Digraph, names: Sequence[str] | None = None) -> str:
    names = tuple(names) if names is not None else tuple(f"p{i}" for i in range(q.n))
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

    sections = _split_sections(text)
    points: list[str] | None = None
    edge_text = None
    for part in sections:
        if not part:
            continue
        if part.startswith("points:"):
            points = [_check_name(t, "vertex") for t in part[len("points:") :].split(",") if t.strip()]
        elif part.startswith("edges:"):
            edge_text = part[len("edges:") :]
        elif edge_text is None and points is None and ":" not in part:
            edge_text = part
        else:
            raise ParseError(f"unknown section {part!r}")
    names: list[str] = list(points) if points is not None else []
    raw = []
    for item in (edge_text or "").split(","):
        item = item.strip()
        if not item:
            continue
        if "-" not in item:
            raise ParseError(f"expected a-b, got {item!r}")
        a, b = item.split("-", 1)
        a, b = _check_name(a, "vertex"), _check_name(b, "vertex")
        for name in (a, b):
            if points is not None and name not in names:
                raise ParseError(f"unknown vertex name {name!r}")
            if name not in names:
                names.append(name)
        raw.append((a, b))
    index = {name: i for i, name in enumerate(names)}
    edges = set()
    for a, b in raw:
        i, j = index[a], index[b]
        if i == j:
            raise ParseError(f"loop at vertex {a!r}")
        edges.add((min(i, j), max(i, j)))
    return SimpleGraph(tuple(names), tuple(sorted(edges)))


def render_graph(g: SimpleGraph) -> str:
    head = "points: " + ",".join(g.vertices) + "; edges:"
    if not g.edges:
        return head
    return head + " " + ", ".join(f"{g.vertices[a]}-{g.vertices[b]}" for a, b in g.edges)


def parse_bipartite(text: str) -> BipartiteGraph:
    """Grammar: ``A: a,c | B: b,d | edges: a-b, c-d``."""
    from .edgerings import BipartiteGraph

    parts = [part.strip() for part in text.split("|")]
    a_names: list[str] | None = None
    b_names: list[str] | None = None
    edge_text = ""
    for part in parts:
        if part.startswith("A:"):
            a_names = [_check_name(t, "vertex") for t in part[2:].split(",") if t.strip()]
        elif part.startswith("B:"):
            b_names = [_check_name(t, "vertex") for t in part[2:].split(",") if t.strip()]
        elif part.startswith("edges:"):
            edge_text = part[len("edges:") :]
        elif part:
            raise ParseError(f"unknown section {part!r}")
    if a_names is None or b_names is None:
        raise ParseError("need both 'A:' and 'B:' sections")
    if set(a_names) & set(b_names):
        raise ParseError("sides A and B must not share names")
    a_index = {name: i for i, name in enumerate(a_names)}
    b_index = {name: j for j, name in enumerate(b_names)}
    rows = [0] * len(a_names)
    for item in edge_text.split(","):
        item = item.strip()
        if not item:
            continue
        if "-" not in item:
            raise ParseError(f"expected a-b, got {item!r}")
        left, right = (t.strip() for t in item.split("-", 1))
        if left in b_index and right in a_index:
            left, right = right, left
        if left not in a_index or right not in b_index:
            raise ParseError(f"edge {item!r} does not join side A to side B")
        rows[a_index[left]] |= 1 << b_index[right]
    return BipartiteGraph(tuple(a_names), tuple(b_names), tuple(rows))


def render_bipartite(g: BipartiteGraph) -> str:
    edges = [
        f"{g.a_names[i]}-{g.b_names[j]}"
        for i in range(len(g.a_names))
        for j in _bits(g.relation[i])
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

    sections = _split_sections(text)
    points: list[str] | None = None
    opens_text = None
    for part in sections:
        if not part:
            continue
        if part.startswith("points:"):
            points = [_check_name(t, "point") for t in part[len("points:") :].split(",") if t.strip()]
        elif part.startswith("opens:"):
            opens_text = part[len("opens:") :]
        else:
            raise ParseError(f"unknown section {part!r}")
    if points is None or opens_text is None:
        raise ParseError("need both 'points:' and 'opens:' sections")
    if len(set(points)) != len(points):
        raise ParseError("duplicate point names")
    index = {name: i for i, name in enumerate(points)}
    masks = []
    for m in re.finditer(r"\{([^{}]*)\}|([^\s,{}]+)", opens_text):
        if m.group(2) is not None:
            raise ParseError(f"expected {{...}} set, got {m.group(2)!r}")
        mask = 0
        for token in m.group(1).split(","):
            token = token.strip()
            if not token:
                continue
            if token not in index:
                raise ParseError(f"unknown point name {token!r}")
            mask |= 1 << index[token]
        masks.append(mask)
    return validate(masks, len(points)), tuple(points)


def render_topology(t: FiniteTopology, names: Sequence[str] | None = None) -> str:
    names = tuple(names) if names is not None else tuple(f"p{i}" for i in range(t.n))
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
    names = tuple(names) if names is not None else tuple(f"p{i}" for i in range(p.n))
    dec = bubbles(p)
    labels = [",".join(names[x] for x in block) for block in dec.blocks]
    q = dec.quotient
    covers = []
    for i, j in q.strict_pairs():
        if not any(k != i and k != j and q.le(i, k) and q.le(k, j) for k in range(q.n)):
            covers.append((i, j))
    lines = ["digraph hasse {", "  rankdir=BT;"]
    lines.extend(f'  "{label}";' for label in labels)
    lines.extend(f'  "{labels[i]}" -> "{labels[j]}";' for i, j in sorted(covers))
    lines.append("}")
    return "\n".join(lines)


def render_digraph_dot(q: Digraph, names: Sequence[str] | None = None) -> str:
    names = tuple(names) if names is not None else tuple(f"p{i}" for i in range(q.n))
    lines = ["digraph g {"]
    lines.extend(f'  "{name}";' for name in names)
    lines.extend(
        f'  "{names[e.src]}" -> "{names[e.dst]}" [label="{e.label}"];' for e in q.edges
    )
    lines.append("}")
    return "\n".join(lines)


# ---------------------------------------------------------------- documents


_CHUNKS_PER_WRITE = 8192


def _document_batches(doc) -> Iterator[str]:
    """Canonical JSON (sorted keys, two-space indent, trailing newline) in pieces.

    The indenting encoder yields many tiny chunks; joining a few thousand at
    a time keeps memory at one batch instead of the whole text, and costs no
    more time than joining them all at once.
    """
    from json import JSONEncoder

    chunks = JSONEncoder(indent=2, sort_keys=True).iterencode(doc)
    while batch := list(islice(chunks, _CHUNKS_PER_WRITE)):
        yield "".join(batch)
    yield "\n"


def write_document(doc, out: TextIO) -> None:
    """Write the canonical JSON text of ``doc`` to ``out`` batch by batch."""
    for batch in _document_batches(doc):
        out.write(batch)


def document_text(doc) -> str:
    """Canonical JSON: sorted keys, two-space indent, trailing newline."""
    return "".join(_document_batches(doc))


def parse_document(text: str):
    from json import loads

    return loads(text)
