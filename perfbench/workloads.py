"""Seeded request lists for the benchmark workloads.

A workload is a function of a ``random.Random`` that returns the requests of
one pass, in order.  The same seed gives the same list.  ``ordkit`` receives
only the generated text, through ``--input``, ``--file``, ``--gens`` and the
other value options; nothing is read from the repository.

The heavy requests are drawn by rejection sampling on a count the generator
can work out cheaply (monotone maps, paths, up-sets, standard monomials,
perfect matchings, closure pairs).  The structure of every input changes
with the seed, but the work each request asks for stays inside a fixed
window, so one pass costs about the same on every seed.

Inputs that hung the CLI when this benchmark was written are left out,
because no run could finish them: a huge ``n=`` header
(``default_point_names`` builds the name tuple before the 16-point check)
and ``graph dim`` on ``x^100000``-sized boxes.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

WORK_DIR = "perfbench/.work"
"""Directory, relative to the checkout root, that holds ``--file`` inputs."""

LETTERS = "abcdefghijklmnopqrstuvwxyz"


@dataclass(frozen=True)
class Request:
    """One ``ordkit`` invocation and what its result must satisfy."""

    argv: tuple[str, ...]
    expect: int
    """Exit code the CLI contract promises: 0, 1 (one ``ERR`` line) or 2."""
    check: str | None = None
    """Name of an independent output check in ``checks.py``."""
    data: tuple = ()
    """What that check needs, built from the generator's own model."""
    files: tuple[tuple[str, str], ...] = ()
    """``(path, text)`` pairs written before a pass; paths are checkout-relative."""


# ---------------------------------------------------------------- models


def names(rng: random.Random, n: int) -> tuple[str, ...]:
    """``n`` distinct point names in random order."""
    if n <= len(LETTERS):
        return tuple(rng.sample(LETTERS, n))
    return tuple(f"p{i}" for i in rng.sample(range(n), n))


def poset_pairs(rng: random.Random, n: int, density: float) -> list[tuple[int, int]]:
    """Random strict pairs along a random linear order, so the closure is a partial order."""
    rank = rng.sample(range(n), n)
    pairs = [
        (rank[i], rank[j]) for i in range(n) for j in range(i + 1, n) if rng.random() < density
    ]
    rng.shuffle(pairs)
    return pairs


def preorder_pairs(rng: random.Random, n: int, density: float) -> list[tuple[int, int]]:
    """Random pairs in both directions; the closure may merge points."""
    pairs = [(x, y) for x in range(n) for y in range(n) if x != y and rng.random() < density]
    rng.shuffle(pairs)
    return pairs


def closure_rows(n: int, pairs) -> list[int]:
    """Reflexive-transitive closure as bit rows: bit y of row x when x <= y."""
    rows = [1 << x for x in range(n)]
    for x, y in pairs:
        rows[x] |= 1 << y
    for k in range(n):
        for x in range(n):
            if rows[x] >> k & 1:
                rows[x] |= rows[k]
    return rows


def preorder_text(nm, pairs) -> str:
    text = f"n={len(nm)}; points: {','.join(nm)}; pairs: "
    return text + ", ".join(f"{nm[x]}<={nm[y]}" for x, y in pairs)


def closed_pairs(rows) -> list[tuple[int, int]]:
    """Every pair of the relation, reflexive ones included, as ``--no-close`` wants."""
    return [(x, y) for x in range(len(rows)) for y in range(len(rows)) if rows[x] >> y & 1]


def up_set_masks(rows) -> list[int]:
    n = len(rows)
    return [
        m for m in range(1 << n) if all(rows[x] & ~m == 0 for x in range(n) if m >> x & 1)
    ]


def count_up_sets(rows) -> int:
    """Up-set count by splitting on a point, memoised on the remaining set."""
    n = len(rows)
    down = [sum(1 << y for y in range(n) if rows[y] >> x & 1) for x in range(n)]
    memo: dict[int, int] = {}

    def count(free: int) -> int:
        if free == 0:
            return 1
        if free in memo:
            return memo[free]
        x = (free & -free).bit_length() - 1
        # x in the up-set forces everything above it; x out forbids everything below it.
        total = count(free & ~rows[x]) + count(free & ~down[x])
        memo[free] = total
        return total

    return count((1 << n) - 1)


def count_monotone(p_rows, q_rows) -> int:
    """Order preserving maps between two preorders given as closed bit rows."""
    n, m = len(p_rows), len(q_rows)
    values = [0] * n

    def go(x: int) -> int:
        if x == n:
            return 1
        total = 0
        for v in range(m):
            if all(
                (not p_rows[x] >> y & 1 or q_rows[v] >> values[y] & 1)
                and (not p_rows[y] >> x & 1 or q_rows[values[y]] >> v & 1)
                for y in range(x)
            ):
                values[x] = v
                total += go(x + 1)
        return total

    return go(0)


def chain_rows(n: int) -> list[int]:
    full = (1 << n) - 1
    return [(full >> x) << x for x in range(n)]


def dag_edges(rng: random.Random, n: int, density: float) -> list[tuple[int, int]]:
    rank = rng.sample(range(n), n)
    edges = [
        (rank[i], rank[j]) for i in range(n) for j in range(i + 1, n) if rng.random() < density
    ]
    rng.shuffle(edges)
    return edges


def count_paths(n: int, edges, limit: int | None = None) -> int:
    """Paths of a DAG with at most ``limit`` edges (all when None), empty ones included."""
    out: dict[int, list[int]] = {v: [] for v in range(n)}
    for a, b in edges:
        out[a].append(b)
    limit = n if limit is None else limit
    memo: dict[tuple[int, int], int] = {}

    def from_(v: int, left: int) -> int:
        if (v, left) not in memo:
            memo[v, left] = 1 + (sum(from_(w, left - 1) for w in out[v]) if left else 0)
        return memo[v, left]

    return sum(from_(v, limit) for v in range(n))


def pair_path_counts(n: int, edges) -> list[list[int]]:
    """``counts[u][v]``: paths from u to v in a DAG, the empty one when u == v."""
    out: dict[int, list[int]] = {v: [] for v in range(n)}
    for a, b in edges:
        out[a].append(b)
    counts: list[list[int] | None] = [None] * n

    def row(u: int) -> list[int]:
        if counts[u] is None:
            r = [0] * n
            r[u] = 1
            for w in out[u]:
                for v, c in enumerate(row(w)):
                    r[v] += c
            counts[u] = r
        return counts[u]

    return [row(u) for u in range(n)]


def digraph_text(nm, edges, labelled: bool = True) -> str:
    text = f"n={len(nm)}; points: {','.join(nm)}; edges: "
    if labelled:
        return text + ", ".join(f"{nm[a]}->{nm[b]}:e{k}" for k, (a, b) in enumerate(edges))
    return text + ", ".join(f"{nm[a]}->{nm[b]}" for a, b in edges)


def monomial_text(vec, nm) -> str:
    parts = [nm[i] if e == 1 else f"{nm[i]}^{e}" for i, e in enumerate(vec) if e]
    return "*".join(parts) if parts else "1"


def gens_text(gens, nm) -> str:
    return ", ".join(monomial_text(g, nm) for g in gens)


def minimal_monomials(gens) -> list[tuple[int, ...]]:
    pool = sorted(set(gens))
    return [
        g for g in pool
        if not any(h != g and all(a <= b for a, b in zip(h, g)) for h in pool)
    ]


def borel_closure(gens, nvars: int) -> list[tuple[int, ...]]:
    """Close a monomial set under moving one exponent unit to a smaller-index variable."""
    seen = set(gens)
    todo = list(seen)
    while todo:
        g = todo.pop()
        for j in range(nvars):
            if g[j] == 0:
                continue
            for i in range(j):
                h = list(g)
                h[j] -= 1
                h[i] += 1
                h = tuple(h)
                if h not in seen:
                    seen.add(h)
                    todo.append(h)
    return minimal_monomials(seen)


def standard_monomials_3(gens) -> int:
    """Monomials in three variables outside the ideal; every variable needs a pure power."""
    bound = [min(g[v] for g in gens if g[v] and not any(g[i] for i in range(3) if i != v))
             for v in range(3)]
    total = 0
    for a in range(bound[0]):
        for b in range(bound[1]):
            total += min([bound[2]] + [g[2] for g in gens if g[0] <= a and g[1] <= b])
    return total


def count_perfect_matchings(rows, n: int) -> int:
    memo: dict[tuple[int, int], int] = {}

    def go(i: int, used: int) -> int:
        if i == n:
            return 1
        key = (i, used)
        if key not in memo:
            free = rows[i] & ~used
            memo[key] = sum(go(i + 1, used | 1 << j) for j in range(n) if free >> j & 1)
        return memo[key]

    return go(0, 0)


def invertible_matrix(rng: random.Random, n: int, density: float, lo: int = -3, hi: int = 3) -> list[list[int]]:
    """A triangular matrix in a random basis order with a nonzero diagonal."""
    rank = rng.sample(range(n), n)
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        rows[rank[i]][rank[i]] = rng.choice([v for v in range(lo, hi + 1) if v])
        for j in range(i + 1, n):
            if rng.random() < density:
                rows[rank[i]][rank[j]] = rng.randint(lo, hi)
    return rows


def matrix_text(rows) -> str:
    return ";".join(",".join(str(v) for v in row) for row in rows)


def sample_until(rng: random.Random, make, measure, lo: int, hi: int, tries: int = 10_000):
    """Draw ``make(rng)`` until ``measure`` of it lies in ``[lo, hi]``."""
    for _ in range(tries):
        item = make(rng)
        if lo <= measure(item) <= hi:
            return item
    raise RuntimeError(f"no sample with size in [{lo}, {hi}] after {tries} draws")


def file_input(index: int, text: str) -> tuple[str, tuple[tuple[str, str], ...]]:
    path = f"{WORK_DIR}/in-{index:03d}.txt"
    return path, ((path, text),)


# ---------------------------------------------------------------- cli-small


def _small_poset(rng, lo=2, hi=6, density=0.35):
    n = rng.randint(lo, hi)
    return n, names(rng, n), poset_pairs(rng, n, density)


def _small_preorder(rng, lo=2, hi=6):
    n = rng.randint(lo, hi)
    return n, names(rng, n), preorder_pairs(rng, n, 0.2)


def _topology_text(nm, rows) -> str:
    opens = up_set_masks(rows)
    sets = ["{" + ",".join(nm[x] for x in range(len(nm)) if m >> x & 1) + "}" for m in opens]
    return f"points: {','.join(nm)}; opens: {', '.join(sets)}"


def _small_dag(rng, lo=3, hi=8, density=0.35):
    n = rng.randint(lo, hi)
    return n, names(rng, n), dag_edges(rng, n, density)


def _small_ideal(rng, nvars_lo=2, nvars_hi=4, gens_hi=5, exp_hi=3):
    k = rng.randint(nvars_lo, nvars_hi)
    nm = names(rng, k)
    gens = [
        tuple(rng.randint(0, exp_hi) for _ in range(k)) for _ in range(rng.randint(1, gens_hi))
    ]
    gens = [g for g in gens if any(g)] or [tuple(1 if i == 0 else 0 for i in range(k))]
    return nm, gens


def _small_requests(rng: random.Random, index: int) -> list[Request]:
    """One valid request of each kind; every kind exits 0."""
    out: list[Request] = []

    def add(*argv, check=None, data=(), files=()):
        out.append(Request(tuple(argv), 0, check, data, files))

    n, nm, pairs = _small_preorder(rng)
    add("preorder", "classify", "--input", preorder_text(nm, pairs))
    n, nm, pairs = _small_preorder(rng)
    path, files = file_input(index, preorder_text(nm, pairs))
    add("preorder", "classify", "--file", path, files=files)
    n, nm, pairs = _small_poset(rng)
    rows = closure_rows(n, pairs)
    add("preorder", "classify", "--no-close", "--input", preorder_text(nm, closed_pairs(rows)))
    n, nm, pairs = _small_preorder(rng)
    add("preorder", "canon", "--input", preorder_text(nm, pairs))
    n, nm, pairs = _small_preorder(rng)
    add("preorder", "bubbles", "--input", preorder_text(nm, pairs))
    n, nm, pairs = _small_poset(rng)
    add("preorder", "upsets", "--input", preorder_text(nm, pairs),
        check="upsets", data=(nm, tuple(closure_rows(n, pairs))))
    n, nm, pairs = _small_preorder(rng)
    add("preorder", "hasse", "--input", preorder_text(nm, pairs))
    k = rng.randint(1, 3)
    add("preorder", "enumerate", "--n", str(k), "--count",
        check="count", data=({1: 1, 2: 4, 3: 29}[k],))
    add("preorder", "enumerate", "--n", str(rng.randint(1, 3)))

    n, nm, pairs = _small_preorder(rng, 2, 5)
    add("topology", "validate", "--input", _topology_text(nm, closure_rows(n, pairs)))
    n, nm, pairs = _small_preorder(rng)
    add("topology", "from-preorder", "--input", preorder_text(nm, pairs))
    n, nm, pairs = _small_preorder(rng, 2, 5)
    path, files = file_input(index + 1, _topology_text(nm, closure_rows(n, pairs)))
    add("topology", "to-preorder", "--file", path, files=files)
    k = rng.randint(1, 3)
    add("topology", "enumerate", "--n", str(k), "--count",
        check="count", data=({1: 1, 2: 4, 3: 29}[k],))
    n, nm, pairs = _small_preorder(rng, 2, 5)
    add("topology", "t0", "--input", _topology_text(nm, closure_rows(n, pairs)))

    n, nm, edges = _small_dag(rng)
    add("digraph", "paths", "--input", digraph_text(nm, edges), "--max-length", str(rng.randint(1, 3)))
    n, nm, edges = _small_dag(rng)
    add("digraph", "paths", "--input", digraph_text(nm, edges, rng.random() < 0.5), "--complete")
    n, nm, edges = _small_dag(rng)
    source, target = rng.sample(nm, 2)
    add("digraph", "homs", "--input", digraph_text(nm, edges), "--source", source, "--target", target)
    n, nm, edges = _small_dag(rng)
    add("digraph", "preorder", "--input", digraph_text(nm, edges))
    n, nm, edges = _small_dag(rng)
    add("digraph", "render", "--input", digraph_text(nm, edges), "--format", rng.choice(["dot", "text"]))

    nm, gens = _small_ideal(rng)
    add("ideal", "preorder", "--gens", gens_text(gens, nm))
    nm, gens = _small_ideal(rng)
    order = list(nm)
    rng.shuffle(order)
    add("ideal", "strongly-stable", "--gens", f"vars: {','.join(nm)}; " + gens_text(gens, nm),
        "--order", ",".join(order))
    nm, gens = _small_ideal(rng)
    add("ideal", "most-degenerate", "--gens", gens_text(gens, nm))
    nm, gens = _small_ideal(rng)
    add("ideal", "stabilizer", "--gens", gens_text(gens, nm),
        check="stabilizer", data=(nm, tuple(minimal_monomials(gens))))
    nm, gens = _small_ideal(rng, 2, 3, 3, 2)
    # The vars header fixes the variable order that strong stability is read in.
    add("ideal", "to-upset", "--gens",
        f"vars: {','.join(nm)}; " + gens_text(borel_closure(gens, len(nm)), nm))
    k = rng.randint(2, 3)
    chains = []
    for _ in range(rng.randint(1, 3)):
        vec = sorted(rng.randint(0, 3) for _ in range(k))
        chains.append(",".join(map(str, vec)))
    add("ideal", "from-upset", "--chains", "; ".join(chains), "--nvars", str(k))

    n, nm, pairs = _small_preorder(rng, 2, 5)
    add("pattern", "from-preorder", "--input", preorder_text(nm, pairs))
    k = rng.randint(2, 4)
    rows = ["".join("1" if i == j or rng.random() < 0.4 else "0" for j in range(k)) for i in range(k)]
    add("pattern", "closed", "--rows", ",".join(rows))
    n, nm, pairs = _small_preorder(rng, 2, 4)
    add("pattern", "membership", "--input", preorder_text(nm, pairs),
        "--matrix=" + matrix_text(invertible_matrix(rng, n, 0.4)))
    k = rng.randint(2, 4)
    mats = " | ".join(matrix_text(invertible_matrix(rng, k, 0.3)) for _ in range(rng.randint(1, 3)))
    add("pattern", "invariant", "--matrices=" + mats)
    k = rng.randint(2, 4)
    mats = " | ".join(matrix_text(invertible_matrix(rng, k, 0.3)) for _ in range(rng.randint(1, 3)))
    add("pattern", "pre", "--matrices=" + mats, "--points", ",".join(names(rng, k)))

    k = rng.randint(3, 6)
    nm = names(rng, k)
    edges = [f"{nm[a]}-{nm[b]}" for a, b in itertools.combinations(range(k), 2) if rng.random() < 0.4]
    add("graph", "edge-ideal", "--edges", ", ".join(edges or [f"{nm[0]}-{nm[1]}"]))
    n, _, pairs = _small_poset(rng, 2, 4)
    rows = closure_rows(n, pairs)
    side = names(rng, 2 * n)
    a_side, b_side = side[:n], side[n:]
    edges = [f"{a_side[i]}-{b_side[j]}" for i in range(n) for j in range(n) if rows[i] >> j & 1]
    add("graph", "cm-bipartite", "--edges", ",".join(edges), "--parts", f"{','.join(a_side)}|{','.join(b_side)}")
    add("graph", "linres", "--input",
        f"A: {','.join(a_side)} | B: {','.join(b_side)} | edges: {', '.join(edges)}")
    k = rng.randint(2, 3)
    nm = names(rng, k)
    gens = [tuple(rng.randint(2, 5) if i == v else 0 for i in range(k)) for v in range(k)]
    gens += [tuple(rng.randint(0, 2) for _ in range(k)) for _ in range(2)]
    gens = [g for g in gens if any(g)]
    add("graph", "dim", "--gens", gens_text(gens, nm))
    n, nm, pairs = _small_poset(rng, 2, 6)
    add("graph", "dim", "--poset", preorder_text(nm, pairs))
    n, nm, pairs = _small_poset(rng, 1, 3)
    m, nm2, pairs2 = _small_poset(rng, 1, 3)
    add("graph", "letterplace", "--p", preorder_text(nm, pairs), "--q", preorder_text(nm2, pairs2))
    n, nm, pairs = _small_poset(rng, 1, 3)
    add("graph", "co-letterplace", "--poset", preorder_text(nm, pairs), "--depth",
        str(rng.randint(1, 2)), "--full-hom")
    k = rng.randint(3, 6)
    nm = names(rng, k)
    supports = {tuple(sorted(rng.sample(range(k), rng.randint(1, 3)))) for _ in range(rng.randint(1, 4))}
    gens = [tuple(1 if i in s else 0 for i in range(k)) for s in sorted(supports)]
    add("graph", "dual", "--gens", gens_text(gens, nm),
        check="dual", data=(nm, tuple(minimal_monomials(gens))))

    d = rng.randint(2, 12)
    left, right = rng.choice([("ceil-half", "double"), ("id", "id"), ("double", "floor-half"),
                              ("floor-half", "double")])
    add("galois", "check", "--truncation", str(d), "--left", left, "--right", right)
    return out


def _malformed_requests(rng: random.Random, index: int) -> list[Request]:
    """Requests the CLI must refuse: exit 2 for usage or grammar, 1 for a domain error.

    The two missing ``--file`` requests expect exit 2 with one stderr line.  At
    the commit this benchmark was written for they print a traceback instead,
    and the checker counts them as failed.
    """
    n, nm, _ = _small_poset(rng, 3, 5)
    a, b = nm[0], nm[1]
    cyc = tuple(LETTERS[:3])
    return [
        Request(("preorder", "classify", "--input", f"n={n}; points: {','.join(nm)}; pairs: {a}<{b}"), 2),
        Request(("preorder", "classify", "--no-close", "--input",
                 f"n=3; points: {','.join(nm[:3])}; pairs: {nm[0]}<={nm[1]}, {nm[1]}<={nm[2]}"), 1),
        Request(("preorder", "enumerate", "--n", str(rng.randint(6, 9))), 1),
        Request(("ideal", "preorder", "--gens", f"{a}^0*{b}"), 2),
        Request(("graph", "dim", "--gens", f"{a}*{b}, {a}^{rng.randint(2, 4)}"), 1),
        Request(("preorder", rng.choice(["frobnicate", "sort", "close"])), 2),
        Request(("preorder", "classify", "--file", f"{WORK_DIR}/absent-{index:03d}.txt"), 2),
        Request(("topology", "validate", "--input", f"points: {a},{b}; opens: {{}}, {{{a}}}, {{{b}}}"), 1),
        Request(("digraph", "paths", "--complete", "--input",
                 f"n=3; edges: {cyc[0]}->{cyc[1]}, {cyc[1]}->{cyc[2]}, {cyc[2]}->{cyc[0]}"), 1),
        Request(("pattern", "membership", "--input", "n=2; pairs: v<=w", "--matrix", "1,2;2,4"), 1),
        Request(("digraph", "paths", "--input", f"n=2; edges: a->b"), 2),
        Request(("preorder", "canon", "--file", f"{WORK_DIR}/absent-{index + 1:03d}.txt"), 2),
    ]


CLI_SMALL_REQUESTS = 100
"""Enough for ten samples above the 90th percentile of one pass."""


def cli_small(rng: random.Random) -> list[Request]:
    """Rounds of one request per subcommand kind, one selftest, and a malformed request
    after every seventh valid one, 100 requests in all."""
    valid = [Request(("selftest", "--seed", str(rng.randint(0, 10_000))), 0)]
    for round_ in range(3):
        valid.extend(_small_requests(rng, 10 * round_))
    bad = _malformed_requests(rng, 90)
    valid = valid[: CLI_SMALL_REQUESTS - len(bad)]
    out: list[Request] = []
    for i, req in enumerate(valid):
        out.append(req)
        if i % 7 == 6 and bad:
            out.append(bad.pop(0))
    out.extend(bad)
    assert len(out) == CLI_SMALL_REQUESTS
    return out


# ---------------------------------------------------------------- order-search


def _canon_pair(rng: random.Random, n: int) -> tuple[str, str]:
    """A preorder and a random relabeling of it, over the same point names.

    The closure has between 2n and 2n + 3 pairs, since ``canonical_form``
    relabels every pair under each of the n! permutations."""
    nm = names(rng, n)
    pairs = sample_until(rng, lambda r: preorder_pairs(r, n, 0.12),
                         lambda ps: sum(map(int.bit_count, closure_rows(n, ps))), 2 * n, 2 * n + 3)
    perm = rng.sample(range(n), n)
    moved = [(perm[x], perm[y]) for x, y in pairs]
    rng.shuffle(moved)
    return preorder_text(nm, pairs), preorder_text(nm, moved)


def order_search(rng: random.Random) -> list[Request]:
    out = [
        Request(("preorder", "enumerate", "--n", "5", "--count"), 0, "count", (6942,)),
        Request(("topology", "enumerate", "--n", "4", "--count"), 0, "count", (355,)),
    ]
    for pair_id, n in enumerate((8, 7, 7)):
        first, second = _canon_pair(rng, n)
        path, files = file_input(pair_id, second)
        out.append(Request(("preorder", "canon", "--input", first), 0, "canon", (pair_id,)))
        out.append(Request(("preorder", "canon", "--file", path), 0, "canon", (pair_id,), files))

    nm = names(rng, 8)
    gens = _symmetric_gens(rng, 8)
    out.append(Request(("ideal", "stabilizer", "--gens", gens_text(gens, nm)), 0, "stabilizer",
                       (nm, tuple(minimal_monomials(gens)))))

    def lp_pair(r):
        n, m = 5, 4
        return (n, names(r, n), poset_pairs(r, n, 0.3)), (m, names(r, m), poset_pairs(r, m, 0.5))

    def lp_size(pq):
        (n, _, p), (m, _, q) = pq
        return count_monotone(closure_rows(n, p), closure_rows(m, q))

    (n, pn, pp), (m, qn, qp) = sample_until(rng, lp_pair, lp_size, 250, 320)
    out.append(Request(("graph", "letterplace", "--p", preorder_text(pn, pp), "--q",
                        preorder_text(qn, qp)), 0))

    out.append(_co_letterplace(rng, 5, 4, 390, 415))

    def dense_dag(r):
        n = 20
        edges = dag_edges(r, n, 0.65)
        counts = pair_path_counts(n, edges)
        # Endpoints whose hom-set has 1000-1200 paths, so the output and its memory are steady.
        ends = [(u, v) for u in range(n) for v in range(n) if 1000 <= counts[u][v] <= 1200]
        return n, names(r, n), edges, ends, sum(map(sum, counts))

    for _ in range(2):
        n, nm, edges, ends, _total = sample_until(
            rng, dense_dag, lambda d: d[4] if d[3] else 0, 22000, 26000)
        u, v = rng.choice(ends)
        src, dst = nm[u], nm[v]
        out.append(Request(("digraph", "homs", "--input", digraph_text(nm, edges), "--source", src,
                            "--target", dst), 0))
    return out


def _co_letterplace(rng: random.Random, n: int, depth: int, lo: int, hi: int) -> Request:
    """``graph co-letterplace --full-hom`` on an n-point poset with lo..hi maps into the chain."""
    target = chain_rows(depth + 1)
    nm, pairs = sample_until(rng, lambda r: (names(r, n), poset_pairs(r, n, 0.3)),
                             lambda item: count_monotone(closure_rows(n, item[1]), target), lo, hi)
    return Request(("graph", "co-letterplace", "--poset", preorder_text(nm, pairs), "--depth",
                    str(depth), "--full-hom"), 0)


def _symmetric_gens(rng: random.Random, k: int) -> list[tuple[int, ...]]:
    """Generators invariant under a random block structure, so the stabilizer is large."""
    cut = sorted(rng.sample(range(1, k), 2))
    blocks = [range(0, cut[0]), range(cut[0], cut[1]), range(cut[1], k)]
    gens = []
    for block in blocks:
        for i in block:
            gens.append(tuple(len(block) if v == i else 0 for v in range(k)))
    return minimal_monomials(gens)


# ---------------------------------------------------------------- ideal-kernels


def _matching_ideal(rng: random.Random, edges: int, triples: int):
    """Disjoint edges plus triples across them: the hitting-set count, and so the
    work of ``graph dual``, hardly depends on where the triples fall."""
    k = 2 * edges
    nm = names(rng, k)
    supports = {(2 * i, 2 * i + 1) for i in range(edges)}
    while len(supports) < edges + triples:
        supports.add(tuple(sorted(2 * e + rng.randint(0, 1) for e in rng.sample(range(edges), 3))))
    gens = [tuple(1 if i in s else 0 for i in range(k)) for s in supports]
    return nm, minimal_monomials(gens)


def ideal_kernels(rng: random.Random) -> list[Request]:
    out: list[Request] = []
    for edges in (7, 8):
        nm, gens = _matching_ideal(rng, edges, 2)
        out.append(Request(("graph", "dual", "--gens", gens_text(gens, nm)), 0, "dual",
                           (nm, tuple(gens))))

    def artinian(r):
        gens = [tuple(power if i == v else 0 for i in range(3)) for v, power in enumerate((44, 50, 56))]
        return minimal_monomials(gens + [tuple(r.randint(20, 40) for _ in range(3)) for _ in range(8)])

    for _ in range(2):
        # The scan tests every generator on each standard monomial, so fix their number too.
        gens = sample_until(rng, artinian, standard_monomials_3, 104_000, 107_000)
        out.append(Request(("graph", "dim", "--gens", gens_text(gens, names(rng, 3))), 0))

    for n in (15, 16):
        nm = names(rng, n)
        out.append(Request(("graph", "dim", "--poset", preorder_text(nm, poset_pairs(rng, n, 0.15))), 0))

    def big_ideal(r):
        k = 6
        gens: set[tuple[int, ...]] = set()
        while len(gens) < 150:
            cuts = sorted(r.randint(0, 6) for _ in range(k - 1))
            gens.add(tuple(b - a for a, b in zip([0] + cuts, cuts + [6])))
        return names(r, k), sorted(gens)

    for op in ("preorder", "most-degenerate", "strongly-stable"):
        nm, gens = big_ideal(rng)
        out.append(Request(("ideal", op, "--gens", gens_text(gens, nm)), 0))
    k = 5
    nm = names(rng, k)
    ss = sample_until(rng, lambda r: borel_closure(
        [tuple(r.randint(0, 3) for _ in range(k)) for _ in range(4)], k), len, 50, 120)
    text = f"vars: {','.join(nm)}; " + gens_text(ss, nm)
    out.append(Request(("ideal", "strongly-stable", "--gens", text), 0))
    out.append(Request(("ideal", "to-upset", "--gens", text), 0))

    for size in (13, 15):
        for op in ("pre", "invariant"):
            mats = " | ".join(matrix_text(invertible_matrix(rng, size, 0.15)) for _ in range(3))
            out.append(Request(("pattern", op, "--matrices=" + mats), 0))
    for size in (10, 12):
        nm, pairs = names(rng, size), preorder_pairs(rng, size, 0.2)
        out.append(Request(("pattern", "membership", "--input", preorder_text(nm, pairs),
                            "--matrix=" + matrix_text(invertible_matrix(rng, size, 0.6, -9, 9))), 0))

    def bipartite(r):
        n = r.choice([9, 10])
        return n, [sum(1 << j for j in range(n) if r.random() < 0.45) for _ in range(n)]

    for _ in range(2):
        n, rows = sample_until(rng, bipartite, lambda g: count_perfect_matchings(g[1], g[0]),
                               2500, 3500)
        side = names(rng, 2 * n)
        a_side, b_side = side[:n], side[n:]
        edges = [f"{a_side[i]}-{b_side[j]}" for i in range(n) for j in range(n) if rows[i] >> j & 1]
        out.append(Request(("graph", "cm-bipartite", "--edges", ",".join(edges), "--parts",
                            f"{','.join(a_side)}|{','.join(b_side)}"), 0))
    return out


# ---------------------------------------------------------------- bulk-render


def bulk_render(rng: random.Random) -> list[Request]:
    out: list[Request] = []

    def ups(item):
        n, _, pairs = item
        return count_up_sets(closure_rows(n, pairs))

    for n in (15, 16):
        _, nm, pairs = sample_until(rng, lambda r: (n, names(r, n), poset_pairs(r, n, 0.08)), ups,
                                    9500, 10500)
        out.append(Request(("preorder", "upsets", "--input", preorder_text(nm, pairs)), 0, "upsets",
                           (nm, tuple(closure_rows(n, pairs)))))

    def dense_dag(r):
        n = 18
        return n, names(r, n), dag_edges(r, n, 0.65)

    n, nm, edges = sample_until(rng, dense_dag, lambda d: count_paths(d[0], d[2]), 11000, 13000)
    out.append(Request(("digraph", "paths", "--input", digraph_text(nm, edges), "--complete"), 0))
    n, nm, edges = sample_until(rng, dense_dag, lambda d: count_paths(d[0], d[2], 5), 11000, 13000)
    out.append(Request(("digraph", "paths", "--input", digraph_text(nm, edges, False), "--max-length",
                        "5"), 0))

    out.append(Request(("preorder", "enumerate", "--n", "4"), 0, "lines", (355,)))
    out.append(Request(("topology", "enumerate", "--n", "4"), 0, "lines", (355,)))

    nm = names(rng, 8)
    deg = rng.choice([2, 3])
    gens = [tuple(deg if i == v else 0 for i in range(8)) for v in range(8)]
    out.append(Request(("ideal", "stabilizer", "--gens", gens_text(gens, nm)), 0, "stabilizer",
                       (nm, tuple(minimal_monomials(gens)))))

    out.append(_co_letterplace(rng, 4, 7, 300, 400))
    return out


WORKLOADS = {
    "cli-small": cli_small,
    "order-search": order_search,
    "ideal-kernels": ideal_kernels,
    "bulk-render": bulk_render,
}


def requests_for(workload: str, seed: int) -> list[Request]:
    return WORKLOADS[workload](random.Random(f"{workload}/{seed}"))
