"""Command line front end: every toolkit operation as a subcommand.

Exit codes: 0 success, 1 domain errors (one ``ERR <module>.<op>:`` line on
stderr), 2 usage and input-grammar errors.  Output is deterministic; the
structured format is canonical JSON.
"""

from __future__ import annotations

import argparse
import importlib
import sys
from typing import Sequence

from . import relations, textio
from .errors import OrdkitError
from .relations import MonotoneMap, Preorder
from .textio import ParseError, document_text  # noqa: F401  (stays importable from ordkit.cli)

# The other layer modules are bound here by ``_load`` when a command of a
# group that uses them runs (see ``GROUPS``), so a command compiles and
# imports only its own layers.
topology = digraphs = monomials = patterns = edgerings = None


# ---------------------------------------------------------------- documents


def _preorder_doc(p: Preorder, names: Sequence[str]) -> dict:
    return {
        "kind": "preorder",
        "n": p.n,
        "points": list(names),
        "pairs": [[names[x], names[y]] for x, y in p.strict_pairs()],
        "text": textio.render_preorder(p, names),
    }


def _topology_doc(t, names: Sequence[str]) -> dict:
    from ._jsonwriter import mask_rows

    return {
        "kind": "topology",
        "n": t.n,
        "points": list(names),
        "opens": mask_rows(t.opens, names),
        "text": textio.render_topology(t, names),
    }


def _ideal_doc(ideal: monomials.NamedIdeal) -> dict:
    return {
        "kind": "ideal",
        "vars": list(ideal.ground),
        "generators": (textio.render_monomial(g, ideal.ground) for g in ideal.ideal.gens),
        "exponents": ideal.ideal.gens,
        "text": textio.render_ideal(ideal),
    }


def _value_doc(kind: str, value) -> dict:
    return {"kind": kind, "value": value}


def _emit(doc) -> int:
    textio.write_document(doc, sys.stdout)
    return 0


# ---------------------------------------------------------------- inputs


def _read_source(args, attr: str = "input", file_attr: str = "file") -> str:
    inline = getattr(args, attr, None)
    path = getattr(args, file_attr, None)
    flags = "--" + attr.replace("_", "-"), "--" + file_attr.replace("_", "-")
    if inline is not None and path is not None:
        raise ParseError(f"give exactly one input source, not both {flags[0]} and {flags[1]}")
    if path is not None:
        from pathlib import Path

        try:
            return Path(path).read_text().strip()
        except OSError as exc:
            raise ParseError(f"cannot read {path}: {exc.strerror or exc}") from None
    if inline is None:
        raise ParseError(f"missing input: use {flags[0]} or {flags[1]}")
    return inline


def _natural(value, name):
    if value is not None and value < 0:
        raise ParseError(f"{name} must be a natural number")
    return value


def _preorder_from(args) -> tuple[Preorder, tuple[str, ...]]:
    return textio.parse_preorder(_read_source(args), close=not args.no_close)


def _named_ideal_from(text: str, cls: type[monomials.NamedIdeal]) -> monomials.NamedIdeal:
    vectors, names = textio.parse_monomials(text)
    return cls(names, monomials.minimalize(len(names), vectors))


# ---------------------------------------------------------------- preorder


def _write_all(args, enumerate_all, render) -> int:
    """Every structure on ``--n`` points, one rendered per line, or their ``--count``."""
    if args.count:  # finite topologies are the preorders' up-set families (Alexandroff)
        sys.stdout.write(f"{sum(1 for _ in relations.enumerate_preorders(args.n))}\n")
        return 0
    names = ()
    for item in enumerate_all(args.n):  # the first step checks the enumerator's own guard
        names = names or textio.default_point_names(args.n)
        sys.stdout.write(render(item, names) + "\n")
    return 0


def _cmd_preorder_enumerate(args) -> int:
    return _write_all(args, relations.enumerate_preorders, textio.render_preorder)


def _cmd_preorder_classify(args) -> int:
    p, names = _preorder_from(args)
    flags = relations.classify(p)
    return _emit(
        {
            "kind": "classification",
            "preorder": textio.render_preorder(p, names),
            "flags": {name: getattr(flags, name) for name in flags._fields},
        }
    )


def _cmd_preorder_canon(args) -> int:
    p, names = _preorder_from(args)
    code = relations.canonical_form(p)
    canon = relations.decode(p.n, code)
    return _emit(
        {
            "kind": "canonical-form",
            "encoding": code,
            "canonical": textio.render_preorder(canon, names),
            "preorder": textio.render_preorder(p, names),
        }
    )


def _cmd_preorder_bubbles(args) -> int:
    p, names = _preorder_from(args)
    dec = relations.bubbles(p)
    block_names = tuple(",".join(names[x] for x in block) for block in dec.blocks)
    return _emit(
        {
            "kind": "bubbles",
            "blocks": [[names[x] for x in block] for block in dec.blocks],
            "quotient": textio.render_preorder(dec.quotient, block_names),
        }
    )


def _cmd_preorder_upsets(args) -> int:
    from ._jsonwriter import mask_rows

    p, names = _preorder_from(args)
    masks = relations.up_sets(p)
    return _emit({"kind": "up-sets", "count": len(masks), "opens": mask_rows(masks, names)})


def _cmd_preorder_hasse(args) -> int:
    p, names = _preorder_from(args)
    sys.stdout.write(textio.render_hasse(p, names) + "\n")
    return 0


# ---------------------------------------------------------------- topology


def _cmd_topology_validate(args) -> int:
    t, names = textio.parse_topology(_read_source(args))
    return _emit(_topology_doc(t, names))


def _cmd_topology_from_preorder(args) -> int:
    p, names = _preorder_from(args)
    return _emit(_topology_doc(topology.from_preorder(p), names))


def _cmd_topology_to_preorder(args) -> int:
    t, names = textio.parse_topology(_read_source(args))
    return _emit(_preorder_doc(topology.to_preorder(t), names))


def _cmd_topology_enumerate(args) -> int:
    return _write_all(args, topology.enumerate_topologies, textio.render_topology)


def _cmd_topology_t0(args) -> int:
    t, _names = textio.parse_topology(_read_source(args))
    return _emit(_value_doc("t0", topology.is_t0(t)))


# ---------------------------------------------------------------- digraph


def _cmd_digraph_paths(args) -> int:
    q, names = textio.parse_digraph(_read_source(args))
    if args.complete == (args.max_length is not None):
        raise ParseError("give exactly one of --max-length or --complete")
    return _emit_paths(args, "paths", q, names)


def _cmd_digraph_homs(args) -> int:
    q, names = textio.parse_digraph(_read_source(args))
    index = textio._index(names, "vertex")
    ends = [textio._lookup(index, name, "vertex") for name in (args.source, args.target)]
    return _emit_paths(args, "hom-paths", q, names, *ends)


def _emit_paths(args, kind, q, names, *ends) -> int:
    limit = _natural(args.max_length, "max-length")
    return _emit(
        {
            "kind": kind,
            "count": digraphs.count_paths(q, limit, *ends),
            "paths": digraphs.path_rows(q, names, limit, *ends),
        }
    )


def _cmd_digraph_preorder(args) -> int:
    q, names = textio.parse_digraph(_read_source(args))
    return _emit(_preorder_doc(digraphs.reachability_preorder(q), names))


def _cmd_digraph_render(args) -> int:
    q, names = textio.parse_digraph(_read_source(args))
    if args.format == "dot":
        sys.stdout.write(textio.render_digraph_dot(q, names) + "\n")
    else:
        sys.stdout.write(textio.render_digraph(q, names) + "\n")
    return 0


# ---------------------------------------------------------------- ideal


def _cmd_ideal_preorder(args) -> int:
    ideal = _named_ideal_from(args.gens, monomials.NamedIdeal)
    return _emit(_preorder_doc(monomials.associated_preorder(ideal.ideal), ideal.ground))


def _order_permutation(spec: str | None, names: Sequence[str]) -> tuple[int, ...] | None:
    if spec is None:
        return None
    listed = [t.strip() for t in spec.split(",")]
    if sorted(listed) != sorted(names):
        raise ParseError(f"order must list every variable once, got {spec!r}")
    index = {name: i for i, name in enumerate(names)}
    return tuple(index[name] for name in listed)


def _cmd_ideal_strongly_stable(args) -> int:
    ideal = _named_ideal_from(args.gens, monomials.NamedIdeal)
    order = _order_permutation(args.order, ideal.ground)
    value = monomials.is_strongly_stable(ideal.ideal, order)
    return _emit(_value_doc("strongly-stable", value))


def _cmd_ideal_most_degenerate(args) -> int:
    ideal = _named_ideal_from(args.gens, monomials.NamedIdeal)
    return _emit(_value_doc("most-degenerate", monomials.is_most_degenerate(ideal.ideal)))


def _cmd_ideal_stabilizer(args) -> int:
    from ._jsonwriter import map_rows

    ideal = _named_ideal_from(args.gens, monomials.NamedIdeal)
    count = monomials.stabilizer_order(ideal.ideal)
    rows = map_rows(monomials.iter_stabilizer(ideal.ideal), ideal.ground)
    return _emit({"kind": "stabilizer", "count": count, "permutations": rows})


def _cmd_ideal_to_upset(args) -> int:
    ideal = _named_ideal_from(args.gens, monomials.NamedIdeal)
    chains = monomials.ss_to_upset(ideal.ideal)
    return _emit(
        {
            "kind": "up-set",
            "chains": [list(u) for u in chains],
            "text": textio.render_int_tuples(chains),
        }
    )


def _cmd_ideal_from_upset(args) -> int:
    chains = textio.parse_int_tuples(args.chains)
    if args.vars is not None and args.nvars is not None:
        raise ParseError("give at most one of --vars or --nvars")
    if args.vars is not None:
        names = tuple(textio.parse_names(args.vars, "variable"))
        nvars = len(names)
        if not names:
            raise ParseError("--vars names no variables")
        textio._index(names, "variable")
    else:
        nvars = _natural(args.nvars, "nvars")
        if nvars is None:
            if not chains:
                raise ParseError("give --nvars or --vars for the empty up-set")
            nvars = len(chains[0])
        names = tuple(f"x{i}" for i in range(nvars))
    ideal = monomials.upset_to_ss(chains, nvars)
    return _emit(_ideal_doc(monomials.NamedIdeal(names, ideal)))


# ---------------------------------------------------------------- pattern


def _parse_pattern_rows(text: str) -> patterns.PatternMatrix:
    rows = [row.strip() for row in text.split(",") if row.strip()]
    n = len(rows)
    if not rows or any(len(row) != n or set(row) - {"0", "1"} for row in rows):
        raise ParseError("pattern rows must be equal-length strings of 0/1")
    return patterns.PatternMatrix(n, tuple(int(row[::-1], 2) for row in rows))


def _pattern_doc(pat: patterns.PatternMatrix) -> dict:
    rows = [f"{row:0{pat.n}b}"[::-1] for row in pat.rows]
    return {"kind": "pattern", "n": pat.n, "rows": rows}


def _cmd_pattern_from_preorder(args) -> int:
    p, _names = _preorder_from(args)
    return _emit(_pattern_doc(patterns.pattern_from_preorder(p)))


def _cmd_pattern_closed(args) -> int:
    pat = _parse_pattern_rows(args.rows)
    return _emit(_value_doc("pattern-closed", patterns.pattern_closed_under_product(pat)))


def _cmd_pattern_membership(args) -> int:
    g = textio.parse_matrix(args.matrix)
    p, _names = _preorder_from(args)
    return _emit(_value_doc("membership", patterns.membership(g, p)))


def _matrices_from(args) -> list[patterns.RationalMatrix]:
    return textio.parse_matrices(_read_source(args, attr="matrices", file_attr="matrices_file"))


def _point_names(args, n: int) -> Sequence[str]:
    """``--points`` as ``n`` distinct checked names, or the default names."""
    if not args.points:
        return textio.default_point_names(n)
    names = textio.parse_names(args.points, "point")
    if len(names) != n:
        raise ParseError(f"need {n} point names")
    textio._index(names, "point")
    return names


def _cmd_pattern_invariant(args) -> int:
    t = patterns.invariant_subsets(_matrices_from(args))
    return _emit(_topology_doc(t, _point_names(args, t.n)))


def _cmd_pattern_pre(args) -> int:
    p = patterns.preorder_of_subgroup(_matrices_from(args))
    return _emit(_preorder_doc(p, _point_names(args, p.n)))


# ---------------------------------------------------------------- graph


def _bipartite_from(args) -> edgerings.BipartiteGraph:
    """The graph of ``--parts`` with ``--edges``, or of the full text of ``--input``/``--file``."""
    source = "--input" if args.input is not None else "--file" if args.file is not None else None
    for flag in ("parts", "edges"):
        if source and getattr(args, flag) is not None:
            raise ParseError(f"give exactly one input source, not both --{flag} and {source}")
    if args.parts:
        sides = args.parts.split("|")
        if len(sides) != 2:
            raise ParseError("--parts wants 'a,c|b,d'")
        text = f"A: {sides[0]} | B: {sides[1]} | edges: {args.edges or ''}"
        return textio.parse_bipartite(text)
    if args.edges is not None:
        raise ParseError("--edges needs --parts")
    return textio.parse_bipartite(_read_source(args))


def _cmd_graph_edge_ideal(args) -> int:
    g = textio.parse_graph(_read_source(args, attr="edges", file_attr="file"))
    return _emit(_ideal_doc(edgerings.edge_ideal(g)))


def _cmd_graph_cm_bipartite(args) -> int:
    g = _bipartite_from(args)
    witness = edgerings.is_cm_bipartite(g)
    if witness is None:
        return _emit({"kind": "cm-witness", "cohen_macaulay": False})
    matching = {
        g.a_names[i]: g.b_names[witness.matching[i]] for i in range(len(g.a_names))
    }
    return _emit(
        {
            "kind": "cm-witness",
            "cohen_macaulay": True,
            "matching": matching,
            "poset": textio.render_preorder(witness.poset, g.a_names),
        }
    )


def _cmd_graph_linres(args) -> int:
    g = _bipartite_from(args)
    return _emit(_value_doc("linear-resolution-shape", edgerings.has_linear_resolution_shape(g)))


def _cmd_graph_dim(args) -> int:
    if (args.gens is None) == (args.poset is None):
        raise ParseError("give exactly one of --gens or --poset")
    if args.gens is not None:
        ideal = _named_ideal_from(args.gens, monomials.NamedIdeal)
        value = edgerings.kdim_artinian(ideal.ideal, ideal.ground)
        return _emit(_value_doc("quotient-dimension", value))
    p, _names = textio.parse_preorder(args.poset)
    return _emit(_value_doc("antichain-dimension", edgerings.antichain_dimension(p)))


def _cmd_graph_letterplace(args) -> int:
    p, p_names = textio.parse_preorder(args.p)
    q, q_names = textio.parse_preorder(args.q)
    return _emit(_ideal_doc(edgerings.letterplace(p, q, p_names, q_names)))


def _cmd_graph_co_letterplace(args) -> int:
    p, names = textio.parse_preorder(args.poset)
    depth = _natural(args.depth, "depth")
    if args.full_hom == (args.maps is not None):
        raise ParseError("give exactly one of --maps or --full-hom")
    if args.full_hom:
        if depth is None:
            raise ParseError("--full-hom needs --depth")
        chain = Preorder.chain(depth + 1)
        names = edgerings._poset_names(p, names, "co_letterplace")
        ideal = edgerings.letterplace(p, chain, names, range(depth + 1))
        return _emit(_ideal_doc(ideal))
    maps = textio.parse_int_tuples(args.maps)
    return _emit(_ideal_doc(edgerings.co_letterplace(p, maps, depth, names)))


def _cmd_graph_dual(args) -> int:
    ideal = _named_ideal_from(args.gens, edgerings.SquarefreeIdeal)
    return _emit(_ideal_doc(edgerings.alexander_dual(ideal)))


# ---------------------------------------------------------------- galois


def _chain_map(spec: str, c: Preorder) -> MonotoneMap:
    d = c.n - 1
    named = {
        "double": lambda k: 2 * k,
        "ceil-half": lambda k: (k + 1) // 2,
        "floor-half": lambda k: k // 2,
        "id": lambda k: k,
    }
    if spec in named:
        return relations.truncated_chain_map(d, named[spec])
    try:
        values = tuple(int(t) for t in spec.split(","))
    except ValueError:
        raise ParseError(f"map spec {spec!r} is neither a named map nor a value list")
    if len(values) != d + 1:
        raise ParseError(f"value list needs {d + 1} entries for truncation {d}")
    return MonotoneMap(c, c, values)


def _cmd_galois_check(args) -> int:
    d = _natural(args.truncation, "truncation")
    c = Preorder.chain(d + 1)
    f = _chain_map(args.left, c)
    g = _chain_map(args.right, c)
    holds = relations.check_galois_connection(f, g)
    return _emit(
        {
            "kind": "galois-check",
            "truncation": d,
            "left": args.left,
            "right": args.right,
            "holds": holds,
        }
    )


# ---------------------------------------------------------------- selftest


def _random_ideal(rng) -> monomials.MonomialIdeal:
    n = rng.randint(1, 3)
    gens = [
        tuple(rng.randint(0, 3) for _ in range(n)) for _ in range(rng.randint(1, 4))
    ]
    return monomials.minimalize(n, gens)


def _selftest_associated(rng, cases: int) -> int:
    for _ in range(cases):
        ideal = _random_ideal(rng)
        got = monomials.associated_preorder(ideal)
        want = monomials.associated_preorder_by_definition(ideal)
        if got != want:
            raise AssertionError(f"associated preorder mismatch on {ideal}")
    return cases


def _selftest_product_stability(rng, cases: int) -> int:
    pool = list(relations.enumerate_preorders(3))
    done = 0
    for _ in range(cases):
        p = rng.choice(pool)
        gens = patterns.standard_generators(p)
        g = rng.choice(gens)
        h = rng.choice(gens)
        if not patterns.membership(g * h, p):
            raise AssertionError(f"product escaped the pattern group of {p}")
        done += 1
    return done


def _selftest_dual_involution(rng, cases: int) -> int:
    names = tuple("abcdef")
    done = 0
    for _ in range(cases):
        supports = {
            tuple(sorted(rng.sample(range(6), rng.randint(1, 3))))
            for _ in range(rng.randint(1, 4))
        }
        gens = [tuple(1 if i in s else 0 for i in range(6)) for s in supports]
        ideal = edgerings.SquarefreeIdeal(names, monomials.minimalize(6, gens))
        twice = edgerings.alexander_dual(edgerings.alexander_dual(ideal))
        if twice != ideal:
            raise AssertionError(f"dual is not an involution on {ideal}")
        done += 1
    return done


def _cmd_selftest(args) -> int:
    import random

    rng = random.Random(args.seed)
    suites = [
        ("associated-preorder-oracle", _selftest_associated, 500),
        ("pattern-product-stability", _selftest_product_stability, 200),
        ("alexander-dual-involution", _selftest_dual_involution, 200),
    ]
    failed = []
    for name, fn, cases in suites:
        try:
            done = fn(rng, cases)
            sys.stdout.write(f"PASS {name} ({done} cases)\n")
        except AssertionError as exc:
            sys.stdout.write(f"FAIL {name}: {exc}\n")
            failed.append(name)
    if failed:
        raise OrdkitError("selftest", "suites", "failed: " + ", ".join(failed))
    return 0


# ---------------------------------------------------------------- command table


_SOURCE = (
    ("--input", {"help": "inline input text"}),
    ("--file", {"help": "path to a file holding the input text"}),
)
_RELATION = _SOURCE + (
    (
        "--no-close",
        {"action": "store_true", "help": "reject relations that are not already reflexive-transitive"},
    ),
)
_COUNT = (("--n", {"type": int, "required": True}), ("--count", {"action": "store_true"}))
_GENS = (("--gens", {"required": True}),)
_MATRICES = (("--matrices", {"help": "matrices separated by |"}), ("--matrices-file", {}), ("--points", {}))
_BIPARTITE = (
    ("--edges", {}),
    ("--parts", {"help": "'a,c|b,d'"}),
    ("--input", {"help": "full 'A: ... | B: ... | edges: ...' text"}),
    ("--file", {}),
)

# group -> (help, layer modules its handlers use, leaves as (name, handler, options));
# a leaf named None is the group itself.
GROUPS = {
    "preorder": ("preorders on labeled points", (), (
        ("enumerate", _cmd_preorder_enumerate, _COUNT),
        ("classify", _cmd_preorder_classify, _RELATION),
        ("canon", _cmd_preorder_canon, _RELATION),
        ("bubbles", _cmd_preorder_bubbles, _RELATION),
        ("upsets", _cmd_preorder_upsets, _RELATION),
        ("hasse", _cmd_preorder_hasse, _RELATION),
    )),
    "topology": ("finite topologies", ("topology",), (
        ("validate", _cmd_topology_validate, _SOURCE),
        ("from-preorder", _cmd_topology_from_preorder, _RELATION),
        ("to-preorder", _cmd_topology_to_preorder, _SOURCE),
        ("enumerate", _cmd_topology_enumerate, _COUNT),
        ("t0", _cmd_topology_t0, _SOURCE),
    )),
    "digraph": ("directed multigraphs", ("digraphs",), (
        ("paths", _cmd_digraph_paths, _SOURCE + (
            ("--max-length", {"type": int}),
            ("--complete", {"action": "store_true"}),
        )),
        ("homs", _cmd_digraph_homs, _SOURCE + (
            ("--source", {"required": True}),
            ("--target", {"required": True}),
            ("--max-length", {"type": int}),
        )),
        ("preorder", _cmd_digraph_preorder, _SOURCE),
        ("render", _cmd_digraph_render, _SOURCE + (
            ("--format", {"choices": ("text", "dot"), "default": "dot"}),
        )),
    )),
    "ideal": ("monomial ideals", ("monomials",), (
        ("preorder", _cmd_ideal_preorder, _GENS),
        ("strongly-stable", _cmd_ideal_strongly_stable, _GENS + (
            ("--order", {"help": "variables from largest to smallest, e.g. x,y,z"}),
        )),
        ("most-degenerate", _cmd_ideal_most_degenerate, _GENS),
        ("stabilizer", _cmd_ideal_stabilizer, _GENS),
        ("to-upset", _cmd_ideal_to_upset, _GENS),
        ("from-upset", _cmd_ideal_from_upset, (
            ("--chains", {"required": True}),
            ("--nvars", {"type": int}),
            ("--vars", {}),
        )),
    )),
    "pattern": ("pattern matrix groups", ("patterns",), (
        ("from-preorder", _cmd_pattern_from_preorder, _RELATION),
        ("closed", _cmd_pattern_closed, (
            ("--rows", {"required": True, "help": "comma-separated 0/1 strings"}),
        )),
        ("membership", _cmd_pattern_membership, _RELATION + (("--matrix", {"required": True}),)),
        ("invariant", _cmd_pattern_invariant, _MATRICES),
        ("pre", _cmd_pattern_pre, _MATRICES),
    )),
    "graph": ("edge ideals and letterplace ideals", ("monomials", "edgerings"), (
        ("edge-ideal", _cmd_graph_edge_ideal, (
            ("--edges", {"help": "a-b,b-c or 'points: ...; edges: ...'"}),
            ("--file", {}),
        )),
        ("cm-bipartite", _cmd_graph_cm_bipartite, _BIPARTITE),
        ("linres", _cmd_graph_linres, _BIPARTITE),
        ("dim", _cmd_graph_dim, (("--gens", {}), ("--poset", {}))),
        ("letterplace", _cmd_graph_letterplace, (
            ("--p", {"required": True}),
            ("--q", {"required": True}),
        )),
        ("co-letterplace", _cmd_graph_co_letterplace, (
            ("--poset", {"required": True}),
            ("--maps", {}),
            ("--depth", {"type": int}),
            ("--full-hom", {"action": "store_true"}),
        )),
        ("dual", _cmd_graph_dual, _GENS),
    )),
    "galois": ("adjunction checks", (), (
        ("check", _cmd_galois_check, (
            ("--truncation", {"type": int, "default": 10}),
            ("--left", {"required": True, "help": "double|ceil-half|floor-half|id or values"}),
            ("--right", {"required": True}),
        )),
    )),
    "selftest": ("randomized oracle suites", ("monomials", "patterns", "edgerings"), (
        (None, _cmd_selftest, (("--seed", {"type": int, "default": 0}),)),
    )),
}


def build_parser(group: str | None = None) -> argparse.ArgumentParser:
    """Every group's parser, and the leaf parsers of ``group`` only.

    The top-level help lists every group, but a run parses one group's
    leaves, so the others are never built.
    """
    parser = argparse.ArgumentParser(prog="ordkit", description=__doc__)
    top = parser.add_subparsers(dest="command")
    for name, (help_text, _modules, leaves) in GROUPS.items():
        group_parser = top.add_parser(name, help=help_text)
        if name != group:
            continue
        subs = None
        for leaf, handler, options in leaves:
            if leaf is None:
                sub = group_parser
            else:
                if subs is None:
                    subs = group_parser.add_subparsers(dest="sub")
                sub = subs.add_parser(leaf)
            for flag, kwargs in options:
                sub.add_argument(flag, **kwargs)
            sub.set_defaults(handler=handler)
    return parser


def _load(modules: Sequence[str]) -> None:
    """Bind each named layer module here, unless something is bound already.

    A binding is never replaced: the benchmark tracer swaps these names for
    traced proxies, and rebinding would undo that.
    """
    namespace = globals()
    for name in modules:
        if namespace[name] is None:
            namespace[name] = importlib.import_module(f"{__package__}.{name}")


def main(argv: Sequence[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    group = next((token for token in argv if not token.startswith("-")), None)
    parser = build_parser(group)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else int(exc.code)
    if not hasattr(args, "handler"):
        parser.print_usage(sys.stderr)
        return 2
    _load(GROUPS[args.command][1])
    try:
        return args.handler(args)
    except ParseError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    except OrdkitError as exc:
        print(f"ERR {exc.module}.{exc.op}: {exc.message}", file=sys.stderr)
        return 1


def entrypoint() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
