"""Command line front end: every toolkit operation as a subcommand.

Exit codes: 0 success, 1 domain errors (one ``ERR <module>.<op>:`` line on
stderr), 2 usage and input-grammar errors.  Output is deterministic; the
structured format is canonical JSON.
"""

from __future__ import annotations

import argparse
import random
import sys
from pathlib import Path
from typing import Sequence

from . import edgerings, monomials, patterns, relations, textio, topology
from .digraphs import (
    all_paths,
    hom_paths,
    paths_up_to_length,
    reachability_preorder,
)
from .errors import OrdkitError
from .relations import MonotoneMap, Preorder
from .textio import ParseError, document_text  # noqa: F401  (stays importable from ordkit.cli)


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
    return {
        "kind": "topology",
        "n": t.n,
        "points": list(names),
        "opens": [[names[x] for x in relations._bits(mask)] for mask in t.opens],
        "text": textio.render_topology(t, names),
    }


def _ideal_doc(ideal: edgerings.NamedIdeal) -> dict:
    return {
        "kind": "ideal",
        "vars": list(ideal.ground),
        "generators": [textio.render_monomial(g, ideal.ground) for g in ideal.ideal.gens],
        "exponents": [list(g) for g in ideal.ideal.gens],
        "text": textio.render_ideal(ideal),
    }


def _value_doc(kind: str, value, **extra) -> dict:
    doc = {"kind": kind, "value": value}
    doc.update(extra)
    return doc


def _emit(doc) -> int:
    textio.write_document(doc, sys.stdout)
    return 0


# ---------------------------------------------------------------- inputs


def _read_source(args, attr: str = "input", file_attr: str = "file") -> str:
    inline = getattr(args, attr, None)
    path = getattr(args, file_attr, None)
    if inline is not None and path is not None:
        raise ParseError("give exactly one input source, not both --input and --file")
    if path is not None:
        try:
            return Path(path).read_text().strip()
        except OSError as exc:
            raise ParseError(f"cannot read {path}: {exc.strerror or exc}") from None
    if inline is None:
        raise ParseError("missing input: use --input or --file")
    return inline


def _preorder_from(args) -> tuple[Preorder, tuple[str, ...]]:
    return textio.parse_preorder(_read_source(args), close=not args.no_close)


def _named_ideal_from(text: str) -> edgerings.NamedIdeal:
    vectors, names = textio.parse_monomials(text)
    return edgerings.NamedIdeal(names, monomials.minimalize(len(names), vectors))


def _squarefree_from(text: str) -> edgerings.SquarefreeIdeal:
    vectors, names = textio.parse_monomials(text)
    return edgerings.SquarefreeIdeal(names, monomials.minimalize(len(names), vectors))


# ---------------------------------------------------------------- preorder


def _cmd_preorder_enumerate(args) -> int:
    n = args.n
    stream = list(relations.enumerate_preorders(n))
    if args.count:
        sys.stdout.write(f"{len(stream)}\n")
        return 0
    names = textio.default_point_names(n)
    for p in stream:
        sys.stdout.write(textio.render_preorder(p, names) + "\n")
    return 0


def _cmd_preorder_classify(args) -> int:
    p, names = _preorder_from(args)
    flags = relations.classify(p)
    return _emit(
        {
            "kind": "classification",
            "preorder": textio.render_preorder(p, names),
            "flags": {
                "partial_order": flags.partial_order,
                "equivalence": flags.equivalence,
                "total": flags.total,
                "discrete": flags.discrete,
                "coarse": flags.coarse,
            },
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
    p, names = _preorder_from(args)
    masks = relations.up_sets(p)
    return _emit(
        {
            "kind": "up-sets",
            "count": len(masks),
            "opens": [[names[x] for x in relations._bits(mask)] for mask in masks],
        }
    )


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
    n = args.n
    stream = list(topology.enumerate_topologies(n))
    if args.count:
        sys.stdout.write(f"{len(stream)}\n")
        return 0
    names = textio.default_point_names(n)
    for t in stream:
        sys.stdout.write(textio.render_topology(t, names) + "\n")
    return 0


def _cmd_topology_t0(args) -> int:
    t, _names = textio.parse_topology(_read_source(args))
    return _emit(_value_doc("t0", topology.is_t0(t)))


# ---------------------------------------------------------------- digraph


def _path_doc(path, names: Sequence[str]) -> dict:
    word = "".join(path.labels) if path.labels else f"1_{names[path.start]}"
    return {
        "start": names[path.start],
        "end": names[path.end],
        "labels": list(path.labels),
        "word": word,
    }


def _cmd_digraph_paths(args) -> int:
    q, names = textio.parse_digraph(_read_source(args))
    if args.complete:
        found = all_paths(q)
    else:
        if args.max_length is None:
            raise ParseError("give --max-length or --complete")
        found = paths_up_to_length(q, args.max_length)
    return _emit(
        {
            "kind": "paths",
            "count": len(found),
            "paths": [_path_doc(p, names) for p in found],
        }
    )


def _cmd_digraph_homs(args) -> int:
    q, names = textio.parse_digraph(_read_source(args))
    index = {name: i for i, name in enumerate(names)}
    for label in (args.source, args.target):
        if label not in index:
            raise ParseError(f"unknown vertex name {label!r}")
    found = hom_paths(q, index[args.source], index[args.target], args.max_length)
    return _emit(
        {
            "kind": "hom-paths",
            "count": len(found),
            "paths": [_path_doc(p, names) for p in found],
        }
    )


def _cmd_digraph_preorder(args) -> int:
    q, names = textio.parse_digraph(_read_source(args))
    return _emit(_preorder_doc(reachability_preorder(q), names))


def _cmd_digraph_render(args) -> int:
    q, names = textio.parse_digraph(_read_source(args))
    if args.format == "dot":
        sys.stdout.write(textio.render_digraph_dot(q, names) + "\n")
    else:
        sys.stdout.write(textio.render_digraph(q, names) + "\n")
    return 0


# ---------------------------------------------------------------- ideal


def _cmd_ideal_preorder(args) -> int:
    ideal = _named_ideal_from(args.gens)
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
    ideal = _named_ideal_from(args.gens)
    order = _order_permutation(args.order, ideal.ground)
    value = monomials.is_strongly_stable(ideal.ideal, order)
    return _emit(_value_doc("strongly-stable", value))


def _cmd_ideal_most_degenerate(args) -> int:
    ideal = _named_ideal_from(args.gens)
    return _emit(_value_doc("most-degenerate", monomials.is_most_degenerate(ideal.ideal)))


def _cmd_ideal_stabilizer(args) -> int:
    ideal = _named_ideal_from(args.gens)
    perms = monomials.stabilizer(ideal.ideal)
    rendered = [
        {ideal.ground[i]: ideal.ground[perm[i]] for i in range(len(perm))} for perm in perms
    ]
    return _emit({"kind": "stabilizer", "count": len(perms), "permutations": rendered})


def _cmd_ideal_to_upset(args) -> int:
    ideal = _named_ideal_from(args.gens)
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
    if args.vars:
        names = tuple(t.strip() for t in args.vars.split(","))
        nvars = len(names)
    else:
        nvars = args.nvars
        if nvars is None:
            if not chains:
                raise ParseError("give --nvars or --vars for the empty up-set")
            nvars = len(chains[0])
        names = tuple(f"x{i}" for i in range(nvars))
    ideal = monomials.upset_to_ss(chains, nvars)
    return _emit(_ideal_doc(edgerings.NamedIdeal(names, ideal)))


# ---------------------------------------------------------------- pattern


def _parse_pattern_rows(text: str) -> patterns.PatternMatrix:
    rows = [row.strip() for row in text.split(",") if row.strip()]
    n = len(rows)
    if any(len(row) != n or set(row) - {"0", "1"} for row in rows):
        raise ParseError("pattern rows must be equal-length strings of 0/1")
    masks = tuple(
        sum(1 << w for w, ch in enumerate(row) if ch == "1") for row in rows
    )
    return patterns.PatternMatrix(n, masks)


def _pattern_doc(pat: patterns.PatternMatrix) -> dict:
    rows = [
        "".join("1" if pat.allows(v, w) else "0" for w in range(pat.n)) for v in range(pat.n)
    ]
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


def _cmd_pattern_invariant(args) -> int:
    gens = _matrices_from(args)
    t = patterns.invariant_subsets(gens)
    names = args.points.split(",") if args.points else list(textio.default_point_names(t.n))
    if len(names) != t.n:
        raise ParseError(f"need {t.n} point names")
    return _emit(_topology_doc(t, names))


def _cmd_pattern_pre(args) -> int:
    gens = _matrices_from(args)
    p = patterns.preorder_of_subgroup(gens)
    names = args.points.split(",") if args.points else list(textio.default_point_names(p.n))
    if len(names) != p.n:
        raise ParseError(f"need {p.n} point names")
    return _emit(_preorder_doc(p, names))


# ---------------------------------------------------------------- graph


def _bipartite_from(args) -> edgerings.BipartiteGraph:
    if args.parts:
        sides = args.parts.split("|")
        if len(sides) != 2:
            raise ParseError("--parts wants 'a,c|b,d'")
        text = f"A: {sides[0]} | B: {sides[1]} | edges: {args.edges or ''}"
        return textio.parse_bipartite(text)
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
        ideal = _named_ideal_from(args.gens)
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
    if args.full_hom:
        if args.depth is None:
            raise ParseError("--full-hom needs --depth")
        maps = [
            f.values for f in relations.monotone_maps(p, Preorder.chain(args.depth + 1))
        ]
    else:
        if args.maps is None:
            raise ParseError("give --maps or --full-hom")
        maps = textio.parse_int_tuples(args.maps)
    return _emit(_ideal_doc(edgerings.co_letterplace(p, maps, args.depth, names)))


def _cmd_graph_dual(args) -> int:
    ideal = _squarefree_from(args.gens)
    return _emit(_ideal_doc(edgerings.alexander_dual(ideal)))


# ---------------------------------------------------------------- galois


def _map_values(spec: str, d: int) -> tuple[int, ...]:
    named = {
        "double": lambda k: min(2 * k, d),
        "ceil-half": lambda k: (k + 1) // 2,
        "floor-half": lambda k: k // 2,
        "id": lambda k: k,
    }
    if spec in named:
        return tuple(named[spec](k) for k in range(d + 1))
    try:
        values = tuple(int(t) for t in spec.split(","))
    except ValueError:
        raise ParseError(f"map spec {spec!r} is neither a named map nor a value list")
    if len(values) != d + 1:
        raise ParseError(f"value list needs {d + 1} entries for truncation {d}")
    return values


def _cmd_galois_check(args) -> int:
    d = args.truncation
    if d < 0:
        raise ParseError("truncation must be a natural number")
    c = Preorder.chain(d + 1)
    f = MonotoneMap(c, c, _map_values(args.left, d))
    g = MonotoneMap(c, c, _map_values(args.right, d))
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


def _random_ideal(rng: random.Random) -> monomials.MonomialIdeal:
    n = rng.randint(1, 3)
    gens = [
        tuple(rng.randint(0, 3) for _ in range(n)) for _ in range(rng.randint(1, 4))
    ]
    return monomials.minimalize(n, gens)


def _selftest_associated(rng: random.Random, cases: int) -> int:
    for _ in range(cases):
        ideal = _random_ideal(rng)
        got = monomials.associated_preorder(ideal)
        want = monomials.associated_preorder_by_definition(ideal)
        if got != want:
            raise AssertionError(f"associated preorder mismatch on {ideal}")
    return cases


def _selftest_product_stability(rng: random.Random, cases: int) -> int:
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


def _selftest_dual_involution(rng: random.Random, cases: int) -> int:
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
    rng = random.Random(args.seed)
    suites = [
        ("associated-preorder-oracle", _selftest_associated, 500),
        ("pattern-product-stability", _selftest_product_stability, 200),
        ("alexander-dual-involution", _selftest_dual_involution, 200),
    ]
    failed = False
    for name, fn, cases in suites:
        try:
            done = fn(rng, cases)
            sys.stdout.write(f"PASS {name} ({done} cases)\n")
        except AssertionError as exc:
            sys.stdout.write(f"FAIL {name}: {exc}\n")
            failed = True
    return 1 if failed else 0


# ---------------------------------------------------------------- parser


def _add_input_options(sub, with_no_close: bool = True):
    sub.add_argument("--input", help="inline input text")
    sub.add_argument("--file", help="path to a file holding the input text")
    if with_no_close:
        sub.add_argument(
            "--no-close",
            action="store_true",
            help="reject relations that are not already reflexive-transitive",
        )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="ordkit", description=__doc__)
    top = parser.add_subparsers(dest="command")

    pre = top.add_parser("preorder", help="preorders on labeled points").add_subparsers(
        dest="sub"
    )
    sub = pre.add_parser("enumerate")
    sub.add_argument("--n", type=int, required=True)
    sub.add_argument("--count", action="store_true")
    sub.set_defaults(handler=_cmd_preorder_enumerate)
    for name, handler in [
        ("classify", _cmd_preorder_classify),
        ("canon", _cmd_preorder_canon),
        ("bubbles", _cmd_preorder_bubbles),
        ("upsets", _cmd_preorder_upsets),
        ("hasse", _cmd_preorder_hasse),
    ]:
        sub = pre.add_parser(name)
        _add_input_options(sub)
        sub.set_defaults(handler=handler)

    topo = top.add_parser("topology", help="finite topologies").add_subparsers(dest="sub")
    sub = topo.add_parser("validate")
    _add_input_options(sub, with_no_close=False)
    sub.set_defaults(handler=_cmd_topology_validate)
    sub = topo.add_parser("from-preorder")
    _add_input_options(sub)
    sub.set_defaults(handler=_cmd_topology_from_preorder)
    sub = topo.add_parser("to-preorder")
    _add_input_options(sub, with_no_close=False)
    sub.set_defaults(handler=_cmd_topology_to_preorder)
    sub = topo.add_parser("enumerate")
    sub.add_argument("--n", type=int, required=True)
    sub.add_argument("--count", action="store_true")
    sub.set_defaults(handler=_cmd_topology_enumerate)
    sub = topo.add_parser("t0")
    _add_input_options(sub, with_no_close=False)
    sub.set_defaults(handler=_cmd_topology_t0)

    dig = top.add_parser("digraph", help="directed multigraphs").add_subparsers(dest="sub")
    sub = dig.add_parser("paths")
    _add_input_options(sub, with_no_close=False)
    sub.add_argument("--max-length", type=int)
    sub.add_argument("--complete", action="store_true")
    sub.set_defaults(handler=_cmd_digraph_paths)
    sub = dig.add_parser("homs")
    _add_input_options(sub, with_no_close=False)
    sub.add_argument("--source", required=True)
    sub.add_argument("--target", required=True)
    sub.add_argument("--max-length", type=int)
    sub.set_defaults(handler=_cmd_digraph_homs)
    sub = dig.add_parser("preorder")
    _add_input_options(sub, with_no_close=False)
    sub.set_defaults(handler=_cmd_digraph_preorder)
    sub = dig.add_parser("render")
    _add_input_options(sub, with_no_close=False)
    sub.add_argument("--format", choices=("text", "dot"), default="dot")
    sub.set_defaults(handler=_cmd_digraph_render)

    ide = top.add_parser("ideal", help="monomial ideals").add_subparsers(dest="sub")
    sub = ide.add_parser("preorder")
    sub.add_argument("--gens", required=True)
    sub.set_defaults(handler=_cmd_ideal_preorder)
    sub = ide.add_parser("strongly-stable")
    sub.add_argument("--gens", required=True)
    sub.add_argument("--order", help="variables from largest to smallest, e.g. x,y,z")
    sub.set_defaults(handler=_cmd_ideal_strongly_stable)
    sub = ide.add_parser("most-degenerate")
    sub.add_argument("--gens", required=True)
    sub.set_defaults(handler=_cmd_ideal_most_degenerate)
    sub = ide.add_parser("stabilizer")
    sub.add_argument("--gens", required=True)
    sub.set_defaults(handler=_cmd_ideal_stabilizer)
    sub = ide.add_parser("to-upset")
    sub.add_argument("--gens", required=True)
    sub.set_defaults(handler=_cmd_ideal_to_upset)
    sub = ide.add_parser("from-upset")
    sub.add_argument("--chains", required=True)
    sub.add_argument("--nvars", type=int)
    sub.add_argument("--vars")
    sub.set_defaults(handler=_cmd_ideal_from_upset)

    pat = top.add_parser("pattern", help="pattern matrix groups").add_subparsers(dest="sub")
    sub = pat.add_parser("from-preorder")
    _add_input_options(sub)
    sub.set_defaults(handler=_cmd_pattern_from_preorder)
    sub = pat.add_parser("closed")
    sub.add_argument("--rows", required=True, help="comma-separated 0/1 strings")
    sub.set_defaults(handler=_cmd_pattern_closed)
    sub = pat.add_parser("membership")
    _add_input_options(sub)
    sub.add_argument("--matrix", required=True)
    sub.set_defaults(handler=_cmd_pattern_membership)
    sub = pat.add_parser("invariant")
    sub.add_argument("--matrices", help="matrices separated by |")
    sub.add_argument("--matrices-file")
    sub.add_argument("--points")
    sub.set_defaults(handler=_cmd_pattern_invariant)
    sub = pat.add_parser("pre")
    sub.add_argument("--matrices", help="matrices separated by |")
    sub.add_argument("--matrices-file")
    sub.add_argument("--points")
    sub.set_defaults(handler=_cmd_pattern_pre)

    gra = top.add_parser("graph", help="edge ideals and letterplace ideals").add_subparsers(
        dest="sub"
    )
    sub = gra.add_parser("edge-ideal")
    sub.add_argument("--edges", help="a-b,b-c or 'points: ...; edges: ...'")
    sub.add_argument("--file")
    sub.set_defaults(handler=_cmd_graph_edge_ideal)
    for name, handler in [("cm-bipartite", _cmd_graph_cm_bipartite), ("linres", _cmd_graph_linres)]:
        sub = gra.add_parser(name)
        sub.add_argument("--edges")
        sub.add_argument("--parts", help="'a,c|b,d'")
        sub.add_argument("--input", help="full 'A: ... | B: ... | edges: ...' text")
        sub.add_argument("--file")
        sub.set_defaults(handler=handler)
    sub = gra.add_parser("dim")
    sub.add_argument("--gens")
    sub.add_argument("--poset")
    sub.set_defaults(handler=_cmd_graph_dim)
    sub = gra.add_parser("letterplace")
    sub.add_argument("--p", required=True)
    sub.add_argument("--q", required=True)
    sub.set_defaults(handler=_cmd_graph_letterplace)
    sub = gra.add_parser("co-letterplace")
    sub.add_argument("--poset", required=True)
    sub.add_argument("--maps")
    sub.add_argument("--depth", type=int)
    sub.add_argument("--full-hom", action="store_true")
    sub.set_defaults(handler=_cmd_graph_co_letterplace)
    sub = gra.add_parser("dual")
    sub.add_argument("--gens", required=True)
    sub.set_defaults(handler=_cmd_graph_dual)

    gal = top.add_parser("galois", help="adjunction checks").add_subparsers(dest="sub")
    sub = gal.add_parser("check")
    sub.add_argument("--truncation", type=int, default=10)
    sub.add_argument("--left", required=True, help="double|ceil-half|floor-half|id or values")
    sub.add_argument("--right", required=True)
    sub.set_defaults(handler=_cmd_galois_check)

    sub = top.add_parser("selftest", help="randomized oracle suites")
    sub.add_argument("--seed", type=int, default=0)
    sub.set_defaults(handler=_cmd_selftest)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else int(exc.code)
    if not hasattr(args, "handler"):
        parser.print_usage(sys.stderr)
        return 2
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
