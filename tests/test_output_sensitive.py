"""Output-sensitive answers against their brute-force oracles.

``stabilizer`` (a depth-first search cut by pair-kind masks, which lists a
symmetric tail whole) and its order (the length of that listing), the
path listings (a depth-first search pruned by the table of path counts) and
``is_cm_bipartite`` (the graph peeled to its one forced matching) are
compared with the n! scan, the layer-by-layer path growth and the
validate-every-matching loop in ``tests/oracles.py``; ``write_document`` is
compared with ``document_text`` and with the plain ``json.dumps`` text,
also when arrays arrive as generators or as row functions, and when an
array's rows stray from the shape of its first row.  The row functions of
the big listings are compared with the dict rows they replace.  The
streamed stabilizer, path, up-set and letterplace documents are pinned to a
small peak of traced memory, and the writer's batches to a bounded size.
"""

import contextlib
import io
import itertools
import json
import math
import random
import time
import tracemalloc
from collections import defaultdict
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ordkit import cli, monomials, relations
from ordkit._jsonwriter import BATCH_CHARS, map_rows, mask_rows
from ordkit.digraphs import (
    Digraph,
    Edge,
    all_paths,
    count_hom_paths,
    count_paths,
    hom_paths,
    iter_hom_paths,
    iter_paths,
    path_rows,
    paths_up_to_length,
)
from ordkit.edgerings import BipartiteGraph, is_cm_bipartite, letterplace
from ordkit.errors import OrdkitError
from ordkit.monomials import divides, iter_stabilizer, minimalize, stabilizer, stabilizer_order
from ordkit.relations import MonotoneMap, Preorder, monotone_maps
from ordkit.textio import document_text, parse_digraph, parse_monomials, parse_preorder, write_document
from tests import oracles


def every_antichain(nvars, top):
    """Each antichain of exponent vectors in {0..top}^nvars, as its minimal ideal."""
    pool = list(itertools.product(range(top + 1), repeat=nvars))

    def extend(start, chosen):
        yield minimalize(nvars, chosen)
        for k in range(start, len(pool)):
            m = pool[k]
            if not any(divides(c, m) or divides(m, c) for c in chosen):
                yield from extend(k + 1, chosen + [m])

    return extend(0, [])


def orbit_closed_gens(rng, nvars):
    """Random generators closed under the cyclic group of a random permutation."""
    sigma = list(range(nvars))
    rng.shuffle(sigma)
    gens = set()
    for _ in range(rng.randint(1, 3)):
        g = tuple(rng.choice((0, 0, 1, 2)) for _ in range(nvars))
        for _ in range(nvars):
            gens.add(g)
            g = tuple(g[sigma[v]] for v in range(nvars))
    return sorted(gens)


class TestStabilizer:
    def test_every_ideal_on_three_variables_with_exponents_up_to_two(self):
        counts = []
        for nvars in range(4):
            ideals = list(every_antichain(nvars, 2))
            counts.append(len(ideals))
            for ideal in ideals:
                expected = oracles.stabilizer(ideal)
                assert stabilizer(ideal) == expected, ideal.gens
                assert stabilizer_order(ideal) == len(expected), ideal.gens
        assert counts == [2, 4, 20, 980]  # plane partitions in an n-cube of side 3

    def test_seeded_random_ideals_on_four_to_eight_variables(self):
        rng = random.Random(21)
        nontrivial = 0
        for case in range(300):
            nvars = 8 if case % 30 == 0 else rng.randint(4, 7)
            if case % 2:
                gens = orbit_closed_gens(rng, nvars)
            else:
                gens = [tuple(rng.randint(0, 2) for _ in range(nvars)) for _ in range(rng.randint(0, 6))]
            ideal = minimalize(nvars, gens)
            found = stabilizer(ideal)
            assert found == oracles.stabilizer(ideal), ideal.gens
            assert stabilizer_order(ideal) == len(found), ideal.gens
            nontrivial += len(found) > 1
        assert nontrivial > 150

    def test_block_shapes_of_the_benchmark(self):
        # Each block of variables carries the pure powers of its own size, so
        # exactly the permutations that keep every variable's exponent fix it.
        for cut in itertools.combinations(range(1, 8), 2):
            sizes = [len(block) for block in (range(0, cut[0]), range(cut[0], cut[1]), range(cut[1], 8))]
            exponent = [size for size in sizes for _ in range(size)]
            gens = [tuple(exponent[i] if v == i else 0 for v in range(8)) for i in range(8)]
            expected = [p for p in itertools.permutations(range(8)) if all(exponent[p[i]] == exponent[i] for i in range(8))]
            assert len(expected) == math.prod(math.factorial(exponent.count(e)) for e in set(exponent))
            assert stabilizer(minimalize(8, gens)) == expected
        ideal = minimalize(8, [tuple(3 if v == i else 0 for v in range(8)) for i in range(3)] + [(0,) * 3 + (1,) * 5])
        assert stabilizer(ideal) == oracles.stabilizer(ideal)

    @pytest.mark.parametrize("power", [2, 3])
    def test_pure_powers_of_eight_variables_give_all_of_s8(self, power):
        ideal = minimalize(8, [tuple(power if v == i else 0 for v in range(8)) for i in range(8)])
        found = stabilizer(ideal)
        assert found == oracles.stabilizer(ideal) == list(itertools.permutations(range(8)))

    def test_fano_plane_needs_the_exact_test(self):
        # Every pair of points lies on exactly one line, so every permutation
        # passes the pair cuts; only 168 of the 5040 fix the seven lines.
        lines = [(0, 1, 2), (0, 3, 4), (0, 5, 6), (1, 3, 5), (1, 4, 6), (2, 3, 6), (2, 4, 5)]
        ideal = minimalize(7, [tuple(int(v in line) for v in range(7)) for line in lines])
        found = stabilizer(ideal)
        assert len(found) == 168
        assert found == oracles.stabilizer(ideal)

    def test_zero_one_and_zero_ideal_cases(self):
        assert stabilizer(minimalize(0, [])) == stabilizer(minimalize(0, [()])) == [()]
        assert stabilizer(minimalize(1, [(3,)])) == [(0,)]
        assert stabilizer(minimalize(3, [])) == list(itertools.permutations(range(3)))
        assert stabilizer(minimalize(3, [(0, 0, 0)])) == list(itertools.permutations(range(3)))

    def test_seeded_ideals_whose_symmetric_block_comes_last(self):
        # Random generators on the first variables, and a block on the last
        # ones that every permutation of the block fixes: the listing takes
        # the whole block as one symmetric tail below each prefix.
        rng = random.Random(71)
        for case in range(150):
            nvars = 8 if case % 50 == 0 else rng.randint(2, 7)
            k = rng.randint(2, nvars)
            head, block = nvars - k, range(nvars - k, nvars)
            gens = [tuple(rng.randint(0, 2) for _ in range(head)) + (0,) * k for _ in range(rng.randint(0, 3))]
            power, joined = rng.randint(1, 3), rng.random() < 0.5
            for i in block:
                gens.append(tuple(power * (v == i) for v in range(nvars)))
                if joined and head:  # x0 times each block variable keeps the block symmetric
                    gens.append(tuple(int(v in (0, i)) for v in range(nvars)))
            if case % 3 == 0:  # pairs inside the block, a generator in two of its variables
                gens += [tuple(int(v in pair) for v in range(nvars)) for pair in itertools.combinations(block, 2)]
            ideal = minimalize(nvars, gens)
            found = stabilizer(ideal)
            assert found == oracles.stabilizer(ideal), ideal.gens
            assert stabilizer_order(ideal) == len(found) >= math.factorial(k)

    def test_seeded_ideals_with_interleaved_blocks(self):
        # Variables in random blocks, shuffled so that each block's variables
        # sit between the others': each variable's pure power has its block's
        # exponent, and a product xi*xj is added for every pair drawn from one
        # or two chosen blocks, so each block's permutations fix the ideal.
        rng = random.Random(73)
        for case in range(150):
            nvars = 8 if case % 50 == 0 else rng.randint(3, 7)
            sizes = []
            while sum(sizes) < nvars:
                sizes.append(rng.randint(1, nvars - sum(sizes)))
            exponent = [rng.randint(1, 3) for _ in sizes]
            label = [b for b, size in enumerate(sizes) for _ in range(size)]
            rng.shuffle(label)
            gens = [tuple(exponent[label[i]] * (v == i) for v in range(nvars)) for i in range(nvars)]
            for _ in range(rng.randint(0, 2)):
                b, c = rng.randrange(len(sizes)), rng.randrange(len(sizes))
                gens += [
                    tuple(int(v in (i, j)) for v in range(nvars))
                    for i in range(nvars)
                    for j in range(nvars)
                    if i < j and {label[i], label[j]} == {b, c}
                ]
            ideal = minimalize(nvars, gens)
            found = stabilizer(ideal)
            assert found == oracles.stabilizer(ideal), ideal.gens
            assert stabilizer_order(ideal) == len(found)

    def test_fano_style_cases_need_the_exact_test_below_the_symmetric_cut(self):
        # Designs in which every pair of points has the same pair kind, so the
        # symmetric cut fires at the root and only the exact test can tell the
        # permutations apart.
        lines = [(0, 1, 2), (0, 3, 4), (0, 5, 6), (1, 3, 5), (1, 4, 6), (2, 3, 6), (2, 4, 5)]
        rng = random.Random(79)
        designs = [
            (7, lines),
            (7, [tuple(v for v in range(7) if v not in line) for line in lines]),  # the complements
            (5, list(itertools.combinations(range(5), 3))),
            # a 2-(6, 3, 2) design: every pair of points lies on two of the ten blocks
            (6, [(0, 1, 2), (0, 1, 3), (0, 2, 4), (0, 3, 5), (0, 4, 5), (1, 2, 5), (1, 3, 4), (1, 4, 5), (2, 3, 4), (2, 3, 5)]),
            # the 14 planes of AG(3, 2): the 4-sets of points of F2^3 that sum to 0
            (8, [q for q in itertools.combinations(range(8), 4) if q[0] ^ q[1] ^ q[2] ^ q[3] == 0]),
        ]
        for nvars, blocks in designs:
            for _ in range(3):
                sigma = rng.sample(range(nvars), nvars)
                ideal = minimalize(nvars, [tuple(int(sigma[v] in b) for v in range(nvars)) for b in blocks])
                found = stabilizer(ideal)
                assert found == oracles.stabilizer(ideal), (nvars, ideal.gens)
                assert stabilizer_order(ideal) == len(found)
        # x0 squared first: the cut fires below x0 -> x0, on the seven points of the plane.
        with_head = minimalize(8, [(2,) + (0,) * 7] + [(0,) + tuple(int(v in line) for v in range(7)) for line in lines])
        assert len(stabilizer(with_head)) == 168 and stabilizer(with_head) == oracles.stabilizer(with_head)

    def test_a_symmetric_tail_is_listed_without_searching_it(self, monkeypatch):
        # ``_bits`` is read once per node of the search, so its calls count the
        # nodes: all of S8 is one node, and S7 below x0 a handful.
        calls = []

        def counted(mask):
            calls.append(mask)
            return relations._bits(mask)

        monkeypatch.setattr(monomials, "_bits", counted)
        squares = minimalize(8, [tuple(2 * (v == i) for v in range(8)) for i in range(8)])
        assert list(iter_stabilizer(squares)) == list(itertools.permutations(range(8)))
        assert len(calls) <= 2
        calls.clear()
        cube_first = minimalize(8, [(3,) + (0,) * 7] + [tuple(2 * (v == i) for v in range(8)) for i in range(1, 8)])
        found = list(iter_stabilizer(cube_first))
        assert found == [(0,) + p for p in itertools.permutations(range(1, 8))]
        assert len(calls) <= 8

    def test_guard_message_is_unchanged(self):
        with pytest.raises(OrdkitError, match=r"^monomial-ideals.stabilizer: 9 variables exceeds guard 8$"):
            stabilizer(minimalize(9, []))

    def test_order_of_the_edge_cases(self):
        squares = minimalize(8, [tuple(2 if v == i else 0 for v in range(8)) for i in range(8)])
        cases = [minimalize(0, []), minimalize(0, [()]), minimalize(1, [(3,)]), minimalize(1, []), squares]
        for ideal in cases:
            assert stabilizer_order(ideal) == len(oracles.stabilizer(ideal)) == len(list(iter_stabilizer(ideal)))
        assert stabilizer_order(squares) == math.factorial(8)
        with pytest.raises(OrdkitError, match=r"^monomial-ideals.stabilizer: 9 variables exceeds guard 8$"):
            stabilizer_order(minimalize(9, []))


def random_digraph(rng, n, cyclic, loops=False):
    """Random parallel edges along a shuffled vertex order, plus a back edge when cyclic,
    plus one or two self-loops when ``loops``."""
    order = list(range(n))
    rng.shuffle(order)
    pairs = [(order[i], order[j]) for i in range(n) for j in range(i + 1, n) for _ in range(rng.choice((0, 0, 1, 2)))]
    if cyclic:
        i, j = sorted(rng.sample(range(n), 2)) if n > 1 else (0, 0)
        pairs.append((order[j], order[i]))
    if loops:
        pairs += [(v, v) for v in rng.sample(range(n), min(n, rng.randint(1, 2)))]
    rng.shuffle(pairs)
    return Digraph(n, tuple(Edge(a, b, f"e{k}") for k, (a, b) in enumerate(pairs)))


def same_outcome(new, old):
    """Equal path lists, or the same OrdkitError text from both."""
    try:
        expected = old()
    except OrdkitError as exc:
        with pytest.raises(OrdkitError) as caught:
            new()
        assert str(caught.value) == str(exc)
        return
    assert new() == expected


class TestHomPaths:
    def test_every_pair_of_seeded_random_digraphs(self):
        rng = random.Random(31)
        for case in range(240):
            q = random_digraph(rng, rng.randint(1, 6), cyclic=case % 4 == 3)
            for a, b in itertools.product(range(q.n), repeat=2):
                for limit in (None, 0, 1, 2, 3, 4):
                    same_outcome(
                        lambda: hom_paths(q, a, b, limit), lambda: oracles.hom_paths(q, a, b, limit)
                    )

    def test_negative_bound_and_outside_endpoints(self):
        q = random_digraph(random.Random(5), 4, cyclic=False)
        same_outcome(lambda: hom_paths(q, 0, 1, -1), lambda: oracles.hom_paths(q, 0, 1, -1))
        assert hom_paths(q, 0, 4) == oracles.hom_paths(q, 0, 4) == []
        assert hom_paths(q, -1, 0, 3) == oracles.hom_paths(q, -1, 0, 3) == []

    def test_dense_twenty_vertex_dag_as_in_the_benchmark(self):
        rng = random.Random(8)
        edges = [(i, j) for i in range(20) for j in range(i + 1, 20) if rng.random() < 0.65]
        q = Digraph(20, tuple(Edge(a, b, f"e{k}") for k, (a, b) in enumerate(edges)))
        for a, b in ((0, 19), (2, 15), (7, 7), (15, 2)):
            assert hom_paths(q, a, b) == oracles.hom_paths(q, a, b)
        assert hom_paths(q, 0, 19, 4) == oracles.hom_paths(q, 0, 19, 4)

    def test_long_chain_costs_only_its_answer(self):
        n = 1200
        chain = Digraph(n, tuple(Edge(i, i + 1, f"e{i}") for i in range(n - 1)))
        start = time.perf_counter()
        found = hom_paths(chain, 0, n - 1)
        assert [len(p) for p in found] == [n - 1]
        assert hom_paths(chain, 5, 4) == []
        assert time.perf_counter() - start < 10


def listing_outcome(count, listing):
    """``("ok", paths)`` with the count checked against the listing, or ``("error", text)``."""
    try:
        total = count()
    except OrdkitError as exc:
        with pytest.raises(OrdkitError) as caught:
            listing()
        assert str(caught.value) == str(exc)
        return "error", str(exc)
    found = listing()
    assert total == len(found)
    return "ok", found


def oracle_outcome(oracle):
    try:
        return "ok", oracle()
    except OrdkitError as exc:
        return "error", str(exc)


class TestPathListings:
    """The streamed listings and their counts against the layer-by-layer growth of every path."""

    def check_every_listing(self, q, limits):
        for limit in limits:
            expected = oracle_outcome(
                lambda: oracles.all_paths(q) if limit is None else oracles.paths_up_to_length(q, limit)
            )
            assert listing_outcome(lambda: count_paths(q, limit), lambda: list(iter_paths(q, limit))) == expected
            listed = lambda: all_paths(q) if limit is None else paths_up_to_length(q, limit)
            assert oracle_outcome(listed) == expected
            for a, b in itertools.product(range(q.n), repeat=2):
                expected = oracle_outcome(lambda: oracles.hom_paths(q, a, b, limit))
                outcome = listing_outcome(
                    lambda: count_hom_paths(q, a, b, limit), lambda: list(iter_hom_paths(q, a, b, limit))
                )
                assert outcome == expected == oracle_outcome(lambda: hom_paths(q, a, b, limit))

    def test_seeded_random_multigraphs(self):
        rng = random.Random(61)
        shapes = {"dag": 0, "cycle": 0, "loops": 0}
        for case in range(150):
            shape = ("dag", "cycle", "loops")[case % 3]
            q = random_digraph(rng, rng.randint(1, 6), cyclic=shape == "cycle", loops=shape == "loops")
            self.check_every_listing(q, (None, 0, 1, 2, 3, 4, 5, 6))
            shapes[shape] += q.has_cycle()
        assert shapes == {"dag": 0, "cycle": 36, "loops": 50}

    def test_seeded_chains_of_single_edges(self):
        # Mostly one edge out of each vertex: chains that merge, and cycles of
        # single edges when the heads may point back.
        rng = random.Random(67)
        cyclic = 0
        for case in range(80):
            n = rng.randint(1, 9)
            pairs = []
            for v in range(n):
                heads = range(n) if case % 2 else range(v + 1, n)
                pairs += [(v, rng.choice(heads)) for _ in range(rng.choice((1, 1, 1, 1, 0, 2))) if heads]
            q = Digraph(n, tuple(Edge(a, b, f"e{k}") for k, (a, b) in enumerate(pairs)))
            self.check_every_listing(q, (None, 0, 1, 3, 6, 9))
            cyclic += q.has_cycle()
        assert 20 < cyclic < 40

    def test_errors_come_from_the_count(self):
        q = Digraph(2, (Edge(0, 1, "u"), Edge(1, 0, "v")))
        for count, message in [
            (lambda: count_paths(q), "directed cycle found"),
            (lambda: count_hom_paths(q, 0, 1), "directed cycle found"),
            (lambda: count_paths(q, -1), "negative length bound"),
            (lambda: count_hom_paths(q, 0, 1, -1), "negative length bound"),
        ]:
            with pytest.raises(OrdkitError, match=f"^digraph-paths.paths: {message}"):
                count()
        assert count_hom_paths(q, 0, 5, 3) == 0 and list(iter_hom_paths(q, 0, 5, 3)) == []
        empty = Digraph(0, ())
        assert count_paths(empty) == count_paths(empty, 3) == 0 and all_paths(empty) == oracles.all_paths(empty) == []


class NullSink:
    def write(self, text):
        pass

    def flush(self):
        pass


def traced_peak(fn):
    """The peak of memory traced while ``fn()`` runs, in bytes."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestStreamedListings:
    """The big listings stream from their kernels, so nothing grows with the number of rows."""

    def test_s8_stabilizer_document_peaks_under_one_mebibyte(self, monkeypatch):
        gens = ", ".join(f"x{i}^2" for i in range(1, 9))
        argv = ["ideal", "stabilizer", "--gens", gens]
        monkeypatch.setattr("sys.stdout", NullSink())
        assert cli.main(argv) == 0  # loads the modules and warms the caches first
        assert traced_peak(lambda: cli.main(argv)) < 1 << 20

    def test_paths_document_of_a_dense_dag_peaks_under_half_a_mebibyte(self, monkeypatch):
        rng, names = random.Random(1), [chr(ord("a") + i) for i in range(18)]
        edges = [f"{a}->{b}" for i, a in enumerate(names) for b in names[i + 1 :] if rng.random() < 0.62]
        text = "n=18; edges: " + ", ".join(edges)
        assert count_paths(parse_digraph(text)[0]) == 12834
        argv = ["digraph", "paths", "--input", text, "--complete"]
        monkeypatch.setattr("sys.stdout", NullSink())
        assert cli.main(argv) == 0
        assert traced_peak(lambda: cli.main(argv)) < 1 << 19

    def test_upsets_document_of_fourteen_points_peaks_under_one_mebibyte(self, monkeypatch):
        argv = ["preorder", "upsets", "--input", "n=14"]  # 16,384 up-sets, the list of masks held
        monkeypatch.setattr("sys.stdout", NullSink())
        assert cli.main(argv) == 0
        assert traced_peak(lambda: cli.main(argv)) < 1 << 20

    @pytest.mark.parametrize(
        "argv, limit",
        [
            (("graph", "letterplace", "--p", "n=5; points: j,w,t,c,n; pairs: t<=c", "--q",
              "n=4; points: w,i,m,p; pairs: p<=w"), 320 << 10),
            (("graph", "co-letterplace", "--poset", "n=5; points: g,x,c,r,o; pairs: c<=g, x<=r, c<=o, x<=g, o<=r",
              "--depth", "4", "--full-hom"), 360 << 10),
        ],
        ids=["letterplace", "co-letterplace"],
    )
    def test_letterplace_documents_peak_under_their_pins(self, monkeypatch, argv, limit):
        # 288 and 413 maps; the generators and exponents stream into the document.
        monkeypatch.setattr("sys.stdout", NullSink())
        assert cli.main(list(argv)) == 0
        assert traced_peak(lambda: cli.main(list(argv))) < limit

    def test_letterplace_builds_no_map_records(self, monkeypatch):
        p, q = Preorder.discrete(7), Preorder.chain(3)
        expected = [f.values for f in monotone_maps(p, q)]
        assert len(expected) == 3**7

        def refuse(*values):
            raise AssertionError("a MonotoneMap record was built")

        monkeypatch.setattr(MonotoneMap, "_trusted", refuse)
        ideal = letterplace(p, q)
        assert ideal.ideal.gens == tuple(sorted(tuple(int(v == f[x]) for x in range(7) for v in range(3)) for f in expected))

    def test_chain_of_three_hundred_vertices_peaks_under_one_mebibyte(self):
        n = 300
        chain = Digraph(n, tuple(Edge(i, i + 1, f"e{i}") for i in range(n - 1)))
        tally = []

        def stream():
            tally.append(count_paths(chain))
            tally.append(sum(len(p) for p in iter_paths(chain)))

        assert traced_peak(stream) < 1 << 20
        assert tally == [n * (n + 1) // 2, (n - 1) * n * (n + 1) // 6]


def random_bipartite(rng, n, planted):
    """A poset relation read through a random matching with a few bits flipped, or a sparse random one."""
    if planted:
        rank = list(range(n))
        rng.shuffle(rank)
        rows = [1 << i | sum(1 << j for j in range(n) if rank[i] < rank[j] and rng.random() < 0.3) for i in range(n)]
        for i in sorted(range(n), key=lambda i: -rank[i]):
            for j in range(n):
                if rows[i] >> j & 1 and j != i:
                    rows[i] |= rows[j]
        match = list(range(n))
        rng.shuffle(match)
        relation = [sum(1 << match[j] for j in range(n) if row >> j & 1) for row in rows]
        for _ in range(rng.randint(0, 2)):
            relation[rng.randrange(n)] ^= 1 << rng.randrange(n)
    else:
        relation = [sum(1 << j for j in range(n) if rng.random() < 0.3) for _ in range(n)]
    names = [f"a{i}" for i in range(n)], [f"b{j}" for j in range(n)]
    return BipartiteGraph(tuple(names[0]), tuple(names[1]), tuple(relation))


class TestCMBipartite:
    def test_seeded_random_graphs_with_nine_or_ten_vertices_per_side(self):
        rng = random.Random(41)
        witnesses = 0
        for case in range(120):
            g = random_bipartite(rng, rng.randint(9, 10), planted=case % 3 != 2)
            found = is_cm_bipartite(g)
            assert found == oracles.is_cm_bipartite(g)
            witnesses += found is not None
        assert 20 < witnesses < 120

    def test_every_bipartite_graph_with_three_vertices_per_side(self):
        names = ("a0", "a1", "a2"), ("b0", "b1", "b2")
        for rows in itertools.product(range(8), repeat=3):
            g = BipartiteGraph(*names, rows)
            assert is_cm_bipartite(g) == oracles.is_cm_bipartite(g)

    def test_empty_and_unequal_sides_have_no_witness(self):
        assert is_cm_bipartite(BipartiteGraph((), (), ())) is None
        assert is_cm_bipartite(BipartiteGraph(("a",), ("b", "c"), (1,))) is None


DOCUMENTS = [
    {"kind": "x", "nested": {"b": [1, [2, [3, {}]]], "a": {"z": [], "y": {}}}},
    {},
    [],
    [[], {}, [[]], [{}]],
    {"name": "Ölçü ∀x≤y — 順序", "emoji": "\U0001f600", "escapes": "tab\tquote\"back\\"},
    {"t": True, "f": False, "none": None, "list": [True, False, None, 0, -1, 2.5]},
    "top-level string",
    7,
    None,
    {"big": [{"i": i, "s": str(i)} for i in range(6000)]},
]


class TestWriteDocument:
    @pytest.mark.parametrize("doc", DOCUMENTS)
    def test_streamed_text_equals_document_text(self, doc):
        out = io.StringIO()
        assert write_document(doc, out) is None
        assert out.getvalue() == document_text(doc) == json.dumps(doc, indent=2, sort_keys=True) + "\n"

    def test_large_document_is_written_in_several_batches(self):
        writes = []

        class Recorder:
            def write(self, text):
                writes.append(text)

        doc = DOCUMENTS[-1]
        write_document(doc, Recorder())
        assert len(writes) > 3
        assert "".join(writes) == document_text(doc)

    @pytest.mark.parametrize(
        "row",
        ["x" * 5000, {"s": "x" * 5000, "t": ["y" * 2000]}, {"s": "x" * 5000, "f": 0.5}],
        ids=["strings", "template", "generic"],
    )
    def test_batches_are_bounded_by_their_size(self, row):
        writes = []
        doc = {"rows": [row] * 400}
        write_document(doc, SimpleNamespace(write=writes.append))
        assert "".join(writes) == json.dumps(doc, indent=2, sort_keys=True) + "\n"
        assert len(writes) > 10 and max(map(len, writes)) < 2 * BATCH_CHARS


def materialised(doc):
    """``doc`` with every iterator drained into a list, as ``json.dumps`` needs it."""
    if isinstance(doc, dict):
        return {k: materialised(v) for k, v in doc.items()}
    if isinstance(doc, (list, tuple)) or hasattr(doc, "__next__"):
        return [materialised(item) for item in doc]
    return doc


GENERATOR_DOCUMENTS = [
    lambda: {"count": 0, "rows": (x for x in ())},
    lambda: {"count": 1, "rows": ({"a": i} for i in range(1))},
    lambda: {"rows": ((j for j in range(i)) for i in range(4)), "tail": iter([[], {}])},
    lambda: ([i, str(i)] for i in range(3)),
    lambda: iter(()),
    lambda: {"rows": ({"i": i, "s": str(i), "t": (i, None)} for i in range(50_000))},
]


class TestGeneratorArrays:
    @pytest.mark.parametrize("make", GENERATOR_DOCUMENTS)
    def test_generator_text_equals_the_materialised_json(self, make):
        expected = json.dumps(materialised(make()), indent=2, sort_keys=True) + "\n"
        out = io.StringIO()
        write_document(make(), out)
        assert out.getvalue() == document_text(make()) == expected

    def test_first_write_comes_before_the_rows_run_out(self):
        rows_left = []

        def rows():
            for i in range(50_000):
                rows_left.append(50_000 - i)
                yield {"i": i, "s": str(i)}
            rows_left.append(0)

        class Recorder:
            def __init__(self):
                self.writes = []

            def write(self, text):
                self.writes.append((rows_left[-1], text))

        out = Recorder()
        write_document({"rows": rows()}, out)
        assert out.writes[0][0] > 0 and len(out.writes) > 3
        expected = json.dumps(materialised({"rows": rows()}), indent=2, sort_keys=True)
        assert "".join(text for _, text in out.writes) == expected + "\n"


def dumped(doc):
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


# Names and labels that JSON must escape, and "%", which the row templates must not read.
AWKWARD = ["a", "b", "ab", "Ölçü", "順序", "\U0001f600", 'q"', "back\\", "tab\t", "%s", "%%", "%(a)s", "", " "]


class TestRowFunctions:
    """Each listing's row function writes what ``json.dumps`` writes for the rows it replaces."""

    def test_a_row_function_is_an_array_at_any_depth(self):
        rows = lambda indent: (f"[{indent}  {i}{indent}]" for i in range(3))  # noqa: E731
        doc = {"a": [{"deep": rows}], "b": lambda indent: iter(()), "c": rows}
        expected = {"a": [{"deep": [[0], [1], [2]]}], "b": [], "c": [[0], [1], [2]]}
        assert document_text(doc) == dumped(expected)
        out = io.StringIO()
        write_document(doc, out)
        assert out.getvalue() == dumped(expected)

    def test_mask_rows_on_seeded_masks_across_the_byte_boundary(self):
        rng = random.Random(83)
        for n in (0, 1, 2, 7, 8, 9, 15, 16, 17, 24):
            names = rng.sample(AWKWARD, min(n, len(AWKWARD))) + [f"p{i}" for i in range(n - len(AWKWARD))]
            full = (1 << n) - 1
            masks = sorted({0, full, *(rng.getrandbits(n) if n else 0 for _ in range(40))})
            masks += [1 << x for x in range(n)] + [full ^ 1 << x for x in range(n)]
            expected = {"opens": [[names[x] for x in range(n) if m >> x & 1] for m in masks]}
            assert document_text({"opens": mask_rows(masks, names)}) == dumped(expected), n
        assert document_text({"opens": mask_rows([], ["a"])}) == dumped({"opens": []})

    def test_preorder_upsets_documents_match_the_name_lists(self):
        for text in ("n=1", "n=5", "n=9; pairs: p0<=p1, p1<=p2", "n=16; pairs: p7<=p8, p8<=p9, p3<=p12"):
            p, names = parse_preorder(text)
            masks = relations.up_sets(p)
            rows = [[names[x] for x in relations._bits(m)] for m in masks]
            assert masks[0] == 0 and rows[0] == []
            expected = {"count": len(masks), "kind": "up-sets", "opens": rows}
            assert run_cli("preorder", "upsets", "--input", text) == dumped(expected)

    def test_map_rows_on_seeded_permutations_and_names(self):
        rng = random.Random(89)
        for n in (0, 1, 1, 2, 3, 5, 8, 8):
            names = rng.sample(AWKWARD, n)
            perms = [tuple(rng.sample(range(n), n)) for _ in range(30)]
            expected = {"rows": [{names[i]: names[j] for i, j in enumerate(t)} for t in perms]}
            assert document_text({"rows": map_rows(iter(perms), names)}) == dumped(expected), names

    def test_ideal_stabilizer_documents_on_zero_one_and_more_variables(self):
        for nvars, gens in [(0, []), (0, [()]), (1, [(3,)]), (1, []), (3, [(1, 1, 0), (0, 1, 1)]), (4, [])]:
            ideal = minimalize(nvars, gens)
            names = ["z", "a", "m", "b"][:nvars]
            expected = {"rows": [{names[i]: names[j] for i, j in enumerate(t)} for t in stabilizer(ideal)]}
            assert document_text({"rows": map_rows(iter_stabilizer(ideal), names)}) == dumped(expected)
        for gens in ("x^2", "y*z, x^3", "b*a, c*b, a*c"):
            vectors, ground = parse_monomials(gens)
            perms = stabilizer(minimalize(len(ground), vectors))
            rows = [{ground[i]: ground[j] for i, j in enumerate(t)} for t in perms]
            expected = {"count": len(perms), "kind": "stabilizer", "permutations": rows}
            assert run_cli("ideal", "stabilizer", "--gens", gens) == dumped(expected)

    @staticmethod
    def path_dicts(paths, names):
        """The rows ``digraph paths`` and ``homs`` wrote as dicts, from the ``Path`` records."""
        return [
            {
                "start": names[p.start],
                "end": names[p.end],
                "labels": list(p.labels),
                "word": "".join(p.labels) if p.edges else f"1_{names[p.start]}",
            }
            for p in paths
        ]

    def test_path_rows_on_seeded_digraphs(self):
        rng = random.Random(97)
        for case in range(120):
            n = rng.randint(1, 6)
            q = random_digraph(rng, n, cyclic=False, loops=False)
            if case % 3 == 0:  # labels JSON must escape, and labels that are prefixes of others
                edges = tuple(Edge(e.src, e.dst, rng.choice(AWKWARD[:-2]) + str(k)) for k, e in enumerate(q.edges))
                q = Digraph(n, edges)
            names = rng.sample(AWKWARD[:-2], n)
            for limit in (None, 0, 1, 3):
                expected = {"paths": self.path_dicts(iter_paths(q, limit), names)}
                assert document_text({"paths": path_rows(q, names, limit)}) == dumped(expected)
            a, b = rng.randrange(n), rng.randrange(n)
            for source, target in ((a, b), (a, a), (b, a)):
                for limit in (None, 0, 2):
                    expected = {"paths": self.path_dicts(iter_hom_paths(q, source, target, limit), names)}
                    written = document_text({"paths": path_rows(q, names, limit, source, target)})
                    assert written == dumped(expected)

    def test_path_documents_without_edges_with_default_labels_and_unreachable_targets(self):
        cases = [
            ("n=1", ("paths", "--complete")),
            ("n=3", ("paths", "--max-length", "2")),
            ("n=3; edges: a->b, b->c, a->c", ("paths", "--complete")),
            ("n=3; edges: a->b, b->c, a->c:x", ("homs", "--source", "a", "--target", "c")),
            ("n=3; edges: a->b, b->c", ("homs", "--source", "b", "--target", "b")),
            ("n=3; edges: a->b, b->c", ("homs", "--source", "c", "--target", "a")),
            ("n=3; edges: a->b", ("homs", "--source", "a", "--target", "c", "--max-length", "0")),
        ]
        for text, (command, *options) in cases:
            q, names = parse_digraph(text)
            if command == "paths":
                limit = None if "--complete" in options else int(options[-1])
                paths = list(iter_paths(q, limit))
                kind = "paths"
            else:
                source, target = names.index(options[1]), names.index(options[3])
                limit = int(options[5]) if len(options) > 4 else None
                paths = list(iter_hom_paths(q, source, target, limit))
                kind = "hom-paths"
            expected = {"count": len(paths), "kind": kind, "paths": self.path_dicts(paths, names)}
            assert run_cli("digraph", command, "--input", text, *options) == dumped(expected), (text, options)


def run_cli(*argv):
    """The stdout of ``cli.main(argv)``, which must exit 0."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(list(argv)) == 0
    return out.getvalue()


json_values = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(), st.floats(), st.text()),
    lambda inner: st.one_of(st.lists(inner, max_size=5), st.dictionaries(st.text(), inner, max_size=5)),
    max_leaves=30,
)


@settings(max_examples=300, deadline=None)
@given(json_values)
def test_writer_matches_json_dumps(doc):
    assert document_text(doc) == json.dumps(doc, indent=2, sort_keys=True) + "\n"


class Label(str):
    """A ``str`` subclass, which ``json`` writes as the string it holds."""


class Lazy(list):
    """A list that ``realised`` turns into a generator."""


def realised(doc):
    """``doc`` with every ``Lazy`` list turned into a generator, made afresh on each call."""
    if isinstance(doc, dict):
        copy = doc.copy()  # keeps a defaultdict a defaultdict
        copy.update((k, realised(v)) for k, v in doc.items())
        return copy
    if isinstance(doc, (list, tuple)):
        items = [realised(item) for item in doc]
        return (item for item in items) if isinstance(doc, Lazy) else type(doc)(items)
    return doc


texts = st.text(max_size=4) | st.sampled_from(["", "Ölçü", "順序", "\U0001f600", 'q"\\', "%s", "%%", "%(a)s"])
text_lists = st.lists(texts, max_size=3)
template_values = st.one_of(texts, st.integers(), text_lists, st.dictionaries(texts, texts, min_size=1, max_size=2))
template_rows = st.one_of(
    texts, st.integers(), text_lists, st.dictionaries(texts, template_values, min_size=1, max_size=4)
)
stray_values = st.one_of(
    template_values,
    st.booleans(),
    st.none(),
    st.floats(allow_nan=False),
    texts.map(Label),
    st.dictionaries(texts, st.integers(), max_size=2),
    st.lists(st.one_of(texts, st.integers(), st.none()), max_size=3),
)
forms = st.sampled_from([tuple, Lazy])


def strays(row):
    """Rows like ``row`` with at most one thing changed: a key, a value's class, a list's form or its text."""
    if isinstance(row, dict):
        keys = st.sampled_from(sorted(row))
        return st.one_of(
            st.just(row),
            st.tuples(keys | texts, stray_values).map(lambda kv: {**row, kv[0]: kv[1]}),
            keys.map(lambda gone: {k: v for k, v in row.items() if k != gone}),
            keys.map(lambda renamed: defaultdict(str, {k + "_" * (k == renamed): v for k, v in row.items()})),
            forms.map(lambda form: {k: form(v) if isinstance(v, list) else v for k, v in row.items()}),
        )
    if isinstance(row, list):
        return st.one_of(st.just(row), text_lists, forms.map(lambda form: form(row)), stray_values)
    return st.one_of(st.just(row), stray_values)


@st.composite
def row_arrays(draw):
    """A document holding an array whose first row has a template shape and whose later rows stray."""
    first = draw(template_rows)
    rows = [first] + [draw(strays(first)) for _ in range(draw(st.integers(0, 6)))]
    array = draw(st.sampled_from([list, tuple, Lazy]))(rows)
    return draw(st.sampled_from([array, {"rows": array, "count": len(rows)}, [{"deep": [array]}]]))


@settings(max_examples=400, deadline=None)
@given(row_arrays())
def test_row_arrays_match_json_dumps(doc):
    expected = json.dumps(materialised(realised(doc)), indent=2, sort_keys=True) + "\n"
    assert document_text(realised(doc)) == expected


def test_unwritable_values_raise_type_error():
    rows_that_stray = ([{"a": "x"}, {"a": b"x"}], [{"a": "x"}, {1: "x"}], [["a"], [b"x"]], ["a", b"x"], [1, {2}])
    for doc in ({1: "a"}, {"rows": {1, 2}}, [b"bytes"], *rows_that_stray):
        with pytest.raises(TypeError):
            document_text(doc)
