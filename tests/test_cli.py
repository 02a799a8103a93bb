import json
import os
import random
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import ordkit
from ordkit import relations, topology
from ordkit.cli import main
from ordkit.relations import Preorder, enumerate_preorders, monotone_maps
from ordkit.textio import (
    default_point_names,
    parse_preorder,
    render_preorder,
    render_topology,
)
from tests import oracles


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestPreorderCommands:
    def test_enumerate_count_on_three_points(self, capsys):
        code, out, err = run(capsys, "preorder", "enumerate", "--n", "3", "--count")
        assert (code, out, err) == (0, "29\n", "")

    def test_enumerate_streams_one_line_per_preorder(self, capsys):
        code, out, _ = run(capsys, "preorder", "enumerate", "--n", "2")
        lines = out.strip().splitlines()
        assert len(lines) == 4
        assert lines[0] == "n=2; points: v,w"

    def test_classify_document(self, capsys):
        code, out, _ = run(capsys, "preorder", "classify", "--input", "n=2; pairs: v<=w")
        doc = json.loads(out)
        assert code == 0
        assert doc["flags"] == {
            "partial_order": True,
            "equivalence": False,
            "total": True,
            "discrete": False,
            "coarse": False,
        }

    def test_bubbles_document(self, capsys):
        code, out, _ = run(capsys, "preorder", "bubbles", "--input", "n=3; pairs: x<=y, y<=x")
        doc = json.loads(out)
        assert doc["blocks"] == [["x", "y"], ["z"]]

    def test_upsets_document(self, capsys):
        code, out, _ = run(capsys, "preorder", "upsets", "--input", "n=2; pairs: v<=w")
        doc = json.loads(out)
        assert doc["count"] == 3 and doc["opens"] == [[], ["w"], ["v", "w"]]

    def test_canon_is_permutation_invariant(self, capsys):
        _, out1, _ = run(capsys, "preorder", "canon", "--input", "n=2; pairs: v<=w")
        _, out2, _ = run(capsys, "preorder", "canon", "--input", "n=2; pairs: w<=v")
        assert json.loads(out1)["encoding"] == json.loads(out2)["encoding"]

    def test_hasse_dot_output(self, capsys):
        code, out, _ = run(capsys, "preorder", "hasse", "--input", "n=2; pairs: v<=w")
        assert code == 0 and out.startswith("digraph hasse {") and '"v" -> "w";' in out

    def test_no_close_strictness(self, capsys):
        code, _, err = run(
            capsys, "preorder", "classify", "--no-close", "--input", "n=2; pairs: v<=w"
        )
        assert code == 1
        assert err.startswith("ERR cli-io.parse_preorder:")

    def test_streamed_listing_and_count_agree(self, capsys):
        for n in range(1, 5):
            code, out, _ = run(capsys, "preorder", "enumerate", "--n", str(n))
            names = default_point_names(n)
            assert code == 0 and out.endswith("\n")
            assert out.splitlines() == [render_preorder(p, names) for p in enumerate_preorders(n)]
            count = run(capsys, "preorder", "enumerate", "--n", str(n), "--count")
            assert count == (0, f"{len(out.splitlines())}\n", "")

    @pytest.mark.parametrize(
        "group, n",
        [("preorder", "0"), ("preorder", "6"), ("topology", "-1"), ("topology", "0"), ("topology", "6")],
    )
    def test_listing_outside_the_guard_writes_nothing(self, capsys, group, n):
        code, out, err = run(capsys, group, "enumerate", "--n", n)
        assert (code, out) == (1, "")
        assert len(err.splitlines()) == 1
        assert err.startswith("ERR order-core.enumerate_preorders:") and f"n={n} outside guard" in err
        assert run(capsys, group, "enumerate", "--n", n, "--count") == (1, "", err)

    def test_env_guard_lowers_enumeration(self, capsys, monkeypatch):
        monkeypatch.setattr(relations, "ENUMERATION_CAP", 2)
        code, _, err = run(capsys, "preorder", "enumerate", "--n", "3", "--count")
        assert code == 1 and err.startswith("ERR order-core.enumerate_preorders:")

    def test_environment_does_not_change_the_guard(self, capsys, monkeypatch):
        monkeypatch.setenv("ORDKIT_MAX_N", "2")
        assert run(capsys, "preorder", "enumerate", "--n", "3", "--count") == (0, "29\n", "")


class TestTopologyCommands:
    def test_enumerate_count(self, capsys):
        code, out, _ = run(capsys, "topology", "enumerate", "--n", "3", "--count")
        assert (code, out) == (0, "29\n")

    @pytest.mark.parametrize("k", range(1, 6))
    def test_count_is_the_preorder_count(self, capsys, k):
        expected = f"{len(list(oracles.enumerate_topologies(k)))}\n"
        assert run(capsys, "topology", "enumerate", "--n", str(k), "--count") == (0, expected, "")
        assert run(capsys, "preorder", "enumerate", "--n", str(k), "--count") == (0, expected, "")

    def test_count_builds_no_topology(self, capsys, monkeypatch):
        def refuse(p):
            raise AssertionError("--count built a topology")

        monkeypatch.setattr(topology, "from_preorder", refuse)
        assert run(capsys, "topology", "enumerate", "--n", "4", "--count") == (0, "355\n", "")

    def test_enumerate_five_points_renders_the_oracle_listing(self, capsys):
        code, out, err = run(capsys, "topology", "enumerate", "--n", "5")
        names = default_point_names(5)
        assert (code, err) == (0, "")
        assert out.splitlines() == [render_topology(t, names) for t in oracles.enumerate_topologies(5)]
        assert run(capsys, "topology", "enumerate", "--n", "5", "--count") == (0, "6942\n", "")

    def test_validate_reports_witness(self, capsys):
        code, _, err = run(
            capsys, "topology", "validate", "--input", "points: a,b,c; opens: {},{a},{b},{a,b,c}"
        )
        assert code == 1
        assert err.startswith("ERR finite-topology.validate:") and "{0}, {1}" in err

    def test_from_and_to_preorder(self, capsys):
        _, out, _ = run(capsys, "topology", "from-preorder", "--input", "n=2; pairs: v<=w")
        doc = json.loads(out)
        assert doc["opens"] == [[], ["w"], ["v", "w"]]
        _, out, _ = run(
            capsys, "topology", "to-preorder", "--input", "points: v,w; opens: {},{w},{v,w}"
        )
        assert json.loads(out)["pairs"] == [["v", "w"]]

    def test_t0(self, capsys):
        _, out, _ = run(capsys, "topology", "t0", "--input", "points: v,w; opens: {},{v,w}")
        assert json.loads(out)["value"] is False


class TestDigraphCommands:
    EXAMPLE = "n=3; edges: a->b:e, a->b:f, b->c:g, a->c:h"

    def test_paths_count_nine(self, capsys):
        _, out, _ = run(capsys, "digraph", "paths", "--input", self.EXAMPLE, "--complete")
        doc = json.loads(out)
        assert doc["count"] == 9

    def test_homs_a_to_c(self, capsys):
        _, out, _ = run(
            capsys, "digraph", "homs", "--input", self.EXAMPLE, "--source", "a", "--target", "c"
        )
        doc = json.loads(out)
        assert doc["count"] == 3
        assert sorted(p["word"] for p in doc["paths"]) == ["eg", "fg", "h"]

    @pytest.mark.parametrize("source, target", [("q", "c"), ("a", "q")])
    def test_homs_unknown_vertex(self, capsys, source, target):
        argv = ["--input", self.EXAMPLE, "--source", source, "--target", target]
        code, out, err = run(capsys, "digraph", "homs", *argv)
        assert (code, out, err) == (2, "", "parse error: unknown vertex name 'q'\n")

    def test_cycle_complete_is_domain_error(self, capsys):
        code, out, err = run(
            capsys, "digraph", "paths", "--input", "n=2; edges: a->b:u, b->a:v", "--complete"
        )
        assert code == 1 and err.startswith("ERR digraph-paths.paths:")
        assert out == ""  # the count refuses the input before the document starts

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["homs", "--input", "n=2; edges: a->b:u, b->a:v", "--source", "a", "--target", "b"],
             "directed cycle found"),
        ],
    )
    def test_listing_errors_come_before_any_output(self, capsys, argv, message):
        code, out, err = run(capsys, "digraph", *argv)
        assert (code, out) == (1, "")
        assert err.startswith(f"ERR digraph-paths.paths: {message}")

    @pytest.mark.parametrize(
        "argv",
        [
            ["paths", "--input", EXAMPLE, "--max-length", "-1"],
            ["homs", "--input", EXAMPLE, "--source", "a", "--target", "c", "--max-length", "-1"],
        ],
        ids=["paths", "homs"],
    )
    def test_negative_max_length_is_usage_error(self, capsys, argv):
        code, out, err = run(capsys, "digraph", *argv)
        assert (code, out, err) == (2, "", "parse error: max-length must be a natural number\n")

    def test_homs_past_a_cycle_the_source_cannot_reach_finish(self):
        # c loops and reaches b, but a does not reach c: one path, whatever the bound.
        proc = subprocess.run(
            [sys.executable, "-c", "from ordkit.cli import entrypoint; entrypoint()",
             "digraph", "homs", "--input", "n=3; edges: a->b:u, c->c:w, c->b:v",
             "--source", "a", "--target", "b", "--max-length", "100000000"],
            capture_output=True,
            text=True,
            timeout=10,
            env={**os.environ, "PYTHONPATH": str(Path(ordkit.__file__).parents[1])},
        )
        assert (proc.returncode, proc.stderr) == (0, "")
        doc = json.loads(proc.stdout)
        assert doc["count"] == 1 and [p["word"] for p in doc["paths"]] == ["u"]

    def test_reachability_preorder(self, capsys):
        _, out, _ = run(capsys, "digraph", "preorder", "--input", self.EXAMPLE)
        doc = json.loads(out)
        assert doc["pairs"] == [["a", "b"], ["a", "c"], ["b", "c"]]

    def test_reachability_preorder_point_count_is_its_own_error(self, capsys):
        for text, n in [("n=0", 0), ("n=17; edges: a->b", 17)]:
            code, out, err = run(capsys, "digraph", "preorder", "--input", text)
            assert (code, out) == (1, "")
            assert err == f"ERR digraph-paths.reachability_preorder: point count {n} outside 1..16\n"

    def test_render_dot(self, capsys):
        code, out, _ = run(capsys, "digraph", "render", "--input", self.EXAMPLE)
        assert code == 0 and out.startswith("digraph g {")
        assert '"a" -> "b" [label="e"];' in out

    def test_render_text_round_trips(self, capsys):
        _, out, _ = run(capsys, "digraph", "render", "--input", self.EXAMPLE, "--format", "text")
        assert out.strip() == "n=3; points: a,b,c; edges: a->b:e, a->b:f, b->c:g, a->c:h"

    @pytest.mark.parametrize(
        "text",
        [
            "n=2; edges: a->b:e, b->a:e",
            "n=2; edges: a->b:e1, b->a",  # the written e1 clashes with the default label of edge 1
            "n=2; edges: a->b, b->a:e0",
        ],
    )
    def test_repeated_edge_label_is_a_grammar_error(self, capsys, text):
        code, out, err = run(capsys, "digraph", "paths", "--complete", "--input", text)
        assert (code, out, err) == (2, "", "parse error: duplicate edge label names\n")

    def test_zero_max_length_lists_the_empty_paths(self, capsys):
        code, out, err = run(capsys, "digraph", "paths", "--input", "n=1; edges: a->a", "--max-length", "0")
        assert (code, err) == (0, "") and json.loads(out)["count"] == 1


class TestIdealCommands:
    def test_associated_preorder_of_pure_squares_is_discrete(self, capsys):
        code, out, _ = run(capsys, "ideal", "preorder", "--gens", "x^2,y^2")
        doc = json.loads(out)
        assert doc["pairs"] == [] and doc["points"] == ["x", "y"]

    def test_strongly_stable(self, capsys):
        _, out, _ = run(capsys, "ideal", "strongly-stable", "--gens", "x^2, x*y, y^3")
        assert json.loads(out)["value"] is True

    def test_most_degenerate(self, capsys):
        _, out, _ = run(capsys, "ideal", "most-degenerate", "--gens", "x^2, y^2")
        assert json.loads(out)["value"] is False

    def test_stabilizer(self, capsys):
        _, out, _ = run(capsys, "ideal", "stabilizer", "--gens", "x^2, y^2")
        doc = json.loads(out)
        assert doc["count"] == 2

    def test_upset_round_trip(self, capsys):
        _, out, _ = run(capsys, "ideal", "to-upset", "--gens", "x^2, x*y, y^3")
        chains = json.loads(out)["text"]
        _, out, _ = run(capsys, "ideal", "from-upset", "--chains", chains, "--vars", "x,y")
        assert json.loads(out)["generators"] == ["y^3", "x*y", "x^2"]

    @pytest.mark.parametrize("names, bad", [("x y,z", "x y"), ("A,,b", "A"), ("x,y-z", "y-z")])
    def test_from_upset_rejects_bad_variable_names(self, capsys, names, bad):
        code, out, err = run(capsys, "ideal", "from-upset", "--chains", "0,1", "--vars", names)
        assert (code, out, err) == (2, "", f"parse error: bad variable name {bad!r}\n")

    def test_from_upset_rejects_duplicate_variable_names(self, capsys):
        code, out, err = run(capsys, "ideal", "from-upset", "--chains", "0,1", "--vars", "x,x")
        assert (code, out, err) == (2, "", "parse error: duplicate variable names\n")

    def test_stabilizer_guard_comes_before_any_output(self, capsys):
        gens = ", ".join(f"x{i}^2" for i in range(9))
        code, out, err = run(capsys, "ideal", "stabilizer", "--gens", gens)
        assert (code, out, err) == (1, "", "ERR monomial-ideals.stabilizer: 9 variables exceeds guard 8\n")

    def test_from_upset_rejects_vars_without_names(self, capsys):
        code, out, err = run(capsys, "ideal", "from-upset", "--vars", " , ", "--chains", "0,1")
        assert (code, out, err) == (2, "", "parse error: --vars names no variables\n")

    def test_from_upset_rejects_empty_vars(self, capsys):
        code, out, err = run(capsys, "ideal", "from-upset", "--chains", "0,1", "--vars", "")
        assert (code, out, err) == (2, "", "parse error: --vars names no variables\n")

    @pytest.mark.parametrize("chains", ["1,2", ""])
    def test_from_upset_negative_nvars_is_usage_error(self, capsys, chains):
        code, out, err = run(capsys, "ideal", "from-upset", "--chains", chains, "--nvars", "-1")
        assert (code, out, err) == (2, "", "parse error: nvars must be a natural number\n")

    @pytest.mark.parametrize(
        "chains, fault", [("-1,2", "(-1, 2) has a negative entry"), ("2,1", "(2, 1) is not weakly increasing")]
    )
    def test_from_upset_names_the_chain_fault(self, capsys, chains, fault):
        code, out, err = run(capsys, "ideal", "from-upset", f"--chains={chains}")
        assert (code, out, err) == (1, "", f"ERR monomial-ideals.upset_to_ss: chain {fault}\n")

    def test_from_upset_skips_empty_variable_entries(self, capsys):
        _, out, _ = run(capsys, "ideal", "from-upset", "--chains", "0,1", "--vars", " x,, y ")
        assert json.loads(out)["vars"] == ["x", "y"]

    @staticmethod
    def _from_upset(chains, nvars):
        """Run ``ideal from-upset`` in a fresh process that must finish within 5 s."""
        return subprocess.run(
            [sys.executable, "-c", "from ordkit.cli import entrypoint; entrypoint()",
             "ideal", "from-upset", "--chains", chains, "--nvars", str(nvars)],
            capture_output=True,
            text=True,
            timeout=5,
            env={**os.environ, "PYTHONPATH": str(Path(ordkit.__file__).parents[1])},
        )

    def test_from_upset_of_two_degrees_finishes(self):
        proc = self._from_upset("0,0,0,0,25; 0,0,0,3,24", 5)
        assert (proc.returncode, proc.stderr) == (0, "")
        assert len(json.loads(proc.stdout)["generators"]) == 20475

    @pytest.mark.parametrize("ks", [range(400, -1, -1), range(401)], ids=["descending", "ascending"])
    def test_from_upset_of_many_degrees_finishes(self, ks):
        proc = self._from_upset("; ".join(f"{k},{897 - k}" for k in ks), 2)
        assert (proc.returncode, proc.stderr) == (0, "")
        assert len(json.loads(proc.stdout)["generators"]) == 498

    def test_from_upset_of_a_far_point_over_a_diagonal_finishes(self):
        # Each move is tested against the two minimal listed points, not all 401.
        chains = "; ".join(["0,20000"] + [f"{c},{c}" for c in range(19600, 20000)])
        proc = self._from_upset(chains, 2)
        assert (proc.returncode, proc.stderr) == (0, "")
        assert len(json.loads(proc.stdout)["generators"]) == 19601

    @pytest.mark.parametrize("chains, nvars", [("0,0,0,0,400", 5), ("0,99999999999999999999", 2)])
    def test_from_upset_guard_comes_before_any_output(self, chains, nvars):
        proc = self._from_upset(chains, nvars)
        assert (proc.returncode, proc.stdout) == (1, "")
        assert proc.stderr.startswith("ERR monomial-ideals.upset_to_ss:") and proc.stderr.count("\n") == 1

    def test_from_upset_of_one_huge_variable_finishes(self):
        proc = self._from_upset("99999999999999999999", 1)
        assert (proc.returncode, proc.stderr) == (0, "")
        assert json.loads(proc.stdout)["generators"] == ["x0^99999999999999999999"]

    def test_parse_error_exit_code(self, capsys):
        code, _, err = run(capsys, "ideal", "preorder", "--gens", "x^^2")
        assert code == 2 and "column 3" in err

    def test_preorder_of_too_many_variables_is_rejected_before_the_scan(self, capsys):
        for leaf in ("preorder", "most-degenerate"):
            for count in (17, 80):
                gens = ", ".join(f"x{i}" for i in range(count))
                code, out, err = run(capsys, "ideal", leaf, "--gens", gens)
                assert (code, out) == (1, "")
                assert err == (
                    f"ERR monomial-ideals.associated_preorder: point count {count} outside 1..16\n"
                )


class TestPatternCommands:
    def test_from_preorder_upper_triangular(self, capsys):
        _, out, _ = run(
            capsys,
            "pattern",
            "from-preorder",
            "--input",
            "n=3; pairs: z<=y, y<=x",
        )
        assert json.loads(out)["rows"] == ["111", "011", "001"]

    def test_closed(self, capsys):
        _, out, _ = run(capsys, "pattern", "closed", "--rows", "110,010,001")
        assert json.loads(out)["value"] is True

    @pytest.mark.parametrize("rows", ["", ","])
    def test_closed_without_rows_is_a_grammar_error(self, capsys, rows):
        code, out, err = run(capsys, "pattern", "closed", "--rows", rows)
        assert (code, out, err) == (2, "", "parse error: pattern rows must be equal-length strings of 0/1\n")

    def test_membership_singular_is_domain_error(self, capsys):
        code, _, err = run(
            capsys,
            "pattern",
            "membership",
            "--matrix",
            "1,1; 0,0",
            "--input",
            "n=2; pairs: v<=w",
        )
        assert code == 1 and err.startswith("ERR pattern-groups.membership:")

    def test_invariant_and_pre(self, capsys):
        mats = "1,0,0;0,0,1;0,1,0 | 0,1,0;1,0,0;0,0,1"
        _, out, _ = run(capsys, "pattern", "invariant", "--matrices", mats)
        assert json.loads(out)["opens"] == [[], ["x", "y", "z"]]
        _, out, _ = run(capsys, "pattern", "pre", "--matrices", mats)
        assert len(json.loads(out)["pairs"]) == 6

    def test_points_are_checked_names(self, capsys):
        for leaf in ("invariant", "pre"):
            _, out, _ = run(capsys, "pattern", leaf, "--matrices", "1,1;0,1", "--points", " b , a,")
            assert json.loads(out)["points"] == ["b", "a"]
            cases = {
                "a, a": "parse error: duplicate point names\n",
                "A,": "parse error: bad point name 'A'\n",
                "a,b,c": "parse error: need 2 point names\n",
            }
            for points, message in cases.items():
                code, out, err = run(
                    capsys, "pattern", leaf, "--matrices", "1,1;0,1", "--points", points
                )
                assert (code, out, err) == (2, "", message), (leaf, points)

    def test_generator_errors_keep_the_invariant_subsets_tag(self, capsys):
        big = ";".join(",".join("1" if i == j else "0" for j in range(17)) for i in range(17))
        cases = {
            "1,1;1,1": "generator 0 is singular",
            big: "size 17 exceeds the 16-point cap",
        }
        for leaf in ("invariant", "pre"):
            for mats, message in cases.items():
                code, out, err = run(capsys, "pattern", leaf, "--matrices", mats)
                assert (code, out) == (1, "")
                assert err == f"ERR pattern-groups.invariant_subsets: {message}\n"


class TestGraphCommands:
    def test_edge_ideal(self, capsys):
        _, out, _ = run(capsys, "graph", "edge-ideal", "--edges", "a-b,b-c,c-d")
        assert json.loads(out)["generators"] == ["c*d", "b*c", "a*b"]

    def test_cm_bipartite_witness(self, capsys):
        code, out, _ = run(
            capsys,
            "graph",
            "cm-bipartite",
            "--edges",
            "a-b,b-c,c-d",
            "--parts",
            "a,c|b,d",
        )
        doc = json.loads(out)
        assert doc["cohen_macaulay"] is True
        assert doc["matching"] == {"a": "b", "c": "d"}
        assert doc["poset"] == "n=2; points: a,c; pairs: c<=a"

    def test_cm_bipartite_four_cycle(self, capsys):
        _, out, _ = run(
            capsys,
            "graph",
            "cm-bipartite",
            "--edges",
            "a-b,b-c,c-d,d-a",
            "--parts",
            "a,c|b,d",
        )
        assert json.loads(out)["cohen_macaulay"] is False

    def test_cm_bipartite_sixteen_point_chain_with_side_b_shuffled(self, capsys):
        a_side, b_side = [f"a{i}" for i in range(16)], [f"b{i}" for i in range(16)]
        shuffled = random.Random(16).sample(b_side, 16)
        edges = ", ".join(f"a{i}-b{j}" for i in range(16) for j in range(i, 16))
        text = f"A: {','.join(a_side)} | B: {','.join(shuffled)} | edges: {edges}"
        code, out, err = run(capsys, "graph", "cm-bipartite", "--input", text)
        doc = json.loads(out)
        assert (code, err, doc["cohen_macaulay"]) == (0, "", True)
        assert doc["matching"] == dict(zip(a_side, b_side))
        assert doc["poset"] == render_preorder(Preorder.chain(16), a_side)

    def test_linres(self, capsys):
        _, out, _ = run(
            capsys, "graph", "linres", "--edges", "a-b,b-c,c-d", "--parts", "a,c|b,d"
        )
        assert json.loads(out)["value"] is True

    @pytest.mark.parametrize("command", ["cm-bipartite", "linres"])
    @pytest.mark.parametrize(
        "flag, value", [("--input", "A: a | B: b | edges: a-b"), ("--file", "/nonexistent")]
    )
    def test_parts_with_another_source_is_rejected(self, capsys, command, flag, value):
        argv = ["--parts", "a|b", "--edges", "a-b", flag, value]
        code, out, err = run(capsys, "graph", command, *argv)
        assert (code, out) == (2, "")
        assert err == f"parse error: give exactly one input source, not both --parts and {flag}\n"

    @pytest.mark.parametrize("command", ["cm-bipartite", "linres"])
    @pytest.mark.parametrize(
        "flag, value", [("--input", "A: a | B: b"), ("--file", "/nonexistent")]
    )
    def test_edges_with_another_source_is_rejected(self, capsys, command, flag, value):
        code, out, err = run(capsys, "graph", command, "--edges", "a-b", flag, value)
        assert (code, out) == (2, "")
        assert err == f"parse error: give exactly one input source, not both --edges and {flag}\n"

    @pytest.mark.parametrize("command", ["cm-bipartite", "linres"])
    @pytest.mark.parametrize(
        "argv",
        [
            ["--input", "A: a,a | B: b,c | edges: a-b, a-c"],
            ["--input", "A: a,b | B: c,c | edges: a-c"],
            ["--parts", "a,a|b,c", "--edges", "a-b"],
            ["--parts", "a,b|c,c", "--edges", "a-c"],
        ],
    )
    def test_repeated_name_within_a_side_is_rejected(self, capsys, command, argv):
        code, out, err = run(capsys, "graph", command, *argv)
        assert (code, out, err) == (2, "", "parse error: duplicate vertex names\n")

    def test_repeated_point_name_of_a_graph_is_a_grammar_error(self, capsys):
        code, out, err = run(capsys, "graph", "edge-ideal", "--edges", "points: a,a,b; edges: a-b")
        assert (code, out, err) == (2, "", "parse error: duplicate vertex names\n")

    @pytest.mark.parametrize("command", ["cm-bipartite", "linres"])
    def test_edges_without_parts_say_so(self, capsys, command):
        code, out, err = run(capsys, "graph", command, "--edges", "a-b")
        assert (code, out, err) == (2, "", "parse error: --edges needs --parts\n")

    def test_dim_gens_and_poset(self, capsys):
        _, out, _ = run(capsys, "graph", "dim", "--gens", "v^2, v*w, w^2")
        assert json.loads(out)["value"] == 3
        _, out, _ = run(capsys, "graph", "dim", "--poset", "n=2; pairs: v<=w")
        assert json.loads(out)["value"] == 3

    def test_dim_poset_rejects_non_poset(self, capsys):
        code, _, err = run(
            capsys, "graph", "dim", "--poset", "n=2; pairs: v<=w, w<=v"
        )
        assert code == 1 and err.startswith("ERR edge-rings.antichain_dimension:")

    def test_cm_bipartite_full_grammar_input(self, capsys):
        code, out, _ = run(
            capsys,
            "graph",
            "cm-bipartite",
            "--input",
            "A: a,c | B: b,d | edges: a-b, b-c, c-d",
        )
        assert code == 0 and json.loads(out)["cohen_macaulay"] is True

    def test_letterplace(self, capsys):
        _, out, _ = run(
            capsys,
            "graph",
            "letterplace",
            "--p",
            "n=2; points: i,j; pairs: i<=j",
            "--q",
            "n=2; pairs: v<=w",
        )
        doc = json.loads(out)
        assert len(doc["generators"]) == 3

    def test_co_letterplace_full_hom(self, capsys):
        _, out, _ = run(
            capsys,
            "graph",
            "co-letterplace",
            "--poset",
            "n=2; pairs: v<=w",
            "--full-hom",
            "--depth",
            "1",
        )
        assert len(json.loads(out)["generators"]) == 3

    def test_co_letterplace_downset_violation(self, capsys):
        code, _, err = run(
            capsys,
            "graph",
            "co-letterplace",
            "--poset",
            "n=2; pairs: v<=w",
            "--maps",
            "0,1",
            "--depth",
            "1",
        )
        assert code == 1 and err.startswith("ERR edge-rings.co_letterplace:")

    def test_full_hom_matches_listing_every_monotone_map(self, capsys):
        # --full-hom builds the letterplace ideal into the chain; --maps checks the listed maps.
        rng = random.Random(23)
        cases = []
        for n in range(1, 6):
            for depth in range(5):
                pairs = [(x, y) for x in range(n) for y in range(x + 1, n) if rng.random() < 0.4]
                cases.append((render_preorder(Preorder.from_pairs(n, pairs)), depth))
        cases.append(("n=2; pairs: v<=w, w<=v", 1))  # not antisymmetric: both paths refuse it, last
        for text, depth in cases:
            p, _ = parse_preorder(text)
            maps = ";".join(",".join(map(str, f.values)) for f in monotone_maps(p, Preorder.chain(depth + 1)))
            common = ("graph", "co-letterplace", "--poset", text, "--depth", str(depth))
            full = run(capsys, *common, "--full-hom")
            assert full == run(capsys, *common, "--maps", maps), (text, depth)
        assert full == (1, "", "ERR edge-rings.co_letterplace: preorder is not antisymmetric\n")

    @pytest.mark.parametrize(
        "argv, rule",
        [
            (("digraph", "paths", "--input", "n=1; edges: a->a", "--max-length", "2", "--complete"),
             "exactly one of --max-length or --complete"),
            (("digraph", "paths", "--input", "n=1; edges: a->a"), "exactly one of --max-length or --complete"),
            (("graph", "co-letterplace", "--poset", "n=2", "--maps", "0,0", "--full-hom", "--depth", "1"),
             "exactly one of --maps or --full-hom"),
            (("graph", "co-letterplace", "--poset", "n=2", "--depth", "1"), "exactly one of --maps or --full-hom"),
            (("ideal", "from-upset", "--chains", "0,1", "--vars", "a,b", "--nvars", "5"),
             "at most one of --vars or --nvars"),
            (("ideal", "from-upset", "--chains", "0,1", "--vars", "", "--nvars", "0"),
             "at most one of --vars or --nvars"),
            (("graph", "dim", "--gens", "x^2", "--poset", "n=1"), "exactly one of --gens or --poset"),
            (("graph", "dim"), "exactly one of --gens or --poset"),
        ],
    )
    def test_alternative_options_are_given_exactly_once(self, capsys, argv, rule):
        assert run(capsys, *argv) == (2, "", f"parse error: give {rule}\n")

    @pytest.mark.parametrize("source", [("--full-hom",), ("--maps", "0,1;0,0")])
    def test_co_letterplace_negative_depth_is_usage_error(self, capsys, source):
        code, out, err = run(capsys, "graph", "co-letterplace", "--poset", "n=2", *source, "--depth", "-1")
        assert (code, out, err) == (2, "", "parse error: depth must be a natural number\n")

    def test_dual(self, capsys):
        _, out, _ = run(capsys, "graph", "dual", "--gens", "a*b, b*c, c*d")
        assert json.loads(out)["generators"] == ["b*d", "b*c", "a*c"]

    def test_dim_of_huge_pure_powers_finishes(self):
        proc = subprocess.run(
            [sys.executable, "-c", "from ordkit.cli import entrypoint; entrypoint()",
             "graph", "dim", "--gens", "x^100000,y^100000"],
            capture_output=True,
            text=True,
            timeout=30,
            env={**os.environ, "PYTHONPATH": str(Path(ordkit.__file__).parents[1])},
        )
        assert (proc.returncode, proc.stderr) == (0, "")
        assert json.loads(proc.stdout)["value"] == 10000000000

    def test_co_letterplace_of_one_map_on_sixteen_points_finishes(self):
        proc = subprocess.run(
            [sys.executable, "-c", "from ordkit.cli import entrypoint; entrypoint()",
             "graph", "co-letterplace", "--poset", "n=16", "--maps", ",".join("0" * 16),
             "--depth", "15"],
            capture_output=True,
            text=True,
            timeout=30,
            env={**os.environ, "PYTHONPATH": str(Path(ordkit.__file__).parents[1])},
        )
        assert (proc.returncode, proc.stderr) == (0, "")
        doc = json.loads(proc.stdout)
        assert len(doc["vars"]) == 256 and doc["generators"] == ["*".join(f"p{i}.0" for i in range(16))]

    def test_dim_and_dual_of_the_zero_variable_unit_ideal(self, capsys):
        code, out, err = run(capsys, "graph", "dim", "--gens", "1")
        assert (code, err) == (0, "")
        assert json.loads(out) == {"kind": "quotient-dimension", "value": 0}
        code, out, err = run(capsys, "graph", "dual", "--gens", "1")
        assert (code, err) == (0, "")
        assert json.loads(out) == {
            "exponents": [], "generators": [], "kind": "ideal", "text": "", "vars": []
        }

    def test_dim_of_the_unit_ideal_in_two_variables(self, capsys):
        code, out, err = run(capsys, "graph", "dim", "--gens", "vars: x,y; 1")
        assert (code, err) == (0, "")
        assert json.loads(out) == {"kind": "quotient-dimension", "value": 0}


class TestGaloisCommand:
    def test_negative_truncation_is_usage_error(self, capsys):
        code, out, err = run(capsys, "galois", "check", "--truncation", "-1", "--left", "id", "--right", "id")
        assert (code, out, err) == (2, "", "parse error: truncation must be a natural number\n")

    def test_ceiling_pair_holds(self, capsys):
        _, out, _ = run(
            capsys,
            "galois",
            "check",
            "--truncation",
            "10",
            "--left",
            "ceil-half",
            "--right",
            "double",
        )
        doc = json.loads(out)
        assert doc["holds"] is True and doc["truncation"] == 10

    def test_doubling_left_with_floor_fails(self, capsys):
        _, out, _ = run(
            capsys,
            "galois",
            "check",
            "--truncation",
            "10",
            "--left",
            "double",
            "--right",
            "floor-half",
        )
        assert json.loads(out)["holds"] is False

    def test_explicit_value_lists(self, capsys):
        _, out, _ = run(
            capsys,
            "galois",
            "check",
            "--truncation",
            "2",
            "--left",
            "0,1,2",
            "--right",
            "0,1,2",
        )
        assert json.loads(out)["holds"] is True


class TestContract:
    def test_unknown_flag_is_usage_error(self, capsys):
        code, _, _ = run(capsys, "preorder", "enumerate", "--n", "3", "--bogus")
        assert code == 2

    def test_missing_subcommand_is_usage_error(self, capsys):
        code, _, _ = run(capsys)
        assert code == 2

    def test_missing_input_is_usage_error(self, capsys):
        code, _, err = run(capsys, "preorder", "classify")
        assert code == 2 and "missing input" in err

    def test_both_input_sources_rejected(self, capsys, tmp_path):
        f = tmp_path / "p.txt"
        f.write_text("n=1")
        code, _, err = run(
            capsys, "preorder", "classify", "--input", "n=1", "--file", str(f)
        )
        assert code == 2 and "exactly one" in err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("graph", "edge-ideal", "--edges", "a-b", "--file", "/nonexistent"),
             "give exactly one input source, not both --edges and --file"),
            (("graph", "edge-ideal"), "missing input: use --edges or --file"),
            (("pattern", "invariant", "--matrices", "1", "--matrices-file", "/nonexistent"),
             "give exactly one input source, not both --matrices and --matrices-file"),
            (("pattern", "pre"), "missing input: use --matrices or --matrices-file"),
            (("preorder", "classify", "--input", "n=1", "--file", "/nonexistent"),
             "give exactly one input source, not both --input and --file"),
            (("topology", "t0"), "missing input: use --input or --file"),
        ],
    )
    def test_source_messages_name_the_command_flags(self, capsys, argv, message):
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == (2, "", f"parse error: {message}\n")

    def test_missing_file_is_usage_error(self, capsys, tmp_path):
        code, out, err = run(capsys, "preorder", "canon", "--file", str(tmp_path / "absent.txt"))
        assert (code, out) == (2, "")
        assert err.count("\n") == 1 and "No such file" in err

    def test_huge_point_count_is_rejected_before_names_are_built(self):
        for argv, message in [
            (("preorder", "classify", "--input", "n=99999999999999999999"), "ERR order-core.relation:"),
            (("digraph", "preorder", "--input", "n=99999999999999999999"), "ERR digraph-paths.digraph:"),
        ]:
            proc = subprocess.run(
                [sys.executable, "-c", "from ordkit.cli import entrypoint; entrypoint()", *argv],
                capture_output=True,
                text=True,
                timeout=30,
                env={**os.environ, "PYTHONPATH": str(Path(ordkit.__file__).parents[1])},
            )
            assert proc.returncode == 1
            assert proc.stderr.startswith(message) and proc.stderr.count("\n") == 1

    def test_huge_chains_are_rejected_before_rows_are_built(self):
        for argv in [
            ("galois", "check", "--truncation", "100000000", "--left", "id", "--right", "id"),
            ("graph", "co-letterplace", "--poset", "n=1", "--full-hom", "--depth", "100000000"),
        ]:
            proc = subprocess.run(
                [sys.executable, "-c", "from ordkit.cli import entrypoint; entrypoint()", *argv],
                capture_output=True,
                text=True,
                timeout=30,
                env={**os.environ, "PYTHONPATH": str(Path(ordkit.__file__).parents[1])},
            )
            assert (proc.returncode, proc.stdout) == (1, "")
            assert proc.stderr == "ERR order-core.relation: point count 100000001 outside 1..16\n"

    @pytest.mark.parametrize("module", ["ordkit", "ordkit.cli"])
    @pytest.mark.parametrize("argv", [("preorder", "classify", "--input", "n=2"), ("preorder", "classify", "--input", "n=x")])
    def test_python_dash_m_runs_the_cli(self, capsys, module, argv):
        proc = subprocess.run(
            [sys.executable, "-m", module, *argv],
            capture_output=True,
            text=True,
            timeout=30,
            env={**os.environ, "PYTHONPATH": str(Path(ordkit.__file__).parents[1])},
        )
        code, out, _ = run(capsys, *argv)
        assert (proc.returncode, proc.stdout) == (code, out) and code in (0, 2)

    def test_file_input_source(self, capsys, tmp_path):
        f = tmp_path / "p.txt"
        f.write_text("n=2; pairs: v<=w\n")
        code, out, _ = run(capsys, "preorder", "upsets", "--file", str(f))
        assert code == 0 and json.loads(out)["count"] == 3

    def test_domain_error_single_line_prefix(self, capsys):
        code, _, err = run(capsys, "preorder", "enumerate", "--n", "9", "--count")
        assert code == 1
        lines = [line for line in err.splitlines() if line]
        assert len(lines) == 1 and lines[0].startswith("ERR order-core.enumerate_preorders:")

    def test_byte_identical_repeat_runs(self, capsys):
        first = run(capsys, "topology", "from-preorder", "--input", "n=3; pairs: x<=y")
        second = run(capsys, "topology", "from-preorder", "--input", "n=3; pairs: x<=y")
        assert first == second

    def test_document_outputs_are_canonical_json(self, capsys):
        _, out, _ = run(capsys, "preorder", "classify", "--input", "n=1")
        doc = json.loads(out)
        assert json.dumps(doc, indent=2, sort_keys=True) + "\n" == out


class TestSelftest:
    def test_selftest_passes_with_seed(self, capsys):
        code, out, _ = run(capsys, "selftest", "--seed", "17")
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 3 and all(line.startswith("PASS") for line in lines)

    def test_selftest_deterministic_per_seed(self, capsys):
        first = run(capsys, "selftest", "--seed", "3")
        second = run(capsys, "selftest", "--seed", "3")
        assert first == second

    def test_failing_suite_exits_one_with_one_err_line(self, capsys, monkeypatch):
        monkeypatch.setattr("ordkit.monomials.associated_preorder", lambda ideal: Preorder.coarse(ideal.nvars))
        code, out, err = run(capsys, "selftest", "--seed", "17")
        lines = out.splitlines()
        assert code == 1 and len(lines) == 3
        assert lines[0].startswith("FAIL associated-preorder-oracle: associated preorder mismatch on ")
        assert lines[1:] == ["PASS pattern-product-stability (200 cases)", "PASS alexander-dual-involution (200 cases)"]
        assert err == "ERR selftest.suites: failed: associated-preorder-oracle\n"


def _readme_cli_examples():
    """Each ``ordkit ...`` or ``python -m ordkit ...`` line of the README's CLI block, as
    the argv after the program and its trailing comment."""
    text = (Path(__file__).parents[1] / "README.md").read_text()
    block = text.split("## CLI", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    examples = []
    for line in block.splitlines():
        command, _, comment = line.partition("  #")
        argv = shlex.split(command)
        if argv[:1] == ["ordkit"]:
            examples.append((argv[1:], comment.strip()))
        elif argv[:3] == ["python", "-m", "ordkit"]:
            examples.append((argv[3:], comment.strip()))
    return examples


class TestReadmeExamples:
    def test_the_cli_block_lists_examples(self):
        assert len(_readme_cli_examples()) >= 15

    @pytest.mark.parametrize("argv, comment", _readme_cli_examples())
    def test_example_runs(self, capsys, argv, comment):
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, "")
        if comment.isdigit():
            assert out == f"{comment}\n"
