import json
import os
import subprocess
import sys
from pathlib import Path

import ordkit
from ordkit.cli import main
from ordkit.textio import parse_document


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
        doc = parse_document(out)
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
        doc = parse_document(out)
        assert doc["blocks"] == [["x", "y"], ["z"]]

    def test_upsets_document(self, capsys):
        code, out, _ = run(capsys, "preorder", "upsets", "--input", "n=2; pairs: v<=w")
        doc = parse_document(out)
        assert doc["count"] == 3 and doc["opens"] == [[], ["w"], ["v", "w"]]

    def test_canon_is_permutation_invariant(self, capsys):
        _, out1, _ = run(capsys, "preorder", "canon", "--input", "n=2; pairs: v<=w")
        _, out2, _ = run(capsys, "preorder", "canon", "--input", "n=2; pairs: w<=v")
        assert parse_document(out1)["encoding"] == parse_document(out2)["encoding"]

    def test_hasse_dot_output(self, capsys):
        code, out, _ = run(capsys, "preorder", "hasse", "--input", "n=2; pairs: v<=w")
        assert code == 0 and out.startswith("digraph hasse {") and '"v" -> "w";' in out

    def test_no_close_strictness(self, capsys):
        code, _, err = run(
            capsys, "preorder", "classify", "--no-close", "--input", "n=2; pairs: v<=w"
        )
        assert code == 1
        assert err.startswith("ERR cli-io.parse_preorder:")

    def test_env_guard_lowers_enumeration(self, capsys, monkeypatch):
        monkeypatch.setenv("ORDKIT_MAX_N", "2")
        code, _, err = run(capsys, "preorder", "enumerate", "--n", "3", "--count")
        assert code == 1 and err.startswith("ERR order-core.enumerate_preorders:")


class TestTopologyCommands:
    def test_enumerate_count(self, capsys):
        code, out, _ = run(capsys, "topology", "enumerate", "--n", "3", "--count")
        assert (code, out) == (0, "29\n")

    def test_validate_reports_witness(self, capsys):
        code, _, err = run(
            capsys, "topology", "validate", "--input", "points: a,b,c; opens: {},{a},{b},{a,b,c}"
        )
        assert code == 1
        assert err.startswith("ERR finite-topology.validate:") and "{0}, {1}" in err

    def test_from_and_to_preorder(self, capsys):
        _, out, _ = run(capsys, "topology", "from-preorder", "--input", "n=2; pairs: v<=w")
        doc = parse_document(out)
        assert doc["opens"] == [[], ["w"], ["v", "w"]]
        _, out, _ = run(
            capsys, "topology", "to-preorder", "--input", "points: v,w; opens: {},{w},{v,w}"
        )
        assert parse_document(out)["pairs"] == [["v", "w"]]

    def test_t0(self, capsys):
        _, out, _ = run(capsys, "topology", "t0", "--input", "points: v,w; opens: {},{v,w}")
        assert parse_document(out)["value"] is False


class TestDigraphCommands:
    EXAMPLE = "n=3; edges: a->b:e, a->b:f, b->c:g, a->c:h"

    def test_paths_count_nine(self, capsys):
        _, out, _ = run(capsys, "digraph", "paths", "--input", self.EXAMPLE, "--complete")
        doc = parse_document(out)
        assert doc["count"] == 9

    def test_homs_a_to_c(self, capsys):
        _, out, _ = run(
            capsys, "digraph", "homs", "--input", self.EXAMPLE, "--source", "a", "--target", "c"
        )
        doc = parse_document(out)
        assert doc["count"] == 3
        assert sorted(p["word"] for p in doc["paths"]) == ["eg", "fg", "h"]

    def test_cycle_complete_is_domain_error(self, capsys):
        code, _, err = run(
            capsys, "digraph", "paths", "--input", "n=2; edges: a->b:u, b->a:v", "--complete"
        )
        assert code == 1 and err.startswith("ERR digraph-paths.paths:")

    def test_reachability_preorder(self, capsys):
        _, out, _ = run(capsys, "digraph", "preorder", "--input", self.EXAMPLE)
        doc = parse_document(out)
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


class TestIdealCommands:
    def test_associated_preorder_of_pure_squares_is_discrete(self, capsys):
        code, out, _ = run(capsys, "ideal", "preorder", "--gens", "x^2,y^2")
        doc = parse_document(out)
        assert doc["pairs"] == [] and doc["points"] == ["x", "y"]

    def test_strongly_stable(self, capsys):
        _, out, _ = run(capsys, "ideal", "strongly-stable", "--gens", "x^2, x*y, y^3")
        assert parse_document(out)["value"] is True

    def test_most_degenerate(self, capsys):
        _, out, _ = run(capsys, "ideal", "most-degenerate", "--gens", "x^2, y^2")
        assert parse_document(out)["value"] is False

    def test_stabilizer(self, capsys):
        _, out, _ = run(capsys, "ideal", "stabilizer", "--gens", "x^2, y^2")
        doc = parse_document(out)
        assert doc["count"] == 2

    def test_upset_round_trip(self, capsys):
        _, out, _ = run(capsys, "ideal", "to-upset", "--gens", "x^2, x*y, y^3")
        chains = parse_document(out)["text"]
        _, out, _ = run(capsys, "ideal", "from-upset", "--chains", chains, "--vars", "x,y")
        assert parse_document(out)["generators"] == ["y^3", "x*y", "x^2"]

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
        assert parse_document(out)["rows"] == ["111", "011", "001"]

    def test_closed(self, capsys):
        _, out, _ = run(capsys, "pattern", "closed", "--rows", "110,010,001")
        assert parse_document(out)["value"] is True

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
        assert parse_document(out)["opens"] == [[], ["x", "y", "z"]]
        _, out, _ = run(capsys, "pattern", "pre", "--matrices", mats)
        assert len(parse_document(out)["pairs"]) == 6


class TestGraphCommands:
    def test_edge_ideal(self, capsys):
        _, out, _ = run(capsys, "graph", "edge-ideal", "--edges", "a-b,b-c,c-d")
        assert parse_document(out)["generators"] == ["c*d", "b*c", "a*b"]

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
        doc = parse_document(out)
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
        assert parse_document(out)["cohen_macaulay"] is False

    def test_linres(self, capsys):
        _, out, _ = run(
            capsys, "graph", "linres", "--edges", "a-b,b-c,c-d", "--parts", "a,c|b,d"
        )
        assert parse_document(out)["value"] is True

    def test_dim_gens_and_poset(self, capsys):
        _, out, _ = run(capsys, "graph", "dim", "--gens", "v^2, v*w, w^2")
        assert parse_document(out)["value"] == 3
        _, out, _ = run(capsys, "graph", "dim", "--poset", "n=2; pairs: v<=w")
        assert parse_document(out)["value"] == 3

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
        assert code == 0 and parse_document(out)["cohen_macaulay"] is True

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
        doc = parse_document(out)
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
        assert len(parse_document(out)["generators"]) == 3

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

    def test_dual(self, capsys):
        _, out, _ = run(capsys, "graph", "dual", "--gens", "a*b, b*c, c*d")
        assert parse_document(out)["generators"] == ["b*d", "b*c", "a*c"]

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
        assert parse_document(proc.stdout)["value"] == 10000000000

    def test_dim_and_dual_of_the_zero_variable_unit_ideal(self, capsys):
        code, out, err = run(capsys, "graph", "dim", "--gens", "1")
        assert (code, err) == (0, "")
        assert parse_document(out) == {"kind": "quotient-dimension", "value": 0}
        code, out, err = run(capsys, "graph", "dual", "--gens", "1")
        assert (code, err) == (0, "")
        assert parse_document(out) == {
            "exponents": [], "generators": [], "kind": "ideal", "text": "", "vars": []
        }

    def test_dim_of_the_unit_ideal_in_two_variables(self, capsys):
        code, out, err = run(capsys, "graph", "dim", "--gens", "vars: x,y; 1")
        assert (code, err) == (0, "")
        assert parse_document(out) == {"kind": "quotient-dimension", "value": 0}


class TestGaloisCommand:
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
        doc = parse_document(out)
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
        assert parse_document(out)["holds"] is False

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
        assert parse_document(out)["holds"] is True


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

    def test_file_input_source(self, capsys, tmp_path):
        f = tmp_path / "p.txt"
        f.write_text("n=2; pairs: v<=w\n")
        code, out, _ = run(capsys, "preorder", "upsets", "--file", str(f))
        assert code == 0 and parse_document(out)["count"] == 3

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
