"""Self-tests of the benchmark harness.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import itertools
import json
import sys
import types
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

from ordkit import cli, relations, textio  # noqa: E402

from checks import Result, expectation_problem, output_problems  # noqa: E402
from run import call_inprocess, paired_pass  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS, Request, requests_for  # noqa: E402


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_same_seed_gives_the_same_request_list(workload):
    assert requests_for(workload, 11) == requests_for(workload, 11)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_different_seeds_give_different_inputs(workload):
    first, second = requests_for(workload, 11), requests_for(workload, 12)
    assert len(first) == len(second)
    assert [r.argv for r in first] != [r.argv for r in second]
    assert [r.argv[0] for r in first] == [r.argv[0] for r in second]


def test_cli_small_leaves_ten_samples_above_p90():
    assert len(requests_for("cli-small", 3)) >= 100


# ---------------------------------------------------------------- checker


def _ok(stdout: bytes = b"", code: int = 0, stderr: bytes = b"") -> Result:
    return Result(code, stdout, stderr, 0.1)


def test_checker_flags_a_wrong_exit_code():
    req = Request(("preorder", "classify", "--input", "n=1"), 0)
    assert expectation_problem(req, _ok(b"{}\n")) is None
    assert "exit 2" in expectation_problem(req, _ok(code=2, stderr=b"parse error: x\n"))
    bad = Request(("preorder", "enumerate", "--n", "9"), 1)
    assert expectation_problem(bad, _ok(code=1, stderr=b"ERR order-core.enumerate: too big\n")) is None
    assert expectation_problem(bad, _ok(code=1, stderr=b"ERR a.b: one\nERR a.b: two\n"))
    assert expectation_problem(bad, _ok(code=0))


def test_checker_flags_a_traceback_and_a_timeout():
    req = Request(("preorder", "classify", "--file", "absent"), 2)
    tb = b"Traceback (most recent call last):\n  ...\nFileNotFoundError: absent\n"
    assert "traceback" in expectation_problem(req, _ok(code=1, stderr=tb))
    assert expectation_problem(req, Result(None, b"", b"", 60.0)) == "timed out"


def _cli_stdout(argv) -> bytes:
    return call_inprocess(cli, argv)[1]


def test_checker_flags_corrupted_stdout():
    reqs = [r for r in requests_for("cli-small", 5) if r.check in ("upsets", "stabilizer", "dual")]
    assert {r.check for r in reqs} == {"upsets", "stabilizer", "dual"}
    stdouts = [_cli_stdout(r.argv) for r in reqs]
    assert output_problems(reqs, stdouts) == []
    for i, req in enumerate(reqs):
        doc = json.loads(stdouts[i])
        if req.check == "upsets":
            doc["opens"][-1] = doc["opens"][-1][:-1]
        elif req.check == "stabilizer":
            doc["permutations"][0] = {k: "q" for k in doc["permutations"][0]}
        else:
            doc["exponents"][0] = [0] * len(doc["exponents"][0])
        corrupted = list(stdouts)
        corrupted[i] = json.dumps(doc).encode()
        assert [j for j, _ in output_problems(reqs, corrupted)] == [i]


def test_checker_flags_counts_and_relabelled_canon_pairs():
    counts = [Request(("preorder", "enumerate", "--n", "5", "--count"), 0, "count", (6942,))]
    assert output_problems(counts, [b"6942\n"]) == []
    assert output_problems(counts, [b"6941\n"])
    pair = [r for r in requests_for("order-search", 1) if r.check == "canon"][:2]
    assert pair[0].data == pair[1].data
    same = [b'{"encoding": 5}', b'{"encoding": 5}']
    assert output_problems(pair, same) == []
    assert [i for i, _ in output_problems(pair, [b'{"encoding": 5}', b'{"encoding": 6}'])] == [0, 1]


# ---------------------------------------------------------------- tracer


def test_tracer_leaves_stdout_unchanged():
    reqs = [r for r in requests_for("cli-small", 2) if not r.files and r.argv[0] != "selftest"]
    tracer = Tracer()
    (_, plain), (_, traced) = paired_pass(cli, reqs, tracer, 0)
    assert traced == plain
    assert tracer.calls["cli"] == len(reqs)
    assert cli.relations is relations and cli.document_text is textio.document_text


def test_tracer_attributes_a_nested_call_to_its_layer():
    fake = types.ModuleType("fakecli")
    fake.relations, fake.textio = relations, textio

    def handler():
        p, _names = fake.textio.parse_preorder("n=3; pairs: x<=y")
        return fake.relations.up_sets(p), list(fake.relations.enumerate_preorders(2))

    ticks = itertools.count()
    tracer = Tracer(clock=lambda: float(next(ticks)))
    with tracer.installed(fake):
        ups, listed = tracer.request(0, handler)
    assert fake.relations is relations

    names = [span[0] for span in tracer.spans]
    assert names == ["cli", "textio.parse_preorder", "relations.up_sets"] + \
        ["relations.enumerate_preorders"] * 5
    assert all(span[3] == 0 and span[4] == 0 for span in tracer.spans[1:])
    # Clock ticks: root 0..15, each child span one tick; the root's self time is the rest.
    assert tracer.self_times() == {"cli": 15 - 7, "textio.parse": 1, "relations": 6}
    assert tracer.calls == {"cli": 1, "textio.parse": 1, "relations": 2}
    assert tracer.emitted["relations"] == len(ups) + len(listed) == 6 + 4
    assert tracer.in_bytes == len("n=3; pairs: x<=y")
