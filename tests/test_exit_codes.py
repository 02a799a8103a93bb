"""The exit-code contract over every CLI leaf, on argv built from grammar fragments.

Each call returns 0, 1 or 2 and raises nothing.  Exit 1 writes nothing to
stdout and exactly one ``ERR `` line to stderr; exit 2 writes nothing to
stdout and at least one line to stderr.  Values are passed as
``--flag=value``, so a value that starts with ``-`` still parses.  The
largest family the topology grammar reads is refused in a fresh process,
under a deadline.
"""

import contextlib
import io
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ordkit
from ordkit import cli
from ordkit.errors import OrdkitError
from ordkit.topology import validate

FRAGMENTS = {
    "preorder": [
        "n=2; pairs: v<=w",
        "n=3; pairs: x<=y, y<=x",
        "n=3; pairs: z<=y, y<=x",
        "n=1",
        "n=3",
        "n=0",
        "n=-1",
        "n=2; points: a,b; pairs: b<=a",
        "n=2; points: a,a",
        "n=2; pairs: v<=q",
        "pairs: v<=w",
        "n=2; pairs: v<=w; colour: red",
        "",
    ],
    "digraph": [
        "n=3; edges: a->b:e, a->b:f, b->c:g, a->c:h",
        "n=2; edges: a->b, b->a",
        "n=2; edges: a->b:e, b->a:e",
        "n=1",
        "n=2; edges: a->c",
        "edges: a->b",
        "n=3; points: a,b,c; edges: a->b, b->c",
        "",
    ],
    "graph": ["a-b, b-c", "points: a,b,c; edges: a-b", "points: a,a; edges: a-a", "a-a", "a-", ""],
    "bipartite": [
        "A: a,c | B: b,d | edges: a-b, b-c",
        "A: a,c | B: b,d | edges: a-b, b-c, c-d, a-d",
        "A: a | B: b | edges: a-b",
        "A: a | B: a | edges: a-a",
        "A: a,a | B: b | edges: a-b",
        "A: a | edges: a-b",
        "",
    ],
    "topology": [
        "points: v,w; opens: {}, {w}, {v,w}",
        "points: v,w; opens: {}, {v,w}",
        "points: v,w; opens: {w}",
        "points: a,b,c; opens: {}, {a}, {b}, {a,b,c}",
        "points: a,b,c; opens: {}, {a}, {b}, {a,b}, {a,b,c}",
        "points: v,w; opens: {}, {x}, {v,w}",
        "opens: {}",
        "",
    ],
    "monomial": ["x^2,y^2", "x^2, x*y, y^3", "a*b, b*c, c*d", "x*y, y*z", "vars: x,y; x", "1", "x^0", "X", "x^", ""],
    "matrix": ["1,0;1,1 | 1,2;0,1", "1,0;0,1", "2", "1,1;1,1", "1/0", "1,0;0", "0", ""],
    "names": ["a", "c", "x,y", "y,x", "x,y,z", "x,x", "a,c|b,d", "a|b", "a,c", "A", ""],
    "rows": ["110,011,001", "100,010,001", "10,11", "1", "12", "10,1", ""],
    "tuples": ["0,1", "0,1; 1,1", "-1,2", "2,1", "0,0; 0,1; 1,1", "1,1", "x", ""],
    "maps": ["double", "ceil-half", "floor-half", "id", "0,1,2", "0,0", "2,1,0", "-1", "half", ""],
    "format": ["text", "dot", "png"],
}
ANY = sorted({text for texts in FRAGMENTS.values() for text in texts})

# The grammar of a text option, by flag and, where the flag is shared, by command.
SOURCE_KIND = {"preorder": "preorder", "topology": "topology", "digraph": "digraph", "pattern": "preorder"}
FLAG_KIND = {
    "--gens": "monomial",
    "--matrices": "matrix",
    "--matrices-file": "matrix",
    "--matrix": "matrix",
    "--points": "names",
    "--order": "names",
    "--vars": "names",
    "--source": "names",
    "--target": "names",
    "--parts": "names",
    "--rows": "rows",
    "--chains": "tuples",
    "--maps": "tuples",
    "--left": "maps",
    "--right": "maps",
    "--format": "format",
    "--poset": "preorder",
    "--p": "preorder",
    "--q": "preorder",
}
FILE_FLAGS = ("--file", "--matrices-file")


def _kind(group, leaf, flag):
    if flag in FLAG_KIND:
        return FLAG_KIND[flag]
    if (group, leaf) == ("topology", "from-preorder"):
        return "preorder"
    if leaf in ("cm-bipartite", "linres"):
        return "graph" if flag == "--edges" else "bipartite"
    if leaf == "edge-ideal":
        return "graph"
    return SOURCE_KIND[group]


LEAVES = [
    (group, leaf, options)
    for group, (_help, _modules, leaves) in cli.GROUPS.items()
    for leaf, _handler, options in leaves
]


@st.composite
def requests(draw):
    """A command's argv, with each file option as ``(flag, text)`` for the test to write."""
    group, leaf, options = draw(st.sampled_from(LEAVES))
    argv = [group] if leaf is None else [group, leaf]
    # Each file option follows its inline twin; mostly exactly one of the two is given.
    flags = [flag for flag, _ in options]
    twins = {flags[i - 1]: flag for i, flag in enumerate(flags) if flag in FILE_FLAGS}
    given_twins = draw(st.sampled_from(("inline", "inline", "file", "file", "both", "neither")))
    for flag, kwargs in options:
        if flag in twins or flag in FILE_FLAGS:
            side = "file" if flag in FILE_FLAGS else "inline"
            if given_twins not in (side, "both"):
                continue
        elif kwargs.get("action") == "store_true":
            if draw(st.booleans()):
                argv.append(flag)
            continue
        # A required option is left out now and then, an optional one half the time.
        elif draw(st.integers(0, 9)) < (1 if kwargs.get("required") else 5):
            continue
        if kwargs.get("type") is int:
            value = str(draw(st.integers(-1, 4)))
        else:
            # One value in ten comes from another grammar.
            pool = ANY if draw(st.integers(0, 9)) == 0 else FRAGMENTS[_kind(group, leaf, flag)]
            value = draw(st.sampled_from(pool))
        argv.append((flag, value) if flag in FILE_FLAGS else f"{flag}={value}")
    return argv


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=300, deadline=None)
@given(requests())
def test_every_leaf_keeps_the_exit_code_contract(request):
    with tempfile.TemporaryDirectory() as tmp:
        argv = []
        for token in request:
            if isinstance(token, tuple):
                flag, text = token
                path = os.path.join(tmp, f"{flag.strip('-')}.txt")
                with open(path, "w") as handle:
                    handle.write(text)
                token = f"{flag}={path}"
            argv.append(token)
        code, out, err = _run(argv)
    assert code in (0, 1, 2), (argv, code)
    if code == 1:
        assert out == "", argv
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("ERR "), (argv, err)
    elif code == 2:
        assert out == "", argv
        assert err.strip(), argv


def test_every_text_option_has_a_grammar():
    for group, leaf, options in LEAVES:
        for flag, kwargs in options:
            if kwargs.get("type") is not int and kwargs.get("action") != "store_true":
                assert _kind(group, leaf, flag) in FRAGMENTS, (group, leaf, flag)


# All subsets of 16 points but {1..15}: a scan of every pair of its opens takes minutes to refuse it.
ALL_BUT_ONE = [mask for mask in range(1 << 16) if mask != (1 << 16) - 2]


def test_all_subsets_but_one_of_sixteen_points_exit_1_within_the_deadline(tmp_path):
    names = [f"p{i}" for i in range(16)]
    opens = ", ".join("{" + ",".join(names[x] for x in range(16) if mask >> x & 1) + "}" for mask in ALL_BUT_ONE)
    path = tmp_path / "family.txt"
    path.write_text(f"points: {','.join(names)}; opens: {opens}")
    proc = subprocess.run(
        [sys.executable, "-m", "ordkit", "topology", "validate", "--file", str(path)],
        capture_output=True,
        text=True,
        timeout=10,
        env={**os.environ, "PYTHONPATH": str(Path(ordkit.__file__).parents[1])},
    )
    lines = proc.stderr.splitlines()
    assert (proc.returncode, proc.stdout) == (1, "")
    assert len(lines) == 1 and lines[0].startswith("ERR finite-topology.validate: "), proc.stderr
    assert "Traceback" not in proc.stderr


def test_all_subsets_but_one_of_sixteen_points_are_refused_in_under_one_second():
    start = time.perf_counter()
    with pytest.raises(OrdkitError, match="not closed under union"):
        validate(ALL_BUT_ONE, 16)
    assert time.perf_counter() - start < 1.0
