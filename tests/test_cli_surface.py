"""The CLI's help, usage and argument errors, pinned byte for byte.

``golden/cli_surface.json`` holds the exit code, stdout and stderr of every
argv listed in it: the top-level and group help, each bare group, all 35 leaf
helps, and unknown-group, unknown-leaf, bad-choice and missing-option errors.
They were captured from ``ordkit`` processes run with ``COLUMNS=80`` on
Python 3.11.7, before the parser was rebuilt from the command table.
argparse formats help text a little differently across Python versions.
"""

import json
from pathlib import Path

import pytest

from ordkit.cli import GROUPS, main

CASES = json.loads((Path(__file__).parent / "golden" / "cli_surface.json").read_text())


def test_every_leaf_help_is_pinned():
    pinned = {tuple(case["argv"]) for case in CASES}
    leaves = [
        (group, leaf) if leaf else (group,) for group, (_, _, rows) in GROUPS.items() for leaf, _, _ in rows
    ]
    assert len(leaves) == 35
    assert all((*leaf, "--help") in pinned for leaf in leaves)


@pytest.mark.parametrize("case", CASES, ids=[" ".join(c["argv"]) or "(no arguments)" for c in CASES])
def test_output_and_exit_code_are_unchanged(case, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    code = main(case["argv"])
    out, err = capsys.readouterr()
    assert (code, out, err) == (case["code"], case["stdout"], case["stderr"])
