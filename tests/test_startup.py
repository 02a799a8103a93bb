"""Start-up guard: a fresh ``ordkit`` process loads only what its command uses.

Each case runs in a new interpreter and lists the modules that importing
``ordkit.cli`` and running one command added to ``sys.modules``; modules the
interpreter loaded before that, such as those ``site`` brings in, do not count.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import ordkit
from ordkit import cli

PROBE = """
import sys
before = set(sys.modules)
from ordkit.cli import main
if sys.argv[1:]:
    main(sys.argv[1:])
print("\\n#loaded", *sorted(set(sys.modules) - before))
"""

CORE = {"ordkit", "ordkit.cli", "ordkit.errors", "ordkit.relations", "ordkit.textio"}
NEVER = {"dataclasses", "inspect"}
HEAVY = {"fractions", "decimal", "random", "json"}


def loaded(*argv: str) -> set[str]:
    proc = subprocess.run(
        [sys.executable, "-c", PROBE, *argv],
        capture_output=True,
        text=True,
        timeout=60,
        env={**os.environ, "PYTHONPATH": str(Path(ordkit.__file__).parents[1])},
    )
    assert "Traceback" not in proc.stderr, proc.stderr
    return set(proc.stdout.rpartition("\n#loaded")[2].split())


@pytest.mark.parametrize("argv", [(), ("--help",)], ids=["import", "help"])
def test_import_and_help_load_no_layer_beyond_the_core(argv):
    modules = loaded(*argv)
    assert {m for m in modules if m.startswith("ordkit")} == CORE
    assert not modules & (NEVER | HEAVY)


# One command per group: the layer modules it may load, and the watched
# standard-library modules it needs.
GROUP_CASES = [
    (("preorder", "classify", "--input", "n=2; pairs: v<=w"), set(), {"json"}),
    (("preorder", "enumerate", "--n", "3", "--count"), set(), set()),
    (("topology", "t0", "--input", "points: v,w; opens: {}, {w}, {v,w}"), {"topology"}, {"json"}),
    (("digraph", "preorder", "--input", "n=2; edges: a->b"), {"digraphs"}, {"json"}),
    (("ideal", "preorder", "--gens", "x^2, y^2"), {"monomials", "edgerings"}, {"json"}),
    (("pattern", "closed", "--rows", "10,11"), {"patterns", "topology"}, {"json", "fractions", "decimal"}),
    (
        ("pattern", "pre", "--matrices", "1,0;1,1"),
        {"patterns", "topology"},
        {"json", "fractions", "decimal"},
    ),
    (("graph", "dual", "--gens", "a*b, b*c"), {"monomials", "edgerings"}, {"json"}),
    (("graph", "dim", "--poset", "n=2; pairs: v<=w"), {"monomials", "edgerings"}, {"json"}),
    (("galois", "check", "--left", "id", "--right", "id"), set(), {"json"}),
    (
        ("selftest", "--seed", "3"),
        {"monomials", "patterns", "edgerings", "topology"},
        {"fractions", "decimal", "random"},
    ),
]


@pytest.mark.parametrize("argv, layers, stdlib", GROUP_CASES, ids=[" ".join(c[0][:2]) for c in GROUP_CASES])
def test_a_command_loads_only_its_groups_layers(argv, layers, stdlib):
    modules = loaded(*argv)
    assert {m for m in modules if m.startswith("ordkit")} == CORE | {f"ordkit.{name}" for name in layers}
    assert not modules & NEVER
    assert modules & HEAVY <= stdlib



LAYER_MODULES = {"topology", "digraphs", "monomials", "patterns", "edgerings"}


def _names(code):
    yield from code.co_names
    for const in code.co_consts:
        if hasattr(const, "co_names"):
            yield from _names(const)


def _layers_used(fn, seen: set) -> set[str]:
    """Layer modules a cli function names, directly or through the cli helpers it calls."""
    used = set()
    for name in _names(fn.__code__):
        value = vars(cli).get(name)
        if name in LAYER_MODULES:
            used.add(name)
        elif getattr(value, "__module__", None) == cli.__name__ and name not in seen:
            seen.add(name)
            used |= _layers_used(value, seen)
    return used


def test_each_group_declares_the_layers_its_handlers_use():
    assert _layers_used(cli._cmd_ideal_preorder, set()) == {"monomials", "edgerings"}
    for group, (_help, modules, leaves) in cli.GROUPS.items():
        for leaf, handler, _options in leaves:
            assert _layers_used(handler, set()) <= set(modules), (group, leaf)
