"""Every benchmark workload's output, pinned byte for byte at seeds 1-3.

Each request of ``perfbench/workloads.py`` runs through ``cli.main`` in
process, with its ``--file`` inputs written under a temporary directory.
The first digest is ``checks.output_digest`` over every exit code and
stdout, as ``perfbench/run.py`` reports it in ``output_sha256``.  The second
covers the stderr lines ordkit writes itself (``ERR ...`` and
``parse error...``); argparse's ``usage:`` text differs across Python
versions, so it is left out.

A change that alters any output updates the pins here, and names the
workload, the request index and the reason in ``CHANGES.md``.
"""

import contextlib
import hashlib
import io
import sys
from pathlib import Path

import pytest

from ordkit import cli

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

from checks import Result, output_digest  # noqa: E402
from workloads import requests_for  # noqa: E402

# (workload, seed) -> 12-hex-digit prefixes of the stdout digest and the ordkit-stderr digest;
# e3b0c44298fc is the digest of no stderr lines at all.
PINS = {
    ("cli-small", 1): ("6703d80abdcc", "25ea952c7b88"),
    ("cli-small", 2): ("b1d20488546f", "40c3d34330dc"),
    ("cli-small", 3): ("c3c42b0fbefb", "53507394e2c7"),
    ("order-search", 1): ("694e61da8db3", "e3b0c44298fc"),
    ("order-search", 2): ("e0c8fa423b08", "e3b0c44298fc"),
    ("order-search", 3): ("7a0c80a82955", "e3b0c44298fc"),
    ("ideal-kernels", 1): ("81063134ac87", "e3b0c44298fc"),
    ("ideal-kernels", 2): ("bfa04cad96aa", "e3b0c44298fc"),
    ("ideal-kernels", 3): ("7d4e6b632ddb", "e3b0c44298fc"),
    ("bulk-render", 1): ("c8afeff1f2ca", "e3b0c44298fc"),
    ("bulk-render", 2): ("009653cac0f8", "e3b0c44298fc"),
    ("bulk-render", 3): ("7bc7a4ca05b1", "e3b0c44298fc"),
}


def ordkit_stderr_digest(stderrs):
    """sha256 over each request's ``ERR`` and ``parse error`` lines, tagged with its index."""
    h = hashlib.sha256()
    for i, err in enumerate(stderrs):
        for line in err.splitlines():
            if line.startswith(("ERR ", "parse error")):
                h.update(f"{i} {line}\n".encode())
    return h.hexdigest()


@pytest.mark.parametrize("workload, seed", sorted(PINS))
def test_workload_outputs_are_pinned(workload, seed, tmp_path, monkeypatch):
    requests = requests_for(workload, seed)
    for req in requests:
        for path, text in req.files:
            target = tmp_path / path
            target.parent.mkdir(parents=True, exist_ok=True)
            target.write_text(text, encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    results, stderrs = [], []
    for req in requests:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(req.argv))
        results.append(Result(code, out.getvalue().encode("utf-8"), b"", 0.0))
        stderrs.append(err.getvalue())
    digests = output_digest(results)[:12], ordkit_stderr_digest(stderrs)[:12]
    assert digests == PINS[workload, seed]
