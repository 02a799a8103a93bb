"""Checks on request results, run outside every timed region.

Two kinds of check:

* ``expectation_problem``: the exit-code contract.  0 on success with an
  empty stderr, 1 with exactly one ``ERR module.op:`` line, 2 for usage and
  grammar errors, never a traceback, never a timeout.
* ``output_problems``: independent checks of what successful requests
  printed, computed from the generator's own model of the input rather than
  from ``ordkit``: known counts, canonical forms of relabelled pairs, minimal
  transversals, stabilizer permutations and up-set closure.
"""

from __future__ import annotations

import hashlib
import json
import re
from dataclasses import dataclass

from workloads import Request, count_up_sets

TRACEBACK = "Traceback (most recent call last)"
ERR_LINE = re.compile(r"ERR [a-z][a-z0-9-]*\.[A-Za-z_][A-Za-z0-9_-]*: \S")


@dataclass(frozen=True)
class Result:
    """What one run of a request produced."""

    code: int | None
    """Exit code; None when the request was killed at its timeout."""
    stdout: bytes
    stderr: bytes
    seconds: float
    maxrss_kib: int = 0


def expectation_problem(req: Request, res: Result) -> str | None:
    """Why ``res`` breaks the exit-code contract for ``req``, or None."""
    if res.code is None:
        return "timed out"
    err = res.stderr.decode("utf-8", "replace")
    if TRACEBACK in err:
        return f"traceback ({err.strip().splitlines()[-1]})"
    if res.code != req.expect:
        return f"exit {res.code}, expected {req.expect}"
    lines = err.splitlines()
    if req.expect == 0 and lines:
        return "stderr written on success"
    if req.expect == 1 and (len(lines) != 1 or not ERR_LINE.match(lines[0])):
        return "exit 1 without exactly one 'ERR module.op:' line"
    if req.expect == 2 and not lines:
        return "exit 2 without a message"
    return None


def output_problems(requests: list[Request], stdouts: list[bytes]) -> list[tuple[int, str]]:
    """Independent checks of successful outputs, as ``(request index, problem)``."""
    problems = []
    canon: dict[object, dict[int, int]] = {}
    for i, (req, out) in enumerate(zip(requests, stdouts)):
        if req.check is None:
            continue
        try:
            if req.check == "canon":
                canon.setdefault(req.data[0], {})[i] = json.loads(out)["encoding"]
                continue
            problem = CHECKS[req.check](req.data, out)
        except (ValueError, KeyError, TypeError) as exc:
            problem = f"unreadable output ({type(exc).__name__}: {exc})"
        if problem:
            problems.append((i, f"{req.check}: {problem}"))
    for codes in canon.values():
        if len(set(codes.values())) != 1:
            problems.extend((i, f"canon: encodings of a relabelled pair differ {codes}") for i in codes)
    return sorted(problems)


def _count(data, out: bytes) -> str | None:
    want = f"{data[0]}\n".encode()
    return None if out == want else f"printed {out[:40]!r}, want {want!r}"


def _lines(data, out: bytes) -> str | None:
    got = out.count(b"\n")
    return None if got == data[0] else f"{got} lines, want {data[0]}"


def _dual(data, out: bytes) -> str | None:
    """Each generator of the dual meets every support and drops none it could spare."""
    names, gens = data
    supports = [{names[i] for i, e in enumerate(g) if e} for g in gens]
    doc = json.loads(out)
    ground = doc["vars"]
    duals = [{ground[i] for i, e in enumerate(vec) if e} for vec in doc["exponents"]]
    if not duals:
        return "no generators"
    for t in duals:
        if not all(t & s for s in supports):
            return f"{sorted(t)} misses a support"
        for v in t:
            if all((t - {v}) & s for s in supports):
                return f"{sorted(t)} is not minimal: {v} can go"
    return None


def _stabilizer(data, out: bytes) -> str | None:
    """Each permutation of the variables that occur maps the generator set onto itself."""
    names, gens = data
    want = {frozenset((names[i], e) for i, e in enumerate(g) if e) for g in gens}
    doc = json.loads(out)
    perms = doc["permutations"]
    if doc["count"] != len(perms) or not perms:
        return f"count {doc['count']} for {len(perms)} permutations"
    if {v: v for v in perms[0]} not in perms:
        return "identity missing"
    for perm in perms:
        image = {frozenset((perm[v], e) for v, e in g) for g in want}
        if image != want:
            return f"{perm} moves the generator set"
    return None


def _upsets(data, out: bytes) -> str | None:
    """Every listed set is closed upward, and there are as many as the model counts."""
    names, rows = data
    index = {name: i for i, name in enumerate(names)}
    doc = json.loads(out)
    opens = doc["opens"]
    seen = set()
    for members in opens:
        mask = sum(1 << index[name] for name in members)
        if mask in seen:
            return f"{members} listed twice"
        seen.add(mask)
        for x in members:
            if rows[index[x]] & ~mask:
                return f"{members} is not closed upward at {x}"
    want = count_up_sets(rows)
    if doc["count"] != len(opens) or len(opens) != want:
        return f"{len(opens)} up-sets (count {doc['count']}), want {want}"
    return None


CHECKS = {"count": _count, "lines": _lines, "dual": _dual, "stabilizer": _stabilizer, "upsets": _upsets}


def output_digest(results: list[Result]) -> str:
    """sha256 over every request's exit code and stdout, in request order."""
    h = hashlib.sha256()
    for res in results:
        h.update(f"{res.code} {len(res.stdout)}\n".encode())
        h.update(res.stdout)
    return h.hexdigest()
