"""Outside-in tracer for the in-process run.

Nothing inside ``ordkit`` changes.  ``Tracer.installed(cli)`` swaps the module
references that ``ordkit.cli`` holds, and the functions it imported by name,
for wrappers that record one span per call; on exit the originals go back.
The wrapped functions are found by introspection: every public function
reachable from ``ordkit.cli`` whose defining module is one of ``LAYERS``.

Spans sit only at the cli -> module boundary.  A call that a module makes
internally is not wrapped, so a call from ``edgerings`` into
``monomials.minimalize`` counts as ``edgerings`` self time, and private
helpers or classes that the CLI uses directly count as ``cli`` time.
Spans inside the modules would cost far more: a prototype that wrapped every
module function made millions of spans and raised the in-process time of an
order-search sample by about 87 %, against about 6 % for the boundary.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import json
import time
import types
from collections import Counter, defaultdict

LAYERS = ("textio", "relations", "topology", "digraphs", "monomials", "patterns", "edgerings")
CORE_LAYERS = LAYERS[1:]
PACKAGE = "ordkit"


def layer_of(fn) -> str | None:
    """Layer of a function by its defining module; textio splits into parse and render."""
    package, _, module = (getattr(fn, "__module__", None) or "").rpartition(".")
    if package != PACKAGE or module not in LAYERS:
        return None
    if module == "textio":
        return "textio.parse" if fn.__name__.startswith("parse") else "textio.render"
    return module


def _nbytes(text: str) -> int:
    return len(text) if text.isascii() else len(text.encode("utf-8"))


class _ModuleProxy(types.ModuleType):
    """A module whose public layer functions are traced; everything else passes through."""

    def __init__(self, module: types.ModuleType, tracer: "Tracer"):
        super().__init__(module.__name__, module.__doc__)
        self._module = module
        for name, fn in inspect.getmembers(module, inspect.isfunction):
            if not name.startswith("_") and layer_of(fn):
                setattr(self, name, tracer.wrap(fn))

    def __getattr__(self, name):
        return getattr(self._module, name)


class Tracer:
    """Spans ``[name, start, end, parent, request]`` kept in memory, plus counts per layer.

    ``parent`` is the index of the enclosing span, -1 for a request's root
    ``cli`` span.  Counts: ``calls`` per layer; ``emitted``, the items that
    calls returned as a list or tuple or yielded; ``in_bytes`` of text passed
    to ``textio.parse_*``; ``out_bytes`` of text the render functions returned.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self.layer: dict[str, str] = {"cli": "cli"}
        self.calls: Counter = Counter()
        self.emitted: Counter = Counter()
        self.in_bytes = 0
        self.out_bytes = 0
        self._stack: list[int] = []
        self._request = -1

    # -------------------------------------------------------------- spans

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, self.clock(), 0.0, parent, self._request])
        self._stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def _close(self, index: int) -> None:
        self.spans[index][2] = self.clock()
        self._stack.pop()

    def request(self, request_id: int, fn, *args):
        """Call ``fn(*args)`` as request ``request_id``, inside a root ``cli`` span."""
        self._request = request_id
        self.calls["cli"] += 1
        index = self._open("cli")
        try:
            return fn(*args)
        finally:
            self._close(index)

    def wrap(self, fn):
        layer = layer_of(fn)
        name = f"{fn.__module__.rpartition('.')[2]}.{fn.__name__}"
        self.layer[name] = layer
        if inspect.isgeneratorfunction(fn):

            @functools.wraps(fn)
            def traced_generator(*args, **kwargs):
                self.calls[layer] += 1
                return self._consume(name, layer, fn(*args, **kwargs))

            return traced_generator

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.calls[layer] += 1
            if layer == "textio.parse":
                self.in_bytes += sum(_nbytes(a) for a in args if isinstance(a, str))
            index = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index)
            if isinstance(result, (list, tuple)):
                self.emitted[layer] += len(result)
            if layer == "textio.render" and isinstance(result, str):
                self.out_bytes += _nbytes(result)
            return result

        return traced

    def _consume(self, name: str, layer: str, inner):
        """Yield from ``inner``, one span per resume, so time is counted while it is consumed."""
        try:
            while True:
                index = self._open(name)
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    self._close(index)
                self.emitted[layer] += 1
                yield item
        finally:
            inner.close()

    # -------------------------------------------------------------- install

    @contextlib.contextmanager
    def installed(self, cli: types.ModuleType):
        """Trace the calls ``cli`` makes into the layers while the block runs."""
        layer_modules = {f"{PACKAGE}.{name}" for name in LAYERS}
        saved = {}
        for attr, value in list(vars(cli).items()):
            if isinstance(value, types.ModuleType) and value.__name__ in layer_modules:
                saved[attr] = value
                setattr(cli, attr, _ModuleProxy(value, self))
            elif inspect.isfunction(value) and layer_of(value):
                saved[attr] = value
                setattr(cli, attr, self.wrap(value))
        try:
            yield self
        finally:
            for attr, value in saved.items():
                setattr(cli, attr, value)

    # -------------------------------------------------------------- results

    def self_times(self) -> dict[str, float]:
        """Seconds per layer: span durations minus the durations of their child spans."""
        child = [0.0] * len(self.spans)
        for _name, start, end, parent, _request in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for i, (name, start, end, _parent, _request) in enumerate(self.spans):
            out[self.layer[name]] += (end - start) - child[i]
        return out

    def write(self, path) -> None:
        """All spans as JSON lines, written once, after the measured passes."""
        with open(path, "w") as fh:
            for name, start, end, parent, request in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "request": request}) + "\n")
