"""In-memory span tracer that wraps the package's functions from outside.

Each wrapped call records one span: name, parent span, the op it belongs to,
start and end.  Spans live in flat integer arrays while the run goes on and
are written out once at the end.  A layer's self time is the duration of its
spans minus the time their direct child spans cover; on one thread children
never overlap, so that is a plain sum.
"""

from __future__ import annotations

import functools
import json
import time
from array import array
from contextlib import contextmanager
from pathlib import Path
from types import ModuleType
from typing import Callable, Iterator

FIELDS = ("name", "parent", "op", "start_ns", "end_ns")


class Tracer:
    def __init__(self, clock: Callable[[], int] = time.perf_counter_ns) -> None:
        self.clock = clock
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.cols = {field: array("q") for field in FIELDS}
        self._stack = [-1]
        self.op = -1  # identifier shared by every span of the current op

    def __len__(self) -> int:
        return len(self.cols["start_ns"])

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn: Callable) -> Callable:
        """fn, recording a span named name around every call."""
        nid = self._name_id(name)
        names, parents, ops, starts, ends = (self.cols[f] for f in FIELDS)
        stack, clock, tracer = self._stack, self.clock, self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            ops.append(tracer.op)
            ends.append(0)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()

        return traced

    def layer_totals(self) -> dict[str, tuple[int, int]]:
        """name -> (calls, self time in ns) over every recorded span."""
        names, parents, starts, ends = (self.cols[f] for f in ("name", "parent", "start_ns", "end_ns"))
        n = len(starts)
        covered = [0] * n
        for i in range(n):
            parent = parents[i]
            if parent >= 0:
                covered[parent] += ends[i] - starts[i]
        calls = [0] * len(self.names)
        self_ns = [0] * len(self.names)
        for i in range(n):
            nid = names[i]
            calls[nid] += 1
            self_ns[nid] += ends[i] - starts[i] - covered[i]
        return {name: (calls[i], self_ns[i]) for i, name in enumerate(self.names)}

    def write(self, stem: Path) -> None:
        """Write the spans to stem.bin (int64 columns in FIELDS order, native
        byte order) and a stem.json header naming the spans and columns."""
        stem.parent.mkdir(parents=True, exist_ok=True)
        with open(stem.with_suffix(".bin"), "wb") as fh:
            for field in FIELDS:
                self.cols[field].tofile(fh)
        header = {"fields": list(FIELDS), "count": len(self), "itemsize": 8, "names": self.names}
        stem.with_suffix(".json").write_text(json.dumps(header, indent=1) + "\n")


@contextmanager
def patched(tracer: Tracer, modules: dict[str, ModuleType], targets: list[str]) -> Iterator[None]:
    """Replace every module binding of each target "module.function" by a traced
    wrapper, and restore the originals on exit.

    Modules import each other's functions by name, so the wrapper has to go
    into every namespace that binds the function, not only the defining one.
    """
    wrappers = {}
    for qual in targets:
        modname, fname = qual.split(".")
        fn = getattr(modules[modname], fname)
        wrappers[id(fn)] = (fn, tracer.wrap(qual, fn))
    replaced = []
    for mod in modules.values():
        for attr, value in list(vars(mod).items()):
            entry = wrappers.get(id(value))
            if entry is not None and entry[0] is value:
                setattr(mod, attr, entry[1])
                replaced.append((mod, attr, value))
    try:
        yield
    finally:
        for mod, attr, value in replaced:
            setattr(mod, attr, value)
