"""Spans around the calls into each layer of `presup`, from outside.

`Tracer.install` replaces every public `presup` function that one module
imported from another (and every function the benchmark calls through its
`api` namespace) with a wrapper that records a span: the callee's name as
`<layer>.<function>`, start, end, the enclosing span and the request.
Calls inside a layer go through the module's own globals, which are left
alone, so recursion inside a layer is not counted.

Spans are kept in flat arrays while the run goes and written out at the end.
A span's self time is its duration minus the durations of its child spans
(the calls are single-threaded and nested, so children never overlap).
"""

from __future__ import annotations

import json
import sys
import types
from array import array
from collections import defaultdict
from pathlib import Path
from time import perf_counter

# Spans whose result length is recorded: solutions found, derivations kept.
_SIZED = frozenset({"solver.solve", "typecheck.infer_all"})


class Tracer:
    def __init__(self):
        self.names: list = []
        self._ids: dict = {}
        self.name = array("i")
        self.parent = array("i")
        self.request = array("i")
        self.start = array("d")
        self.end = array("d")
        self.size = array("i")
        self.current_request = -1
        self._stack = [-1]
        self._patched: list = []
        # infer_all results, walked after the run for node counts.
        self.kept: list = []

    def _wrap(self, name: str, fn):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        ident = self._ids[name]
        sized = name in _SIZED
        keep = name == "typecheck.infer_all"
        stack = self._stack

        def traced(*args, **kwargs):
            span = len(self.start)
            self.name.append(ident)
            self.parent.append(stack[-1])
            self.request.append(self.current_request)
            self.start.append(0.0)
            self.end.append(0.0)
            self.size.append(-1)
            stack.append(span)
            begin = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[span] = perf_counter()
                self.start[span] = begin
                stack.pop()
            if sized:
                self.size[span] = len(result)
            if keep:
                self.kept.append(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self, api: types.SimpleNamespace) -> None:
        """Wrap the import sites in every loaded presup module, and `api`."""
        modules = [m for n, m in sorted(sys.modules.items()) if n.startswith("presup.")]
        for module in modules + [api]:
            own = getattr(module, "__name__", None)
            for attr, value in list(vars(module).items()):
                if not isinstance(value, types.FunctionType):
                    continue
                home = value.__module__ or ""
                if not home.startswith("presup.") or home == own or value.__name__.startswith("_"):
                    continue
                name = f"{home.split('.', 1)[1]}.{value.__name__}"
                self._patched.append((module, attr, value))
                setattr(module, attr, self._wrap(name, value))

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._patched):
            setattr(module, attr, value)
        self._patched.clear()

    def write(self, path: Path) -> None:
        """The spans as a JSON header line followed by the raw arrays (name,
        parent, request, start, end, size), each len(spans) items long."""
        path.parent.mkdir(parents=True, exist_ok=True)
        header = {
            "names": self.names,
            "spans": len(self.start),
            "arrays": [["name", "i"], ["parent", "i"], ["request", "i"],
                       ["start", "d"], ["end", "d"], ["size", "i"]],
        }
        with open(path, "wb") as handle:
            handle.write(json.dumps(header).encode() + b"\n")
            for column in (self.name, self.parent, self.request, self.start, self.end, self.size):
                column.tofile(handle)

    def summary(self) -> dict:
        """Per span name: calls, total ms and self ms; plus the counts made
        where the work happens."""
        count = len(self.start)
        duration = [self.end[i] - self.start[i] for i in range(count)]
        children = [0.0] * count
        for i in range(count):
            parent = self.parent[i]
            if parent >= 0:
                children[parent] += duration[i]
        calls = defaultdict(int)
        total = defaultdict(float)
        own = defaultdict(float)
        sizes = defaultdict(int)
        by_parent = defaultdict(int)
        names = self.names
        for i in range(count):
            name = names[self.name[i]]
            calls[name] += 1
            own[name] += duration[i] - children[i]
            parent = self.parent[i]
            parent_name = names[self.name[parent]] if parent >= 0 else None
            by_parent[(name, parent_name)] += 1
            # Total time counts only the outermost span of a name, so a
            # name nested in itself is not counted twice.
            if not self._inside(i, self.name[i]):
                total[name] += duration[i]
            if self.size[i] >= 0:
                sizes[name] += self.size[i]
        return {
            "calls": dict(calls),
            "total_s": dict(total),
            "self_s": dict(own),
            "sizes": dict(sizes),
            "by_parent": by_parent,
            "spans": count,
        }

    def _inside(self, span: int, ident: int) -> bool:
        parent = self.parent[span]
        while parent >= 0:
            if self.name[parent] == ident:
                return True
            parent = self.parent[parent]
        return False

    def layer_total(self, layer: str) -> float:
        """Seconds inside spans of a layer, counting nested ones once."""
        prefix = layer + "."
        names = self.names
        seconds = 0.0
        for i in range(len(self.start)):
            if not names[self.name[i]].startswith(prefix):
                continue
            parent = self.parent[i]
            while parent >= 0 and not names[self.name[parent]].startswith(prefix):
                parent = self.parent[parent]
            if parent < 0:
                seconds += self.end[i] - self.start[i]
        return seconds


def walk_nodes(derivation_lists: list) -> tuple:
    """(nodes, distinct node objects) over the kept derivations, walking
    premises from outside."""
    nodes = 0
    distinct = set()
    for derivations in derivation_lists:
        stack = list(derivations)
        while stack:
            node = stack.pop()
            nodes += 1
            distinct.add(id(node))
            stack.extend(node.premises)
    return nodes, len(distinct)
