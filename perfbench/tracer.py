"""Spans around the library's public functions, recorded from outside it.

`Tracer.install` rebinds every public function of every `ulisperm` module at
every module binding it can be called through (``ulisperm.verify`` calls
``enumerate_avoiders`` through its own binding, not through
``ulisperm.permutations``), plus ``Permutation.__post_init__``.  The ``cli``
layer is one span around ``main``; parsing, dispatch and formatting are its
self time.  A call that returns a generator gets one span for the call and
one per ``next``, so a lazy enumerator's work lands on its own name.

Each span holds a name, start, end, parent span and operation id, kept in
compact arrays and written out by `Tracer.dump`.  Self time (duration minus
the time child spans cover) and call counts are summed per name as spans
close.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from array import array
from pathlib import Path
from types import FunctionType, GeneratorType

PACKAGE = "ulisperm"

# Results counted as "positive" per span name.
POSITIVE = {
    "permutations.contains_pattern": lambda verdict: verdict.contains,
}

SPAN_FIELDS = (("name", "H"), ("parent", "i"), ("op", "i"), ("start_ns", "q"), ("end_ns", "q"))


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.spans = {field: array(code) for field, code in SPAN_FIELDS}
        self.calls: list[int] = []
        self.self_ns: list[int] = []
        self.positive: list[int] = []
        # one [name, first argument, op, items] record per generator returned
        self.generators: list[list] = []
        self.op = -1
        self._stack: list[list[int]] = []  # [span index, child ns]
        self._patches: list[tuple[object, str, object]] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.self_ns.append(0)
            self.positive.append(0)
        return self._ids[name]

    def _enter(self, nid: int) -> int:
        spans = self.spans
        idx = len(spans["name"])
        spans["name"].append(nid)
        spans["parent"].append(self._stack[-1][0] if self._stack else -1)
        spans["op"].append(self.op)
        spans["end_ns"].append(0)
        self._stack.append([idx, 0])
        spans["start_ns"].append(time.perf_counter_ns())
        return idx

    def _exit(self, idx: int) -> None:
        end = time.perf_counter_ns()
        spans = self.spans
        spans["end_ns"][idx] = end
        duration = end - spans["start_ns"][idx]
        _, child_ns = self._stack.pop()
        nid = spans["name"][idx]
        self.calls[nid] += 1
        self.self_ns[nid] += duration - child_ns
        if self._stack:
            self._stack[-1][1] += duration

    def _iterate(self, generator, nid: int, args: tuple):
        record = [nid, args[0] if args else None, self.op, 0]
        self.generators.append(record)
        while True:
            idx = self._enter(nid)
            try:
                item = next(generator)
            except StopIteration:
                return
            finally:
                self._exit(idx)
            record[3] += 1
            yield item

    def wrap(self, fn, name: str):
        nid = self._id(name)
        positive = POSITIVE.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._enter(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(idx)
            if isinstance(result, GeneratorType):
                return self._iterate(result, nid, args)
            if positive is not None and positive(result):
                self.positive[nid] += 1
            return result

        return traced

    def install(self) -> None:
        wrappers: dict[int, object] = {}
        for module_name, module in list(sys.modules.items()):
            if module_name != PACKAGE and not module_name.startswith(PACKAGE + "."):
                continue
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or not isinstance(obj, FunctionType):
                    continue
                if not obj.__module__.startswith(PACKAGE + "."):
                    continue
                layer = obj.__module__.rsplit(".", 1)[1]
                if layer == "cli" and obj.__name__ != "main":
                    continue
                if id(obj) not in wrappers:
                    wrappers[id(obj)] = self.wrap(obj, f"{layer}.{obj.__name__}")
                self._patch(module, attr, wrappers[id(obj)])
        permutation = sys.modules[PACKAGE + ".permutations"].Permutation
        self._patch(permutation, "__post_init__",
                    self.wrap(permutation.__post_init__, "permutations.Permutation.validate"))

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def self_seconds(self, name: str) -> float:
        nid = self._ids.get(name)
        return 0.0 if nid is None else self.self_ns[nid] / 1e9

    def count(self, name: str) -> int:
        nid = self._ids.get(name)
        return 0 if nid is None else self.calls[nid]

    def positives(self, name: str) -> int:
        nid = self._ids.get(name)
        return 0 if nid is None else self.positive[nid]

    def items(self, name: str, ops: set[int] | None = None) -> int:
        nid = self._ids.get(name)
        return sum(items for gid, _, op, items in self.generators
                   if gid == nid and (ops is None or op in ops))

    def distinct_items(self, ops: set[int]) -> int:
        """Items per (enumerator, first argument), counted once however often
        that enumeration ran within `ops`."""
        best: dict[tuple, int] = {}
        for gid, arg, op, items in self.generators:
            if op in ops:
                key = (gid, arg)
                best[key] = max(best.get(key, 0), items)
        return sum(best.values())

    def dump(self, directory: Path, stem: str, ops: list[list[str]]) -> None:
        """Write `<stem>.json` (span names, operations, field layout) and
        `<stem>.spans` (the span arrays, one after another)."""
        directory.mkdir(parents=True, exist_ok=True)
        spans = self.spans
        index = {
            "names": self.names,
            "ops": ops,
            "count": len(spans["name"]),
            "fields": [[field, code] for field, code in SPAN_FIELDS],
        }
        (directory / f"{stem}.json").write_text(json.dumps(index) + "\n")
        with open(directory / f"{stem}.spans", "wb") as out:
            for field, _ in SPAN_FIELDS:
                spans[field].tofile(out)


def load_spans(directory: Path, stem: str) -> tuple[dict, dict[str, array]]:
    """Read back what `Tracer.dump` wrote."""
    index = json.loads((directory / f"{stem}.json").read_text())
    spans = {}
    with open(directory / f"{stem}.spans", "rb") as source:
        for field, code in index["fields"]:
            spans[field] = array(code)
            spans[field].fromfile(source, index["count"])
    return index, spans
