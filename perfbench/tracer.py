"""Spans around the calls into each flatknots layer, recorded from outside.

``Tracer.install`` replaces every public function of every flatknots
module with a wrapper, at every module attribute bound to it (so
``flatknots.reduce.canonical_word`` is covered as well as
``flatknots.diagram.canonical_word``).  Three private functions of
``reduce`` are wrapped too, because ``compose`` and ``catalog`` call
``_reduce_word`` and ``_full_orbit`` directly and ``_scan_orbit`` is the
orbit search itself; without them that work would be charged to the
caller.  A generator function gets one span per resumption.

Spans live in flat arrays (name, start, end, parent) until ``write``.
Counts are taken at the same boundaries: sites returned by the move
enumerators and moves applied by kind.
"""
from __future__ import annotations

import importlib
import inspect
import json
import sys
import time
from array import array
from collections import Counter

MODULES = ("diagram", "moves", "reduce", "invariants", "compose", "catalog", "cli")
PRIVATE = {"reduce": ("_reduce_word", "_full_orbit", "_scan_orbit")}
SITE_COUNTERS = ("moves.enumerate_fr3", "moves.enumerate_decreasing")


def _targets():
    """(span name, module, attribute, function) of every function to wrap."""
    out = []
    for short in MODULES:
        mod = importlib.import_module(f"flatknots.{short}")
        for attr, obj in vars(mod).items():
            if inspect.isclass(obj) or not callable(obj):
                continue
            if getattr(obj, "__module__", None) != mod.__name__:
                continue
            if attr.startswith("_") and attr not in PRIVATE.get(short, ()):
                continue
            out.append((f"{short}.{attr}", obj))
    return out


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name_ids: array = array("l")
        self.parents: array = array("l")
        self.starts: array = array("d")
        self.ends: array = array("d")
        self.stack = [-1]
        self.counts: Counter = Counter()
        self._saved: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _wrap(self, name: str, fn):
        name_id = len(self.names)
        self.names.append(name)
        name_ids, parents, starts, ends = self.name_ids, self.parents, self.starts, self.ends
        stack, counts, clock = self.stack, self.counts, time.perf_counter

        def open_span():
            idx = len(starts)
            name_ids.append(name_id)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            return idx

        def close_span(idx):
            ends[idx] = clock()
            stack.pop()

        if inspect.isgeneratorfunction(fn):
            def gen_wrapper(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:
                    idx = open_span()
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        close_span(idx)
                    counts[name + ".yields"] += 1
                    yield item
            return gen_wrapper

        if name in SITE_COUNTERS:
            def wrapper(*args, **kwargs):
                idx = open_span()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    close_span(idx)
                counts[name + ".sites"] += len(result)
                return result
        elif name == "moves.apply":
            def wrapper(d, m):
                idx = open_span()
                try:
                    return fn(d, m)
                finally:
                    close_span(idx)
                    counts["moves.apply.calls." + m.kind] += 1
        else:
            def wrapper(*args, **kwargs):
                idx = open_span()
                try:
                    return fn(*args, **kwargs)
                finally:
                    close_span(idx)
        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        """Wrap every target at every flatknots module attribute bound to it."""
        wrappers = {id(fn): self._wrap(name, fn) for name, fn in _targets()}
        for modname, mod in list(sys.modules.items()):
            if modname != "flatknots" and not modname.startswith("flatknots."):
                continue
            for attr, obj in list(vars(mod).items()):
                w = wrappers.get(id(obj))
                if w is not None:
                    self._saved.append((mod, attr, obj))
                    setattr(mod, attr, w)

    def uninstall(self) -> None:
        for mod, attr, obj in reversed(self._saved):
            setattr(mod, attr, obj)
        self._saved.clear()

    # -- results -----------------------------------------------------------

    def write(self, path: str) -> None:
        """One JSON header line, then the name, parent, start and end arrays."""
        header = {
            "names": self.names,
            "spans": len(self.starts),
            "arrays": ["name_ids:l", "parents:l", "starts:d", "ends:d"],
        }
        with open(path, "wb") as fh:
            fh.write((json.dumps(header) + "\n").encode())
            for arr in (self.name_ids, self.parents, self.starts, self.ends):
                arr.tofile(fh)

    def layer_stats(self) -> dict:
        """Calls and self time per span name, plus the boundary counts.

        Self time is a span's duration minus the time its child spans
        cover; spans nest strictly because the run is single-threaded.
        """
        n = len(self.starts)
        child = [0.0] * n
        starts, ends, parents, name_ids = self.starts, self.ends, self.parents, self.name_ids
        for i in range(n):
            p = parents[i]
            if p >= 0:
                child[p] += ends[i] - starts[i]
        calls = Counter()
        self_s = Counter()
        for i in range(n):
            k = name_ids[i]
            calls[k] += 1
            self_s[k] += ends[i] - starts[i] - child[i]
        stats = {}
        for k, name in enumerate(self.names):
            stats[name + ".calls"] = calls[k]
            stats[name + ".self_s"] = self_s[k]
        stats.update(self.counts)
        names = self.names
        fr3 = names.index("moves.enumerate_fr3")
        canon = names.index("diagram.canonical_word")
        enum = names.index("catalog.enumerate_diagrams")
        orbit_nodes = candidates = 0
        for i in range(n):
            k = name_ids[i]
            if k != fr3 and k != canon:
                continue
            p = parents[i]
            if p < 0:
                continue
            parent = name_ids[p]
            if k == fr3 and names[parent].startswith("reduce."):
                orbit_nodes += 1
            elif k == canon and parent == enum:
                candidates += 1
        stats["reduce.orbit_nodes"] = orbit_nodes
        stats["catalog.candidates"] = candidates
        stats["trace.spans"] = n
        return stats
