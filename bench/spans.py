"""Span tracing at the package's cross-module call sites.

A traced benchmark process replaces selected module-level names with thin
wrappers.  Each wrapper records a span (name, parent span, start, end)
while the benchmark has marked a timed call as in progress, and passes
straight through otherwise, so the benchmark's own output checks never
show up in the per-layer figures.  The name replaced is the one the caller
looks up: the defining module's name for the benchmark's own calls and for
calls from the same module (``unknots.classify`` calling ``stabilize``), the
importing module's name for cross-module imports
(``nonloose.unknots.shorten_to_minimal``).  A function's calls to itself go
through its own module's name, which is never replaced, so a recursive
search is one span.

Spans are kept in memory as parallel integer arrays and written out when
the process ends.  A span's self time is its duration minus the time its
child spans cover.  Times are processor time of the thread less the time
spent in the benchmark's yardstick (see workloads.py).
"""

from __future__ import annotations

import gc
import json
from array import array
from time import thread_time_ns

# span name -> bindings that are replaced by a wrapper recording that name
BINDINGS = {
    "cfrac.expand": [("cfrac", "expand"), ("unknots", "expand"), ("cli", "expand")],
    # decorated reaches minimal paths through cfrac's _minimal_vertices,
    # the function minimal_path wraps, so both bindings count as one layer call
    "cfrac.minimal_path": [
        ("cfrac", "minimal_path"),
        ("cli", "minimal_path"),
        ("decorated", "_minimal_vertices"),
    ],
    "cfrac.ancestor": [("cfrac", "ancestor"), ("unknots", "ancestor")],
    "decorated.shorten_to_minimal": [("unknots", "shorten_to_minimal")],
    "decorated.enumerate_tight": [("decorated", "enumerate_tight"), ("unknots", "enumerate_tight")],
    "decorated.shuffle_euler_on_disk": [("unknots", "shuffle_euler_on_disk")],
    "decorated.is_tight": [("decorated", "is_tight"), ("cli", "is_tight")],
    "unknots.classify": [("unknots", "classify"), ("cli", "classify")],
    "unknots.classes_at_slope": [("unknots", "classes_at_slope")],
    "unknots.stabilize": [("unknots", "stabilize")],
    "render.classification_dict": [("render", "classification_dict")],
    "render.format": [
        ("render", "classification_json"),
        ("render", "classification_csv"),
        ("render", "classification_svg"),
        ("render", "classification_table"),
    ],
    "cli.run": [("cli", "run")],
}


def _result_size(result) -> int:
    # minimal_path returns a FareyPath, _minimal_vertices a vertex tuple
    return len(getattr(result, "vertices", result))


# span name -> (counter name, amount the result adds to it)
OBSERVERS = {
    "cfrac.minimal_path": ("vertices", _result_size),
    "decorated.enumerate_tight": ("classes", len),
    "decorated.is_tight": ("tight", lambda r: 1 if r else 0),
    "unknots.stabilize": ("loose", lambda r: 1 if r is None else 0),
}


class Tracer:
    """Span recorder for one benchmark process.

    ``active`` is set by the benchmark around each timed call; wrappers
    record nothing while it is false.
    """

    def __init__(self) -> None:
        self.active = False
        self.names: list[str] = []
        self.span_name = array("q")
        self.span_parent = array("q")
        self.span_start = array("q")
        self.span_end = array("q")
        self._stack: list[int] = []
        self._covered: list[int] = []
        self.calls: list[int] = []
        self.total_ns: list[int] = []
        self.self_ns: list[int] = []
        self.counters: dict[str, int] = {}
        self.slope_hash_calls = 0
        self.slope_new_calls = 0
        self.gc_ns = 0
        self.gc_collections = 0
        self._gc_start = 0
        self.yardstick = None  # set by the loop that samples it

    def _now(self) -> int:
        handler_ns = self.yardstick.handler_ns if self.yardstick is not None else 0
        return thread_time_ns() - handler_ns

    def _name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
            self.calls.append(0)
            self.total_ns.append(0)
            self.self_ns.append(0)
        return self.names.index(name)

    def _open(self, nid: int) -> int:
        idx = len(self.span_name)
        self.span_name.append(nid)
        self.span_parent.append(self._stack[-1] if self._stack else -1)
        self.span_end.append(0)
        self._stack.append(idx)
        self._covered.append(0)
        self.span_start.append(self._now())
        return idx

    def _close(self, idx: int, nid: int) -> None:
        end = self._now()
        self.span_end[idx] = end
        self._stack.pop()
        duration = end - self.span_start[idx]
        covered = self._covered.pop()
        if self._covered:
            self._covered[-1] += duration
        self.calls[nid] += 1
        self.total_ns[nid] += duration
        self.self_ns[nid] += duration - covered

    def wrap(self, name: str, fn):
        nid = self._name_id(name)
        counter, measure = OBSERVERS.get(name, (None, None))
        key = f"{name}.{counter}"
        if counter:
            self.counters.setdefault(key, 0)
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            idx = tracer._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx, nid)
            if counter:
                tracer.counters[key] += measure(result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self, modules: dict) -> None:
        """Wrap every binding in BINDINGS whose module is loaded, count
        Slope hashing and construction, and time cyclic GC passes."""
        for name, sites in BINDINGS.items():
            self._name_id(name)
            for mod_name, attr in sites:
                mod = modules.get(mod_name)
                if mod is not None and hasattr(mod, attr):
                    setattr(mod, attr, self.wrap(name, getattr(mod, attr)))
        slope = modules["farey"].Slope
        tracer = self
        orig_hash, orig_post_init = slope.__hash__, slope.__post_init__

        def counted_hash(s):
            if tracer.active:
                tracer.slope_hash_calls += 1
            return orig_hash(s)

        def counted_post_init(s):
            if tracer.active:
                tracer.slope_new_calls += 1
            orig_post_init(s)

        slope.__hash__ = counted_hash
        slope.__post_init__ = counted_post_init
        gc.callbacks.append(self._on_gc)

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_start = self._now()
        elif self.active:
            self.gc_ns += self._now() - self._gc_start
            self.gc_collections += 1

    def stats(self, name: str) -> tuple[int, float, float]:
        """(calls, inclusive seconds, self seconds) of one span name."""
        nid = self._name_id(name)
        return self.calls[nid], self.total_ns[nid] / 1e9, self.self_ns[nid] / 1e9

    def write(self, path) -> None:
        """Write every recorded span as JSON: names plus one
        [name, parent, start_ns, end_ns] row per span."""
        rows = zip(self.span_name, self.span_parent, self.span_start, self.span_end)
        with open(path, "w") as f:
            json.dump(
                {
                    "names": self.names,
                    "fields": ["name", "parent", "start_ns", "end_ns"],
                    "spans": [list(r) for r in rows],
                },
                f,
                separators=(",", ":"),
            )
