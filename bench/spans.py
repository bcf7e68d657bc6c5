"""In-memory span recorder for the benchmark's traced runs.

A span is (name, start, end, parent).  Spans are opened and closed by
wrappers around the program's functions, so on one thread they nest
properly: a child lies inside its parent and siblings do not overlap.
Under that condition a span's self time is its duration minus the
durations of its direct children.

Spans are kept in flat arrays while the workload runs and are only
aggregated (or written out) once it has finished.
"""

from __future__ import annotations

import functools
import time
from array import array

import numpy as np


class Recorder:
    """Collects spans and named counters; one instance per traced run."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names = []          # name id -> name
        self._ids = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.outer = array("b")  # 1 if no enclosing span has the same name
        self.start = array("d")
        self.end = array("d")
        self.counters = {}
        self._stack = []
        self._depth = []         # per name id: open spans of that name

    def name_to_id(self, name):
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self._depth.append(0)
        return nid

    def open(self, nid):
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.outer.append(self._depth[nid] == 0)
        self._depth[nid] += 1
        self._stack.append(idx)
        self.end.append(0.0)
        self.start.append(self.clock())
        return idx

    def close(self, idx):
        self.end[idx] = self.clock()
        self._stack.pop()
        self._depth[self.name_id[idx]] -= 1
        return self.end[idx] - self.start[idx]

    def count(self, key, amount=1):
        self.counters[key] = self.counters.get(key, 0) + amount

    def wrap(self, fn, name, hook=None):
        """Return fn timed as span `name`; hook(rec, args, kwargs, result,
        seconds) runs after a successful call to update counters."""
        nid = self.name_to_id(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.open(nid)
            try:
                out = fn(*args, **kwargs)
            finally:
                dur = self.close(idx)
            if hook is not None:
                hook(self, args, kwargs, out, dur)
            return out

        return traced

    def arrays(self):
        """The recorded spans as numpy arrays (for writing out)."""
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "outer": np.frombuffer(self.outer, dtype=np.int8).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
        }

    def summary(self):
        """Per span name: calls, inclusive seconds s (outermost calls only,
        so recursion is not counted twice) and self seconds self_s."""
        if self._stack:
            raise RuntimeError("summary taken while spans are still open")
        sp = self.arrays()
        dur = sp["end"] - sp["start"]
        own = self_times(sp["parent"], dur)
        k = len(self.names)
        nid = sp["name_id"]
        calls = np.bincount(nid, minlength=k)
        incl = np.bincount(nid, weights=dur * sp["outer"], minlength=k)
        selfs = np.bincount(nid, weights=own, minlength=k)
        return {name: {"calls": int(calls[i]), "s": float(incl[i]),
                       "self_s": float(selfs[i])}
                for i, name in enumerate(self.names)}


def self_times(parent, dur):
    """Self time of each span: its duration minus its direct children's.

    parent[i] is the index of span i's parent, or -1 for a root span.
    """
    parent = np.asarray(parent)
    dur = np.asarray(dur, dtype=np.float64)
    child = parent >= 0
    covered = np.bincount(parent[child], weights=dur[child],
                          minlength=len(dur))
    return dur - covered
