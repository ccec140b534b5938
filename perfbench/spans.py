"""In-memory spans around the benchmark's calls into ualgebra.

A span records its name, parent span, start and end (perf_counter_ns).
Spans are kept in a flat integer array while the run goes and written out
once at the end.  Work counts (nodes, assignments, tuples, ...) are added
against a span name at the same call sites.
"""

from __future__ import annotations

import json
from array import array
from collections import defaultdict
from time import perf_counter_ns


class Tracer:
    enabled = True

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.rec = array("q")  # name id, parent span, start, end; 4 per span
        self.parent = -1
        self.units: dict[str, int] = defaultdict(int)

    def __call__(self, name, fn, *args, **kwargs):
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        rec = self.rec
        sid = len(rec) >> 2
        rec.extend((nid, self.parent, 0, 0))
        prev, self.parent = self.parent, sid
        start = perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter_ns()
            self.parent = prev
            rec[4 * sid + 2] = start
            rec[4 * sid + 3] = end

    def count(self, name, n):
        self.units[name] += n

    def summary(self):
        """Per span name: (calls, total ns, self ns).  Self time is the
        span's duration minus the time its child spans cover, plus the
        total duration of root spans under the key None."""
        rec = self.rec
        n = len(rec) >> 2
        child = [0] * n
        for i in range(n):
            parent = rec[4 * i + 1]
            if parent >= 0:
                child[parent] += rec[4 * i + 3] - rec[4 * i + 2]
        out = {name: [0, 0, 0] for name in self.names}
        roots = 0
        for i in range(n):
            dur = rec[4 * i + 3] - rec[4 * i + 2]
            row = out[self.names[rec[4 * i]]]
            row[0] += 1
            row[1] += dur
            row[2] += dur - child[i]
            if rec[4 * i + 1] < 0:
                roots += dur
        out[None] = [0, roots, 0]
        return out

    def write(self, path):
        rec = self.rec
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps({"fields": ["id", "parent", "name", "start_ns", "end_ns"],
                                     "names": self.names}) + "\n")
            for i in range(len(rec) >> 2):
                nid, parent, start, end = rec[4 * i:4 * i + 4]
                handle.write(f"[{i},{parent},{nid},{start},{end}]\n")


class NullTracer:
    """Same interface, no recording: the untraced runs call straight
    through."""

    enabled = False

    def __call__(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def count(self, name, n):
        pass
