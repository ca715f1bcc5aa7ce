"""Span tracer that wraps apsr's public entry points from outside the package.

A wrapped call records one span: its name, start, end and the span that was
open when it began (its parent).  Spans stay in memory in flat arrays and are
written out once, at the end of the run.  An entry point that a later version
of the package no longer has is simply not wrapped: its metrics read zero
calls and zero time.
"""

from __future__ import annotations

import functools
import time
from array import array
from collections import defaultdict


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.enabled = True
        self.counts: dict[str, int] = defaultdict(int)  # tallies kept by hooks
        self.samples: list = []  # values kept by hooks for later checks
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def wrap(self, owner, attr: str, name: str, hook=None) -> bool:
        """Replace ``owner.attr`` with a traced version; False if either is absent.

        ``hook(tracer, args, result)`` runs after each traced call, outside
        the span.
        """
        original = getattr(owner, attr, None)
        if original is None:
            return False
        tracer, stack = self, self._stack
        clock = time.perf_counter

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return original(*args, **kwargs)
            index = len(tracer.names)
            tracer.names.append(name)
            tracer.parent.append(stack[-1] if stack else -1)
            tracer.end.append(0.0)
            stack.append(index)
            tracer.start.append(clock())
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.end[index] = clock()
                stack.pop()
            if hook is not None:
                hook(tracer, args, result)
            return result

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))
        return True

    def unwrap_all(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def write_csv(self, path) -> None:
        t0 = self.start[0] if self.names else 0.0
        with open(path, "w") as out:
            out.write("span,name,start_s,end_s,parent\n")
            for i, name in enumerate(self.names):
                out.write(
                    f"{i},{name},{self.start[i] - t0:.9f},{self.end[i] - t0:.9f},{self.parent[i]}\n"
                )


class Summary:
    """Per-name call counts, total time and self time over spans lo..hi-1."""

    def __init__(self, tracer: Tracer, lo: int, hi: int):
        self.calls: dict[str, int] = defaultdict(int)
        self.total: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        child_time: dict[int, float] = defaultdict(float)
        self.parents_of: dict[str, set[int]] = defaultdict(set)
        names, start, end, parent = tracer.names, tracer.start, tracer.end, tracer.parent
        for i in range(lo, hi):
            duration = end[i] - start[i]
            self.calls[names[i]] += 1
            self.total[names[i]] += duration
            p = parent[i]
            if p >= 0:
                child_time[p] += duration
                self.parents_of[names[i]].add(p)
        for i in range(lo, hi):
            self.self_time[names[i]] += end[i] - start[i] - child_time[i]
        self.names = names
        self.lo, self.hi = lo, hi

    def spans_of(self, name: str) -> list[int]:
        return [i for i in range(self.lo, self.hi) if self.names[i] == name]
