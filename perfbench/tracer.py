"""Spans recorded from outside the program by wrapping its functions.

A :class:`Tracer` replaces a function at the name its caller resolves
(``"module:Class.attr"`` or ``"module:function"``) with a wrapper that
records one span per call: name, start, end, parent span, item id and
the phase (set-up or pass index) it ran in.  Spans are kept in memory
and written out once, when the run ends.

The program is single-threaded on the serial executor, so spans nest
strictly: a span's self time is its duration minus the durations of its
direct children, and the self times of one phase sum to the durations of
its root spans.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
from collections import Counter, defaultdict
from typing import Any, Callable, Dict, List, Optional

_MISSING = object()

#: one recorded call: [name, start, end, parent index, item id, phase]
Span = List[Any]


class Tracer:
    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.phase: Any = "setup"
        #: per-phase counters recorded by wrapper hooks
        self.counts: Dict[Any, Counter] = defaultdict(Counter)
        self._stack: List[int] = []
        self._items: Counter = Counter()
        self._patches: List[tuple] = []

    # -- recording ---------------------------------------------------------

    def begin_phase(self, phase: Any) -> None:
        self.phase = phase
        self._items = Counter()

    def count(self, name: str, n: float = 1) -> None:
        self.counts[self.phase][name] += n

    def gauge(self, name: str, value: float) -> None:
        """Set ``name`` for the current phase (the last write wins)."""
        self.counts[self.phase][name] = value

    def next_item(self, key: str) -> str:
        """The next chunk id of stream ``key`` in this phase."""
        index = self._items[key]
        self._items[key] += 1
        return f"chunk{index}"

    def wrap(
        self,
        target: str,
        span: str,
        item: Optional[Callable] = None,
        after: Optional[Callable] = None,
    ) -> None:
        """Record a span named ``span`` around every call of ``target``.

        ``item(tracer, args)`` names the work item of a call that starts
        one (a chunk, a problem); nested calls inherit their parent's.
        ``after(tracer, args, result)`` records counts once a call returns.
        """
        module_name, _, qualname = target.partition(":")
        owner: Any = importlib.import_module(module_name)
        *path, attr = qualname.split(".")
        for part in path:
            owner = getattr(owner, part)
        raw = inspect.getattr_static(owner, attr)
        kind = type(raw) if isinstance(raw, (classmethod, staticmethod)) else None
        fn = raw.__func__ if kind else raw
        if inspect.isgeneratorfunction(fn):
            raise TypeError(f"{target} is a generator; a span would time "
                            "only its creation")
        wrapped = self._traced(fn, span, item, after)
        own = vars(owner).get(attr, _MISSING)
        setattr(owner, attr, kind(wrapped) if kind else wrapped)
        self._patches.append((owner, attr, own))

    def unwrap_all(self) -> None:
        """Put every wrapped name back, in reverse order."""
        while self._patches:
            owner, attr, own = self._patches.pop()
            if own is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, own)

    def _traced(self, fn, span, item, after):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            current = spans[parent][4] if parent >= 0 else None
            if current is None and item is not None:
                current = item(self, args)
            record = [span, 0.0, 0.0, parent, current, self.phase]
            stack.append(len(spans))
            spans.append(record)
            record[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            if after is not None:
                after(self, args, result)
            return result

        return traced

    # -- accounting --------------------------------------------------------

    def phase_times(self, phase: Any) -> Dict[str, Any]:
        """Self and total seconds per span name, plus the root total."""
        spans = self.spans
        child = [0.0] * len(spans)
        for record in spans:
            if record[5] == phase and record[3] >= 0:
                child[record[3]] += record[2] - record[1]
        self_s: Dict[str, float] = defaultdict(float)
        total_s: Dict[str, float] = defaultdict(float)
        roots = 0.0
        for index, record in enumerate(spans):
            if record[5] != phase:
                continue
            duration = record[2] - record[1]
            self_s[record[0]] += duration - child[index]
            total_s[record[0]] += duration
            if record[3] < 0:
                roots += duration
        return {"self": dict(self_s), "total": dict(total_s), "roots": roots}

    def write(self, path) -> None:
        """Write every span as one JSON line, times in microseconds."""
        origin = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as out:
            for index, (name, start, end, parent, item, phase) in enumerate(
                self.spans
            ):
                out.write(json.dumps({
                    "id": index,
                    "name": name,
                    "start_us": round((start - origin) * 1e6, 1),
                    "end_us": round((end - origin) * 1e6, 1),
                    "parent": parent if parent >= 0 else None,
                    "item": item,
                    "phase": phase,
                }) + "\n")
