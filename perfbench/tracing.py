"""In-memory span tracing installed from the benchmark's own files.

A :class:`Tracer` replaces chosen functions (class, instance or module
attributes) with thin wrappers that record one span per call: name,
start, end, parent span id and the id of the benchmark repetition that
caused it.  Nothing under ``src/`` is edited: :meth:`Tracer.wrap`
swaps attributes in, :meth:`Tracer.remove` puts the originals back.

Self time (a span's duration minus the part its child spans cover) is
accumulated online per span name.  Because the spans of one thread nest
properly, the self times of every span inside a repetition, including
the repetition's own root span, add up exactly to the root's duration.

Only the thread that installed the tracer records spans; calls from
other threads (queue feeders, group-commit followers) pass straight
through, so the stack never interleaves.
"""

from __future__ import annotations

import json
import threading
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from typing import Callable, Optional

ROOT = "bench.rep"


class Tracer:
    def __init__(self, run_label: str) -> None:
        self.run_label = run_label
        #: Finished spans: (span_id, parent_id, name, start, end, run_id).
        self.spans: list[tuple] = []
        self._stack: list[list] = []  # [span_id, name, start, child_time]
        self._next_id = 0
        self._thread = threading.get_ident()
        self._installed: list[tuple] = []
        self.run_id: Optional[str] = None
        self.reset()

    # -- per-repetition aggregates -------------------------------------------
    def reset(self) -> None:
        self.self_time: dict[str, float] = defaultdict(float)
        #: Inclusive time of outermost spans of each name (a recursive
        #: call of the same name is not counted twice).
        self.inclusive: dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.durations: dict[str, list[float]] = defaultdict(list)
        self.results: Counter = Counter()

    def begin(self, name: str) -> None:
        self._next_id += 1
        self._stack.append([self._next_id, name, time.perf_counter(), 0.0])

    def end(self) -> float:
        end = time.perf_counter()
        span_id, name, start, child = self._stack.pop()
        duration = end - start
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[3] += duration
        self.spans.append(
            (span_id, parent[0] if parent else None, name, start, end, self.run_id)
        )
        self.self_time[name] += duration - child
        if all(frame[1] != name for frame in self._stack):
            self.inclusive[name] += duration
        self.calls[name] += 1
        self.durations[name].append(duration)
        return duration

    @contextmanager
    def rep(self, index: int):
        """One root span around one benchmark repetition."""
        self.reset()
        self.run_id = f"{self.run_label}-rep{index}"
        self.begin(ROOT)
        try:
            yield self
        finally:
            self.end()
            self.run_id = None

    # -- attribute wrapping -----------------------------------------------------
    def wrap(
        self,
        owner,
        attr: str,
        name: str,
        on_result: Optional[Callable] = None,
    ) -> None:
        """Replace ``owner.attr`` (a function, method, classmethod or
        staticmethod) with a span-recording wrapper."""
        own = attr in vars(owner)
        raw = vars(owner)[attr] if own else getattr(owner, attr)
        kind = type(raw) if isinstance(raw, (classmethod, staticmethod)) else None
        fn = raw.__func__ if kind is not None else raw
        tracer = self

        def wrapper(*args, **kwargs):
            if threading.get_ident() != tracer._thread or not tracer._stack:
                return fn(*args, **kwargs)
            tracer.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end()
            if on_result is not None:
                on_result(tracer, result)
            return result

        wrapper.__name__ = getattr(fn, "__name__", attr)
        wrapper.__wrapped__ = fn
        setattr(owner, attr, kind(wrapper) if kind is not None else wrapper)
        self._installed.append((owner, attr, raw, own))

    def remove(self) -> None:
        """Restore every wrapped attribute, newest first."""
        while self._installed:
            owner, attr, raw, own = self._installed.pop()
            if own:
                setattr(owner, attr, raw)
            else:
                delattr(owner, attr)

    def write(self, fh) -> None:
        """Write every recorded span to text file ``fh``, one JSON
        object per line."""
        for span_id, parent, name, start, end, run_id in self.spans:
            record = {
                "id": span_id,
                "parent": parent,
                "name": name,
                "start": start,
                "end": end,
                "run": run_id,
            }
            fh.write(json.dumps(record) + "\n")
