"""In-memory span recording around the objects the benchmark hands the program.

Every layer is timed from outside: :meth:`SpanRecorder.wrap` replaces one
bound method on one instance (an encoder, an index, a cache, a pipeline
stage, the LLM service, an executor) with a timing wrapper.  The wrapper is
built with :func:`functools.wraps`, so ``inspect.signature`` still reports
the original parameters: the serving layer sniffs ``lookup_batch`` and
``query`` signatures to pick its call shapes, and a wrapper hiding them
would run a different program.

Spans nest per thread.  A span's self time is its duration minus the time
its direct children covered; the children run synchronously inside it on
the same thread, so self times of all spans on one thread never overlap and
their sum is at most that thread's wall time.
"""

from __future__ import annotations

import functools
import gc
import itertools
import json
import threading
import time
from collections import Counter, defaultdict
from pathlib import Path
from typing import Callable, Dict, List, Optional


class GcMonitor:
    """Collector pauses observed through ``gc.callbacks``.

    Collections the benchmark forces itself (:meth:`collect`) are not
    counted: they happen between phases, not while requests wait.
    """

    def __init__(self) -> None:
        self.collections = 0
        self.pause_total_ns = 0
        self.pause_max_ns = 0
        self._started = 0
        self._forced = False

    def collect(self) -> None:
        """A full collection that is not counted as a pause."""
        self._forced = True
        try:
            gc.collect()
        finally:
            self._forced = False

    def __call__(self, phase: str, info: dict) -> None:
        if self._forced:
            return
        if phase == "start":
            self._started = time.perf_counter_ns()
            return
        pause = time.perf_counter_ns() - self._started
        self.collections += 1
        self.pause_total_ns += pause
        self.pause_max_ns = max(self.pause_max_ns, pause)

    def __enter__(self) -> "GcMonitor":
        gc.callbacks.append(self)
        return self

    def __exit__(self, *exc_info) -> None:
        gc.callbacks.remove(self)


class _Open:
    """A span that has started and not yet ended."""

    __slots__ = ("name", "start", "parent", "child_ns", "index")

    def __init__(self, name: str, start: int, parent: int, index: int) -> None:
        self.name = name
        self.start = start
        self.parent = parent
        self.child_ns = 0
        self.index = index


class SpanRecorder:
    """Collects spans and counters; nothing is written until :meth:`dump`."""

    def __init__(self, tag: Callable[[], int] = lambda: -1) -> None:
        #: ``tag()`` is read as a span ends: the flush (or window) id that
        #: the span belongs to, taken from the program's public state.
        self.tag = tag
        #: (name, start_ns, end_ns, parent span index or -1, tag)
        self.spans: List[tuple] = []
        self.self_ns: Dict[str, int] = defaultdict(int)
        self.total_ns: Dict[str, int] = defaultdict(int)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.gc = GcMonitor()
        self._local = threading.local()
        self._ids = itertools.count()

    def _stack(self) -> List[_Open]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def inside(self, *names: str) -> bool:
        """Whether the calling thread is currently inside a span named so."""
        return any(frame.name in names for frame in self._stack())

    def wrap(
        self,
        obj: object,
        attr: str,
        name: str,
        count: Optional[Callable[[tuple, dict, object], None]] = None,
    ) -> None:
        """Time every call of ``obj.attr`` as a span called ``name``.

        ``count(args, kwargs, result)`` runs after each call, outside the
        timed interval, to update :attr:`counts`.
        """
        original = getattr(obj, attr)
        recorder = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            stack = recorder._stack()
            frame = _Open(
                name,
                time.perf_counter_ns(),
                stack[-1].index if stack else -1,
                next(recorder._ids),
            )
            stack.append(frame)
            try:
                result = original(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                duration = end - frame.start
                if stack:
                    stack[-1].child_ns += duration
                recorder.self_ns[name] += duration - frame.child_ns
                recorder.total_ns[name] += duration
                recorder.calls[name] += 1
                recorder.spans.append(
                    (name, frame.start, end, frame.parent, recorder.tag(), frame.index)
                )
            if count is not None:
                count(args, kwargs, result)
            return result

        setattr(obj, attr, traced)

    def attributed_ns(self) -> int:
        """Sum of every layer's self time."""
        return sum(self.self_ns.values())

    def dump(self, path: Path) -> None:
        """Write the spans as JSON lines, one span per line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as out:
            for name, start, end, parent, tag, index in sorted(
                self.spans, key=lambda s: s[5]
            ):
                out.write(
                    json.dumps(
                        {
                            "id": index,
                            "name": name,
                            "start_ns": start,
                            "end_ns": end,
                            "parent": parent,
                            "flush": tag,
                        }
                    )
                    + "\n"
                )
