"""In-memory span recorder for the traced run.

Spans are recorded from the benchmark's own files, around the calls into
each layer (in-program tracing is a later issue).  A span is ``name,
start, end, parent, workload``; they are kept in a list and written out
as JSON lines when the run ends.  A layer's *self time* is its span's
duration minus the part its child spans cover.

:class:`NullTracer` has the same interface and records nothing, so the
untraced windows run the very same code path without the recording cost.
"""

from __future__ import annotations

import json
from contextlib import contextmanager, nullcontext
from pathlib import Path
from time import perf_counter
from typing import Iterable, Iterator

__all__ = ["NullTracer", "Tracer"]


class Tracer:
    """Record nested spans; one tracer per traced workload run."""

    enabled = True

    def __init__(self, workload: str) -> None:
        self.workload = workload
        #: ``[name, start, end, parent index or None]`` in start order.
        self.spans: list[list] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        record = [name, perf_counter(), None, self._stack[-1] if self._stack else None]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record[2] = perf_counter()
            self._stack.pop()

    def timed_iter(self, name: str, iterable: Iterable) -> Iterator:
        """Wrap each ``next()`` of ``iterable`` in a ``name`` span.

        This is how a generator owned by one layer (a store's block
        stream) is charged to that layer while another layer (a
        strategy) consumes it.
        """
        it = iter(iterable)
        while True:
            with self.span(name):
                try:
                    item = next(it)
                except StopIteration:
                    return
            yield item

    # -- reading back ------------------------------------------------------
    def self_times(self) -> dict[str, float]:
        """Seconds of self time per span name (duration minus children)."""
        child_time = [0.0] * len(self.spans)
        for _name, start, end, parent in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        totals: dict[str, float] = {}
        for (name, start, end, _parent), covered in zip(self.spans, child_time):
            totals[name] = totals.get(name, 0.0) + (end - start) - covered
        return totals

    def counts(self) -> dict[str, int]:
        """Number of spans recorded per name."""
        totals: dict[str, int] = {}
        for name, *_rest in self.spans:
            totals[name] = totals.get(name, 0) + 1
        return totals

    def write_jsonl(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for index, (name, start, end, parent) in enumerate(self.spans):
                fh.write(
                    json.dumps(
                        {
                            "id": index,
                            "name": name,
                            "start": start,
                            "end": end,
                            "parent": parent,
                            "workload": self.workload,
                        }
                    )
                )
                fh.write("\n")


class NullTracer:
    """The tracer of an untraced window: same calls, nothing recorded."""

    enabled = False
    _noop = nullcontext()

    def span(self, name: str):
        return self._noop

    def timed_iter(self, name: str, iterable: Iterable) -> Iterable:
        return iterable
