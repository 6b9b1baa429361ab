"""Open-loop driver for the live workloads.

Built on the public :func:`repro.scale.loadgen.build_schedule` and
:class:`~repro.scale.loadgen.LoadClient`.  It differs from
``LoadGenerator`` in the two ways a 15 % latency bound needs:

* a query's latency runs from the instant it was **due**, not from the
  instant it was issued, so a generator stall is charged to the queries
  it delayed (and the stall itself is reported as lateness);
* raw samples are kept, not geometric buckets ~26 % apart.

An unanswered query stays in the sample as ``inf``: a request that was
refused or timed out misses any latency limit.
"""

from __future__ import annotations

import asyncio
import math
from dataclasses import dataclass, field
from typing import Callable

from repro.scale.loadgen import (
    CLIENT_ID_BASE,
    TASK_QUERY,
    LoadClient,
    ScheduledTask,
)

__all__ = ["OpenLoopDriver", "OpenLoopWindow", "quantile_ms"]

#: pause between polls while a measured window drains; sleeping (not
#: spinning) keeps the wait out of the window's CPU-seconds.
_POLL_SECONDS = 0.002


@dataclass
class OpenLoopWindow:
    """What one open-loop window measured."""

    issued: int = 0
    errors: int = 0
    #: seconds from due instant to first reply; ``inf`` when unanswered.
    latencies: list[float] = field(default_factory=list)
    max_lateness: float = 0.0
    schedule_stretch: float = 0.0

    @property
    def unanswered(self) -> int:
        return sum(1 for sample in self.latencies if math.isinf(sample))


def quantile_ms(samples: list[float], q: float, *, ceiling: float) -> float:
    """The ``q`` quantile in milliseconds; a quantile that lands on an
    unanswered query reads as the ``ceiling`` (the time-out)."""
    ordered = sorted(samples)
    value = ordered[min(len(ordered) - 1, int(q * len(ordered)))]
    return 1e3 * min(value, ceiling)


class OpenLoopDriver:
    """A few load clients sharing one table of outstanding queries."""

    def __init__(
        self, addresses: list[tuple[str, int]], *, timeout: float = 0.5
    ) -> None:
        self.timeout = timeout
        self.clients = [
            LoadClient(CLIENT_ID_BASE + i, host, port, on_reply=self._on_reply)
            for i, (host, port) in enumerate(addresses)
        ]
        #: guid -> due instant, for queries still waiting on a first reply.
        self._pending: dict[int, float] = {}
        self._latencies: list[float] = []
        self._next_guid = (CLIENT_ID_BASE << 64) + 1
        self._loop: asyncio.AbstractEventLoop | None = None
        #: descriptors written to / replies read from the cluster; with
        #: the clients' ``frames_ignored`` these close the cluster's
        #: frames-in/frames-out balance (see ``LiveWorkload._settled``).
        self.frames_sent = 0
        self.replies_received = 0

    async def connect(self) -> None:
        self._loop = asyncio.get_running_loop()
        await asyncio.gather(*(client.connect() for client in self.clients))

    async def close(self) -> None:
        await asyncio.gather(*(client.aclose() for client in self.clients))

    @property
    def frames_received(self) -> int:
        return self.replies_received + sum(c.frames_ignored for c in self.clients)

    def _on_reply(self, guid: int) -> None:
        self.replies_received += 1
        due = self._pending.pop(guid, None)
        if due is not None:  # later hits for an answered query are ignored
            self._latencies.append(self._loop.time() - due)

    def _issue(self, target: int, term: str, due: float) -> bool:
        guid = self._next_guid
        self._next_guid += 1
        try:
            self.clients[target].issue(TASK_QUERY, term, guid)
        except OSError:
            return False
        self._pending[guid] = due
        self.frames_sent += 1
        return True

    async def one_at_a_time(
        self, plan: list[tuple[int, str]], settled: Callable[[], bool]
    ) -> None:
        """Closed loop with one query outstanding: issue, wait until no
        descriptor is in flight, repeat.  Every node then observes its
        query–reply pairs in plan order, so what the cluster learns is a
        function of the plan alone."""
        for target, term in plan:
            if not self._issue(target, term, self._loop.time()):
                raise OSError("load client lost its connection during warm-up")
            while not settled():
                await asyncio.sleep(0)
        self._pending.clear()
        self._latencies.clear()

    async def run(
        self,
        schedule: list[ScheduledTask],
        settled: Callable[[], bool],
        tracer,
    ) -> OpenLoopWindow:
        """Issue ``schedule`` at its due instants whether or not earlier
        queries were answered, then wait out the stragglers."""
        loop = self._loop
        window = OpenLoopWindow()
        self._latencies = window.latencies
        start = loop.time() + 0.005
        first = last = start
        for task in schedule:
            due = start + task.at
            now = loop.time()
            if now < due:
                await asyncio.sleep(due - now)
                now = loop.time()
            # behind schedule: issue at once and catch up by bursting
            window.max_lateness = max(window.max_lateness, now - due)
            if not window.issued:
                first = now
            last = now
            with tracer.span("scale.loadgen.issue"):
                if self._issue(task.target, task.term, due):
                    window.issued += 1
                else:
                    window.errors += 1
        if len(schedule) > 1:
            planned = schedule[-1].at - schedule[0].at
            window.schedule_stretch = max(0.0, (last - first) / planned - 1.0)
        with tracer.span("scale.loadgen.drain"):
            # An idle cluster ends the wait early: with nothing in flight
            # the queries still pending will never be answered.
            deadline = (start + schedule[-1].at if schedule else start) + self.timeout
            while not settled() and loop.time() < deadline + self.timeout:
                await asyncio.sleep(_POLL_SECONDS)
        for i, sample in enumerate(window.latencies):
            if sample > self.timeout:
                window.latencies[i] = math.inf
        window.latencies.extend([math.inf] * len(self._pending))
        self._pending.clear()
        return window
