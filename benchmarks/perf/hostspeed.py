"""How fast the host is right now, from a fixed reference kernel.

The benchmark runs on a few cores of a shared host whose speed drifts:
the same pure-Python loop, the same numpy sort and the same workload
window all slow down together by 1.1x to 1.9x, for a fraction of a
second or for minutes, then recover.  No statistic inside a 15-second
run removes a spell that outlasts the run, so every timed end-to-end
metric is divided by the host's speed as sampled right next to the work
it times, and reads **at reference host speed**.

A *sample* runs four small parts — interpreter work on a dict, numpy
sort/unique/cumsum, pointer chasing through a heap larger than the
per-core cache, and system calls (a loopback TCP ping-pong through a
selector, as the live servents do), about 10 ms together —
and returns the mean of their times over their reference times: 1.0 on
the host the constants were taken on when it is calm, 1.4 when that
host runs 1.4x slower.  The four were chosen because the workloads are
made of them.  :meth:`HostSpeed.timed` brackets a stretch of work
(0.1 to 0.5 s) with one sample on each side; over ten minutes that held
two bad spells, dividing each stretch by its two samples and taking
10-second medians cut the max-to-min range of tracegen from 0.80 to
0.16 of its median and of the flat overlay from 0.59 to 0.17 (quartile
spread 6.0 % to 1.8 % and 7.6 % to 4.2 %).  Smoothing the samples over
neighbouring stretches made it worse: the host's speed moves faster
than that.  What is left is that a spell does not slow everything
alike — in 25 minutes of spells, fitted weights for the parts did no
better than their plain mean, and in one spell the live servents slowed
2x while the kernel slowed 1.5x — so on this host the division removes
two thirds to four fifths of the run-to-run spread, not all of it.

A *reading* (:meth:`HostSpeed.read`) is the median of eight back-to-back
samples after two that are thrown away; ``timed(steady=True)`` puts a
reading, not a sample, on each side of a piece of set-up that is run
once and may last seconds.

The kernel is part of the benchmark, not of the program, so no change
under ``src/`` can move it.
"""

from __future__ import annotations

import random
import selectors
import socket
import statistics
from contextlib import contextmanager
from time import perf_counter, process_time

import numpy as np

from benchmarks.perf.spans import NullTracer

__all__ = ["SAMPLES_PER_READING", "WARM_SAMPLES", "HostSpeed", "Timed"]

#: seconds each part takes on the reference host when it is calm, run
#: right after a stretch of a workload (on cold caches, a fifth slower
#: than back to back); they only set the scale of a sample (what "1.0"
#: means), never its shape.
_REFERENCE_SECONDS = {
    "python": 2.65e-3,
    "numpy": 2.35e-3,
    "memory": 2.00e-3,
    "syscall": 2.80e-3,
}
_HEAP_ENTRIES = 60_000
#: a reading is the median of this many samples, after the warm ones.
SAMPLES_PER_READING = 8
WARM_SAMPLES = 2


class HostSpeed:
    """The reference kernel and its state (arrays, heap, socket pair)."""

    def __init__(self) -> None:
        rng = random.Random(20060814)
        self._keys = np.random.default_rng(20060814).integers(0, 1 << 40, size=40_000)
        # ~9 MB of small objects (the per-core cache holds 2), visited in a
        # scattered order
        self._heap = {i: [i] for i in range(_HEAP_ENTRIES)}
        self._order = [rng.randrange(_HEAP_ENTRIES) for _ in range(10_000)]
        with socket.socket() as listener:
            listener.bind(("127.0.0.1", 0))
            listener.listen(1)
            self._near = socket.create_connection(listener.getsockname())
            self._far, _address = listener.accept()
        for end in (self._near, self._far):
            end.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._selector = selectors.DefaultSelector()
        self._selector.register(self._far, selectors.EVENT_READ)
        self._parts = (
            ("python", self._python),
            ("numpy", self._numpy),
            ("memory", self._memory),
            ("syscall", self._syscall),
        )
        #: the traced window's tracer, so that samples show as a stage.
        self.tracer = NullTracer()
        #: every sample taken, in order (the run record keeps them).
        self.samples: list[float] = []
        #: every stretch timed so far, and the seconds sampling has taken:
        #: the harness reads set-up's share of both.
        self.stretches: list[Timed] = []
        self.sampling_seconds = 0.0
        self._last_end = 0.0
        self._paused = False
        self.sample()  # first touch of every part is not a measurement

    def close(self) -> None:
        self._selector.close()
        self._near.close()
        self._far.close()

    # -- the four parts -------------------------------------------------------
    def _python(self) -> None:
        table: dict[int, int] = {}
        for i in range(25_000):
            key = i & 1023
            table[key] = table.get(key, 0) + i

    def _numpy(self) -> None:
        keys = self._keys
        np.sort(keys)
        np.unique(keys & 4095)
        np.cumsum(keys)

    def _memory(self) -> None:
        heap = self._heap
        total = 0
        for i in self._order:
            total += heap[i][0]

    def _syscall(self) -> None:
        near, far, select = self._near, self._far, self._selector.select
        for _ in range(600):
            near.send(b"0123456789abcdef")
            select(0)
            far.recv(16)

    # -- reading ----------------------------------------------------------------
    def part_seconds(self) -> dict[str, float]:
        """Seconds of one pass over each part (for tuning the constants)."""
        out = {}
        for name, part in self._parts:
            t0 = perf_counter()
            part()
            out[name] = perf_counter() - t0
        return out

    @contextmanager
    def paused(self):
        """Inside, nothing is sampled and every stretch reads the last
        sample (for output checks, whose times are not reported)."""
        self._paused = True
        try:
            yield
        finally:
            self._paused = False

    def sample(self) -> float:
        """The host's slowdown right now: 1.0 is the reference host."""
        if self._paused:
            return self.samples[-1]
        with self.tracer.span("perf.hostspeed.sample"):
            seconds = self.part_seconds()
        value = sum(
            seconds[name] / reference for name, reference in _REFERENCE_SECONDS.items()
        ) / len(_REFERENCE_SECONDS)
        self.samples.append(value)
        self.sampling_seconds += sum(seconds.values())
        self._last_end = perf_counter()
        return value

    def recent(self) -> float:
        """The last sample if it has only just ended (the stretch before
        this one took it), else a new one."""
        if perf_counter() - self._last_end < 1e-3:
            return self.samples[-1]
        return self.sample()

    def read(self) -> float:
        """A steadier value, for work that is timed once."""
        for _ in range(WARM_SAMPLES):
            self.sample()
        return statistics.median(self.sample() for _ in range(SAMPLES_PER_READING))

    def timed(self, steady: bool = False) -> "Timed":
        return Timed(self, steady)


class Timed:
    """Wall and process-CPU seconds of a ``with`` block, and the same at
    reference host speed: divided by the mean of a sample (``steady``: a
    reading) taken just before the block and one taken just after it."""

    def __init__(self, host: HostSpeed, steady: bool) -> None:
        self._host = host
        self._steady = steady

    def __enter__(self) -> "Timed":
        host = self._host
        self._before = host.read() if self._steady else host.recent()
        self._wall = perf_counter()
        self._cpu = process_time()
        return self

    def __exit__(self, *exc) -> None:
        self.wall = perf_counter() - self._wall
        self.cpu = process_time() - self._cpu
        host = self._host
        after = host.read() if self._steady else host.sample()
        self.host = (self._before + after) / 2.0
        self.reference = self.wall / self.host
        self.cpu_reference = self.cpu / self.host
        host.stretches.append(self)
