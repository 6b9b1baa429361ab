"""One workload, one process: set-up, windows, checks, one result.

The noise rule: single-shot timings on a shared 2-core host vary by more
than the regression bounds, and the host's speed itself drifts for
longer than a run lasts.  So every timed end-to-end metric is taken **at
reference host speed** — a window times its work in stretches of a few
tenths of a second, each divided by the host's slowdown as sampled just
before and just after it (:mod:`benchmarks.perf.hostspeed`) — and is the
**median over the measured windows** of one run, after one warm-up
window that is thrown away; counts are totals over the measured windows.
A window does a fixed amount of work for a given seed, so counts repeat
exactly and ``--seconds`` only chooses how many windows run.

A workload reports each end-to-end metric only where it means what its
name says (its *home* workloads); :func:`driver_fill` supplies the rest
of the names for the one-line result the benchmark driver reads.
"""

from __future__ import annotations

import abc
import os
import platform
import resource
import shutil
import statistics
import sys
from pathlib import Path
from time import perf_counter, process_time

from benchmarks.perf.hostspeed import HostSpeed
from benchmarks.perf.spans import NullTracer, Tracer
from benchmarks.perf.spec import OUT_DIR, ROOT, Spec, load_spec

__all__ = [
    "Stopwatch",
    "Workload",
    "driver_fill",
    "manifest",
    "median",
    "peak_rss_mb",
    "per_call",
    "run_workload",
    "scaled",
    "workload_classes",
]

MIN_WINDOWS = 3


def median(values) -> float:
    return float(statistics.median(values))


def scaled(n: int, scale: float, *, floor: int = 1, multiple: int = 1) -> int:
    """``n`` at ``scale`` (the self-tests' reduced size), rounded to a
    multiple and never below ``floor``."""
    value = max(floor, int(round(n * scale)))
    return max(multiple, (value // multiple) * multiple)


def driver_fill(spec: Spec, windows: list[dict]) -> dict[str, float]:
    """A value for every end-to-end name, for the driver's one-line result.

    The driver wants every declared metric from every workload, and
    rejects a 0 or a time that never varies.  Where a workload is not a
    home of a metric (:meth:`Workload.summarize` did not report it) the
    line carries this fill instead: the workload's operations per busy
    second for a rate, its inverse for a latency, the process's real
    high-water mark for memory, and 1 — not applicable — for a count or
    a share.  Fill is never written to a result file and never compared.
    """
    rate = median(w["ops"] / w["ref_s"] for w in windows)
    by_unit = {"1/s": rate, "ms": 1e3 / rate, "MB": peak_rss_mb()}
    return {m.name: by_unit.get(m.unit, 1.0) for m in spec.end_to_end}


def per_call(fn, items) -> float:
    """Mean seconds of one ``fn(item)`` over back-to-back calls (a
    direct-call probe; the calls are too short to time one by one)."""
    items = list(items)
    t0 = perf_counter()
    for item in items:
        fn(item)
    return (perf_counter() - t0) / len(items)


def peak_rss_mb() -> float:
    """This process's resident-set high-water mark in MB."""
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return rss / 1e6 if sys.platform == "darwin" else rss * 1024 / 1e6


class Stopwatch:
    """Wall and process-CPU seconds of a ``with`` block."""

    def __enter__(self) -> "Stopwatch":
        self._wall = perf_counter()
        self._cpu = process_time()
        return self

    def __exit__(self, *exc) -> None:
        self.wall = perf_counter() - self._wall
        self.cpu = process_time() - self._cpu


class Workload(abc.ABC):
    """One named workload.  Subclasses keep all their state on ``self``.

    ``window`` times its work with ``self.host.timed()`` and returns a
    dict with at least ``busy_s`` (the seconds it was busy, as
    measured), ``ref_s`` (the same at reference host speed; what a
    traced window is compared on), ``ops`` and ``counts`` (every count
    that must repeat exactly for one seed), and where they can happen
    ``failed`` (operations that broke) and ``missed`` (queries that ran
    but found no answer; ``answered_share`` guards them end to end).
    """

    name: str = "abstract"
    #: about how long one window lasts on the reference 2-core host;
    #: ``--seconds`` divided by this is the number of measured windows.
    window_seconds: float = 1.0

    def __init__(
        self, seed: int, scale: float, work_dir: Path, host: HostSpeed
    ) -> None:
        self.seed = int(seed)
        self.scale = float(scale)
        self.work_dir = work_dir
        self.host = host

    @abc.abstractmethod
    def sizes(self) -> dict:
        """The workload's input sizes, for the run manifest."""

    @abc.abstractmethod
    def setup(self, tracer) -> None:
        """Build every input the windows need."""

    def teardown(self) -> None:
        """Release what :meth:`setup` built."""

    @abc.abstractmethod
    def window(self, tracer) -> dict:
        """Do one window's fixed work and return its raw measurements."""

    @abc.abstractmethod
    def summarize(self, windows: list[dict]) -> dict[str, float]:
        """The end-to-end metrics this workload is a home of (all but
        ``setup_s``, which the harness times)."""

    @abc.abstractmethod
    def layers(self, tracer: Tracer, traced: list[dict]) -> dict[str, float]:
        """Per-layer metrics plus direct-call probes.  ``traced`` are the
        traced windows; ``tracer`` holds the spans of the first."""

    def check(self) -> list[str]:
        """Output checks; returns one line per failure."""
        return []


def _git_sha() -> str:
    """HEAD's commit id, read from ``.git`` in the checkout only (a
    driver's checkout is not a repository, and nothing outside the
    checkout may be read)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="ascii").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.exists():
            return ref_file.read_text(encoding="ascii").strip()
        for line in (git / "packed-refs").read_text(encoding="ascii").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def manifest(seed: int, seconds: float, scale: float, sizes: dict) -> dict:
    """Where a result came from: commit, host, versions, seed, sizes."""
    import numpy

    return {
        "git_sha": _git_sha(),
        "nproc": os.cpu_count() or 1,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "seed": seed,
        "seconds": seconds,
        "scale": scale,
        "sizes": sizes,
    }


def workload_classes() -> dict:
    """Name -> class; importing them imports ``repro``."""
    from benchmarks.perf.live import LiveFlood, LiveRules
    from benchmarks.perf.offline import OfflineEval, OfflinePipeline
    from benchmarks.perf.sim import SimFlat, SimHier

    classes = (OfflinePipeline, OfflineEval, SimFlat, SimHier, LiveFlood, LiveRules)
    return {cls.name: cls for cls in classes}


def _entries(metrics: tuple, values: dict[str, float]) -> dict:
    """The measured ones of ``metrics``, by name, with their units."""
    return {
        m.name: {"value": float(values[m.name]), "unit": m.unit}
        for m in metrics
        if m.name in values
    }


def _reference_setup(
    workload: Workload, host: HostSpeed, imports_wall: float
) -> float:
    """Do the set-up and return its seconds, imports included, at
    reference host speed.  The pieces the workload timed itself are taken
    as it timed them; the rest (the imports above all) is divided by the
    mean of a reading taken before the set-up and one taken after it."""
    n_timed, sampling = len(host.stretches), host.sampling_seconds
    before = host.read()
    t0 = perf_counter()
    workload.setup(NullTracer())
    wall = perf_counter() - t0
    after = host.read()
    timed = host.stretches[n_timed:]
    untimed = wall - (host.sampling_seconds - sampling) - sum(t.wall for t in timed)
    return (imports_wall + max(0.0, untimed)) / ((before + after) / 2.0) + sum(
        t.reference for t in timed
    )


def run_workload(
    name: str,
    *,
    seed: int,
    seconds: float,
    trace: bool,
    scale: float = 1.0,
    spec: Spec | None = None,
    started: float | None = None,
) -> dict:
    """Run one workload in this process and return its result record.

    ``started`` is the ``perf_counter`` instant the process began (the
    command line passes it), so that set-up holds the imports."""
    # set-up is timed once, from the start: importing numpy, ``repro``
    # and the workload's modules is set-up a user pays on every run
    if started is None:
        started = perf_counter()
    spec = spec or load_spec()
    work_dir = OUT_DIR / f"work-{name}-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    t0 = perf_counter()
    host = HostSpeed()
    started += perf_counter() - t0  # the benchmark's own kernel is not set-up
    workload = workload_classes()[name](seed, scale, work_dir, host)
    n_windows = max(MIN_WINDOWS, int(round(seconds / workload.window_seconds)))
    null = NullTracer()
    failures: list[str] = []
    setup_wall = perf_counter() - started  # so far: imports
    try:
        if trace:
            tracer = Tracer(name)
            with tracer.span(f"{name}.setup"):
                workload.setup(tracer)
            workload.window(null)  # warm-up, thrown away
            # untraced and traced windows take turns; the first traced
            # window's spans are the ones kept and written out
            untraced, traced = [workload.window(null)], []
            for i in range(max(MIN_WINDOWS, n_windows // 4)):
                host.tracer = recorder = tracer if i == 0 else Tracer(name)
                with recorder.span(f"{name}.window"):
                    traced.append(workload.window(recorder))
                host.tracer = null
                untraced.append(workload.window(null))
            windows = untraced + traced
            values = workload.layers(tracer, traced)
            values["trace_overhead"] = (
                median(w["ref_s"] for w in traced)
                / median(w["ref_s"] for w in untraced)
                - 1.0
            )
            tracer.write_jsonl(OUT_DIR / f"spans-{name}-{seed}.jsonl")
            fill = dict.fromkeys((m.name for m in spec.per_layer), 0.0)
        else:
            values = {"setup_s": _reference_setup(workload, host, setup_wall)}
            workload.window(null)  # warm-up, thrown away
            windows = [workload.window(null) for _ in range(n_windows)]
            # a window its own load generator could not keep up with
            # says nothing about the system under test
            usable = [w for w in windows if not w.get("void")]
            if len(usable) < MIN_WINDOWS:
                failures.append(
                    f"only {len(usable)} of {len(windows)} windows were usable "
                    "(generator lateness voided the rest)"
                )
            values.update(workload.summarize(usable or windows))
            fill = driver_fill(spec, usable or windows)
        with host.paused():
            failures += workload.check()
    finally:
        workload.teardown()
        host.close()
        shutil.rmtree(work_dir, ignore_errors=True)
    attempted = sum(w["ops"] for w in windows)
    failed = sum(w.get("failed", 0) for w in windows)
    if failed:
        failures.append(f"{failed} of {attempted} operations failed")
    metrics = _entries(spec.metrics(trace), values)
    return {
        "workload": name,
        "trace": bool(trace),
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "missed": sum(w.get("missed", 0) for w in windows),
        "metrics": metrics,
        # what the driver's line carries under the names not in
        # ``metrics``; dropped before a result file is written
        "fill": _entries(
            spec.metrics(trace),
            {key: value for key, value in fill.items() if key not in metrics},
        ),
        "check_failures": failures,
        "counts": [w["counts"] for w in windows],
        # each window's busy seconds as measured and at reference host
        # speed, and every sample of the host's slowdown: what the host
        # did to this run
        "window_seconds": [[w["busy_s"], w["ref_s"]] for w in windows],
        "host_samples": host.samples,
        "manifest": manifest(seed, seconds, scale, workload.sizes()),
    }
