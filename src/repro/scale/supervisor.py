"""Multi-process sharded cluster supervision.

:class:`ClusterSupervisor` is the scale-out twin of
:class:`~repro.live.cluster.LiveCluster`: where the loopback harness
runs every servent in one asyncio loop (one core, shared GIL), the
supervisor spawns **one process per node** (``multiprocessing`` spawn
context — no inherited loop state, same code path on every platform)
and wires the overlay across them with real TCP, so N workers genuinely
occupy N cores and a saturation benchmark measures servent throughput,
not event-loop contention.

Responsibilities, mirrored from the single-process stack so operators
keep one mental model:

* **readiness handshake** — each worker reports ``("ready", ...)`` with
  its resolved data port and ``/metrics`` port before the topology is
  wired; a worker that fails to start surfaces its traceback instead of
  hanging the boot.
* **graceful vs hard kill** — :meth:`stop` sends the control-channel
  stop (final checkpoint, flushed connections: the semantics of
  :meth:`LiveServent.close`); :meth:`kill` SIGKILLs the process — the
  :mod:`repro.faults` hard-crash, leaving recovery to the WAL tail.
* **crash detection + restart policy** — a monitor thread notices
  exited workers; ``restart="on-crash"`` respawns them (bounded by
  ``max_restarts``) on their *pinned* port with their old ``state_dir``,
  so surviving peers' dial supervisors reconnect and the node
  warm-recovers its learned rules.
* **cross-process accounting** — :meth:`stats` sums control-channel
  counter snapshots (exact, includes retired incarnations:
  :meth:`grand_totals`), and :meth:`scrape_totals` aggregates the
  workers' Prometheus ``/metrics`` endpoints through
  :func:`repro.obs.scrape.scrape_totals` — the same numbers read the
  way an external monitoring stack would read them.
"""

from __future__ import annotations

import multiprocessing
import os
import threading
import time
from dataclasses import replace

from repro.live.stats import NodeStats, combine_stats
from repro.obs.collect import ClusterTraceCollector
from repro.obs.logging import get_logger
from repro.obs.scrape import scrape_totals
from repro.scale.worker import WorkerSpec, worker_main

__all__ = ["ClusterSupervisor", "WorkerHandle", "partitioned_specs"]

_log = get_logger("scale.supervisor")


def partitioned_specs(
    n_workers: int,
    vocabulary: list[str],
    **overrides,
) -> list[WorkerSpec]:
    """One spec per worker with the vocabulary dealt round-robin —
    worker ``i`` uniquely shares ``vocabulary[i::n]``, the same
    partitioned-library convention as
    :meth:`LiveCluster.stock_partitioned_library`, so every query has
    exactly one answering node and routing quality stays legible."""
    return [
        WorkerSpec(
            node_id=i,
            share_terms=tuple(vocabulary[i::n_workers]),
            **overrides,
        )
        for i in range(n_workers)
    ]


class WorkerHandle:
    """One supervised worker: spec, process, control pipe, lifecycle."""

    def __init__(self, spec: WorkerSpec) -> None:
        self.spec = spec
        self.process: multiprocessing.process.BaseProcess | None = None
        self.conn = None  # parent end of the control pipe
        self.info: dict = {}
        self.restarts = 0
        #: final counter snapshots of earlier incarnations (graceful
        #: stops report them; hard kills lose them, like a real crash).
        self.retired: list[dict[str, int]] = []
        self.stopped = False  # a stop we asked for, not a crash

    @property
    def node_id(self) -> int:
        return self.spec.node_id

    @property
    def alive(self) -> bool:
        return self.process is not None and self.process.is_alive()

    @property
    def port(self) -> int | None:
        return self.info.get("port")

    @property
    def obs_port(self) -> int | None:
        return self.info.get("obs_port")


class ClusterSupervisor:
    """Spawn, wire, watch and account for one process-per-node cluster."""

    def __init__(
        self,
        specs: list[WorkerSpec],
        *,
        topology=None,
        restart: str = "never",
        max_restarts: int = 2,
        ready_timeout: float = 30.0,
        monitor_interval: float = 0.2,
    ) -> None:
        if restart not in ("never", "on-crash"):
            raise ValueError("restart must be 'never' or 'on-crash'")
        ids = [spec.node_id for spec in specs]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate node ids in specs")
        self.specs = list(specs)
        #: edges wired at start; ``None`` leaves wiring to the caller.
        self.topology = topology
        self.restart_policy = restart
        self.max_restarts = max_restarts
        self.ready_timeout = ready_timeout
        self._monitor_interval = monitor_interval
        self._ctx = multiprocessing.get_context("spawn")
        self.handles: dict[int, WorkerHandle] = {
            spec.node_id: WorkerHandle(spec) for spec in self.specs
        }
        self._lock = threading.RLock()
        self._monitor: threading.Thread | None = None
        self._closing = False
        #: (node_id, reason) for every unexpected worker death seen.
        self.crashes: list[tuple[int, str]] = []

    # -- lifecycle --------------------------------------------------------
    def start(self) -> "ClusterSupervisor":
        for handle in self.handles.values():
            self._spawn(handle)
        self.wait_ready()
        if self.topology is not None:
            self.wire(self.topology)
        self._monitor = threading.Thread(
            target=self._watch, name="scale-monitor", daemon=True
        )
        self._monitor.start()
        return self

    def _spawn(self, handle: WorkerHandle) -> None:
        parent_conn, child_conn = self._ctx.Pipe()
        process = self._ctx.Process(
            target=worker_main,
            args=(handle.spec, child_conn),
            name=f"scale-node-{handle.node_id}",
            daemon=True,
        )
        process.start()
        child_conn.close()  # the worker's end lives in the worker
        handle.process = process
        handle.conn = parent_conn
        handle.info = {}
        handle.stopped = False

    def wait_ready(self, timeout: float | None = None) -> dict[int, dict]:
        """Block until every running worker reported ready; returns the
        per-node info payloads (port, obs_port, pid, loop, recovery)."""
        deadline = time.monotonic() + (
            timeout if timeout is not None else self.ready_timeout
        )
        for handle in self.handles.values():
            if handle.info or handle.process is None:
                continue
            kind, payload = self._recv(
                handle, expect=("ready",), deadline=deadline
            )
            handle.info = payload
            _log.info(
                "worker ready",
                extra={"node": handle.node_id, **{
                    k: v for k, v in payload.items() if k != "recovery"
                }},
            )
        return {h.node_id: dict(h.info) for h in self.handles.values()}

    def _recv(self, handle: WorkerHandle, *, expect, deadline: float):
        """Next control message of an expected kind from one worker.

        ``failed`` messages raise with the worker's traceback; anything
        else out of band (there is none today — commands are strictly
        request/response) raises too, keeping the channel lockstep.
        """
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise TimeoutError(
                    f"worker {handle.node_id} sent nothing in time "
                    f"(expected {expect})"
                )
            if not handle.conn.poll(min(remaining, 0.1)):
                if not handle.alive:
                    raise RuntimeError(
                        f"worker {handle.node_id} died (exit code "
                        f"{handle.process.exitcode}) before replying"
                    )
                continue
            try:
                message = handle.conn.recv()
            except EOFError as exc:
                raise RuntimeError(
                    f"worker {handle.node_id} closed its control pipe"
                ) from exc
            kind = message[0]
            if kind == "failed":
                raise RuntimeError(
                    f"worker {handle.node_id} failed:\n{message[2]}"
                )
            if kind in expect:
                return kind, message[2] if len(message) > 2 else None
            raise RuntimeError(
                f"worker {handle.node_id}: expected {expect}, got {kind!r}"
            )

    def wire(self, topology) -> None:
        """Dial every edge across processes (lower node id dials higher,
        the same convention as the loopback cluster)."""
        with self._lock:
            for u, v in topology.edges():
                self._wire_edge(u, v)

    def _wire_edge(self, u: int, v: int) -> None:
        dialer, target = (u, v) if u < v else (v, u)
        handle = self.handles[dialer]
        peer = self.handles[target]
        if handle.conn is None or peer.port is None:
            return
        handle.conn.send(("peer", peer.spec.host, peer.port, target))

    # -- control-plane commands -------------------------------------------
    def command(
        self, node_id: int, message: tuple, *, expect, timeout: float = 10.0
    ):
        """Send one request to a worker and await its typed reply."""
        with self._lock:
            handle = self.handles[node_id]
            if not handle.alive:
                raise RuntimeError(f"worker {node_id} is not running")
            handle.conn.send(message)
            _kind, payload = self._recv(
                handle, expect=expect, deadline=time.monotonic() + timeout
            )
            return payload

    def issue_query(self, node_id: int, term: str) -> int:
        """Originate a query *from* one worker (control-plane testing
        hook; real load goes through :mod:`repro.scale.loadgen`)."""
        return self.command(
            node_id, ("query", term), expect=("query_issued",)
        )

    def stats(self) -> dict[int, dict]:
        """Control-channel counter snapshots of every live worker."""
        out: dict[int, dict] = {}
        with self._lock:
            for node_id, handle in sorted(self.handles.items()):
                if handle.alive:
                    out[node_id] = self.command(
                        node_id, ("stats",), expect=("stats",)
                    )
        return out

    def totals(self) -> dict[str, int]:
        """Cluster-wide counter totals for the *current* incarnations."""
        per_node = {
            node_id: NodeStats(**payload["counters"])
            for node_id, payload in self.stats().items()
        }
        return combine_stats(per_node)

    def grand_totals(self) -> dict[str, int]:
        """Totals including gracefully retired incarnations — the
        cross-restart accounting :meth:`LiveCluster.grand_totals` does
        in-process, rebuilt from control-channel snapshots (hard-killed
        incarnations are genuinely lost, exactly like a real crash)."""
        totals = self.totals()
        with self._lock:
            for handle in self.handles.values():
                for snapshot in handle.retired:
                    for name, value in snapshot.items():
                        totals[name] = totals.get(name, 0) + value
        return totals

    # -- addresses / observability ----------------------------------------
    def addresses(self) -> list[tuple[int, str, int]]:
        """(node_id, host, data port) of every worker that came up."""
        return [
            (h.node_id, h.spec.host, h.port)
            for h in sorted(self.handles.values(), key=lambda h: h.node_id)
            if h.port is not None
        ]

    def metrics_urls(self) -> list[str]:
        """Every live worker's Prometheus ``/metrics`` URL."""
        return [
            f"http://{h.spec.host}:{h.obs_port}/metrics"
            for h in sorted(self.handles.values(), key=lambda h: h.node_id)
            if h.alive and h.obs_port
        ]

    def scrape_totals(self, *, prefix: str = "repro_") -> dict[str, float]:
        """Aggregate worker ``/metrics`` endpoints over HTTP — the
        external-observer view of :meth:`totals`."""
        return scrape_totals(self.metrics_urls(), prefix=prefix)

    def obs_endpoints(self) -> list[tuple[int, str]]:
        """(node_id, base URL) of every live worker's obs server."""
        return [
            (h.node_id, f"http://{h.spec.host}:{h.obs_port}")
            for h in sorted(self.handles.values(), key=lambda h: h.node_id)
            if h.alive and h.obs_port
        ]

    def collector(self, **kwargs) -> ClusterTraceCollector:
        """A cluster-wide trace collector over the workers' obs
        endpoints (see :mod:`repro.obs.collect`)."""
        return ClusterTraceCollector(self.obs_endpoints(), **kwargs)

    # -- stop / kill / restart --------------------------------------------
    def stop(
        self, node_id: int, *, checkpoint: bool = True, timeout: float = 10.0
    ) -> dict[str, int] | None:
        """Graceful shutdown of one worker; returns its final counters."""
        with self._lock:
            handle = self.handles[node_id]
            if not handle.alive:
                return None
            handle.stopped = True
            handle.conn.send(("stop", checkpoint))
            try:
                final = self._drain_to_stopped(handle, timeout)
            except (RuntimeError, TimeoutError):
                final = None
            handle.process.join(timeout)
            if handle.process.is_alive():
                handle.process.kill()
                handle.process.join(timeout)
            if final is not None:
                handle.retired.append(final)
            return final

    def _drain_to_stopped(self, handle, timeout: float):
        """Read replies until the ``stopped`` record, tolerating any
        request/response messages already in flight."""
        deadline = time.monotonic() + timeout
        _kind, payload = self._recv(
            handle,
            expect=("stopped", "stats", "query_issued"),
            deadline=deadline,
        )
        while _kind != "stopped":
            _kind, payload = self._recv(
                handle,
                expect=("stopped", "stats", "query_issued"),
                deadline=deadline,
            )
        return payload

    def kill(self, node_id: int, *, timeout: float = 10.0) -> None:
        """Hard-kill one worker (SIGKILL): no stop command, no final
        checkpoint, no retired snapshot — the crash simulation."""
        with self._lock:
            handle = self.handles[node_id]
            handle.stopped = True  # intentional: the monitor must not restart
            if handle.process is not None:
                handle.process.kill()
                handle.process.join(timeout)

    def restart(self, node_id: int, *, wire: bool = True) -> dict:
        """Respawn a dead worker on its pinned port; returns ready info.

        The respawned spec pins the port the first incarnation resolved,
        so surviving dial supervisors (which retry forever by default)
        reconnect without re-wiring; with ``wire=True`` the edges this
        node *dials* (its lower-id side) are re-sent too.
        """
        with self._lock:
            handle = self.handles[node_id]
            if handle.alive:
                raise RuntimeError(f"worker {node_id} is still running")
            handle.restarts += 1
            handle.spec = replace(
                handle.spec,
                # pin the resolved port so surviving dial supervisors
                # reconnect, and mint GUIDs from a fresh epoch so their
                # dedup tables don't swallow the new life's descriptors.
                port=handle.port if handle.port is not None else handle.spec.port,
                guid_epoch=handle.restarts,
            )
            self._spawn(handle)
            kind, payload = self._recv(
                handle,
                expect=("ready",),
                deadline=time.monotonic() + self.ready_timeout,
            )
            handle.info = payload
            if wire and self.topology is not None:
                for neighbor in self.topology.neighbors(node_id):
                    if node_id < neighbor:
                        self._wire_edge(node_id, neighbor)
            _log.info(
                "worker restarted",
                extra={
                    "node": node_id,
                    "restarts": handle.restarts,
                    "recovery": payload.get("recovery"),
                },
            )
            return payload

    # -- crash monitor ----------------------------------------------------
    def reap(self) -> list[int]:
        """One monitor pass: find unexpected deaths, apply the restart
        policy; returns the node ids found crashed this pass."""
        crashed: list[int] = []
        with self._lock:
            if self._closing:
                return crashed
            for node_id, handle in self.handles.items():
                if (
                    handle.process is None
                    or handle.alive
                    or handle.stopped
                    or not handle.info
                ):
                    continue
                reason = f"exit code {handle.process.exitcode}"
                self.crashes.append((node_id, reason))
                crashed.append(node_id)
                _log.warning(
                    "worker crashed",
                    extra={"node": node_id, "reason": reason},
                )
                if (
                    self.restart_policy == "on-crash"
                    and handle.restarts < self.max_restarts
                ):
                    try:
                        self.restart(node_id)
                    except (RuntimeError, TimeoutError) as exc:
                        _log.error(
                            "restart failed",
                            extra={"node": node_id, "error": str(exc)},
                        )
                        handle.stopped = True  # give up on this worker
                else:
                    handle.stopped = True  # recorded; stop re-reporting
        return crashed

    def _watch(self) -> None:
        while not self._closing:
            try:
                self.reap()
            except Exception:  # pragma: no cover - monitor must survive
                _log.exception("monitor pass failed")
            time.sleep(self._monitor_interval)

    # -- teardown ---------------------------------------------------------
    def close(self, *, checkpoint: bool = True, timeout: float = 10.0) -> None:
        """Stop every worker gracefully; kill whatever will not stop."""
        self._closing = True
        if self._monitor is not None:
            self._monitor.join(self._monitor_interval * 5 + 1.0)
            self._monitor = None
        for node_id in sorted(self.handles):
            try:
                self.stop(node_id, checkpoint=checkpoint, timeout=timeout)
            except (RuntimeError, TimeoutError, OSError):
                handle = self.handles[node_id]
                if handle.process is not None and handle.process.is_alive():
                    handle.process.kill()
                    handle.process.join(timeout)
        for handle in self.handles.values():
            if handle.conn is not None:
                handle.conn.close()
                handle.conn = None

    def __enter__(self) -> "ClusterSupervisor":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.close()

    @property
    def n_workers(self) -> int:
        return len(self.handles)

    def cpu_budget(self) -> int:
        """Cores the cluster can actually occupy: min(workers, cores)."""
        return min(self.n_workers, os.cpu_count() or 1)
