"""One cluster worker process: a LiveServent plus a control channel.

:func:`worker_main` is the ``multiprocessing`` (spawn) entry point the
:class:`~repro.scale.supervisor.ClusterSupervisor` launches one process
per node.  Inside, it is deliberately thin: build the
:class:`~repro.live.node.LiveServent` described by a picklable
:class:`WorkerSpec` (per-node durable state via :mod:`repro.persist`,
per-process :class:`~repro.obs.registry.MetricsRegistry` with its own
``/metrics`` endpoint, optional uvloop), report readiness over the
control pipe, then serve control commands until told to stop.  All
*data-plane* traffic — queries, hits, rule learning — flows over the
node's real TCP sockets; the pipe carries only control messages, so
killing the process models a crash faithfully (peers see a dead socket,
not a closed channel).

Control protocol (tuples over a ``multiprocessing.Pipe``):

=====================  ==============================================
parent → worker        worker → parent
=====================  ==============================================
``("peer", h, p, id)``  —  (dial and supervise a peer)
``("query", term)``     ``("query_issued", node, guid)``
``("stats",)``          ``("stats", node, payload)``
``("stop", ckpt)``      ``("stopped", node, final counters)``
—                       ``("ready", node, info)`` after start
—                       ``("failed", node, traceback)`` on a fatal error
=====================  ==============================================

A graceful ``("stop", True)`` closes the node with a final checkpoint
(the clean-shutdown semantics of :meth:`LiveServent.close`); ``("stop",
False)`` skips it — the soft crash used by fault drills.  A *hard* kill
(SIGKILL from the supervisor) never reaches this code at all, which is
the point: recovery must come from the WAL tail, exactly as in
:mod:`repro.faults` soaks.
"""

from __future__ import annotations

import asyncio
import os
import sys
import traceback
from dataclasses import dataclass, field

from repro.live.connection import ConnectionConfig

__all__ = ["WorkerSpec", "worker_main"]

#: how often the worker polls the control pipe; control-plane latency
#: only — the data plane never waits on this.
_CONTROL_POLL_SECONDS = 0.02


@dataclass(frozen=True)
class WorkerSpec:
    """Everything needed to build one node, picklable for spawn."""

    node_id: int
    host: str = "127.0.0.1"
    #: 0 binds an ephemeral port (reported back in the ready message);
    #: restarts pin the previously resolved port so peers reconnect.
    port: int = 0
    rule_routed: bool = True
    top_k: int = 2
    max_ttl: int = 7
    #: terms this node shares one file apiece for.
    share_terms: tuple[str, ...] = ()
    #: StreamingRules overrides as (name, value) pairs (kept hashable).
    rule_kwargs: tuple[tuple[str, object], ...] = ()
    config: ConnectionConfig = field(default_factory=ConnectionConfig)
    state_dir: str | None = None
    checkpoint_interval: float = 30.0
    fsync: str = "interval"
    #: metrics endpoint port (0 = ephemeral, None = disabled).
    obs_port: int | None = 0
    uvloop: bool = False
    log_level: str = "warning"
    #: incarnation number; each restart mints GUIDs from a fresh epoch
    #: so peers' GUID-dedup tables don't eat the new life's queries.
    guid_epoch: int = 0
    #: GUID sampling for query tracing: 0 disables the tracer entirely,
    #: N traces the 1-in-N GUID subset (``traced_guid``) and serves the
    #: spans on the obs endpoint's ``/trace`` route.
    trace_sample: int = 0
    #: bound on distinct GUIDs the worker's tracer retains.
    trace_max: int = 512


def _build_tracer(spec: WorkerSpec):
    """The worker's sampled tracer (None when sampling is off)."""
    if spec.trace_sample <= 0:
        return None
    from repro.obs.tracing import QueryTracer

    return QueryTracer(max_traces=spec.trace_max, sample=spec.trace_sample)


def _build_node(spec: WorkerSpec, registry, tracer=None):
    from repro.live.node import LiveServent
    from repro.network.servent import SharedFile

    library = [
        SharedFile(index=i, name=f"{term} track{i}.mp3", size=1 << 20)
        for i, term in enumerate(spec.share_terms)
    ]
    rules = None
    if spec.rule_routed:
        from repro.core.streaming import StreamingRules

        rules = StreamingRules(
            **{
                "min_support_count": 2,
                "window_pairs": 512,
                **dict(spec.rule_kwargs),
            }
        )
    return LiveServent(
        spec.node_id,
        host=spec.host,
        port=spec.port,
        library=library,
        rule_routed=spec.rule_routed,
        rules=rules,
        top_k=spec.top_k,
        max_ttl=spec.max_ttl,
        config=spec.config,
        registry=registry,
        tracer=tracer,
        obs_port=spec.obs_port,
        state_dir=spec.state_dir,
        checkpoint_interval=spec.checkpoint_interval,
        fsync=spec.fsync,
    )


async def _serve(spec: WorkerSpec, conn, loop_impl: str) -> None:
    from repro.obs.registry import MetricsRegistry

    node = _build_node(spec, MetricsRegistry(), _build_tracer(spec))
    if spec.guid_epoch:
        node.servent.advance_guid_epoch(spec.guid_epoch)
    await node.start()
    conn.send(
        (
            "ready",
            spec.node_id,
            {
                "pid": os.getpid(),
                "port": node.port,
                "obs_port": node.obs_port,
                "loop": loop_impl,
                "recovery": (
                    node.recovery.as_dict()
                    if node.recovery is not None
                    else None
                ),
            },
        )
    )
    checkpoint = True
    try:
        while True:
            while not conn.poll():
                await asyncio.sleep(_CONTROL_POLL_SECONDS)
            try:
                message = conn.recv()
            except EOFError:
                return  # supervisor died; shut down gracefully below
            command = message[0]
            if command == "peer":
                _, host, port, peer_id = message
                node.add_peer(host, port, peer_id=peer_id)
            elif command == "query":
                guid = node.issue_query(message[1])
                conn.send(("query_issued", spec.node_id, guid))
            elif command == "stats":
                conn.send(
                    (
                        "stats",
                        spec.node_id,
                        {
                            "counters": node.snapshot(),
                            "pending_frames": node.pending_frames,
                            "connected_peers": sorted(node.connected_peers),
                            "hits": len(node.results),
                        },
                    )
                )
            elif command == "stop":
                checkpoint = bool(message[1])
                return
            else:
                conn.send(
                    ("failed", spec.node_id, f"unknown command {command!r}")
                )
    finally:
        await node.close(checkpoint=checkpoint)
        try:
            conn.send(("stopped", spec.node_id, node.snapshot()))
        except (OSError, BrokenPipeError):
            pass


def worker_main(spec: WorkerSpec, conn) -> None:
    """Process entry point: run one node until stopped or killed."""
    from repro.obs.logging import configure_logging
    from repro.scale.loop import install_uvloop

    configure_logging(level=spec.log_level)
    loop_impl = install_uvloop(spec.uvloop)
    try:
        asyncio.run(_serve(spec, conn, loop_impl))
    except Exception:
        try:
            conn.send(("failed", spec.node_id, traceback.format_exc()))
        except (OSError, BrokenPipeError):
            pass
        sys.exit(1)
    finally:
        conn.close()
