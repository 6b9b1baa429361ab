"""Loopback clusters of live servents for tests, benchmarks and demos.

:class:`LiveCluster` boots one :class:`~repro.live.node.LiveServent` per
node of a :class:`~repro.network.topology.Topology` on ephemeral
localhost ports, dials every edge (the lower node id dials the higher),
injects workloads, and reads back per-node counters — the live-socket
twin of :class:`~repro.network.wirenet.WireNetwork`, suitable for
comparing rule routing against flooding over *real* TCP.

Quiescence detection exploits the node's accounting discipline: a
handled frame's outputs are enqueued (counted in ``frames_out``) before
the frame itself is counted in ``frames_in``, so when every send queue
is empty and cluster-wide ``frames_out == frames_in`` no descriptor can
still be in flight.  After a peer kill that balance can be permanently
off (bytes lost in dead sockets), so a stability fallback — counters
unchanged across consecutive polls — keeps :meth:`quiesce` sound.
"""

from __future__ import annotations

import asyncio
import os

from repro.core.streaming import StreamingRules
from repro.live.connection import ConnectionConfig
from repro.live.node import LiveServent
from repro.live.stats import NodeStats, combine_stats
from repro.obs.logging import get_logger
from repro.obs.registry import MetricsRegistry
from repro.obs.tracing import QueryTracer
from repro.network.protocol import DEFAULT_TTL
from repro.network.servent import LIVE_RULES, LIVE_TOP_K, SharedFile
from repro.network.topology import Topology
from repro.utils.rng import as_generator
from repro.utils.validation import check_finite_positive
from repro.workload.zipf import ZipfSampler

__all__ = [
    "LiveCluster",
    "harness_config",
    "interest_plan",
    "make_vocabulary",
]

_log = get_logger("live.cluster")


def harness_config(**overrides) -> ConnectionConfig:
    """A :class:`ConnectionConfig` tuned for loopback harnesses: no
    keepalives or idle drops (they add frames mid-measurement) and fast,
    bounded reconnect backoff so kill/reconnect tests run in seconds."""
    defaults = dict(
        keepalive_interval=0.0,
        idle_timeout=0.0,
        connect_timeout=2.0,
        handshake_timeout=2.0,
        retry_initial_delay=0.05,
        retry_backoff=2.0,
        retry_max_delay=1.0,
    )
    defaults.update(overrides)
    return ConnectionConfig(**defaults)


def make_vocabulary(n_terms: int) -> list[str]:
    """Fixed-width keyword terms (no term is a substring of another, so
    conjunctive filename matching cannot cross-match)."""
    if n_terms < 1:
        raise ValueError("n_terms must be >= 1")
    width = max(4, len(str(n_terms - 1)))
    return [f"kw{i:0{width}d}" for i in range(n_terms)]


def interest_plan(
    n_nodes: int,
    vocabulary: list[str],
    n_queries: int,
    rng,
    *,
    exponent: float = 1.2,
    origins: list[int] | None = None,
) -> list[tuple[int, str]]:
    """A query plan with per-node interest locality.

    Every origin draws term *ranks* from one shared bounded Zipf
    distribution, but reads them through its own rotation of the
    vocabulary — so each node's queries concentrate on a few terms (and
    therefore a few provider nodes) that differ node to node.  That is
    the locality the paper's rules exploit; a uniform plan would leave
    nothing to learn.
    """
    rng = as_generator(rng)
    sampler = ZipfSampler(len(vocabulary), exponent)
    pool = origins if origins is not None else list(range(n_nodes))
    if not pool:
        raise ValueError("need at least one origin node")
    plan: list[tuple[int, str]] = []
    for _ in range(n_queries):
        node = pool[int(rng.integers(0, len(pool)))]
        rank = sampler.sample(rng)
        term = vocabulary[(rank + node * 7919) % len(vocabulary)]
        plan.append((node, term))
    return plan


class LiveCluster:
    """N live servents wired along a topology over loopback TCP."""

    def __init__(
        self,
        topology: Topology,
        *,
        rule_routed: bool = False,
        top_k: int = LIVE_TOP_K,
        max_ttl: int = DEFAULT_TTL,
        host: str = "127.0.0.1",
        config: ConnectionConfig | None = None,
        rule_kwargs: dict | None = None,
        observe: bool = False,
        registry: MetricsRegistry | None = None,
        tracer: QueryTracer | None = None,
        fault_controller=None,
        state_dir: str | None = None,
        checkpoint_interval: float = 30.0,
        fsync: str = "interval",
    ) -> None:
        if state_dir is not None and not rule_routed:
            raise ValueError(
                "state_dir persists learned rule state; it requires "
                "rule_routed=True"
            )
        self.topology = topology
        self.host = host
        self.config = config or harness_config()
        self.rule_routed = rule_routed
        #: root of per-node durable-state dirs (``node-NNN/``), or None.
        self.state_dir = state_dir
        self._checkpoint_interval = check_finite_positive(
            "checkpoint_interval", checkpoint_interval
        )
        self._fsync = fsync
        #: a :class:`repro.faults.transport.FaultController` (or None).
        #: Every node dials through the controller's transport opener, so
        #: link faults and partitions act at the socket boundary.
        self.fault_controller = fault_controller
        # One registry and one tracer shared by every node: per-node
        # series are separated by the `node` label, and a query's trace
        # accumulates events from every node it crosses — which is what
        # makes hop-by-hop reconstruction possible.
        if observe:
            registry = registry if registry is not None else MetricsRegistry()
            tracer = tracer if tracer is not None else QueryTracer()
        self.registry = registry
        self.tracer = tracer
        self._node_kwargs = dict(
            rule_routed=rule_routed,
            top_k=top_k,
            max_ttl=max_ttl,
            config=self.config,
            registry=registry,
            tracer=tracer,
        )
        self._rule_kwargs = dict(rule_kwargs or {})
        #: GUIDs of queries issued through :meth:`query`, in issue order.
        self.issued: list[tuple[int, str, int]] = []
        #: final counter snapshots of nodes replaced by :meth:`restart` —
        #: cross-restart accounting (:meth:`grand_totals`) needs them.
        self.retired_stats: list[dict[str, int]] = []
        #: restarts per node; each new life mints GUIDs from its own epoch.
        self._restarts: list[int] = [0] * topology.n_nodes
        self.nodes: list[LiveServent] = [
            self._make_node(node) for node in range(topology.n_nodes)
        ]

    def _make_node(self, node_id: int, port: int = 0) -> LiveServent:
        rules = None
        if self.rule_routed:
            rules = StreamingRules(**{**LIVE_RULES, **self._rule_kwargs})
        open_transport = None
        if self.fault_controller is not None:
            open_transport = self.fault_controller.opener(node_id)
        persist_kwargs = {}
        if self.state_dir is not None:
            persist_kwargs = dict(
                state_dir=self.node_state_dir(node_id),
                checkpoint_interval=self._checkpoint_interval,
                fsync=self._fsync,
            )
        return LiveServent(
            node_id,
            host=self.host,
            port=port,
            rules=rules,
            open_transport=open_transport,
            **persist_kwargs,
            **self._node_kwargs,
        )

    def node_state_dir(self, node_id: int) -> str:
        """One node's durable-state directory under :attr:`state_dir`."""
        if self.state_dir is None:
            raise RuntimeError("cluster built without a state_dir")
        return os.path.join(self.state_dir, f"node-{node_id:03d}")

    # -- lifecycle --------------------------------------------------------
    async def start(self, *, ready_timeout: float = 10.0) -> None:
        """Listen everywhere, dial every edge, wait for full wiring."""
        for node in self.nodes:
            await node.start()
        if self.fault_controller is not None:
            # openers need the node ↔ port map before the first dial.
            self.fault_controller.bind_ports(
                {node.node_id: node.port for node in self.nodes}
            )
        for u, v in self.topology.edges():
            self.nodes[u].add_peer(self.host, self.nodes[v].port, peer_id=v)
        await self.wait_connected(timeout=ready_timeout)

    async def wait_connected(self, *, timeout: float = 10.0) -> None:
        """Block until every edge has a live connection on both ends."""
        loop = asyncio.get_running_loop()
        deadline = loop.time() + timeout
        while True:
            wired = all(
                node.closed
                or node.connected_peers
                >= set(self.topology.neighbors(node.node_id))
                for node in self.nodes
            )
            if wired:
                return
            if loop.time() > deadline:
                raise TimeoutError("cluster did not finish wiring up")
            await asyncio.sleep(0.01)

    async def close(self) -> None:
        await asyncio.gather(*(node.close() for node in self.nodes))

    async def __aenter__(self) -> "LiveCluster":
        await self.start()
        return self

    async def __aexit__(self, *exc) -> None:
        await self.close()

    # -- failure injection ------------------------------------------------
    async def kill(self, node_id: int, *, hard: bool = False) -> None:
        """Stop one node (server + every connection + supervisors).

        Dialing neighbors notice the dead link and begin re-dialing with
        backoff; their ``dial_failures`` counters record the attempts.

        ``hard=True`` is the crash simulation for nodes with a state
        directory: the final checkpoint is skipped, so a subsequent
        :meth:`restart` must recover through the WAL tail — exactly
        what a SIGKILL'd daemon would face.  Without persistence the
        flag changes nothing.
        """
        await self.nodes[node_id].close(checkpoint=not hard)

    async def restart(self, node_id: int) -> LiveServent:
        """Bring a killed node back on its old port with its old library.

        Two distinct behaviors, by configuration:

        * **cold** (no ``state_dir``): learned rule state is *not*
          restored — the restarted servent relearns from live traffic,
          re-flooding until its streaming window refills;
        * **warm** (cluster built with ``state_dir``): the new
          incarnation recovers its predecessor's counts from the latest
          snapshot plus the WAL tail before serving its first query.

        The returned :class:`LiveServent` carries the recovery record:
        ``node.recovery`` is a :class:`~repro.persist.state.RecoveryInfo`
        with the restored rule count, replayed WAL records and state
        fingerprint (None on a cold restart), so callers can audit what
        came back instead of the state being silently discarded.
        """
        old = self.nodes[node_id]
        if not old.closed:
            raise RuntimeError(f"node {node_id} is still running")
        self.retired_stats.append(old.snapshot())
        node = self._make_node(node_id, port=old.port)
        node.servent.library = list(old.servent.library)
        # A life that restarts its GUID sequence at 1 re-mints its
        # predecessor's GUIDs, and peers' duplicate-GUID tables drop them.
        self._restarts[node_id] += 1
        node.servent.advance_guid_epoch(self._restarts[node_id])
        self.nodes[node_id] = node
        if node.recovery is not None:
            _log.info(
                "warm restart",
                extra={"node": node_id, **node.recovery.as_dict()},
            )
        await node.start()
        for neighbor in self.topology.neighbors(node_id):
            if node_id < neighbor and not self.nodes[neighbor].closed:
                # This node was the dialer for the edge; resume that role
                # (the other direction's supervisors are already retrying).
                node.add_peer(
                    self.host, self.nodes[neighbor].port, peer_id=neighbor
                )
        return node

    # -- libraries --------------------------------------------------------
    def stock_partitioned_library(self, vocabulary: list[str]) -> None:
        """Deal terms round-robin: node ``i`` is the unique provider of
        ``vocabulary[i::n]`` — every query has exactly one answering node,
        which makes routing quality directly legible in the counters."""
        n = len(self.nodes)
        for i, node in enumerate(self.nodes):
            node.servent.library = [
                SharedFile(index=j, name=f"{term} track{j}.mp3", size=1 << 20)
                for j, term in enumerate(vocabulary[i::n])
            ]

    def owner_of(self, term: str) -> int | None:
        """The node sharing a file that matches ``term``, if any."""
        for node in self.nodes:
            if any(f.matches(term) for f in node.servent.library):
                return node.node_id
        return None

    # -- accounting -------------------------------------------------------
    def _activity(self) -> tuple[int, int, int, int]:
        frames_in = frames_out = dropped = pending = 0
        for node in self.nodes:
            frames_in += node.stats.frames_in
            frames_out += node.stats.frames_out
            dropped += node.stats.frames_dropped
            pending += node.pending_frames
        return frames_in, frames_out, dropped, pending

    async def quiesce(self, *, timeout: float = 5.0) -> bool:
        """Wait until no descriptor is in flight anywhere in the cluster."""
        loop = asyncio.get_running_loop()
        deadline = loop.time() + timeout
        prev: tuple[int, int, int, int] | None = None
        stable = 0
        while loop.time() < deadline:
            snap = self._activity()
            frames_in, frames_out, _dropped, pending = snap
            balanced = pending == 0 and frames_out == frames_in
            if snap == prev:
                stable += 1
                if (balanced and stable >= 1) or stable >= 4:
                    return True
            else:
                prev = snap
                stable = 0
            await asyncio.sleep(0.003)
        return False

    def node_stats(self) -> dict[int, dict[str, int]]:
        return {node.node_id: node.snapshot() for node in self.nodes}

    # -- observability ----------------------------------------------------
    def render_metrics(self) -> str:
        """The whole cluster's metrics (Prometheus text), freshly synced.

        Every node shares one registry, so one render covers the cluster
        with per-node series separated by the ``node`` label.  Raises
        ``RuntimeError`` unless the cluster was built with
        ``observe=True`` (or an explicit registry).
        """
        if self.registry is None:
            raise RuntimeError("cluster built without a metrics registry")
        for node in self.nodes:
            node.sync_metrics()
        return self.registry.render()

    def trace(self, guid: int):
        """The :class:`~repro.obs.tracing.QueryTrace` for one GUID."""
        if self.tracer is None:
            raise RuntimeError("cluster built without a tracer")
        return self.tracer.trace(guid)

    def totals(self) -> dict[str, int]:
        per_node = {
            node.node_id: NodeStats(**node.snapshot()) for node in self.nodes
        }
        return combine_stats(per_node)

    def grand_totals(self) -> dict[str, int]:
        """Cluster totals *including* nodes retired by :meth:`restart`.

        A restarted node starts from zero counters, so plain
        :meth:`totals` under-counts one side of every frame the old
        incarnation exchanged — conservation checks (``frames_in <=
        frames_out``) need the retired snapshots folded back in.
        """
        totals = self.totals()
        for snapshot in self.retired_stats:
            for name, value in snapshot.items():
                totals[name] += value
        return totals

    # -- workloads --------------------------------------------------------
    async def query(
        self, node_id: int, term: str, *, quiesce_timeout: float = 5.0
    ) -> int:
        """Issue one query and wait out the traffic; returns hits received."""
        node = self.nodes[node_id]
        before = len(node.results)
        guid = node.issue_query(term)
        self.issued.append((node_id, term, guid))
        await self.quiesce(timeout=quiesce_timeout)
        hits = len(node.results) - before
        if hits == 0 and self.tracer is not None:
            self.tracer.record(guid, node_id, "timeout")
        return hits

    async def run_plan(
        self,
        plan: list[tuple[int, str]],
        *,
        quiesce_timeout: float = 5.0,
    ) -> dict[str, float]:
        """Drive a (node, term) plan; returns cluster-level traffic stats.

        ``frames`` counts every descriptor accepted for sending anywhere
        in the cluster while the plan ran — queries, forwards and hits —
        the live analogue of the simulators' message counts.
        """
        before = self.totals()
        answered = 0
        hits = 0
        for node_id, term in plan:
            n_hits = await self.query(
                node_id, term, quiesce_timeout=quiesce_timeout
            )
            hits += n_hits
            if n_hits:
                answered += 1
        after = self.totals()
        frames = after["frames_out"] - before["frames_out"]
        n = len(plan)
        return {
            "n_queries": float(n),
            "answered": float(answered),
            "answer_rate": answered / n if n else 0.0,
            "hits": float(hits),
            "frames": float(frames),
            "frames_per_query": frames / n if n else 0.0,
            "frames_per_answered": frames / answered if answered else float("inf"),
        }
