"""The paper's rule-routed servent as an asyncio network daemon.

:class:`LiveServent` puts the byte-level state machine from
:mod:`repro.network.servent` on real TCP sockets: it runs an asyncio
server for inbound peers, supervises outbound links (dial, handshake,
reconnect with exponential backoff), and pumps every decoded descriptor
through the same forwarding rules the in-process simulators use —
GUID reply routing, duplicate suppression, TTL aging, shared-file hit
matching.

Rule-routed nodes (``rule_routed=True``) run the paper's association
routing *online*: a :class:`StreamingRuleServent` keeps its rules in the
:mod:`repro.core.counts` table that
:meth:`repro.core.streaming.StreamingRules.make_counts` hands out — the
§VI immediate-update algorithm — observing one ``(query upstream, reply
downstream)`` pair per QueryHit it routes backwards, and forwarding a
covered query only to the top-k rule consequents.  Uncovered sources
flood, exactly the paper's incremental-deployment fallback, so a
rule-routed daemon interoperates with vanilla flooding peers on the
same overlay.

With a ``state_dir`` the learned counts become durable state
(:mod:`repro.persist`): every observed pair is journaled to a WAL as
it is counted, a background task checkpoints the counts every
``checkpoint_interval`` seconds, and a restarted daemon warm-recovers
— snapshot plus WAL-tail replay — instead of re-flooding while its
window refills.
"""

from __future__ import annotations

import asyncio
import zlib
from time import perf_counter

from repro.core.streaming import StreamingRules
from repro.live.connection import (
    ConnectionConfig,
    PeerConnection,
    TransportOpener,
    backoff_delays,
    dial_peer,
)
from repro.live.stats import NodeStats
from repro.obs.http import ObsHttpServer
from repro.obs.instruments import NodeInstruments
from repro.obs.logging import RateLimiter, bind_node, get_logger
from repro.obs.registry import MetricsRegistry
from repro.persist.state import PersistentState
from repro.network.protocol import (
    DEFAULT_TTL,
    PAYLOAD_QUERY,
    DescriptorHeader,
    ProtocolError,
)
from repro.network.servent import (
    LIVE_RULES,
    LIVE_TOP_K,
    RuleRoutedServent,
    Servent,
    SharedFile,
    node_guid,
)
from repro.utils.validation import check_finite_positive

__all__ = ["LiveServent", "StreamingRuleServent"]

_log = get_logger("live.node")
_log_limiter = RateLimiter(5.0)


class StreamingRuleServent(RuleRoutedServent):
    """A servent whose forwarding follows live streaming-rule counts.

    Its table comes from the evaluated §VI streaming strategy, ``rules``
    (either backend): :meth:`StreamingRules.make_counts` builds it fresh,
    or ``persist`` recovers it from disk, and the parent is handed it —
    so the daemon's routing quality is the quantity the reproduction
    already measures offline.  Which connections a rule sends a query to
    (its own or a relayed one), and the ``rule_routed`` trace events, are
    the parent's; the stats and the WAL journal are added here.
    """

    def __init__(
        self,
        servent_guid: int,
        *,
        rules: StreamingRules,
        stats: NodeStats | None = None,
        instruments: NodeInstruments | None = None,
        persist: PersistentState | None = None,
        **kwargs,
    ) -> None:
        #: durable-state manager (or None for a memory-only servent).
        #: Recovery happens here, at construction: the servent never
        #: routes a single query on cold counts when warm ones exist.
        self.persist = persist
        if persist is not None:
            counts, self.recovery = persist.recover(rules)
        else:
            counts, self.recovery = rules.make_counts(), None
        super().__init__(servent_guid, counts=counts, **kwargs)
        #: Routing decisions are tallied *here*, as they happen, into the
        #: owning node's :class:`NodeStats` (or a private one when run
        #: standalone) — a mid-run scrape must see current counters, not
        #: values back-filled at snapshot time.
        self.stats = stats if stats is not None else NodeStats()
        self._instr = instruments
        self._time_regen = instruments is not None and instruments.enabled

    def _count_decision(self, rule_routed: bool) -> None:
        if rule_routed:
            self.stats.queries_rule_routed += 1
        else:
            self.stats.queries_flooded += 1

    def _learn(self, upstream: int, conn_id: int) -> None:
        # §III-B's learning event, fed straight into the §VI streaming
        # counts: a query from `upstream` (LOCAL for its own) was
        # satisfied through `conn_id`.
        if self._time_regen:
            t0 = perf_counter()
            promoted = self.counts.observe(upstream, conn_id)
            if promoted:
                # the event that crossed the threshold *is* the
                # live equivalent of a batch regeneration
                self._instr.observe_rule_regeneration(perf_counter() - t0)
        else:
            promoted = self.counts.observe(upstream, conn_id)
        if self.persist is not None:
            # journal *after* the in-memory update: a WAL record
            # always describes a pair the counts have seen, so
            # replay can never double-apply or skip one.
            self.persist.record_pair(upstream, conn_id)
        if promoted:
            self.stats.rule_regenerations += 1


class LiveServent:
    """One live node: TCP server + supervised outbound links + servent."""

    def __init__(
        self,
        node_id: int,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        library: list[SharedFile] | None = None,
        rule_routed: bool = False,
        rules: StreamingRules | None = None,
        top_k: int = LIVE_TOP_K,
        max_ttl: int = DEFAULT_TTL,
        config: ConnectionConfig | None = None,
        registry: MetricsRegistry | None = None,
        tracer=None,
        obs_port: int | None = None,
        obs_host: str | None = None,
        open_transport: TransportOpener | None = None,
        state_dir: str | None = None,
        checkpoint_interval: float = 30.0,
        fsync: str = "interval",
    ) -> None:
        if node_id < 0:
            raise ValueError("node_id must be non-negative")
        checkpoint_interval = check_finite_positive(
            "checkpoint_interval", checkpoint_interval
        )
        self.node_id = node_id
        self.host = host
        self.port = port
        self.config = config or ConnectionConfig()
        self.stats = NodeStats()
        self.registry = registry
        self.tracer = tracer
        self.instruments = (
            NodeInstruments(registry, node_id) if registry is not None else None
        )
        self.checkpoint_interval = checkpoint_interval
        persist = None
        if state_dir is not None:
            if not rule_routed:
                raise ValueError(
                    "state_dir persists learned rule state; it requires "
                    "rule_routed=True"
                )
            persist = PersistentState(
                state_dir,
                fsync=fsync,
                label=str(node_id),
                registry=registry,
            )
        guid = node_guid(node_id)
        if rule_routed:
            self.servent: Servent = StreamingRuleServent(
                guid,
                rules=rules or StreamingRules(**LIVE_RULES),
                top_k=top_k,
                library=library,
                max_ttl=max_ttl,
                stats=self.stats,
                instruments=self.instruments,
                persist=persist,
            )
        else:
            self.servent = Servent(guid, library=library, max_ttl=max_ttl)
        self.persist = persist
        self._checkpoint_task: asyncio.Task | None = None
        self.servent.tracer = tracer
        self.servent.trace_node = node_id
        self._server: asyncio.Server | None = None
        self._obs_server: ObsHttpServer | None = None
        if obs_port is not None:
            if registry is None:
                raise ValueError("obs_port requires a metrics registry")
            self._obs_server = ObsHttpServer(
                render=self.render_metrics,
                health=self.health,
                trace=self.render_trace if tracer is not None else None,
                host=obs_host if obs_host is not None else host,
                port=obs_port,
            )
        self._open_transport = open_transport
        #: handshaken links by peer id — the servent's connection table.
        self._conns: dict[int, PeerConnection] = {}
        #: every link whose transport may still be open (inbound from
        #: accept, outbound from handshake) — :meth:`close` sees them gone.
        self._links: set[PeerConnection] = set()
        self._supervisors: dict[tuple[str, int], asyncio.Task] = {}
        self._closed = False

    # -- lifecycle --------------------------------------------------------
    async def start(self) -> None:
        """Bind and listen; ``port=0`` resolves to the ephemeral port."""
        with bind_node(self.node_id):
            self._server = await asyncio.get_running_loop().create_server(
                self._accept, self.host, self.port
            )
            self.port = self._server.sockets[0].getsockname()[1]
            if self._obs_server is not None:
                await self._obs_server.start()
                _log.info(
                    "metrics endpoint up",
                    extra={
                        "url": f"http://{self._obs_server.host}:"
                        f"{self._obs_server.port}/metrics"
                    },
                )
            if self.persist is not None:
                self._checkpoint_task = asyncio.create_task(
                    self._checkpoint_loop()
                )
            _log.info(
                "listening", extra={"host": self.host, "port": self.port}
            )

    @property
    def recovery(self):
        """The last warm-recovery record (a
        :class:`~repro.persist.state.RecoveryInfo`), or None for nodes
        without a state directory."""
        return getattr(self.servent, "recovery", None)

    def checkpoint(self) -> dict | None:
        """Snapshot the live rule counts and compact the WAL now.

        Returns the snapshot header, or None when this node has no
        state directory (or its persistence is already closed).
        """
        if self.persist is None or self.persist.closed:
            return None
        return self.persist.checkpoint(self.servent.counts)

    async def _checkpoint_loop(self) -> None:
        try:
            while True:
                await asyncio.sleep(self.checkpoint_interval)
                try:
                    self.checkpoint()
                except OSError as exc:
                    _log.error(
                        "checkpoint failed", extra={"error": str(exc)}
                    )
        except asyncio.CancelledError:
            pass

    @property
    def obs_port(self) -> int | None:
        """The resolved ``/metrics`` port, when the endpoint is enabled."""
        return self._obs_server.port if self._obs_server is not None else None

    async def close(self, *, checkpoint: bool = True) -> None:
        """Stop supervising, stop listening, drop every peer.

        Connections get the graceful teardown (flush accepted frames,
        then await their transports — see :meth:`PeerConnection.aclose`),
        so a closed node leaves no pending tasks, timers or unclosed
        transports behind.

        A node with a state directory takes a final checkpoint once the
        last connection is down (so the snapshot captures every pair
        this incarnation learned); ``checkpoint=False`` skips it — the
        hard-crash simulation, leaving recovery to the WAL tail.
        """
        self._closed = True
        if self._checkpoint_task is not None:
            self._checkpoint_task.cancel()
            await asyncio.gather(self._checkpoint_task, return_exceptions=True)
            self._checkpoint_task = None
        for task in self._supervisors.values():
            task.cancel()
        if self._supervisors:
            await asyncio.gather(
                *self._supervisors.values(), return_exceptions=True
            )
        self._supervisors.clear()
        if self._obs_server is not None:
            await self._obs_server.close()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        await asyncio.gather(
            *(link.aclose(flush=True) for link in list(self._links)),
            return_exceptions=True,
        )
        if self.persist is not None and not self.persist.closed:
            if checkpoint:
                try:
                    self.checkpoint()
                except OSError as exc:
                    _log.error(
                        "final checkpoint failed", extra={"error": str(exc)}
                    )
            self.persist.close()
        _log.info("closed", extra={"node": self.node_id})

    @property
    def closed(self) -> bool:
        return self._closed

    # -- peering ----------------------------------------------------------
    def add_peer(
        self, host: str, port: int, *, peer_id: int | None = None
    ) -> None:
        """Dial a peer and keep the link alive: on loss or dial failure,
        retry with exponential backoff (``config.max_retries`` bounds
        consecutive failures; None retries forever).  ``peer_id`` pins
        the expected overlay node id; left None, the id learned in the
        handshake is trusted."""
        key = (host, port)
        if key in self._supervisors or self._closed:
            return
        with bind_node(self.node_id):
            self._supervisors[key] = asyncio.create_task(
                self._supervise(host, port, peer_id)
            )

    async def _supervise(
        self, host: str, port: int, expected_id: int | None
    ) -> None:
        ever_connected = False
        # Per-peer salt: with config.retry_jitter > 0, supervisors that
        # lost their links at the same instant (healed partition,
        # restarted hub) draw decorrelated — but seeded, replayable —
        # backoff schedules instead of thundering back together.
        salt = zlib.crc32(f"{self.node_id}|{host}:{port}".encode())
        delays = backoff_delays(self.config, salt=salt)
        failures = 0
        instr = self.instruments
        peer_label = expected_id if expected_id is not None else f"{host}:{port}"
        try:
            while not self._closed:
                try:
                    conn = await dial_peer(
                        host,
                        port,
                        self.node_id,
                        self.config,
                        open_transport=self._open_transport,
                        expect_peer=expected_id,
                        **self._link_kwargs(),
                    )
                except (OSError, ProtocolError, asyncio.TimeoutError) as exc:
                    self.stats.dial_failures += 1
                    failures += 1
                    suppressed = _log_limiter.allow(
                        ("dial", self.node_id, host, port)
                    )
                    if suppressed is not None:
                        _log.warning(
                            "dial failed",
                            extra={
                                "target": f"{host}:{port}",
                                "error": str(exc) or type(exc).__name__,
                                "failures": failures,
                                "suppressed": suppressed,
                            },
                        )
                    if (
                        self.config.max_retries is not None
                        and failures >= self.config.max_retries
                    ):
                        _log.error(
                            "giving up on peer",
                            extra={
                                "target": f"{host}:{port}",
                                "failures": failures,
                            },
                        )
                        return
                    delay = next(delays)
                    if instr is not None:
                        instr.set_backoff(peer_label, delay)
                    await asyncio.sleep(delay)
                    continue
                failures = 0
                delays = backoff_delays(self.config, salt=salt)  # reset
                if instr is not None:
                    instr.set_backoff(peer_label, 0.0)
                if ever_connected:
                    self.stats.reconnects += 1
                    _log.info(
                        "reconnected",
                        extra={"peer": conn.peer_id, "target": f"{host}:{port}"},
                    )
                ever_connected = True
                # the dead link's transport is gone *before* re-dialing: a
                # tight reconnect loop must not accumulate open transports.
                await conn.wait_closed()
                if self._closed:
                    return
                delay = next(delays)
                if instr is not None:
                    instr.set_backoff(peer_label, delay)
                await asyncio.sleep(delay)
        except asyncio.CancelledError:
            pass

    def _link_kwargs(self) -> dict:
        """What every link of this node is built with, dialed or accepted."""
        return dict(
            stats=self.stats,
            on_message=self._handle,
            on_ready=self._register,
            on_close=self._conn_closed,
            make_keepalive=self.servent.make_ping,
            instruments=self.instruments,
        )

    def _accept(self) -> PeerConnection:
        link = PeerConnection(
            self.node_id, dialer=False, config=self.config, **self._link_kwargs()
        )
        self._links.add(link)
        return link

    def _register(self, conn: PeerConnection) -> None:
        """A link finished its handshake: it is this peer's connection."""
        stale = self._conns.get(conn.peer_id)
        if stale is not None:
            # Reconnect superseding a half-dead link: hard-close it now;
            # it stays in ``_links`` until its transport is gone.
            stale.close()
        self._links.add(conn)
        self._conns[conn.peer_id] = conn
        self.servent.connect(conn.peer_id)
        self.stats.connects += 1
        _log.debug("peer connected", extra={"peer": conn.peer_id})

    def _conn_closed(self, conn: PeerConnection) -> None:
        self._links.discard(conn)
        if self._conns.get(conn.peer_id) is conn:
            del self._conns[conn.peer_id]
            self.servent.disconnect(conn.peer_id)

    @property
    def connected_peers(self) -> set[int]:
        return set(self._conns)

    @property
    def pending_frames(self) -> int:
        """Frames accepted by links but not yet handed to their transports
        (the backpressure backlog)."""
        return sum(conn.pending_frames for conn in self._conns.values())

    # -- traffic ----------------------------------------------------------
    def _handle(self, peer_id: int, header: DescriptorHeader, payload) -> None:
        if peer_id not in self.servent.connections:
            return  # raced with a disconnect
        hits_before = len(self.servent.results)
        outgoing = self.servent.handle_message(peer_id, header, payload)
        for conn_id, frame in outgoing:
            self._send(conn_id, frame)
        self.stats.hits_received += len(self.servent.results) - hits_before

    def _send(self, conn_id: int, frame: bytes) -> bool:
        conn = self._conns.get(conn_id)
        if conn is None or not conn.send(frame):
            self.stats.frames_dropped += 1
            if conn is not None and len(frame) > 16 and frame[16] == PAYLOAD_QUERY:
                # Overload shedding: the bounded send queue refused a
                # Query forward.  Count it as shed — the query already
                # reached this node and may still resolve along the
                # copies that did fit, so this is flood-fallback loss
                # accounting, not an error.
                self.stats.queries_shed += 1
            suppressed = _log_limiter.allow(("drop", self.node_id, conn_id))
            if suppressed is not None:
                _log.debug(
                    "frame dropped",
                    extra={
                        "peer": conn_id,
                        "reason": "no_connection" if conn is None else "queue_full",
                        "suppressed": suppressed,
                    },
                )
            return False
        self.stats.frames_out += 1
        return True

    def issue_query(self, search: str) -> int:
        """Originate a Query (rule-routed when rules cover this origin,
        flooded otherwise); returns its GUID.  Hits arrive asynchronously
        in :attr:`results`."""
        guid, frames = self.servent.issue_query(search)
        self.stats.queries_issued += 1
        for conn_id, frame in frames:
            self._send(conn_id, frame)
        return guid

    @property
    def results(self):
        """QueryHits that answered locally issued queries."""
        return self.servent.results

    def snapshot(self) -> dict[str, int]:
        """Current counters as a dict.

        Routing decisions are tallied into :attr:`stats` eagerly by
        :class:`StreamingRuleServent` (which shares this node's stats
        object), so a snapshot — or a live ``/metrics`` scrape — is
        accurate mid-run with no back-filling step.
        """
        return self.stats.as_dict()

    # -- observability ----------------------------------------------------
    def sync_metrics(self) -> None:
        """Mirror snapshot-style series into the metrics registry.

        Called at scrape time (by :meth:`render_metrics` and the cluster
        harness) so steady-state traffic pays nothing for the counters a
        scraper reads.
        """
        if self.instruments is None:
            return
        counts = getattr(self.servent, "counts", None)
        self.instruments.sync(
            self.stats,
            pending_frames=self.pending_frames,
            connected_peers=len(self._conns),
            n_rules=counts.n_rules() if counts is not None else None,
        )

    def render_metrics(self) -> str:
        """The node's registry in Prometheus text format, freshly synced."""
        if self.registry is None:
            return ""
        self.sync_metrics()
        return self.registry.render()

    def render_trace(self) -> str:
        """The node's retained query spans as JSON lines (``/trace``)."""
        if self.tracer is None:
            return ""
        return self.tracer.export_jsonl()

    def health(self) -> dict:
        """The ``/healthz`` document: liveness plus a peering summary."""
        return {
            "status": "closing" if self._closed else "ok",
            "node": self.node_id,
            "port": self.port,
            "peers": sorted(self._conns),
            "pending_frames": self.pending_frames,
        }
