"""A Gnutella servent state machine over the wire protocol.

:class:`Servent` consumes and produces *bytes* (framed by
:mod:`repro.network.protocol`) and implements the Gnutella 0.4 forwarding
rules the paper's deployment story assumes:

* **Ping** — answer with a Pong describing the local library, then
  forward the aged Ping to every other connection;
* **Query** — remember which connection it arrived on (GUID route),
  answer with a QueryHit for every matching local file, then forward the
  aged Query to every other connection; duplicate GUIDs are dropped;
* **Pong / QueryHit** — routed *backwards* through the connection the
  corresponding Ping/Query arrived on, never flooded — which is why no
  hop learns the requester's address (the paper's anonymity point).

:class:`MonitorServent` is the paper's §IV "modified node": a servent
that additionally logs every Query and QueryHit it sees as
:class:`~repro.trace.records.QueryRecord` / ``ReplyRecord`` — the exact
capture methodology, reproduced at the wire level.  An integration test
drives generated traffic through a monitor servent and feeds its capture
into the dedup/join/rules pipeline.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from repro.core.counts import SketchCounts, WindowCounts, forward_picks
from repro.network.protocol import (
    DEFAULT_TTL,
    DescriptorHeader,
    PAYLOAD_PING,
    PAYLOAD_PONG,
    PAYLOAD_QUERY,
    PAYLOAD_QUERY_HIT,
    PingMessage,
    PongMessage,
    QueryHitMessage,
    QueryMessage,
    ReplyRoutingTable,
    decode_message,
    encode_message,
)
from repro.trace.records import QueryRecord, ReplyRecord, render_ip
from repro.utils.timeline import SimClock

__all__ = ["SharedFile", "Servent", "MonitorServent", "RuleRoutedServent", "node_guid"]

#: sentinel connection id for locally originated descriptors.
LOCAL = -1

#: The rule configuration of a rule-routed servent not told otherwise:
#: the wire network's, every live node's and the soak's.  A pair is a
#: rule at support 2 within the last 512 pairs (``LIVE_RULES``, as
#: :class:`~repro.core.streaming.StreamingRules` keywords), and a covered
#: query goes to its top 2 rule consequents (``LIVE_TOP_K``).
LIVE_RULES = {"min_support_count": 2, "window_pairs": 512}
LIVE_TOP_K = 2


def node_guid(node: int) -> int:
    """Overlay node ``node``'s servent GUID, wired or live; load clients
    take ids from :data:`~repro.scale.loadgen.CLIENT_ID_BASE` up, far above."""
    return 100_000 + node


@dataclass(frozen=True)
class SharedFile:
    """One file in a servent's library."""

    index: int
    name: str
    size: int

    @cached_property
    def _folded_name(self) -> str:
        return self.name.lower()

    def matches(self, search: str) -> bool:
        """Conjunctive keyword match against the file name (Gnutella style)."""
        return self.has_terms(search.lower().split())

    def has_terms(self, terms: list[str]) -> bool:
        """:meth:`matches` for a search already case-folded and split —
        a servent folds each query once, not once per shared file."""
        name = self._folded_name
        return all(term in name for term in terms)


class Servent:
    """One Gnutella node: connections, library, forwarding rules."""

    def __init__(
        self,
        servent_guid: int,
        *,
        library: list[SharedFile] | None = None,
        ip: str | None = None,
        port: int = 6346,
        max_ttl: int = DEFAULT_TTL,
    ) -> None:
        if not 0 <= servent_guid < (1 << 128):
            raise ValueError("servent_guid must fit in 128 bits")
        self.servent_guid = servent_guid
        self.library = list(library or [])
        self.ip = ip or render_ip(servent_guid % (1 << 31))
        self.port = port
        self.max_ttl = max_ttl
        #: optional :class:`~repro.obs.tracing.QueryTracer`; ``None`` keeps
        #: every hot path at a single attribute-is-None check.
        self.tracer = None
        #: overlay node id used in trace events (owners that know a
        #: friendlier identity than the GUID set this).
        self.trace_node: int | None = None
        self.connections: set[int] = set()
        self.query_routes = ReplyRoutingTable()
        self.ping_routes = ReplyRoutingTable()
        self._next_guid = (servent_guid << 32) + 1
        #: QueryHits that answered locally issued queries.
        self.results: list[QueryHitMessage] = []

    # -- connection management -------------------------------------------
    def connect(self, conn_id: int) -> None:
        if conn_id < 0:
            raise ValueError("connection ids must be non-negative")
        self.connections.add(conn_id)

    def disconnect(self, conn_id: int) -> None:
        self.connections.discard(conn_id)

    # -- tracing -----------------------------------------------------------
    @property
    def _trace_id(self) -> int:
        return self.trace_node if self.trace_node is not None else self.servent_guid

    # -- local actions ------------------------------------------------------
    def _fresh_guid(self) -> int:
        guid = self._next_guid
        self._next_guid += 1
        return guid % (1 << 128)

    def advance_guid_epoch(self, epoch: int, *, span: int = 1 << 20) -> None:
        """Skip the GUID sequence to a per-incarnation epoch.

        A restarted servent that restarts its sequence at 1 re-mints the
        GUIDs of its previous life, and peers' reply-routing tables —
        which deduplicate by GUID — silently drop every descriptor it
        originates.  :meth:`LiveCluster.restart` calls this with the
        node's restart count so each life mints from a disjoint block of
        ``span`` GUIDs.
        """
        if epoch < 0:
            raise ValueError("epoch must be non-negative")
        if span < 1:
            raise ValueError("span must be positive")
        self._next_guid = (self.servent_guid << 32) + epoch * span + 1

    def issue_query(self, search: str) -> tuple[int, list[tuple[int, bytes]]]:
        """Originate a Query; returns (guid, outgoing frames)."""
        guid = self._fresh_guid()
        self.query_routes.record(guid, LOCAL)
        if self.tracer is not None:
            self.tracer.record(
                guid, self._trace_id, "issued", info=search, ttl=self.max_ttl
            )
        frame = encode_message(
            guid, self.max_ttl, 0, QueryMessage(min_speed=0, search=search)
        )
        targets = self._next_hops(LOCAL, guid, self.max_ttl)
        return guid, [(conn, frame) for conn in targets]

    def issue_ping(self) -> tuple[int, list[tuple[int, bytes]]]:
        """Originate a Ping; returns (guid, outgoing frames)."""
        guid = self._fresh_guid()
        self.ping_routes.record(guid, LOCAL)
        frame = encode_message(guid, self.max_ttl, 0, PingMessage())
        return guid, [(conn, frame) for conn in sorted(self.connections)]

    def make_ping(self, *, ttl: int = 1) -> bytes:
        """One encoded Ping frame with its reply route recorded.

        TTL 1 by default: a keepalive probe for a single link (the live
        daemon's heartbeat), not a flooded neighbor discovery.
        """
        guid = self._fresh_guid()
        self.ping_routes.record(guid, LOCAL)
        return encode_message(guid, ttl, 0, PingMessage())

    # -- message handling -----------------------------------------------------
    def handle_frame(self, conn_id: int, data: bytes) -> list[tuple[int, bytes]]:
        """Process one incoming frame; returns outgoing (conn, frame) pairs."""
        header, payload = decode_message(data)
        return self.handle_message(conn_id, header, payload)

    def handle_message(
        self, conn_id: int, header: DescriptorHeader, payload
    ) -> list[tuple[int, bytes]]:
        """Process an already-decoded descriptor (the live daemon's entry
        point — its stream decoder has parsed the frame once already).
        ``header`` must come from a decoder: relaying patches the frame
        it carries."""
        if conn_id not in self.connections:
            raise ValueError(f"no such connection {conn_id}")
        if header.payload_type == PAYLOAD_PING:
            return self._on_ping(conn_id, header)
        if header.payload_type == PAYLOAD_QUERY:
            return self._on_query(conn_id, header, payload)
        if header.payload_type == PAYLOAD_PONG:
            return self._route_back(self.ping_routes, conn_id, header, payload)
        return self._route_back(self.query_routes, conn_id, header, payload)

    def _on_ping(self, conn_id: int, header) -> list[tuple[int, bytes]]:
        out: list[tuple[int, bytes]] = []
        if not self.ping_routes.record(header.guid, conn_id):
            return out  # duplicate: drop
        pong = PongMessage(
            port=self.port,
            ip=self.ip,
            n_files=len(self.library),
            n_kilobytes=sum(f.size for f in self.library) // 1024,
        )
        out.append(
            (conn_id, encode_message(header.guid, self.max_ttl, 0, pong))
        )
        out.extend(self._forward(conn_id, header))
        return out

    def _on_query(self, conn_id: int, header, query: QueryMessage) -> list[tuple[int, bytes]]:
        out: list[tuple[int, bytes]] = []
        if not self.query_routes.record(header.guid, conn_id):
            if self.tracer is not None:
                self.tracer.record(
                    header.guid, self._trace_id, "duplicate", peer=conn_id
                )
            return out  # duplicate GUID: drop (keeps the original route)
        if self.tracer is not None:
            self.tracer.record(
                header.guid,
                self._trace_id,
                "received",
                peer=conn_id,
                info=f"ttl={header.ttl} hops={header.hops}",
                ttl=header.ttl,
            )
        n_matched = 0
        terms = query.search.lower().split()
        for shared in self.library:
            if shared.has_terms(terms):
                n_matched += 1
                hit = QueryHitMessage(
                    port=self.port,
                    ip=self.ip,
                    speed=1000,
                    file_index=shared.index,
                    file_size=shared.size,
                    file_name=shared.name,
                    servent_guid=self.servent_guid,
                )
                out.append(
                    (conn_id, encode_message(header.guid, self.max_ttl, 0, hit))
                )
        if n_matched and self.tracer is not None:
            self.tracer.record(
                header.guid,
                self._trace_id,
                "hit",
                info=f"{n_matched} file(s)",
            )
        out.extend(self._forward(conn_id, header))
        return out

    def _forward(self, from_conn: int, header) -> list[tuple[int, bytes]]:
        is_query = header.payload_type == PAYLOAD_QUERY
        if header.ttl <= 1:
            if is_query and self.tracer is not None:
                self.tracer.record(
                    header.guid, self._trace_id, "ttl_expired", ttl=header.ttl
                )
            return []
        frame = header.aged_frame()
        if is_query:
            targets = self._next_hops(from_conn, header.guid, header.ttl - 1)
        else:
            targets = [conn for conn in sorted(self.connections) if conn != from_conn]
        return [(conn, frame) for conn in targets]

    def _next_hops(
        self, antecedent: int, guid: int, ttl: int, *, flood_reason: str = ""
    ) -> list[int]:
        """The connections a Query from ``antecedent`` (``LOCAL`` for this
        servent's own) goes to, leaving with ``ttl``: every other one.
        The origin and every transit hop decide here."""
        targets = [conn for conn in sorted(self.connections) if conn != antecedent]
        if self.tracer is not None:
            for conn in targets:
                self.tracer.record(
                    guid,
                    self._trace_id,
                    "flooded",
                    peer=conn,
                    ttl=ttl,
                    reason=flood_reason,
                )
        return targets

    def _route_back(self, routes: ReplyRoutingTable, conn_id: int, header, payload):
        upstream = routes.route_for(header.guid)
        if upstream is None:
            return []  # no route state (expired or never seen): drop
        if upstream == LOCAL:
            if header.payload_type == PAYLOAD_QUERY_HIT:
                self.results.append(payload)
                if self.tracer is not None:
                    self.tracer.record(
                        header.guid, self._trace_id, "delivered", peer=conn_id
                    )
            return []
        if header.ttl <= 0:
            return []
        if header.payload_type == PAYLOAD_QUERY_HIT and self.tracer is not None:
            self.tracer.record(
                header.guid, self._trace_id, "hit_routed", peer=upstream
            )
        return [(upstream, header.aged_frame())]


class RuleRoutedServent(Servent):
    """A servent running the paper's association-rule forwarding.

    Drop-in compatible with vanilla servents on the wire — "it can be
    deployed in nodes in current systems without requiring that all nodes
    support this method" (§I).  It learns rules from the QueryHits it
    routes backwards (each one pairs the Query's upstream connection, or
    ``LOCAL`` for its own, with the connection the hit returned through)
    into ``counts``, the :mod:`repro.core.counts` table it is handed, and,
    when a Query it issues or relays is covered, sends it only to the
    top-k rule consequents still connected instead of all connections.
    """

    def __init__(
        self,
        servent_guid: int,
        *,
        counts: WindowCounts | SketchCounts,
        top_k: int = LIVE_TOP_K,
        **kwargs,
    ) -> None:
        super().__init__(servent_guid, **kwargs)
        if top_k < 1:
            raise ValueError("top_k must be >= 1")
        #: the :mod:`repro.core.counts` table the rules are read from.
        self.counts = counts
        self.top_k = top_k

    def _count_decision(self, rule_routed: bool) -> None:
        """One query was narrowed by a rule, or flooded for want of one;
        the live subclass keeps the tally."""

    def _trace_rule_routed(
        self, guid: int, antecedent: int, targets: list[int], ttl: int
    ) -> None:
        """Record one ``rule_routed`` event per target, with the matched
        rule's live support/confidence attached — the explainability
        payload the cluster-wide collector surfaces per hop."""
        if self.tracer is None or not self.tracer.wants(guid):
            return
        for conn in targets:
            support, confidence = self.counts.rule_stats(antecedent, conn)
            self.tracer.record(
                guid,
                self._trace_id,
                "rule_routed",
                peer=conn,
                ttl=ttl,
                antecedent=antecedent,
                consequent=conn,
                confidence=confidence,
                support=support,
            )

    def _next_hops(
        self, antecedent: int, guid: int, ttl: int, *, flood_reason: str = ""
    ) -> list[int]:
        ranked = self.counts.consequents(antecedent)
        targets = forward_picks(ranked, self.top_k, antecedent, self.connections)
        self._count_decision(bool(targets))
        if not targets:
            return super()._next_hops(
                antecedent, guid, ttl, flood_reason="no_covering_rule"
            )
        self._trace_rule_routed(guid, antecedent, targets, ttl)
        return targets

    def _route_back(self, routes: ReplyRoutingTable, conn_id: int, header, payload):
        if (
            routes is self.query_routes
            and header.payload_type == PAYLOAD_QUERY_HIT
        ):
            upstream = routes.route_for(header.guid)
            if upstream is not None:
                self._learn(upstream, conn_id)
        return super()._route_back(routes, conn_id, header, payload)

    def _learn(self, upstream: int, conn_id: int) -> None:
        """The learning event of §III-B: a query from ``upstream`` was
        satisfied through ``conn_id``."""
        self.counts.observe(upstream, conn_id)


class MonitorServent(Servent):
    """The paper's modified capture node: a servent that logs its traffic."""

    def __init__(self, servent_guid: int, *, clock: SimClock | None = None, **kwargs) -> None:
        super().__init__(servent_guid, **kwargs)
        self.clock = clock or SimClock()
        self.query_log: list[QueryRecord] = []
        self.reply_log: list[ReplyRecord] = []

    def handle_message(
        self, conn_id: int, header: DescriptorHeader, payload
    ) -> list[tuple[int, bytes]]:
        if header.payload_type == PAYLOAD_QUERY:
            self.query_log.append(
                QueryRecord(
                    time=self.clock.now,
                    guid=header.guid,
                    source=conn_id,
                    query_string=payload.search,
                )
            )
        elif header.payload_type == PAYLOAD_QUERY_HIT:
            self.reply_log.append(
                ReplyRecord(
                    time=self.clock.now,
                    guid=header.guid,
                    replier=conn_id,
                    host=payload.servent_guid,
                    file_name=payload.file_name,
                )
            )
        return super().handle_message(conn_id, header, payload)
