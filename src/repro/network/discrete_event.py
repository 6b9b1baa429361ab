"""Discrete-event overlay simulation with link latency and node queueing.

The hop-synchronous engine (:mod:`repro.network.engine`) counts messages
but abstracts away *time*.  The paper's §VI claims a latency benefit too:
"results to queries may be received more quickly, and the networks can
support more simultaneous queries."  That is a **congestion** effect —
flooding saturates peers' message queues, so replies crawl back through
backlogged nodes — and testing it needs real queueing dynamics:

* each peer's *uplink* is a FIFO server: transmitting one message takes
  :data:`SERVICE_TIME` seconds of the sender's bandwidth (the binding
  resource for 2006-era home peers), so a node forwarding a flood to
  five neighbors serializes five transmissions;
* each transmission then takes :data:`LINK_LATENCY` seconds in flight;
* queries arrive as a Poisson process, so independent query floods
  overlap and compete for the same uplinks;
* a hit generates a QueryHit that travels back hop-by-hop along the
  query's reverse path (real Gnutella routes hits by GUID backpointer),
  waiting in the same uplink queues.

:class:`DiscreteEventNetwork` reuses the overlay's topology, content and
per-node policies unchanged: the same ``select`` decisions drive
forwarding, so flooding and association routing can be compared on
*time-to-first-result* under identical offered load.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

from repro.network.messages import Query
from repro.utils.stats import RunningStats
from repro.utils.validation import check_non_negative, check_positive

__all__ = ["DiscreteEventConfig", "DiscreteEventNetwork", "LatencyReport"]

#: one-way propagation delay per overlay hop, seconds.
LINK_LATENCY = 0.05
#: uplink transmission time per message at the sender, seconds.
SERVICE_TIME = 0.02
#: maximum simulated seconds to wait for stragglers after the last
#: query is issued.
DRAIN_TIME = 60.0


@dataclass(frozen=True)
class DiscreteEventConfig:
    """Timing parameters of the event-driven run."""

    #: mean inter-arrival time between new queries, seconds.
    query_interarrival: float = 0.25
    #: seconds after which an unanswered query is re-issued as a full
    #: flood (§III-B's "revert to flooding"); 0 disables the fallback.
    fallback_timeout: float = 0.0

    def __post_init__(self) -> None:
        check_positive("query_interarrival", self.query_interarrival)
        check_non_negative("fallback_timeout", self.fallback_timeout)


@dataclass
class LatencyReport:
    """Outcome of an event-driven workload."""

    n_queries: int = 0
    n_answered: int = 0
    first_result_latency: RunningStats = field(default_factory=RunningStats)
    total_messages: int = 0
    peak_queue_length: int = 0

    @property
    def answer_rate(self) -> float:
        return self.n_answered / self.n_queries if self.n_queries else 0.0

    @property
    def mean_latency(self) -> float:
        return self.first_result_latency.mean

    @property
    def p_high_latency(self) -> float:
        """Max observed first-result latency (tail indicator)."""
        return self.first_result_latency.maximum

    def __str__(self) -> str:  # pragma: no cover - display convenience
        return (
            f"queries={self.n_queries} answered={self.answer_rate:.3f} "
            f"mean_latency={self.mean_latency:.3f}s "
            f"max_latency={self.p_high_latency:.3f}s "
            f"msgs={self.total_messages} peak_queue={self.peak_queue_length}"
        )


class _QueryState:
    __slots__ = (
        "query",
        "issued_at",
        "visited",
        "parent",
        "answered_at",
        "flood_mode",
    )

    def __init__(self, query: Query, issued_at: float) -> None:
        self.query = query
        self.issued_at = issued_at
        self.visited: set[int] = {query.origin}
        self.parent: dict[int, int] = {}
        self.answered_at: float | None = None
        self.flood_mode = False


class DiscreteEventNetwork:
    """Event-driven execution of query workloads over an overlay."""

    def __init__(self, overlay, config: DiscreteEventConfig | None = None) -> None:
        self.overlay = overlay
        self.config = config or DiscreteEventConfig()
        self._events: list[tuple[float, int, tuple]] = []
        self._seq = 0
        self._now = 0.0
        # Per-node uplink state: the time each node's uplink frees up.
        self._free_at = [0.0] * overlay.n_nodes
        self._states: dict[int, _QueryState] = {}
        self.report = LatencyReport()

    # ------------------------------------------------------------------
    def _push(self, time: float, payload: tuple) -> None:
        self._seq += 1
        heapq.heappush(self._events, (time, self._seq, payload))

    def _send(self, sender: int | None, target: int, kind: str, guid: int) -> None:
        """Transmit a message through the sender's uplink queue."""
        self.report.total_messages += 1
        if sender is None:
            start = self._now
        else:
            start = max(self._now, self._free_at[sender])
            self._free_at[sender] = start + SERVICE_TIME
            backlog = int((self._free_at[sender] - self._now) / SERVICE_TIME)
            self.report.peak_queue_length = max(
                self.report.peak_queue_length, backlog
            )
        arrival = start + SERVICE_TIME + LINK_LATENCY
        self._push(arrival, (kind, target, sender, guid))

    # ------------------------------------------------------------------
    def run(self, n_queries: int, *, seed=None) -> LatencyReport:
        """Issue ``n_queries`` Poisson-arriving queries and drain."""
        from repro.utils.rng import as_generator

        if n_queries < 0:
            raise ValueError("n_queries must be non-negative")
        rng = as_generator(seed)
        t = 0.0
        for _ in range(n_queries):
            t += float(rng.exponential(self.config.query_interarrival))
            self._push(t, ("issue", None, None, None))
        deadline = t + DRAIN_TIME

        while self._events:
            time, _seq, payload = heapq.heappop(self._events)
            if time > deadline:
                break
            self._now = time
            kind = payload[0]
            if kind == "issue":
                self._handle_issue()
            elif kind == "query":
                self._handle_query(*payload[1:])
            elif kind == "hit":
                self._handle_hit(*payload[1:])
            elif kind == "timeout":
                self._handle_timeout(payload[3])
        return self.report

    # ------------------------------------------------------------------
    def _handle_issue(self) -> None:
        query = self.overlay.make_query()
        state = _QueryState(query, self._now)
        self._states[query.guid] = state
        self.report.n_queries += 1
        if self.overlay.node(query.origin).shares(query.file_id):
            state.answered_at = self._now
            self.report.n_answered += 1
            self.report.first_result_latency.push(0.0)
            return
        if self.config.fallback_timeout > 0.0:
            self._push(
                self._now + self.config.fallback_timeout,
                ("timeout", None, None, query.guid),
            )
        self._forward_from(query.origin, None, state, hops_left=query.ttl)

    def _handle_timeout(self, guid: int) -> None:
        """§III-B fallback: unanswered queries revert to flooding."""
        state = self._states.get(guid)
        if state is None or state.answered_at is not None or state.flood_mode:
            return
        state.flood_mode = True
        state.visited = {state.query.origin}
        state.parent = {}
        self._forward_from(
            state.query.origin, None, state, hops_left=state.query.ttl
        )

    def _forward_from(
        self, node: int, upstream: int | None, state: _QueryState, hops_left: int
    ) -> None:
        if hops_left <= 0:
            return
        policy = self.overlay.node(node).policy
        if policy is None or state.flood_mode:
            targets = self.overlay.topology.neighbors(node)
        else:
            targets = policy.select(node, upstream, state.query)
        for target in targets:
            if target == upstream or target in state.visited:
                continue
            state.visited.add(target)
            state.parent[target] = node
            self._send(node, target, "query", state.query.guid)

    def _handle_query(self, node: int, sender: int | None, guid: int) -> None:
        state = self._states.get(guid)
        if state is None:
            return
        depth = self._depth_of(node, state)
        if depth is None:
            # Stale delivery from before a fallback reset: drop it.
            return
        if self.overlay.node(node).shares(state.query.file_id):
            # Route the hit back toward the origin along the reverse path.
            self._send(node, state.parent[node], "hit", guid)
            return
        self._forward_from(node, sender, state, hops_left=state.query.ttl - depth)

    def _depth_of(self, node: int, state: _QueryState) -> int | None:
        depth = 0
        cursor = node
        while cursor != state.query.origin:
            cursor = state.parent.get(cursor)
            if cursor is None:
                return None
            depth += 1
        return depth

    def _handle_hit(self, node: int, sender: int | None, guid: int) -> None:
        state = self._states.get(guid)
        if state is None:
            return
        if node == state.query.origin:
            if state.answered_at is None:
                state.answered_at = self._now
                self.report.n_answered += 1
                self.report.first_result_latency.push(
                    self._now - state.issued_at
                )
            return
        next_hop = state.parent.get(node)
        if next_hop is None:
            return  # reverse path invalidated by a fallback reset
        self._send(node, next_hop, "hit", guid)
