"""Networks of byte-level servents over arbitrary topologies.

:class:`WireNetwork` instantiates one :class:`~repro.network.servent.Servent`
per node of a :class:`~repro.network.topology.Topology` (connection ids =
neighbor node ids), pumps frames synchronously until quiescence, and
accounts traffic — the whole reproduction stack exercised at the wire
level: keyword queries in Gnutella framing, GUID-routed hits, optional
rule-routed servents (the paper's method as deployed software) and an
optional monitor servent capturing the §IV trace.
"""

from __future__ import annotations

from collections import deque

from repro.core.streaming import StreamingRules
from repro.network.protocol import DEFAULT_TTL
from repro.network.servent import (
    LIVE_RULES,
    LIVE_TOP_K,
    MonitorServent,
    RuleRoutedServent,
    Servent,
    SharedFile,
    node_guid,
)
from repro.network.topology import Topology
from repro.utils.rng import as_generator

__all__ = ["WireNetwork"]


class WireNetwork:
    """A wired collection of servents with synchronous frame delivery.

    Rule-routed servents forward to ``top_k`` neighbors, and
    ``rule_kwargs`` are :class:`StreamingRules` keywords
    (``window_pairs``, ``min_support_count``) over
    :data:`~repro.network.servent.LIVE_RULES`, as for
    :class:`~repro.live.cluster.LiveCluster`; each servent gets a fresh
    table built the way a live node builds one, by
    :meth:`StreamingRules.make_counts`.
    """

    def __init__(
        self,
        topology: Topology,
        *,
        rule_routed: bool = False,
        top_k: int = LIVE_TOP_K,
        monitor_node: int | None = None,
        max_ttl: int = DEFAULT_TTL,
        rule_kwargs: dict | None = None,
    ) -> None:
        self.topology = topology
        self.monitor_node = monitor_node
        self.servents: list[Servent] = []
        rules = StreamingRules(**{**LIVE_RULES, **(rule_kwargs or {})})
        for node in range(topology.n_nodes):
            guid = node_guid(node)
            if node == monitor_node:
                servent: Servent = MonitorServent(guid, max_ttl=max_ttl)
            elif rule_routed:
                servent = RuleRoutedServent(
                    guid, counts=rules.make_counts(), top_k=top_k, max_ttl=max_ttl
                )
            else:
                servent = Servent(guid, max_ttl=max_ttl)
            self.servents.append(servent)
        for u, v in topology.edges():
            self.servents[u].connect(v)
            self.servents[v].connect(u)
        self.frames_delivered = 0

    @property
    def monitor(self) -> MonitorServent | None:
        if self.monitor_node is None:
            return None
        servent = self.servents[self.monitor_node]
        assert isinstance(servent, MonitorServent)
        return servent

    # ------------------------------------------------------------------
    def stock_libraries(self, catalog_files: dict[int, list[SharedFile]]) -> None:
        """Assign shared files per node id."""
        for node, files in catalog_files.items():
            self.servents[node].library = list(files)

    def stock_random_libraries(
        self,
        rng,
        *,
        vocabulary: list[str],
        files_per_node: int = 4,
        terms_per_file: int = 2,
    ) -> None:
        """Give every node random keyword-titled files."""
        rng = as_generator(rng)
        for node, servent in enumerate(self.servents):
            files = []
            for i in range(files_per_node):
                terms = [
                    vocabulary[int(rng.integers(0, len(vocabulary)))]
                    for _ in range(terms_per_file)
                ]
                files.append(
                    SharedFile(
                        index=i,
                        name=" ".join(terms) + f" track{i}.mp3",
                        size=1 << 20,
                    )
                )
            servent.library = files

    # ------------------------------------------------------------------
    def pump(self, frames: list[tuple[int, bytes]], sender: int) -> int:
        """Deliver frames (breadth-first) until the network is quiescent."""
        delivered = 0
        queue = deque((sender, conn, frame) for conn, frame in frames)
        while queue:
            src, dst, frame = queue.popleft()
            delivered += 1
            for conn, out in self.servents[dst].handle_frame(src, frame):
                queue.append((dst, conn, out))
        self.frames_delivered += delivered
        return delivered

    def query_from(self, node: int, search: str) -> tuple[int, int]:
        """Issue a query at ``node``; returns (hits received, frames used)."""
        before = len(self.servents[node].results)
        _guid, frames = self.servents[node].issue_query(search)
        used = self.pump(frames, node)
        return len(self.servents[node].results) - before, used

    def run_workload(
        self, rng, *, vocabulary: list[str], n_queries: int
    ) -> dict[str, float]:
        """Random single-term queries from random nodes; summary stats."""
        rng = as_generator(rng)
        hits = 0
        frames = 0
        answered = 0
        for _ in range(n_queries):
            node = int(rng.integers(0, self.topology.n_nodes))
            term = vocabulary[int(rng.integers(0, len(vocabulary)))]
            n_hits, used = self.query_from(node, term)
            hits += n_hits
            frames += used
            if n_hits:
                answered += 1
        return {
            "n_queries": float(n_queries),
            "answer_rate": answered / n_queries if n_queries else 0.0,
            "frames_per_query": frames / n_queries if n_queries else 0.0,
            "hits_per_query": hits / n_queries if n_queries else 0.0,
        }
