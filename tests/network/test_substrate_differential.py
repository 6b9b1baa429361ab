"""The simulator held to the wire: one forwarding decision, two substrates.

The same ``Topology``, libraries and query sequence go through the flat
simulator (``Overlay`` + ``AssociationRoutingPolicy``, first attempt only:
``engine.broadcast(query, dispatch_select(overlay))``) and through
``WireNetwork(rule_routed=True)``, whose servents exchange Gnutella
frames.  Between queries a seeded ``chaos_plan`` edits the topology
through ``TopologyChurn``, and every edit is mirrored onto the servents'
connections, so rules keep naming peers that have left.

Per query both must forward to the same nodes at every hop, send as many
Query frames as the simulator counts messages, and find as many hits;
after the run every node's rule table must be the same, the wire's
``LOCAL`` antecedent being the simulator's own node id.  Each simulated
decision is also held to ``reference_select``, the decision as the paper
states it, and the run must include decisions where a departed consequent
would have taken a slot had the cut come before the drop.

Queries whose origin holds the file are skipped: the simulator answers
them locally with no traffic.  The rule window is larger than any run, so
the order of a query's observations cannot matter.
"""

import pytest

from repro.faults.churn import TopologyChurn
from repro.faults.plan import chaos_plan
from repro.network.overlay import Overlay, OverlayConfig
from repro.network.servent import LOCAL, SharedFile
from repro.network.wirenet import WireNetwork
from repro.obs.tracing import QueryTracer
from repro.routing.association import AssociationRoutingPolicy
from repro.routing.base import dispatch_select
from tests.routing.test_rule_frontier import reference_select

CONFIG = OverlayConfig(
    n_nodes=30,
    degree=5,
    n_categories=3,
    files_per_category=10,
    library_size=3,
    interests_per_peer=1,
    ttl=4,
)
TOP_K = 2
MIN_SUPPORT = 2
#: larger than every observation a run makes
WINDOW = 1 << 20
N_WARMUP = 300
N_QUERIES = 900


def file_name(file_id: int) -> str:
    # one fixed-width token per file: a search matches its own file only
    return f"file{file_id:05d}"


class DecisionLog:
    """``dispatch_select(overlay)`` that keeps each hop's forward sets and
    holds every decision to ``reference_select``."""

    def __init__(self, overlay) -> None:
        self.overlay = overlay
        self.inner = dispatch_select(overlay)
        self.hops: list[dict[int, frozenset]] = []
        #: decisions where cutting before dropping would pick otherwise.
        self.reordered = 0

    @property
    def flooders(self):
        return self.inner.flooders

    def frontier(self, nodes, upstreams, query):
        chosen, counts = self.inner.frontier(nodes, upstreams, query)
        hop = {}
        at = 0
        for node, upstream, count in zip(nodes, upstreams, counts):
            picks = chosen[at : at + count]
            at += count
            policy = self.overlay.node(node).policy
            assert list(picks) == list(reference_select(policy, node, upstream))
            antecedent = node if upstream is None else upstream
            neighbors = self.overlay.topology.neighbors(node)
            cut_first = [
                c
                for c in policy.rules.consequents(antecedent, policy.top_k)
                if c != upstream and c in neighbors
            ]
            if cut_first and cut_first != list(picks):
                self.reordered += 1
            forwards = frozenset(picks) - {upstream}
            if forwards:
                hop[node] = forwards
        self.hops.append(hop)
        return chosen, counts


def wire_hops(trace, ttl: int) -> list[dict[int, frozenset]]:
    """Forward sets per hop off a query's trace: a frame leaving hop
    ``d`` carries ``ttl - d``."""
    hops: list[dict[int, set]] = [{} for _ in range(ttl)]
    for event in trace.events:
        if event.kind in ("rule_routed", "flooded"):
            hops[ttl - event.ttl].setdefault(event.node, set()).add(event.peer)
    return [{node: frozenset(peers) for node, peers in hop.items()} for hop in hops]


def mirror(topology, wire) -> None:
    """Give every servent the connections its node has in ``topology``."""
    for node, servent in enumerate(wire.servents):
        now = set(topology.neighbors(node))
        for gone in servent.connections - now:
            servent.disconnect(gone)
        for new in now - servent.connections:
            servent.connect(new)


def rule_table(counts, own: int) -> dict[int, dict[int, int]]:
    return {
        own if a == LOCAL else a: dict(row) for a, row in counts.rows.items()
    }


@pytest.mark.parametrize("seed", [3, 6])
def test_simulator_and_wire_forward_alike_under_churn(seed):
    overlay = Overlay(CONFIG, seed=seed)
    overlay.install_policies(
        lambda u, ov: AssociationRoutingPolicy(
            u, ov, top_k=TOP_K, window=WINDOW, min_support_count=MIN_SUPPORT
        )
    )
    topology = overlay.topology
    wire = WireNetwork(
        topology,
        rule_routed=True,
        max_ttl=CONFIG.ttl,
        top_k=TOP_K,
        rule_kwargs={"window_pairs": WINDOW, "min_support_count": MIN_SUPPORT},
    )
    wire.stock_libraries(
        {
            u: [
                SharedFile(index=i, name=file_name(f), size=1024)
                for i, f in enumerate(sorted(overlay.node(u).library))
            ]
            for u in range(overlay.n_nodes)
        }
    )
    tracer = QueryTracer(max_traces=N_QUERIES, clock=lambda: 0.0)
    for node, servent in enumerate(wire.servents):
        servent.tracer = tracer
        servent.trace_node = node

    plan = chaos_plan(
        overlay.n_nodes, topology.edges(), seed=seed, crashes=8, partitions=1
    )
    churn = TopologyChurn(topology, plan)
    compared = reordered = 0
    for i in range(N_QUERIES):
        now = (i - N_WARMUP) * plan.duration / (N_QUERIES - N_WARMUP)
        if churn.advance_to(now):
            mirror(topology, wire)
        query = overlay.make_query()
        origin = query.origin
        if overlay.node(origin).shares(query.file_id):
            continue
        log = DecisionLog(overlay)
        outcome = overlay.engine.broadcast(query, log)

        servent = wire.servents[origin]
        before = len(servent.results)
        guid, frames = servent.issue_query(file_name(query.file_id))
        wire.pump(frames, origin)
        trace = tracer.trace(guid)
        sent = sum(event.kind in ("received", "duplicate") for event in trace.events)

        sim_hops = log.hops + [{}] * (CONFIG.ttl - len(log.hops))
        assert wire_hops(trace, CONFIG.ttl) == sim_hops, f"query {i}"
        assert sent == outcome.messages, f"query {i}"
        assert len(servent.results) - before == outcome.hits, f"query {i}"
        compared += 1
        reordered += log.reordered

    assert churn.log, "the plan never edited the topology"
    assert compared > N_QUERIES // 2
    assert reordered, "no departed consequent ever stood in the top k"
    for node, servent in enumerate(wire.servents):
        assert rule_table(servent.counts, node) == rule_table(
            overlay.node(node).policy.rules, node
        ), f"node {node}"
