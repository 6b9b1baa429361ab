"""The dict-based loop ``QueryEngine.broadcast`` used to be, kept as the oracle.

``QueryEngine.broadcast`` is array code over CSR adjacency; this is the
per-message Python loop it replaced — two dicts, ``node(t).shares(f)`` per
newly reached node, one ``select`` call per frontier node.  The two must
return the same :class:`QueryOutcome`, reach the same nodes through the
same parents, find the providers in the same order and make the same
``on_reply`` calls in the same order (that sequence is what every rule
table is learned from), so the differential tests run both and compare.

The loop bodies are the parent commit's, verbatim.  Added around them:
``select=None`` means flood (the kernel's spelling of the §III-B re-flood),
and the last call's ``parent`` map and provider list stay readable.
"""

from repro.metrics.traffic import QueryOutcome
from repro.network.engine import QueryEngine
from repro.network.messages import Query


class ReferenceEngine(QueryEngine):
    """``QueryEngine`` with the dict loop under ``broadcast``.

    ``walk`` and ``probe`` are inherited; assign an instance to
    ``overlay.engine`` to run a whole workload on the oracle.
    """

    def __init__(self, overlay) -> None:
        super().__init__(overlay)
        self.last_parent: dict[int, int | None] = {}
        self.last_providers: list[int] = []

    def broadcast(self, query: Query, select=None, *, feedback: bool = True) -> QueryOutcome:
        overlay = self.overlay
        if select is None:
            select = lambda node, upstream, q: overlay.topology.neighbors(node)  # noqa: E731
        origin = query.origin
        parent: dict[int, int | None] = {origin: None}
        hops: dict[int, int] = {origin: 0}
        messages = 0
        duplicates = 0
        providers: list[int] = []
        first_hit_hops: int | None = None
        self.last_parent = parent
        self.last_providers = providers

        if overlay.node(origin).shares(query.file_id):
            # Local library satisfies the query with zero traffic.
            return QueryOutcome(
                query_id=query.guid,
                messages=0,
                hits=1,
                first_hit_hops=0,
                duplicates=0,
            )

        frontier: list[int] = [origin]
        while frontier:
            next_frontier: list[int] = []
            for node in frontier:
                depth = hops[node]
                if depth >= query.ttl:
                    continue
                upstream = parent[node]
                targets = select(node, upstream, query)
                for target in targets:
                    if target == upstream:
                        continue
                    messages += 1
                    if target in parent:
                        duplicates += 1
                        continue
                    parent[target] = node
                    hops[target] = depth + 1
                    if overlay.node(target).shares(query.file_id):
                        providers.append(target)
                        if first_hit_hops is None:
                            first_hit_hops = depth + 1
                    next_frontier.append(target)
            frontier = next_frontier

        if feedback and providers:
            self._deliver_replies(query, providers, parent)
        return QueryOutcome(
            query_id=query.guid,
            messages=messages,
            hits=len(providers),
            first_hit_hops=first_hit_hops,
            duplicates=duplicates,
        )

    def _deliver_replies(
        self, query: Query, providers: list[int], parent: dict[int, int | None]
    ) -> None:
        overlay = self.overlay
        for provider in providers:
            node = provider
            while True:
                up = parent[node]
                if up is None:
                    break
                downstream = node
                w = up
                upstream_of_w = parent[w] if parent[w] is not None else w
                policy = overlay.node(w).policy
                if policy is not None and hasattr(policy, "on_reply"):
                    policy.on_reply(
                        node_id=w,
                        upstream=upstream_of_w,
                        downstream=downstream,
                        query=query,
                        provider=provider,
                    )
                node = w
