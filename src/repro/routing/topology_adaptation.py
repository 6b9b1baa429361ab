"""Rule-driven overlay rewiring (the paper's §VI topology idea).

§VI: "instead of forwarding query messages to a neighbor, which will in
turn forward the message on to one of its neighbors, a node could ask its
neighbors to which node they would forward queries from it.  Once the
node has this information, it could attempt to make this third node a new
neighbor, which would result in queries being forwarded in the future
requiring one less hop."

:class:`TopologyAdaptingPolicy` extends association routing with exactly
that handshake: periodically, the node looks at its own strongest rule
consequent ``v``, asks ``v``'s policy where *it* would forward queries
arriving from this node (``v``'s rule consequent ``w`` for antecedent =
this node), and — if the degree budget allows — connects directly to
``w`` (``OverlayConfig.max_degree``, enforced by
:meth:`Topology.can_add_edge <repro.network.topology.Topology.can_add_edge>`).
"""

from __future__ import annotations

from repro.routing.association import AssociationRoutingPolicy

__all__ = ["TopologyAdaptingPolicy"]


class TopologyAdaptingPolicy(AssociationRoutingPolicy):
    """Association routing plus periodic rule-driven rewiring."""

    name = "topology-adapting"

    def __init__(
        self,
        node_id: int,
        overlay,
        *,
        adapt_every: int = 25,
        max_new_links: int = 3,
        **kwargs,
    ) -> None:
        super().__init__(node_id, overlay, **kwargs)
        if adapt_every < 1:
            raise ValueError("adapt_every must be >= 1")
        if max_new_links < 0:
            raise ValueError("max_new_links must be >= 0")
        self.adapt_every = adapt_every
        self.max_new_links = max_new_links
        self.links_added = 0
        self._replies_seen = 0

    def on_reply(self, *, node_id, upstream, downstream, query, provider) -> None:
        super().on_reply(
            node_id=node_id,
            upstream=upstream,
            downstream=downstream,
            query=query,
            provider=provider,
        )
        # Adaptation is paced by observed reply feedback — the same events
        # that populate the rule tables the handshake consults.
        self._replies_seen += 1
        if (
            self._replies_seen % self.adapt_every == 0
            and self.links_added < self.max_new_links
        ):
            self._try_adapt()

    def _try_adapt(self) -> None:
        """One round of the §VI handshake.

        "a node could ask its neighbors to which node they would forward
        queries from it" — each current neighbor ``v`` is asked for its
        strongest rule consequent for antecedent = this node (learned from
        all traffic this node pushed through ``v``, originated or
        transit); the first answer that is a non-neighbor third party
        becomes a new direct link.
        """
        topology = self.overlay.topology
        candidates: list[int] = []
        for v in topology.neighbors(self.node_id):
            v_policy = self.overlay.node(v).policy
            if v_policy is None or not hasattr(v_policy, "rules"):
                continue
            # Ask v: where would you forward queries arriving from me?
            onward = v_policy.rules.consequents(self.node_id, k=1)
            if onward:
                candidates.append(onward[0])
        for w in candidates:
            # a third party, not yet a neighbour, with budget on both sides
            if topology.can_add_edge(self.node_id, w):
                topology.add_edge(self.node_id, w)
                self.links_added += 1
                # Seed a rule for the new direct link so the shortcut is
                # used immediately instead of waiting for reply feedback.
                for _ in range(self.rules.min_support_count):
                    self.rules.observe(self.node_id, w)
                return

    def reset(self) -> None:
        super().reset()
        self._replies_seen = 0
