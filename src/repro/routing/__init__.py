"""Online routing policies for the overlay simulator.

The paper's baselines (§II) and its contribution, as pluggable per-node
policies:

* :class:`~repro.routing.flooding.FloodingPolicy` — TTL-limited flooding
  (the Gnutella default the paper argues against);
* :class:`~repro.routing.expanding_ring.ExpandingRingPolicy` — repeated
  floods with growing TTL [5];
* :class:`~repro.routing.random_walk.KRandomWalkPolicy` — k random
  walkers [6];
* :class:`~repro.routing.shortcuts.InterestShortcutsPolicy` —
  interest-based shortcut lists probed before flooding [7];
* :class:`~repro.routing.routing_indices.RoutingIndicesPolicy` —
  per-neighbor per-category reachable-document counts [10];
* :class:`~repro.routing.association.AssociationRoutingPolicy` — THE
  PAPER: association rules over (upstream, downstream) neighbor pairs
  learned from reply feedback, with per-node and per-query flooding
  fallback;
* :class:`~repro.routing.hybrid.HybridShortcutAssociationPolicy` — §VI
  combination: shortcuts first, rules as the pre-flood last chance;
* :class:`~repro.routing.topology_adaptation.TopologyAdaptingPolicy` —
  §VI rule-driven overlay rewiring (needs a dynamic topology).
"""

from repro.routing.association import AssociationRoutingPolicy
from repro.routing.base import RoutingPolicy, dispatch_select
from repro.routing.expanding_ring import ExpandingRingPolicy
from repro.routing.flooding import FloodingPolicy
from repro.routing.hybrid import HybridShortcutAssociationPolicy
from repro.routing.random_walk import KRandomWalkPolicy
from repro.routing.routing_indices import RoutingIndicesPolicy, build_routing_indices
from repro.routing.shortcuts import InterestShortcutsPolicy
from repro.routing.superpeer_rules import SuperPeerRules
from repro.routing.topology_adaptation import TopologyAdaptingPolicy

__all__ = [
    "AssociationRoutingPolicy",
    "ExpandingRingPolicy",
    "FloodingPolicy",
    "HybridShortcutAssociationPolicy",
    "InterestShortcutsPolicy",
    "KRandomWalkPolicy",
    "RoutingIndicesPolicy",
    "RoutingPolicy",
    "SuperPeerRules",
    "TopologyAdaptingPolicy",
    "build_routing_indices",
    "dispatch_select",
]
