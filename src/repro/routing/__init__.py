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

# The names the benchmark harness imports from the package root; every
# other name is imported from the module that defines it.
from repro.routing.association import AssociationRoutingPolicy
from repro.routing.flooding import FloodingPolicy
from repro.routing.superpeer_rules import SuperPeerRules

__all__ = ["AssociationRoutingPolicy", "FloodingPolicy", "SuperPeerRules"]
