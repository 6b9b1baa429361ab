"""Two-tier association-routing overlay (super-peer communities).

PAPERS.md points past the paper's flat design: Ismail et al. route
queries via super-peers that hold the mined knowledge for a whole
community, and the hypergraph-architecture line organizes peers into
interest communities.  This subpackage builds that tier on top of the
seed's :class:`~repro.network.superpeer.SuperPeerNetwork` baseline, whose
community membership and content indices
(:mod:`~repro.network.community`) both tiers share:

* :mod:`~repro.network.hier.keyspace` — Kademlia-style XOR keyspace:
  64-bit node/category keys and per-super-peer k-bucket routing tables;
* :mod:`~repro.network.hier.digest` — compact, versioned rule digests
  (top-k mined rules with support/confidence) with a deterministic,
  order-independent merge and a binary wire codec;
* :mod:`~repro.network.hier.network` — :class:`HierNetwork`, the
  two-tier simulator: leaves attach to super-peers, super-peers mine
  association rules over their community's aggregated traffic
  (:class:`~repro.routing.superpeer_rules.SuperPeerRules`), exchange
  digests with neighbor super-peers, and fall back to an XOR keyspace
  lookup before resorting to tier-2 flooding.
"""

# The names the benchmark harness imports from the package root; every
# other name is imported from the module that defines it.
from repro.network.hier.network import HierConfig, HierNetwork

__all__ = ["HierConfig", "HierNetwork"]
