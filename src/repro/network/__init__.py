"""Discrete unstructured-overlay simulator.

The paper's own evaluation is trace-driven, but its motivation — and its
§VI claims — are about live networks: selectively forwarding queries
should dramatically reduce flooded messages while still locating content.
This subpackage provides the overlay substrate to test that end-to-end:

* :mod:`~repro.network.topology` — a from-scratch random regular
  generator over a compact adjacency-list
  :class:`~repro.network.topology.Topology`, editable in place for
  rewiring, churn replay and super-peer kills;
* :mod:`~repro.network.node` — per-peer state: shared library, interest
  profile, and the node's routing policy instance;
* :mod:`~repro.network.messages` — Gnutella-style ``Query`` descriptors;
* :mod:`~repro.network.engine` — hop-synchronous query propagation with
  per-node GUID duplicate suppression, TTL handling, hit detection and
  reverse-path reply feedback (the signal association routing learns
  from);
* :mod:`~repro.network.holders` — the sorted (item, owner) buffer both
  simulators ask "who shares this file" of;
* :mod:`~repro.network.overlay` — assembles topology + content + policies
  into a runnable network, with optional churn between queries;
* :mod:`~repro.network.superpeer` and :mod:`~repro.network.hier` — the
  two-tier substrate and, on top of it, the rule and keyspace tiers.
"""

from repro.network.discrete_event import (
    DiscreteEventConfig,
    DiscreteEventNetwork,
    LatencyReport,
)
from repro.network.engine import QueryEngine

# before superpeer: its CommunityIndex lives in the hier package, whose
# network module imports superpeer back
from repro.network.hier import HIER_MODES, HierConfig, HierNetwork
from repro.network.messages import Query
from repro.network.node import PeerNode
from repro.network.overlay import Overlay, OverlayConfig
from repro.network.servent import (
    MonitorServent,
    RuleRoutedServent,
    Servent,
    SharedFile,
)
from repro.network.superpeer import SuperPeerConfig, SuperPeerNetwork
from repro.network.wirenet import WireNetwork
from repro.network.topology import Topology, random_regular

__all__ = [
    "DiscreteEventConfig",
    "DiscreteEventNetwork",
    "HIER_MODES",
    "HierConfig",
    "HierNetwork",
    "LatencyReport",
    "MonitorServent",
    "Overlay",
    "OverlayConfig",
    "PeerNode",
    "Query",
    "QueryEngine",
    "RuleRoutedServent",
    "Servent",
    "SharedFile",
    "SuperPeerConfig",
    "SuperPeerNetwork",
    "Topology",
    "WireNetwork",
    "random_regular",
]
