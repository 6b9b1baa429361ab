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
* :mod:`~repro.network.community` — leaf-to-super-peer membership,
  exact community content indices, and deterministic leaf re-attachment
  when a super-peer fails;
* :mod:`~repro.network.superpeer` and :mod:`~repro.network.hier` — the
  two-tier substrate and, on top of it, the rule and keyspace tiers.
"""
