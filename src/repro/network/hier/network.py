"""Two-tier association-routing simulator.

:class:`HierNetwork` keeps the seed baseline's substrate — leaves
attach to super-peers holding exact community indices, super-peers
form a random-regular overlay — and replaces "flood tier 2 on a local
miss" with a ladder of cheaper attempts:

1. **leaf library / home index** — free / one message, as the baseline;
2. **rule routing** — the home super-peer consults mined
   ``{category} -> {super-peer}`` rules (its own
   :class:`~repro.routing.superpeer_rules.SuperPeerRules` table plus
   the :class:`~repro.network.hier.digest.MergedRuleTable` of its
   neighbors' digests) and contacts the top-k candidate communities
   directly, one message each;
3. **keyspace directory** (``hybrid`` mode) — a Kademlia-style greedy
   walk over k-buckets to the steward of the category's key, which
   returns the super-peers registered as owning content in that
   category;
4. **tier-2 flood** — the baseline's TTL-limited BFS, charged *on top
   of* the failed attempts (the paper's honest per-query fallback
   accounting), so success never drops below the flooding baseline.

Four modes share one workload generator and identical rng consumption
with :class:`~repro.network.superpeer.SuperPeerNetwork`, so at equal
seeds every arm sees the same (leaf, file) query sequence pair for
pair — the property the comparison experiment leans on:

* ``flood`` — the ladder stops at step 1 (bit-identical to the seed
  baseline while no super-peer has been killed);
* ``leaf-rules`` — step 2 uses a per-leaf table (one node's evidence,
  the paper's flat design transplanted onto the tier);
* ``superpeer-rules`` — step 2 uses the community table (~20–50
  leaves' evidence) plus merged neighbor digests;
* ``hybrid`` — ``superpeer-rules`` plus step 3.

Route plans: what steps 3 and 4 cost is a function of where they start
and of which super-peers are live, not of the file.  Every super-peer
forwards a flood to all its neighbours, so the flood from one home
reaches the same nodes in the same order for the same messages and
duplicates whatever is asked; a greedy walk's next hop depends on the
node's own table and the key alone.  Both are computed on first use and
kept — a reach plan per home, ``(steward, hops)`` per (super-peer,
category) — and a flood's per-query part is the file's holder
communities (:meth:`CommunityIndex.holders`) that have a position in
the plan, taken in discovery order: the order a per-message flood meets
them, hence the same ``observe`` sequence and the same learned rules.
The per-message loops are ``tests/network/reference_hier.py``, the
oracle of the differential tests.

Failure handling: :meth:`kill_superpeer` drops the dead node from the
overlay, every k-bucket table, and every merged digest table (digest
invalidation), then deterministically re-attaches its leaves
(:class:`~repro.network.hier.community.CommunityIndex`), forgets every
route plan (the reach and the walks moved with liveness) and republishes
the category directory.  Digest and directory traffic is tracked in
:attr:`HierNetwork.control_messages` so benchmarks can amortize it
into an honest messages-per-query figure.
"""

from __future__ import annotations

from array import array
from collections import deque
from dataclasses import dataclass

import numpy as np

from repro.metrics.traffic import QueryOutcome, TrafficStats
from repro.network.hier.community import CommunityIndex
from repro.network.hier.digest import MergedRuleTable, decode_digest
from repro.network.hier.keyspace import (
    KBucketTable,
    category_key,
    node_key,
    xor_distance,
)
from repro.network.superpeer import SuperPeerConfig
from repro.network.topology import random_regular
from repro.routing.superpeer_rules import SuperPeerRules
from repro.utils.rng import as_generator, spawn_child
from repro.workload.content import ContentCatalog
from repro.workload.interests import InterestModel
from repro.workload.zipf import ZipfSampler

__all__ = ["HIER_MODES", "HierConfig", "HierNetwork"]

HIER_MODES = ("flood", "leaf-rules", "superpeer-rules", "hybrid")


@dataclass(frozen=True)
class HierConfig(SuperPeerConfig):
    """Baseline substrate parameters plus the rule/keyspace tier knobs."""

    #: one of :data:`HIER_MODES`.
    mode: str = "superpeer-rules"
    #: communities contacted per rule-routed attempt.
    rule_top_k: int = 3
    #: support floor below which a mined pair is not a rule.
    min_support_count: int = 2
    #: lossy-counting error bound of the per-super-peer sketch.
    epsilon: float = 0.005
    #: a super-peer publishes a digest every this many tier-2 queries it
    #: handles as home.  Tier-2 traffic per super-peer is sparse (most
    #: queries resolve at the leaf or the home index), so the cadence is
    #: dense; digests are tiny next to one avoided flood.
    digest_every: int = 5
    #: rules per category carried in a published digest.
    digest_top_k: int = 3
    #: k-bucket capacity of the keyspace router (hybrid mode).
    kbucket_k: int = 20
    #: directory owners contacted per keyspace lookup (hybrid mode).
    lookup_contacts: int = 3

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.mode not in HIER_MODES:
            raise ValueError(f"mode must be one of {HIER_MODES}, got {self.mode!r}")
        if self.rule_top_k < 1:
            raise ValueError("rule_top_k must be >= 1")
        if self.digest_every < 1:
            raise ValueError("digest_every must be >= 1")
        if self.digest_top_k < 1:
            raise ValueError("digest_top_k must be >= 1")
        if self.lookup_contacts < 1:
            raise ValueError("lookup_contacts must be >= 1")


@dataclass(frozen=True, slots=True)
class _FloodPlan:
    """What a tier-2 flood from one home reaches, while liveness holds.

    Every super-peer forwards to all its neighbours, so the reach, the
    discovery order, the depths and the message and duplicate counts are
    the same for every file; only which reached communities hold the
    file differs.
    """

    #: super-peer id -> position in discovery order, -1 = not reached
    #: (the home itself included: it is where the flood starts).
    position: np.ndarray
    #: position -> super-peer id.
    order: list[int]
    #: position -> overlay hops from the home.
    depth: np.ndarray
    messages: int
    duplicates: int


class HierNetwork:
    """Two-tier overlay with mined-rule and keyspace routing tiers."""

    def __init__(self, config: HierConfig | None = None, *, seed=None) -> None:
        self.config = cfg = config or HierConfig()
        # Substrate construction consumes the rng in exactly the order
        # SuperPeerNetwork does (topology child, then per-leaf profile +
        # library draws), so equal seeds give every mode — and the seed
        # baseline itself — the same world.
        self._rng = as_generator(seed)
        self.topology = random_regular(
            cfg.n_superpeers, cfg.superpeer_degree, rng=spawn_child(self._rng)
        )
        self.catalog = ContentCatalog(cfg.n_categories, cfg.files_per_category)
        interests = InterestModel(cfg.n_categories)
        self.community = CommunityIndex(cfg.n_superpeers)
        self._leaf_profile = []
        self._leaf_library: list[frozenset[int]] = []
        for leaf in range(cfg.n_leaves):
            superpeer = leaf // cfg.leaves_per_superpeer
            profile = interests.sample_profile(
                self._rng, width=cfg.interests_per_peer
            )
            library = self.catalog.sample_library(
                self._rng, profile, size=cfg.library_size
            )
            self._leaf_profile.append(profile)
            self._leaf_library.append(library)
            self.community.attach(leaf, superpeer, library)

        #: digest/directory/re-attachment messages, tracked separately so
        #: benchmarks can amortize them into messages-per-query honestly.
        self.control_messages = 0
        self._next_guid = 0
        self._sp_query_count = [0] * cfg.n_superpeers
        self._forget_routes()

        self.sp_rules: list[SuperPeerRules] = []
        self.leaf_rules: list[SuperPeerRules] = []
        self.merged: list[MergedRuleTable] = []
        if cfg.mode in ("superpeer-rules", "hybrid"):
            self.sp_rules = [
                self._make_rules(sp) for sp in range(cfg.n_superpeers)
            ]
            self.merged = [MergedRuleTable() for _ in range(cfg.n_superpeers)]
        elif cfg.mode == "leaf-rules":
            self.leaf_rules = [self._make_rules(leaf) for leaf in range(cfg.n_leaves)]

        self._node_key = [node_key(sp) for sp in range(cfg.n_superpeers)]
        self._cat_key = [category_key(c) for c in range(cfg.n_categories)]
        self.kbuckets: list[KBucketTable] = []
        # steward super-peer -> category -> owner super-peers (ascending).
        self.directory: dict[int, dict[int, list[int]]] = {}
        if cfg.mode == "hybrid":
            self.kbuckets = [
                KBucketTable(sp, k=cfg.kbucket_k) for sp in range(cfg.n_superpeers)
            ]
            for table in self.kbuckets:
                for peer in range(cfg.n_superpeers):
                    table.insert(peer)
            self._build_directory()

    def _make_rules(self, owner: int) -> SuperPeerRules:
        cfg = self.config
        return SuperPeerRules(
            owner,
            epsilon=cfg.epsilon,
            top_k=cfg.rule_top_k,
            min_support_count=cfg.min_support_count,
        )

    # -- keyspace tier ------------------------------------------------------
    def _forget_routes(self) -> None:
        """Start the route plans empty: they are functions of (start,
        liveness), filled on first use, and a kill moves liveness."""
        cfg = self.config
        # home -> reach of the tier-2 flood from it.
        self._flood_plans: list[_FloodPlan | None] = [None] * cfg.n_superpeers
        # steward / hops of the keyspace walk from a super-peer toward a
        # category, at super-peer * n_categories + category; steward -1 =
        # not walked yet.
        self._walk_steward = array("i", [-1]) * (cfg.n_superpeers * cfg.n_categories)
        self._walk_hops = self._walk_steward[:]

    def _kademlia_walk(self, start: int, category: int) -> tuple[int, int]:
        """Greedy XOR walk from ``start`` toward ``category``'s key:
        (steward, hops).

        A node's next hop toward a key depends on nothing but its own
        table, so every walk that passes through a node shares the rest
        of its route: the walk stops at the first node whose answer is
        known and fills in the nodes behind it, and each (node, category)
        consults its k-buckets at most once between two kills.
        """
        n_categories = self.config.n_categories
        stewards, hops = self._walk_steward, self._walk_hops
        slot = start * n_categories + category
        if stewards[slot] < 0:
            key = self._cat_key[category]
            path = []
            current = start
            at = slot
            while stewards[at] < 0:
                nxt = self.kbuckets[current].closer_than(
                    key, xor_distance(self._node_key[current], key)
                )
                if nxt is None:
                    stewards[at] = current
                    hops[at] = 0
                    break
                path.append(at)
                current = nxt
                at = current * n_categories + category
            steward, n_hops = stewards[at], hops[at]
            for at in reversed(path):
                n_hops += 1
                stewards[at] = steward
                hops[at] = n_hops
        return stewards[slot], hops[slot]

    def _build_directory(self) -> None:
        """(Re)publish every live community's categories to their stewards."""
        self.directory = {}
        messages = 0
        for sp in self.community.live_superpeers():
            categories = sorted(
                {
                    file_id // self.config.files_per_category
                    for leaf in self.community.members(sp)
                    for file_id in self._leaf_library[leaf]
                }
            )
            for category in categories:
                steward, hops = self._kademlia_walk(sp, category)
                messages += hops
                self.directory.setdefault(steward, {}).setdefault(
                    category, []
                ).append(sp)
        self.control_messages += messages

    # -- rule tier -----------------------------------------------------------
    def _rule_targets(self, leaf: int, home: int, category: int) -> list[int]:
        cfg = self.config
        if cfg.mode == "leaf-rules":
            ranked = self.leaf_rules[leaf].consequents(category)
        else:
            ranked = self.sp_rules[home].consequents(category)
            for extra in self.merged[home].consequents(category, cfg.rule_top_k):
                if extra not in ranked:
                    ranked.append(extra)
        live = [
            sp for sp in ranked if sp != home and self.community.is_live(sp)
        ]
        return live[: cfg.rule_top_k]

    def _learn(self, leaf: int, home: int, category: int, replier: int) -> None:
        if replier == home:
            return
        mode = self.config.mode
        if mode == "leaf-rules":
            self.leaf_rules[leaf].observe(category, replier)
        elif mode in ("superpeer-rules", "hybrid"):
            self.sp_rules[home].observe(category, replier)

    def _publish_digest(self, home: int) -> None:
        """Push ``home``'s fresh digest to its live overlay neighbors.

        Goes over the wire codec (encode/decode round-trip) so the
        exchange path exercises exactly what a deployment would ship.
        """
        wire = self.sp_rules[home].publish(self.config.digest_top_k).encode()
        digest = decode_digest(wire)  # frozen: one copy serves every receiver
        for neighbor in self.topology.neighbors(home):
            if not self.community.is_live(neighbor):
                continue
            self.control_messages += 1
            self.merged[neighbor].merge(digest)

    # -- query path ---------------------------------------------------------
    def query(self, leaf: int, file_id: int) -> QueryOutcome:
        """One leaf query through the attempt ladder."""
        cfg = self.config
        self._next_guid += 1
        guid = self._next_guid
        if file_id in self._leaf_library[leaf]:
            return QueryOutcome(guid, 0, 1, 0, 0)
        home = self.community.superpeer_of(leaf)
        messages = 1  # leaf -> home super-peer
        local = self.community.lookup(home, file_id)
        if local:
            return QueryOutcome(guid, messages, len(local), 1, 0)
        category = file_id // cfg.files_per_category
        rule_covered = False
        contacted: set[int] = set()

        if cfg.mode != "flood":
            targets = self._rule_targets(leaf, home, category)
            if targets:
                rule_covered = True
                hits = 0
                for target in targets:
                    messages += 1
                    contacted.add(target)
                    matches = self.community.lookup(target, file_id)
                    if matches:
                        hits += len(matches)
                        self._learn(leaf, home, category, target)
                if hits:
                    self._after_query(home)
                    return QueryOutcome(
                        guid, messages, hits, 2, 0,
                        rule_covered=True, rule_succeeded=True,
                    )

        if cfg.mode == "hybrid":
            steward, hops = self._kademlia_walk(home, category)
            messages += hops
            hits = 0
            first_hit_hops = None
            to_contact = cfg.lookup_contacts
            for owner in self.directory.get(steward, {}).get(category, ()):
                if owner == home or owner in contacted:
                    continue
                messages += 1
                matches = self.community.lookup(owner, file_id)
                if matches:
                    hits += len(matches)
                    if first_hit_hops is None:
                        first_hit_hops = hops + 2  # leaf->home, walk, contact
                    self._learn(leaf, home, category, owner)
                to_contact -= 1
                if not to_contact:
                    break
            if hits:
                self._after_query(home)
                return QueryOutcome(
                    guid, messages, hits, first_hit_hops, 0,
                    rule_covered=rule_covered,
                )

        flood_messages, hits, first_hit_hops, duplicates = self._flood(
            leaf, home, file_id, category
        )
        self._after_query(home)
        return QueryOutcome(
            guid,
            messages + flood_messages,
            hits,
            first_hit_hops,
            duplicates,
            rule_covered=rule_covered,
        )

    def _flood(
        self, leaf: int, home: int, file_id: int, category: int
    ) -> tuple[int, int, int | None, int]:
        """Tier-2 flood among live super-peers (the baseline's fallback).

        The reach comes from ``home``'s plan; the per-query part is the
        file's holder communities that have a position in it, visited in
        discovery order — the order the per-message flood met them, so
        every rule table sees the same event sequence.
        """
        plan = self._flood_plans[home] or self._plan_flood(home)
        found = plan.position[self.community.holders(file_id)]
        found = found[found >= 0]
        if not found.size:
            return plan.messages, 0, None, plan.duplicates
        found.sort()
        hits = 0
        learn = self.config.mode != "flood"
        order = plan.order
        for at in found.tolist():
            superpeer = order[at]
            hits += len(self.community.lookup(superpeer, file_id))
            if learn:
                self._learn(leaf, home, category, superpeer)
        # +1 for the original leaf -> super-peer hop.
        return plan.messages, hits, int(plan.depth[found[0]]) + 1, plan.duplicates

    def _plan_flood(self, home: int) -> _FloodPlan:
        """TTL-limited BFS from ``home`` over the live overlay, run once:
        who is reached, in which order, how deep, for how many messages."""
        cfg = self.config
        parent: dict[int, int | None] = {home: None}
        depth = {home: 0}
        messages = 0
        duplicates = 0
        frontier = deque([home])
        while frontier:
            sp = frontier.popleft()
            if depth[sp] >= cfg.superpeer_ttl:
                continue
            for neighbor in self.topology.neighbors(sp):
                if neighbor == parent[sp] or not self.community.is_live(neighbor):
                    continue
                messages += 1
                if neighbor in parent:
                    duplicates += 1
                    continue
                parent[neighbor] = sp
                depth[neighbor] = depth[sp] + 1
                frontier.append(neighbor)
        del depth[home]  # what is left is in discovery order
        order = list(depth)
        position = np.full(
            cfg.n_superpeers, -1, dtype=np.min_scalar_type(-cfg.n_superpeers)
        )
        position[order] = np.arange(len(order))
        plan = _FloodPlan(
            position,
            order,
            np.fromiter(depth.values(), dtype=position.dtype, count=len(order)),
            messages,
            duplicates,
        )
        self._flood_plans[home] = plan
        return plan

    def _after_query(self, home: int) -> None:
        if not self.sp_rules:
            return
        self._sp_query_count[home] += 1
        if self._sp_query_count[home] % self.config.digest_every == 0:
            self._publish_digest(home)

    # -- workload -------------------------------------------------------------
    def run_workload(self, n_queries: int, *, warmup: int = 0) -> TrafficStats:
        """Issue interest-driven queries; the first ``warmup`` are unrecorded.

        Draw-for-draw identical to ``SuperPeerNetwork.run_workload`` at
        equal seeds (leaf uniform, category from the leaf's profile,
        Zipf file rank), so arms differ only in routing.
        """
        if n_queries < 0:
            raise ValueError("n_queries must be non-negative")
        if warmup < 0:
            raise ValueError("warmup must be non-negative")
        cfg = self.config
        stats = TrafficStats()
        rank_sampler = ZipfSampler(cfg.files_per_category, 1.0)
        for i in range(warmup + n_queries):
            leaf = int(self._rng.integers(0, cfg.n_leaves))
            category = self._leaf_profile[leaf].sample_category(self._rng)
            rank = rank_sampler.sample(self._rng)
            file_id = category * cfg.files_per_category + rank
            outcome = self.query(leaf, file_id)
            if i >= warmup:
                stats.record(outcome)
        return stats

    # -- churn ---------------------------------------------------------------
    def kill_superpeer(self, superpeer: int) -> dict[int, int]:
        """Fail one super-peer; returns the orphan re-attachment map.

        The dead node leaves the overlay, every k-bucket table, and —
        digest invalidation — every merged rule table; its leaves
        re-home deterministically and their libraries are re-indexed,
        then the category directory is republished.
        """
        if not self.community.is_live(superpeer):
            return {}
        orphans = self.community.kill(superpeer)
        for other in self.community.live_superpeers():
            if self.merged:
                self.merged[other].invalidate(superpeer)
            if self.kbuckets:
                self.kbuckets[other].remove(superpeer)
        placement = self.community.reattach(orphans)
        self.control_messages += len(orphans)  # re-attachment handshakes
        self._forget_routes()
        if self.config.mode == "hybrid":
            self._build_directory()
        return placement

    # -- introspection (tests) -------------------------------------------
    def superpeer_of(self, leaf: int) -> int:
        return self.community.superpeer_of(leaf)

    def index_size(self, superpeer: int) -> int:
        return self.community.index_size(superpeer)
