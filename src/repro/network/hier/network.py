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

:class:`HierNetwork` *is a* :class:`~repro.network.superpeer.SuperPeerNetwork`:
construction of the substrate and the workload generator are inherited,
so at equal seeds every arm — the baseline included — sees the same world
and the same (leaf, file) query sequence pair for pair, the property the
comparison experiment leans on.  Four modes:

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
node's own table and the key alone.  Both are kept — per home the
:meth:`QueryEngine.reach <repro.network.engine.QueryEngine.reach>` of a
flood over the super-peer graph, every live home's planned at once by
the first flood that needs one, and ``(steward, hops)`` for every (live
super-peer, category), planned whole from one next-hop table — and a
flood's per-query part is the file's sharers
(:meth:`CommunityIndex.sharers`) whose community has a position in the
reach — counted for the hits, their communities taken in discovery
order: the order a per-message flood meets them, hence the same ``observe`` sequence and the same learned rules.  The
per-message loops are ``tests/network/reference_hier.py``, the oracle of
the differential tests.

Failure handling: a kill is a topology mutation.
:meth:`kill_superpeer` detaches the dead node from the overlay graph
(:meth:`Topology.detach_node <repro.network.topology.Topology.detach_node>`,
so no flood and no digest push has an edge to reach it by), drops it
from every k-bucket table and every merged digest table (digest
invalidation), then deterministically re-attaches its leaves
(:class:`~repro.network.community.CommunityIndex`), forgets every
reach and replans every walk (both moved with liveness) and republishes
the category directory.  The last live super-peer cannot be killed: its
leaves would have nowhere to go.  Digest and directory traffic is tracked in
:attr:`HierNetwork.control_messages` so benchmarks can amortize it
into an honest messages-per-query figure.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from dataclasses import dataclass
from time import perf_counter

import numpy as np

from repro.core.counts import SketchCounts, forward_picks
from repro.metrics.traffic import QueryOutcome
from repro.network.community import count_pairs
from repro.network.engine import QueryEngine, Reach
from repro.network.hier.digest import MergedRuleTable, decode_digest
from repro.network.hier.keyspace import (
    KBucketTable,
    category_key,
    kbucket_tables,
    node_key,
)
from repro.network.superpeer import SuperPeerConfig, SuperPeerNetwork
from repro.obs.instruments import observe_sim_build
from repro.routing.superpeer_rules import SuperPeerRules

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


class HierNetwork(SuperPeerNetwork):
    """Two-tier overlay with mined-rule and keyspace routing tiers."""

    def __init__(self, config: HierConfig | None = None, *, seed=None) -> None:
        super().__init__(config or HierConfig(), seed=seed)
        started = perf_counter()
        cfg = self.config
        # the tier-2 flood's kernel, over the super-peer graph
        self.engine = QueryEngine(self)
        #: digest/directory/re-attachment messages, tracked separately so
        #: benchmarks can amortize them into messages-per-query honestly.
        self.control_messages = 0
        self._sp_query_count = [0] * cfg.n_superpeers

        self.sp_rules: list[SuperPeerRules] = []
        # a leaf never publishes, so its table is the bare pair counts
        self.leaf_rules: list[SketchCounts] = []
        self.merged: list[MergedRuleTable] = []
        if cfg.mode in ("superpeer-rules", "hybrid"):
            self.sp_rules = [
                SuperPeerRules(
                    sp, epsilon=cfg.epsilon, min_support_count=cfg.min_support_count
                )
                for sp in range(cfg.n_superpeers)
            ]
            self.merged = [MergedRuleTable() for _ in range(cfg.n_superpeers)]
        elif cfg.mode == "leaf-rules":
            self.leaf_rules = [
                SketchCounts(cfg.epsilon, cfg.min_support_count)
                for _ in range(cfg.n_leaves)
            ]

        n = cfg.n_superpeers
        self._node_key = np.fromiter(map(node_key, range(n)), np.uint64, n)
        self._cat_key = np.fromiter(
            map(category_key, range(cfg.n_categories)), np.uint64, cfg.n_categories
        )
        self.kbuckets: list[KBucketTable] = []
        # steward super-peer -> category -> owner super-peers (ascending).
        self.directory: dict[int, dict[int, list[int]]] = {}
        if cfg.mode == "hybrid":
            self.kbuckets = self._kbucket_tables()
        self._forget_routes()
        if cfg.mode == "hybrid":
            self._build_directory()
        # the tiers; the substrate reported itself as "superpeer"
        observe_sim_build("hier", started)

    # -- keyspace tier ------------------------------------------------------
    def _kbucket_tables(self) -> list[KBucketTable]:
        """Every super-peer's k-buckets, each filled from every id in order."""
        return kbucket_tables(self._node_key, k=self.config.kbucket_k)

    def _forget_routes(self) -> None:
        """Start the route plans over: they are functions of (start,
        liveness), and a kill moves liveness.  Flood reaches are planned
        by the first flood; the keyspace walks are planned whole now."""
        # home -> (reach of the tier-2 flood from it, super-peer ->
        # position in reach.order or -1).  Every super-peer forwards to
        # all its neighbours, so the reach is the same for every file.
        self._reaches: dict[int, tuple[Reach, np.ndarray]] = {}
        # steward / hops of the keyspace walk from a super-peer toward a
        # category, at super-peer * n_categories + category; steward -1
        # at a dead start, and both empty without a keyspace tier.
        self._walk_steward = self._walk_hops = array("i")
        if self.kbuckets:
            self._plan_walks()

    def _plan_walks(self) -> None:
        """Resolve the greedy XOR walk from every live super-peer toward
        every category's key.

        A node's next hop toward a key depends on nothing but its own
        table, so one vector :meth:`KBucketTable.closer_than` per node
        gives its next hop toward every category (-1 where it is the
        steward), and following that table resolves every walk at once:
        each round moves every unfinished walk one hop, and every hop is
        strictly closer to the key, so no walk comes back.
        """
        cfg = self.config
        n, n_categories = cfg.n_superpeers, cfg.n_categories
        live = self.community.live_superpeers()
        next_hop = np.full((n, n_categories), -1, np.int64)
        for sp in live:
            next_hop[sp] = self.kbuckets[sp].closer_than(
                self._cat_key, self._cat_key ^ self._node_key[sp]
            )
        next_hop = next_hop.ravel()
        category = np.tile(np.arange(n_categories), n)
        steward = np.repeat(np.arange(n), n_categories)
        hops = np.zeros(n * n_categories, np.intc)
        step = next_hop.copy()
        while (moving := np.flatnonzero(step >= 0)).size:
            steward[moving] = step[moving]
            hops[moving] += 1
            step[moving] = next_hop[steward[moving] * n_categories + category[moving]]
        dead = np.ones(n, bool)
        dead[live] = False
        steward.reshape(n, n_categories)[dead] = -1
        self._walk_steward = array("i", steward.astype(np.intc).tobytes())
        self._walk_hops = array("i", hops.tobytes())

    def _kademlia_walk(self, start: int, category: int) -> tuple[int, int]:
        """Greedy XOR walk from ``start`` toward ``category``'s key:
        (steward, hops), as :meth:`_plan_walks` resolved it."""
        slot = start * self.config.n_categories + category
        return self._walk_steward[slot], self._walk_hops[slot]

    def _build_directory(self) -> None:
        """(Re)publish every live community's categories to their stewards:
        one entry per distinct (community, category), however many files
        or leaves stand behind it, charged its walk's hops."""
        cfg = self.config
        n_categories = cfg.n_categories
        files, _leaves, bounds = self.community.stretches()
        files = np.asarray(files)
        # a community's stretch is sorted by file, so category c is in
        # it iff its files' edges c * fpc and (c + 1) * fpc fall apart
        # (a file past the catalog, attached directly, has no category)
        edges = np.arange(n_categories + 1) * cfg.files_per_category
        present = np.zeros((cfg.n_superpeers, n_categories), bool)
        for sp in self.community.live_superpeers():
            at = files[bounds[sp] : bounds[sp + 1]].searchsorted(edges)
            present[sp] = at[1:] > at[:-1]
        owners, categories = np.nonzero(present)  # community, then category
        slots = owners * n_categories + categories
        stewards = np.frombuffer(self._walk_steward, np.intc)[slots]
        # one group per (steward, category), its owners ascending; groups
        # taken in the order their first entry comes, so every dict is
        # filled in the order an entry-by-entry pass fills it
        group = stewards * n_categories + categories
        order = np.argsort(group, kind="stable")
        group = group[order]
        heads = np.flatnonzero(np.diff(group, prepend=-1))
        ends = np.append(heads[1:], order.size)
        owners = owners[order].tolist()
        self.directory = {}
        for head in np.argsort(order[heads]).tolist():
            at, end = int(heads[head]), int(ends[head])
            steward, category = divmod(int(group[at]), n_categories)
            self.directory.setdefault(steward, {})[category] = owners[at:end]
        self.control_messages += int(
            np.frombuffer(self._walk_hops, np.intc)[slots].sum()
        )

    # -- rule tier -----------------------------------------------------------
    def _rule_targets(self, leaf: int, home: int, category: int) -> list[int]:
        """The home's ranking, then the merged digests' entries not in it,
        cut once by :func:`forward_picks` after the home and the dead go."""
        cfg = self.config
        if cfg.mode == "leaf-rules":
            ranked = self.leaf_rules[leaf].consequents(category)
        else:
            ranked = self.sp_rules[home].counts.consequents(category)
            for extra in self.merged[home].consequents(category):
                if extra not in ranked:
                    ranked.append(extra)
        return forward_picks(ranked, cfg.rule_top_k, home, self.community.live)

    def _table(self, leaf: int, home: int) -> SketchCounts:
        """The pair counts a query from ``leaf`` at ``home`` teaches (a
        learning mode only)."""
        if self.leaf_rules:
            return self.leaf_rules[leaf]
        return self.sp_rules[home].counts

    def _learn(self, leaf: int, home: int, category: int, replier: int) -> None:
        if replier != home:
            self._table(leaf, home).observe(category, replier)

    def _publish_digest(self, home: int) -> None:
        """Push ``home``'s fresh digest to its overlay neighbors (a dead
        super-peer has none and is nobody's).

        Goes over the wire codec (encode/decode round-trip) so the
        exchange path exercises exactly what a deployment would ship.
        """
        wire = self.sp_rules[home].publish(self.config.digest_top_k).encode()
        digest = decode_digest(wire)  # frozen: one copy serves every receiver
        for neighbor in self.topology.neighbors(home):
            self.control_messages += 1
            self.merged[neighbor].merge(digest)

    # -- query path ---------------------------------------------------------
    def query(self, leaf: int, file_id: int) -> QueryOutcome:
        """One leaf query through the attempt ladder."""
        cfg = self.config
        home = self.community.superpeer_of(leaf)  # refuses an unknown leaf
        files, leaves, bounds = self.community.stretches()
        self._next_guid += 1
        guid = self._next_guid
        # count_pairs, inlined: the home index holds the asking leaf's own
        # library too, so one probe answers both "do I have it" and "does
        # my community"
        end = bounds[home + 1]
        at = bisect_left(files, file_id, bounds[home], end)
        local = 0
        while at < end and files[at] == file_id:
            if leaves[at] == leaf:
                return QueryOutcome(guid, 0, 1, 0, 0)
            at += 1
            local += 1
        messages = 1  # leaf -> home super-peer, then every failed attempt
        if local:
            return QueryOutcome(guid, messages, local, 1, 0)
        category = file_id // cfg.files_per_category
        rule_covered = False
        contacted: set[int] = set()

        if cfg.mode != "flood":
            targets = self._rule_targets(leaf, home, category)
            if targets:
                rule_covered = True
                hits = 0
                for target in targets:
                    contacted.add(target)
                    matches = count_pairs(files, bounds, target, file_id)
                    if matches:
                        hits += matches
                        self._learn(leaf, home, category, target)
                if hits:
                    self._after_query(home)
                    return QueryOutcome(
                        guid, len(targets), hits, 2, 0,
                        rule_covered=True, rule_succeeded=True,
                    ).on_top_of(messages)
                messages += len(targets)

        if cfg.mode == "hybrid":
            steward, hops = self._kademlia_walk(home, category)
            sent = hops
            hits = 0
            first_hit_hops = None
            to_contact = cfg.lookup_contacts
            for owner in self.directory.get(steward, {}).get(category, ()):
                if owner == home or owner in contacted:
                    continue
                sent += 1
                matches = count_pairs(files, bounds, owner, file_id)
                if matches:
                    hits += matches
                    if first_hit_hops is None:
                        first_hit_hops = hops + 2  # leaf->home, walk, contact
                    self._learn(leaf, home, category, owner)
                to_contact -= 1
                if not to_contact:
                    break
            if hits:
                self._after_query(home)
                return QueryOutcome(
                    guid, sent, hits, first_hit_hops, 0, rule_covered=rule_covered
                ).on_top_of(messages)
            messages += sent

        flood = QueryOutcome(
            guid,
            *self._flood(leaf, home, file_id, category),
            rule_covered=rule_covered,
        )
        self._after_query(home)
        return flood.on_top_of(messages)

    def _flood(
        self, leaf: int, home: int, file_id: int, category: int
    ) -> tuple[int, int, int | None, int]:
        """Tier-2 flood among live super-peers (the baseline's fallback):
        ``(messages, hits, first_hit_hops, duplicates)``.

        The reach is ``home``'s, run by the kernel once per kill; the
        per-query part is the file's sharers — one entry per (leaf, file)
        pair — whose community has a position in it: their number is the
        hits, and their distinct communities are visited in discovery
        order — the order the per-message flood met them, so every rule
        table sees the same event sequence.
        """
        reach, position = self._reaches.get(home) or self._reach_from(home)
        found = position[self.community.sharers(file_id)]
        found = found[found >= 0]
        if not found.size:
            return reach.messages, 0, None, reach.duplicates
        found.sort()
        if self.config.mode != "flood":
            # dict.fromkeys: each community once, first meeting first
            repliers = dict.fromkeys(self.engine.ids(reach.order[found]))
            repliers.pop(home, None)
            observe = self._table(leaf, home).observe
            for superpeer in repliers:
                observe(category, superpeer)
        # +1 for the original leaf -> super-peer hop.
        return (
            reach.messages, found.size, int(reach.depth[found[0]]) + 1, reach.duplicates
        )

    def _reach_from(self, home: int) -> tuple[Reach, np.ndarray]:
        """``home``'s reach, after keeping every live super-peer's: the
        first flood after a build or a kill plans them all in one
        :meth:`QueryEngine.reaches <repro.network.engine.QueryEngine.reaches>`."""
        n = self.config.n_superpeers
        live = self.community.live_superpeers()
        kind = np.min_scalar_type(-n)
        for superpeer, reach in zip(
            live, self.engine.reaches(live, self.config.superpeer_ttl)
        ):
            position = np.full(n, -1, dtype=kind)
            position[reach.order] = np.arange(reach.order.size)
            self._reaches[superpeer] = reach, position
        return self._reaches[home]

    def _after_query(self, home: int) -> None:
        if not self.sp_rules:
            return
        self._sp_query_count[home] += 1
        if self._sp_query_count[home] % self.config.digest_every == 0:
            self._publish_digest(home)

    # -- churn ---------------------------------------------------------------
    def kill_superpeer(self, superpeer: int) -> dict[int, int]:
        """Fail one super-peer; returns the orphan re-attachment map.

        The dead node leaves the overlay graph, every k-bucket table, and
        — digest invalidation — every merged rule table; its leaves
        re-home deterministically and their libraries are re-indexed,
        then the category directory is republished.  Killing the only
        live super-peer is refused before anything changes.
        """
        if not self.community.is_live(superpeer):
            return {}
        if len(self.community.live_superpeers()) == 1:
            raise ValueError(
                f"super-peer {superpeer} is the last one live: "
                "its leaves would have no home"
            )
        self.topology.detach_node(superpeer)
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
