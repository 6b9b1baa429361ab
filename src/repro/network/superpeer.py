"""Super-peer network baseline (Yang & Garcia-Molina, the paper's ref [14]).

§II: leaves attach to a super-peer that indexes their content; a query
goes to the leaf's super-peer (1 message), is answered from the local
index if possible, and is otherwise flooded among the super-peers — which
"can still suffer from the effects of flooding on larger systems", the
effect this baseline exists to show.

Super-peers form their own random-regular overlay; each leaf binds to
one super-peer; indices are exact (a
:class:`~repro.network.community.CommunityIndex`, which also holds
every leaf's library — one ``int32`` buffer, read back through
:meth:`SuperPeerNetwork.library` / :meth:`SuperPeerNetwork.shares`).
Leaves are drawn one at a time, profile then library uniforms, from the
one stream the queries later come from; a community's uniforms are one
block, mapped to files at once
(:meth:`~repro.workload.content.ContentCatalog.libraries_for_uniforms`,
the same rank sampler a query's file is drawn from).
This substrate and the workload generator are what
:class:`~repro.network.hier.network.HierNetwork` inherits; construction time is
reported to ``repro_sim_build_seconds`` in the global
:mod:`repro.obs` registry.  The tier-2 flood here
stays a per-message loop: ``HierNetwork`` floods through a memoised
:meth:`QueryEngine.reach`, and the benchmark's self-check holds the two
propagation paths to each other.
"""

from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass
from time import perf_counter

import numpy as np

from repro.metrics.traffic import QueryOutcome, TrafficStats
from repro.network.community import CommunityIndex
from repro.network.topology import random_regular
from repro.obs.instruments import observe_sim_build, set_sim_population_bytes
from repro.utils.rng import as_generator, spawn_child
from repro.workload.content import ContentCatalog
from repro.workload.interests import InterestModel

__all__ = ["SuperPeerConfig", "SuperPeerNetwork"]


@dataclass(frozen=True)
class SuperPeerConfig:
    """Parameters of the two-tier network."""

    n_superpeers: int = 30
    leaves_per_superpeer: int = 20
    superpeer_degree: int = 4
    n_categories: int = 40
    files_per_category: int = 250
    library_size: int = 60
    interests_per_peer: int = 4
    #: TTL of the superpeer-tier flood.
    superpeer_ttl: int = 4

    def __post_init__(self) -> None:
        if self.n_superpeers < 3:
            raise ValueError("n_superpeers must be >= 3")
        if self.leaves_per_superpeer < 1:
            raise ValueError("leaves_per_superpeer must be >= 1")
        if not 2 <= self.superpeer_degree < self.n_superpeers:
            raise ValueError("superpeer_degree out of range")
        if self.n_superpeers * self.superpeer_degree % 2:
            raise ValueError("n_superpeers * superpeer_degree must be even")
        if self.n_categories < 1 or self.files_per_category < 1:
            raise ValueError("n_categories and files_per_category must be >= 1")
        if self.superpeer_ttl < 1:
            raise ValueError("superpeer_ttl must be >= 1")

    @property
    def n_leaves(self) -> int:
        return self.n_superpeers * self.leaves_per_superpeer


class SuperPeerNetwork:
    """Two-tier overlay: exact leaf indices at super-peers, tier-2 flooding."""

    def __init__(self, config: SuperPeerConfig | None = None, *, seed=None) -> None:
        started = perf_counter()
        self.config = config or SuperPeerConfig()
        cfg = self.config
        self._rng = as_generator(seed)
        self.topology = random_regular(
            cfg.n_superpeers, cfg.superpeer_degree, rng=spawn_child(self._rng)
        )
        self.catalog = ContentCatalog(cfg.n_categories, cfg.files_per_category)
        interests = InterestModel(cfg.n_categories)
        #: leaf -> home super-peer and library, each super-peer's exact index.
        self.community = CommunityIndex(cfg.n_superpeers)
        self._leaf_profile = []
        per = cfg.leaves_per_superpeer
        uniforms = np.empty((per, 2 * cfg.library_size))
        random = self._rng.random
        for superpeer in range(cfg.n_superpeers):
            # leaf by leaf from the stream, profile then library uniforms,
            # one community mapped and attached at once
            profiles = []
            for row in uniforms:
                profiles.append(
                    interests.sample_profile(self._rng, width=cfg.interests_per_peer)
                )
                random(out=row)
            drawn = self.catalog.libraries_for_uniforms(profiles, uniforms)
            self._leaf_profile += profiles
            first = superpeer * per
            self.community.attach_block(superpeer, range(first, first + per), drawn)
        self._next_guid = 0
        # the substrate; a subclass reports what it adds under its own label
        observe_sim_build("superpeer", started)
        set_sim_population_bytes("superpeer", self.community.nbytes)

    # ------------------------------------------------------------------
    def query(self, leaf: int, file_id: int) -> QueryOutcome:
        """One leaf query through the two-tier protocol."""
        cfg = self.config
        home = self.community.superpeer_of(leaf)  # refuses an unknown leaf
        self._next_guid += 1
        if self.shares(leaf, file_id):
            return QueryOutcome(self._next_guid, 0, 1, 0, 0)
        messages = 1  # leaf -> home super-peer
        local = self.community.count(home, file_id)
        if local:
            return QueryOutcome(self._next_guid, messages, local, 1, 0)
        # Tier-2 flood among super-peers: which of them can answer is
        # read once, from the file's side, not asked of each in turn.
        sharing = Counter(self.community.sharers(file_id).tolist())
        parent: dict[int, int | None] = {home: None}
        depth = {home: 0}
        hits = 0
        first_hit_hops = None
        duplicates = 0
        frontier = deque([home])
        while frontier:
            sp = frontier.popleft()
            if depth[sp] >= cfg.superpeer_ttl:
                continue
            for neighbor in self.topology.neighbors(sp):
                if neighbor == parent[sp]:
                    continue
                messages += 1
                if neighbor in parent:
                    duplicates += 1
                    continue
                parent[neighbor] = sp
                depth[neighbor] = depth[sp] + 1
                matches = sharing.get(neighbor)
                if matches:
                    hits += matches
                    if first_hit_hops is None:
                        # +1 for the original leaf -> super-peer hop.
                        first_hit_hops = depth[neighbor] + 1
                frontier.append(neighbor)
        return QueryOutcome(
            self._next_guid, messages, hits, first_hit_hops, duplicates
        )

    def run_workload(self, n_queries: int, *, warmup: int = 0) -> TrafficStats:
        """Issue interest-driven queries from random leaves (leaf uniform,
        category from the leaf's profile, file from the catalog: three
        draws a query, in that order).

        The first ``warmup`` queries run but are not recorded.  Flooding
        has nothing to warm up, but the learning tiers that inherit this
        generator do, and at equal seeds every arm draws the same
        sequence (here nothing is rule-covered, so α is 0).
        """
        if n_queries < 0:
            raise ValueError("n_queries must be non-negative")
        if warmup < 0:
            raise ValueError("warmup must be non-negative")
        n_leaves = self.config.n_leaves
        profiles, file_for_uniform = self._leaf_profile, self.catalog.file_for_uniform
        # the generator's methods bound once: the draws sample_category
        # and sample_file make, in their order, without their coercion
        integers, random = self._rng.integers, self._rng.random
        query, stats = self.query, TrafficStats()
        for i in range(warmup + n_queries):
            leaf = int(integers(0, n_leaves))
            category = profiles[leaf].category_for_uniform(random())
            outcome = query(leaf, file_for_uniform(category, random()))
            if i >= warmup:
                stats.record(outcome)
        return stats

    # -- introspection (tests, reports) ------------------------------------
    def library(self, leaf: int) -> frozenset[int]:
        """The files ``leaf`` shares, as plain ints (built on demand)."""
        return self.community.library(leaf)

    def shares(self, leaf: int, file_id: int) -> bool:
        return self.community.shares(leaf, file_id)

    def superpeer_of(self, leaf: int) -> int:
        return self.community.superpeer_of(leaf)

    def index_size(self, superpeer: int) -> int:
        return self.community.index_size(superpeer)
