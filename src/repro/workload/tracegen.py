"""Monitor-node trace generator (substitute for the paper's 7-day trace).

This is the key substitution of the reproduction (DESIGN.md §2): a
generative model of what one modified Gnutella node observes, producing the
same record streams the paper captured.  The model is event-driven over a
continuous simulated timeline:

* The monitor maintains a roughly constant set of ``n_neighbors``
  connections.  Each neighbor has a heavy-tailed, lognormal **session
  length**; when it departs, a fresh neighbor takes its slot.  Neighbor
  ids are never reused.  A further ``ephemeral_rate`` fraction of query
  volume comes from one-shot sources that appear once and vanish.
* Each neighbor carries an **activity weight** (lognormal — some neighbors
  forward far more queries than others) and an **interest profile** over a
  few categories (interest-based locality: queries arriving from one
  neighbor concentrate on its subtree's interests).
* For each category there is a current **reply path**: the neighbor through
  which replies for that category arrive.  Paths are anchored at
  *long-lived* neighbors (selection probability ∝ session age — realistic,
  since stable high-capacity peers serve most content, and emergent from
  the heavy-tail inspection property that old sessions last longest).  A path
  is reassigned when its anchor departs or when its own lifetime — drawn
  from a narrow lognormal around ``path_lifetime_blocks`` — expires.

The *shape* of the paper's results follows from two time scales (both
expressed in units of blocks of ``block_size`` pairs so the calibration
reads directly against the figures):

* ``median_session_blocks`` / ``session_sigma`` control how fast rule
  *antecedents* (query sources) disappear — the coverage decay.  The
  lognormal bulk keeps coverage high over the first several blocks, while
  its upper tail (plus the length bias of sources observed in any training
  block) produces Static Ruleset's long low coverage plateau.
* ``path_lifetime_blocks`` with small ``path_lifetime_sigma`` controls how
  fast rule *consequents* go stale — the success decay.  A *narrow*
  lifetime distribution produces the knee the paper's numbers demand:
  success is barely affected at lag 1 (Sliding Window ≈ 0.79), declines
  roughly linearly over 10 blocks (Lazy ≈ 0.59) and collapses to ≈ 0 by
  lag ~16 (Static).

Two output paths are provided.  Both consume the same two random streams
in the same order — ``self._rng`` for rare events (churn, path
assignment), a :class:`~repro.utils.rng.UniformBuffer` for the per-pair
draws — and both apply every state-changing event through the same scalar
helpers:

* :meth:`MonitorTraceGenerator.generate_pair_arrays` — the fast path:
  columnar numpy arrays of (time, source, replier, category, host), no
  strings or GUIDs, streamed straight into :class:`repro.trace.PairBlock`
  partitioning.  This is what the experiments use.  It has no per-pair
  Python loop: between two state-changing events — a neighbor departure
  or a lazy reply-path reassignment — the neighbor set, the cumulative
  activity weights, the profiles and the category -> anchor table are
  constants, so a whole segment of pairs is a dozen
  array operations, and only the events themselves (a few dozen per
  10,000 pairs) run the scalar helpers.  The per-pair loop it replaced
  lives on in ``tests/workload/reference_tracegen.py`` as the oracle the
  array code must match bit for bit (docs/performance.md, "Trace
  generation").
* :meth:`MonitorTraceGenerator.iter_events` — the full-fidelity path:
  :class:`~repro.trace.records.QueryRecord` / ``ReplyRecord`` streams with
  query strings, GUIDs (including buggy duplicates) and unreplied queries,
  for exercising the complete store/dedup/join pipeline.
"""

from __future__ import annotations

import heapq
from bisect import bisect_right
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from repro.trace.records import QueryRecord, ReplyRecord
from repro.utils.guid import GuidAllocator
from repro.utils.rng import UniformBuffer, as_generator, spawn_child
from repro.utils.validation import (
    check_fraction,
    check_non_negative,
    check_positive,
    check_probability,
)
from repro.workload.churn import LogNormalSessions
from repro.workload.interests import InterestModel
from repro.workload.querygen import QueryTextModel

__all__ = ["MonitorTraceConfig", "MonitorTraceGenerator", "PairArrays"]


@dataclass(frozen=True)
class MonitorTraceConfig:
    """Tunable parameters of the monitor-node trace model.

    Defaults are the calibrated values (DESIGN.md §7): with these, the four
    strategies of the paper land in the reported bands.  All horizon-like
    quantities are denominated in *blocks* of ``block_size`` query–reply
    pairs, matching how the paper reports everything.
    """

    #: pairs per block — the paper's default simulator granularity.
    block_size: int = 10_000
    #: target number of concurrent monitor-node neighbors.
    n_neighbors: int = 120
    #: median neighbor session length in blocks (lognormal sessions:
    #: bulk of sessions long, heavy upper tail).
    median_session_blocks: float = 10.0
    #: lognormal sigma of session lengths: larger -> more very short and
    #: very long sessions.  The upper tail is what keeps Static Ruleset's
    #: coverage on its long low plateau.
    session_sigma: float = 1.5
    #: fraction of the *initial* neighbor population connected for the
    #: whole capture window (always-on hosts; over a 7-day trace,
    #: "permanent" peers are by definition present at the start).  This
    #: is what keeps Static Ruleset's long-run average coverage near the
    #: paper's 0.18 over 365 trials — without it, block-0 sources die out
    #: entirely within ~100 blocks.  Replacement neighbors are never
    #: permanent.
    permanent_fraction: float = 0.15
    #: median planned lifetime of a category's reply path, in blocks.
    path_lifetime_blocks: float = 13.5
    #: lognormal sigma of the path lifetime (small => knee-shaped decay).
    path_lifetime_sigma: float = 0.15
    #: exponent biasing path anchoring toward old (long-lived) neighbors.
    anchor_age_exponent: float = 1.0
    #: cap (in blocks) on the age used for anchor weighting, so a single
    #: very long-lived neighbor does not end up anchoring every category.
    anchor_age_cap_blocks: float = 8.0
    #: probability that a reply arrives via a uniformly random neighbor
    #: instead of the category's anchor (transient alternate routes — in a
    #: real overlay, replies for one query can flow back along several
    #: paths).  This bounds achievable success below coverage, as observed
    #: in the paper (success slightly under coverage even for Sliding).
    path_noise: float = 0.10
    #: lognormal sigma of per-neighbor activity weights.
    activity_sigma: float = 1.1
    #: fraction of query volume arriving from *ephemeral* sources — hosts
    #: that forward one or a few queries and vanish (ubiquitous in real
    #: Gnutella traces).  Ephemeral sources never accumulate the support a
    #: rule needs, so this directly sets the achievable coverage ceiling.
    ephemeral_rate: float = 0.13
    #: number of interest categories in the universe.
    n_categories: int = 160
    #: Zipf exponent of global category popularity (0 = uniform).  Flatter
    #: popularity spreads reply paths over more categories, reducing the
    #: run-to-run variance a handful of dominant categories would cause.
    category_popularity_exponent: float = 0.55
    #: categories per neighbor interest profile.
    interests_per_neighbor: int = 3
    #: fraction of queries that receive a reply (paper: ~31%).
    reply_rate: float = 0.31
    #: probability a query GUID duplicates an earlier one (buggy clients).
    duplicate_guid_rate: float = 0.002
    #: query–reply pairs per simulated second (sets wall-clock timestamps).
    pair_rate: float = 6.0
    #: mean reply latency in seconds.
    reply_delay_mean: float = 2.5

    def __post_init__(self) -> None:
        if self.block_size < 1:
            raise ValueError("block_size must be >= 1")
        if self.n_neighbors < 2:
            raise ValueError("n_neighbors must be >= 2")
        check_positive("median_session_blocks", self.median_session_blocks)
        check_positive("session_sigma", self.session_sigma)
        check_probability("permanent_fraction", self.permanent_fraction)
        check_positive("path_lifetime_blocks", self.path_lifetime_blocks)
        check_positive("path_lifetime_sigma", self.path_lifetime_sigma)
        check_positive("anchor_age_cap_blocks", self.anchor_age_cap_blocks)
        check_probability("path_noise", self.path_noise)
        check_positive("activity_sigma", self.activity_sigma)
        if self.n_categories < 1:
            raise ValueError("n_categories must be >= 1")
        check_non_negative(
            "category_popularity_exponent", self.category_popularity_exponent
        )
        if not 1 <= self.interests_per_neighbor <= self.n_categories:
            raise ValueError("interests_per_neighbor out of range")
        check_probability("ephemeral_rate", self.ephemeral_rate)
        check_fraction("reply_rate", self.reply_rate)
        check_probability("duplicate_guid_rate", self.duplicate_guid_rate)
        check_positive("pair_rate", self.pair_rate)
        check_positive("reply_delay_mean", self.reply_delay_mean)

    @property
    def seconds_per_block(self) -> float:
        return self.block_size / self.pair_rate


@dataclass
class PairArrays:
    """Columnar query–reply pairs (the fast generation path)."""

    time: np.ndarray  # float64, seconds
    source: np.ndarray  # int64 neighbor ids
    replier: np.ndarray  # int64 neighbor ids
    category: np.ndarray  # int64
    host: np.ndarray  # int64 remote server ids

    def __post_init__(self) -> None:
        n = len(self.time)
        for name in ("source", "replier", "category", "host"):
            if len(getattr(self, name)) != n:
                raise ValueError("PairArrays columns must share one length")

    def __len__(self) -> int:
        return len(self.time)


#: pairs whose uniforms, stream offsets and masks ``generate_pair_arrays``
#: holds at once: every transient is O(_SUB_CHUNK), never O(n_pairs).
_SUB_CHUNK = 8192

#: remote server ids live in [_HOST_SPACE, 2 * _HOST_SPACE), above any
#: neighbor id.
_HOST_SPACE = 1 << 20


class _Neighbor:
    __slots__ = ("node_id", "joined_at", "leaves_at", "weight", "profile")

    def __init__(self, node_id, joined_at, leaves_at, weight, profile):
        self.node_id = node_id
        self.joined_at = joined_at
        self.leaves_at = leaves_at
        self.weight = weight
        self.profile = profile


class _Path:
    __slots__ = ("anchor", "expires_at")

    def __init__(self, anchor: _Neighbor, expires_at: float):
        self.anchor = anchor
        self.expires_at = expires_at


class MonitorTraceGenerator:
    """Stateful generator of the synthetic monitor-node trace."""

    def __init__(self, config: MonitorTraceConfig | None = None, *, seed=None) -> None:
        self.config = config or MonitorTraceConfig()
        self._rng = as_generator(seed)
        cfg = self.config
        self._sessions = LogNormalSessions(
            median=cfg.median_session_blocks * cfg.seconds_per_block,
            sigma=cfg.session_sigma,
        )
        self._interests = InterestModel(
            cfg.n_categories,
            popularity_exponent=cfg.category_popularity_exponent,
        )
        self._text = QueryTextModel()
        self._guids = GuidAllocator(
            duplicate_rate=cfg.duplicate_guid_rate, rng=spawn_child(self._rng)
        )
        self._now = 0.0
        self._next_node_id = 0
        self._next_host_id = _HOST_SPACE  # remote server ids, disjoint from neighbors
        self._neighbors: list[_Neighbor] = []
        self._departures: list[tuple[float, int]] = []  # (leaves_at, node_id) heap
        self._by_id: dict[int, _Neighbor] = {}
        self._paths: dict[int, _Path] = {}
        # Per-neighbor tables in ``_neighbors`` order, rebuilt lazily after
        # the population changes: cumulative activity weights (source
        # selection), node ids and join times (anchor selection).
        self._cum_weights: list[float] = []
        self._ids = np.empty(0, dtype=np.int64)
        self._joined_at = np.empty(0)
        self._tables_dirty = True
        # Per-pair uniforms come from a buffered child stream (profiling
        # showed scalar Generator.random() dominating generation time);
        # rare events (churn, path assignment) keep using self._rng.
        self._uniforms = UniformBuffer(spawn_child(self._rng))
        # Pre-built interest profiles reused by ephemeral sources (their
        # identity is unique per query, so profile reuse is unobservable
        # and keeps profile construction off the per-query hot path).
        self._ephemeral_profiles = [
            self._interests.sample_profile(
                self._rng, width=self.config.interests_per_neighbor
            )
            for _ in range(64)
        ]
        self._warmup()

    # ------------------------------------------------------------------
    # population maintenance
    # ------------------------------------------------------------------
    def _warmup(self) -> None:
        """Create the initial neighbor set with *in-progress* sessions.

        Each initial session is sampled and the monitor is assumed to have
        joined at a uniform point within it (stationary start), so the
        initial population already exhibits the length-biased age mix a
        long-running node would see.
        """
        cfg = self.config
        for _ in range(cfg.n_neighbors):
            if float(self._rng.random()) < cfg.permanent_fraction:
                # Always-on host: present since long before the capture
                # started and for its whole duration.
                elapsed = (
                    float(self._rng.random())
                    * cfg.median_session_blocks
                    * cfg.seconds_per_block
                )
                self._add_neighbor(joined_at=-elapsed, leaves_at=float("inf"))
                continue
            duration = self._sessions.sample(self._rng)
            elapsed = float(self._rng.random()) * duration
            self._add_neighbor(joined_at=-elapsed, leaves_at=duration - elapsed)

    def _add_neighbor(self, *, joined_at: float, leaves_at: float) -> _Neighbor:
        cfg = self.config
        node_id = self._next_node_id
        self._next_node_id += 1
        weight = float(
            np.exp(cfg.activity_sigma * self._rng.standard_normal())
        )
        profile = self._interests.sample_profile(
            self._rng, width=cfg.interests_per_neighbor
        )
        neighbor = _Neighbor(node_id, joined_at, leaves_at, weight, profile)
        self._neighbors.append(neighbor)
        self._by_id[node_id] = neighbor
        heapq.heappush(self._departures, (leaves_at, node_id))
        self._tables_dirty = True
        return neighbor

    def _process_departures(self) -> None:
        while self._departures and self._departures[0][0] <= self._now:
            _, node_id = heapq.heappop(self._departures)
            gone = self._by_id.pop(node_id, None)
            if gone is None:
                continue
            self._neighbors.remove(gone)
            self._tables_dirty = True
            # Constant-degree policy: the monitor immediately replaces a
            # departed connection with a fresh neighbor.
            duration = self._sessions.sample(self._rng)
            self._add_neighbor(joined_at=self._now, leaves_at=self._now + duration)

    def _rebuild_tables(self) -> None:
        acc = 0.0
        cum = []
        for nb in self._neighbors:
            acc += nb.weight
            cum.append(acc)
        self._cum_weights = cum
        self._ids = np.array([nb.node_id for nb in self._neighbors], dtype=np.int64)
        self._joined_at = np.array([nb.joined_at for nb in self._neighbors])
        self._tables_dirty = False

    def _pick_source(self) -> _Neighbor:
        if self.config.ephemeral_rate > 0.0 and (
            self._uniforms.next() < self.config.ephemeral_rate
        ):
            return self._make_ephemeral_source()
        if self._tables_dirty:
            self._rebuild_tables()
        total = self._cum_weights[-1]
        u = self._uniforms.next() * total
        idx = bisect_right(self._cum_weights, u)
        if idx >= len(self._neighbors):  # floating-point edge
            idx = len(self._neighbors) - 1
        return self._neighbors[idx]

    def _make_ephemeral_source(self) -> _Neighbor:
        """A one-shot source: unique id, never joins the neighbor set."""
        node_id = self._next_node_id
        self._next_node_id += 1
        profile = self._ephemeral_profiles[
            self._uniforms.next_index(len(self._ephemeral_profiles))
        ]
        return _Neighbor(node_id, self._now, self._now, 0.0, profile)

    # ------------------------------------------------------------------
    # reply paths
    # ------------------------------------------------------------------
    def _path_for(self, category: int) -> _Neighbor:
        path = self._paths.get(category)
        if (
            path is None
            or path.expires_at <= self._now
            or path.anchor.node_id not in self._by_id
        ):
            path = self._assign_path(category)
        return path.anchor

    def _assign_path(self, category: int) -> _Path:
        cfg = self.config
        previous = self._paths.get(category)
        # Anchor selection ∝ min(session age, cap)^gamma: paths go through
        # stable, long-lived neighbors, but no single immortal neighbor
        # monopolizes every category.  The previous anchor is excluded so a
        # path-lifetime expiry genuinely moves the path (content migrates /
        # a better route appears), which is what ages rule consequents.
        if self._tables_dirty:
            self._rebuild_tables()
        age_cap = cfg.anchor_age_cap_blocks * cfg.seconds_per_block
        ages = np.minimum(np.maximum(self._now - self._joined_at, 1.0), age_cap)
        if previous is not None:
            ages[self._ids == previous.anchor.node_id] = 0.0
        total = ages.sum()
        if total <= 0.0:  # only the previous anchor is available
            idx = int(self._rng.integers(0, len(self._neighbors)))
        else:
            weights = ages ** cfg.anchor_age_exponent
            probs = weights / weights.sum()
            idx = int(self._rng.choice(len(self._neighbors), p=probs))
        anchor = self._neighbors[idx]
        lifetime_blocks = cfg.path_lifetime_blocks * float(
            np.exp(cfg.path_lifetime_sigma * self._rng.standard_normal())
        )
        lifetime = lifetime_blocks * cfg.seconds_per_block
        path = _Path(anchor, self._now + lifetime)
        self._paths[category] = path
        return path

    # ------------------------------------------------------------------
    # generation
    # ------------------------------------------------------------------
    def generate_pair_arrays(self, n_pairs: int) -> PairArrays:
        """Generate ``n_pairs`` query–reply pairs as columnar arrays.

        Continues from the generator's current simulated time, so repeated
        calls produce one seamless trace.  The inter-pair gaps of a whole
        call are drawn first, so a trace generated in several calls differs
        from one generated in a single call (callers that cache traces key
        on the call sizes).
        """
        if n_pairs < 0:
            raise ValueError("n_pairs must be non-negative")
        # The gaps become the timestamps in place: add.accumulate is the
        # sequential now += gap of a per-pair loop, rounding for rounding.
        times = self._rng.exponential(1.0 / self.config.pair_rate, size=n_pairs)
        sources = np.empty(n_pairs, dtype=np.int64)
        repliers = np.empty(n_pairs, dtype=np.int64)
        categories = np.empty(n_pairs, dtype=np.int64)
        hosts = np.empty(n_pairs, dtype=np.int64)
        for lo in range(0, n_pairs, _SUB_CHUNK):
            hi = lo + _SUB_CHUNK
            t = times[lo:hi]
            t[0] += self._now
            np.cumsum(t, out=t)
            self._fill_pairs(t, sources[lo:hi], repliers[lo:hi], categories[lo:hi])
            self._now = t[-1]
            # _host_behind, column-wise and without temporaries
            host = hosts[lo:hi]
            np.multiply(repliers[lo:hi], 1009, out=host)
            host += categories[lo:hi]
            host %= _HOST_SPACE
            host += self._next_host_id
        return PairArrays(
            time=times,
            source=sources,
            replier=repliers,
            category=categories,
            host=hosts,
        )

    def _fill_pairs(self, t, source, replier, category) -> None:
        """Sources, repliers and categories of the pairs timestamped ``t``.

        Between two departures the neighbor set is constant, so a whole
        segment's sources are one ``searchsorted`` over the cumulative
        activity weights (``bisect_right``, vectorised) and its ephemeral
        ids one ``arange``.
        """
        m = len(t)
        is_eph, u_source, u_category, anchored, u_alternate = self._pair_draws(m)
        a = 0
        while a < m:
            self._now = t[a]
            self._process_departures()
            b = a + int(np.searchsorted(t[a:], self._departures[0][0], side="left"))
            seg = slice(a, b)
            if self._tables_dirty:
                self._rebuild_tables()
            ids = self._ids
            cum = np.array(self._cum_weights)
            rows = np.searchsorted(cum, u_source[seg] * cum[-1], side="right")
            np.minimum(rows, len(ids) - 1, out=rows)  # floating-point edge
            np.take(ids, rows, out=source[seg])
            if is_eph is not None:
                # One-shot sources: fresh ids in pair order, and a row of
                # the profile tables past the neighbors' rows.
                eph = np.flatnonzero(is_eph[seg])
                first = self._next_node_id
                self._next_node_id += len(eph)
                source[seg][eph] = np.arange(first, self._next_node_id)
                picks = u_source[seg][eph] * len(self._ephemeral_profiles)
                rows[eph] = len(ids) + picks.astype(np.intp)
            self._settle_segment(
                t[seg],
                rows,
                u_category[seg],
                None if anchored is None else anchored[seg],
                category[seg],
                replier[seg],
            )
            if anchored is not None:
                # Transient alternate routes: a uniformly random neighbor.
                noisy = np.flatnonzero(~anchored[seg])
                picks = u_alternate[seg][noisy] * len(ids)
                replier[seg][noisy] = ids[picks.astype(np.intp)]
            a = b

    def _pair_draws(self, m: int):
        """The uniform draws of the next ``m`` pairs, one array per role.

        Every pair takes its draws in the order the scalar helpers take
        them — [ephemeral test,] source, category [, noise test] — plus
        one more when the noise test hits, so where a pair's draws sit in
        the stream depends on the hits before it.  One sequential pass
        over the hit flags finds every offset; the rest is gathers.
        """
        cfg = self.config
        has_eph = cfg.ephemeral_rate > 0.0
        has_noise = cfg.path_noise > 0.0
        stride = has_eph + 2 + has_noise
        u = self._uniforms.peek(m * (stride + has_noise))
        if has_noise:
            hit = (u < cfg.path_noise).tolist()
            offsets = [0] * m
            consumed = 0
            test = stride - 1
            for i in range(m):
                offsets[i] = consumed
                consumed += stride + hit[consumed + test]
            off = np.array(offsets, dtype=np.intp)
            anchored = u[off + test] >= cfg.path_noise
            u_alternate = u[off + stride]  # drawn only where not anchored
        else:
            off = np.arange(0, m * stride, stride, dtype=np.intp)
            consumed = m * stride
            anchored = u_alternate = None
        is_eph = u[off] < cfg.ephemeral_rate if has_eph else None
        u_source = u[off + has_eph]
        u_category = u[off + has_eph + 1]
        self._uniforms.advance(consumed)
        return is_eph, u_source, u_category, anchored, u_alternate

    def _settle_segment(self, t, rows, u_category, anchored, category, replier) -> None:
        """Categories and anchored repliers of one departure-free segment.

        Within the segment profiles are constant and the category ->
        anchor table only changes at a lazy reply-path reassignment.  Find
        the earliest pair at which one is due, settle the pairs before
        it, apply that one reassignment through :meth:`_assign_path` (so
        ``self._rng`` is drawn from exactly as a per-pair loop would), and
        go on from the pair after it.
        """
        cfg = self.config
        profiles = [nb.profile for nb in self._neighbors] + self._ephemeral_profiles
        prof_cats = np.array([p.categories for p in profiles])
        prof_cum = np.array([p.weights for p in profiles]).cumsum(axis=1)
        # InterestProfile.category_for_uniform, row-wise
        slot = (u_category[:, None] >= prof_cum[rows]).sum(axis=1)
        np.minimum(slot, prof_cats.shape[1] - 1, out=slot)
        category[:] = prof_cats[rows, slot]
        # A category without a live path is due from the start.
        expires = np.full(cfg.n_categories, -np.inf)
        anchor_of = np.full(cfg.n_categories, -1, dtype=np.int64)
        for cat, path in self._paths.items():
            if path.anchor.node_id in self._by_id:
                expires[cat] = path.expires_at
                anchor_of[cat] = path.anchor.node_id
        n = len(t)
        settled = 0
        while True:
            due = t[settled:] >= expires[category[settled:]]
            if anchored is not None:
                due &= anchored[settled:]
            due = np.flatnonzero(due)
            event = settled + int(due[0]) if len(due) else n
            np.take(anchor_of, category[settled:event], out=replier[settled:event])
            if event == n:
                return
            self._now = t[event]
            cat = int(category[event])
            path = self._assign_path(cat)
            expires[cat] = path.expires_at
            anchor_of[cat] = path.anchor.node_id
            replier[event] = anchor_of[cat]
            settled = event + 1

    def _reply_neighbor(self, category: int) -> _Neighbor:
        """The neighbor a reply for ``category`` arrives through.

        Usually the category's anchored path; with probability
        ``path_noise`` a uniformly random active neighbor (transient
        alternate route).
        """
        if self.config.path_noise > 0.0 and self._uniforms.next() < self.config.path_noise:
            return self._neighbors[self._uniforms.next_index(len(self._neighbors))]
        return self._path_for(category)

    def _host_behind(self, replier: _Neighbor, category: int) -> int:
        """Synthetic id of the remote server reached through ``replier``.

        Deterministic per (replier, category) so repeated hits for one
        interest resolve to the same remote host, as interest-based
        locality predicts.
        """
        return self._next_host_id + (replier.node_id * 1009 + category) % _HOST_SPACE

    def iter_events(
        self, n_pairs: int
    ) -> Iterator[tuple[QueryRecord, ReplyRecord | None]]:
        """Full-fidelity stream: queries (some unreplied) and replies.

        Yields ``(query, reply_or_None)`` tuples until ``n_pairs`` replied
        queries have been produced.  Unreplied queries are interleaved at
        the configured ``reply_rate``; GUIDs include buggy duplicates.
        """
        if n_pairs < 0:
            raise ValueError("n_pairs must be non-negative")
        cfg = self.config
        query_rate = cfg.pair_rate / cfg.reply_rate
        mean_gap = 1.0 / query_rate
        produced = 0
        while produced < n_pairs:
            self._now += float(self._rng.exponential(mean_gap))
            self._process_departures()
            source = self._pick_source()
            category = source.profile.category_for_uniform(self._uniforms.next())
            file_rank = self._uniforms.next_index(100_000)
            query = QueryRecord(
                time=self._now,
                guid=self._guids.next(),
                source=source.node_id,
                query_string=self._text.render(self._rng, category, file_rank),
            )
            if float(self._rng.random()) < cfg.reply_rate:
                replier = self._reply_neighbor(category)
                delay = float(self._rng.exponential(cfg.reply_delay_mean))
                reply = ReplyRecord(
                    time=self._now + delay,
                    guid=query.guid,
                    replier=replier.node_id,
                    host=self._host_behind(replier, category),
                    file_name=f"cat{category:03d}/file{file_rank:05d}.dat",
                )
                produced += 1
                yield query, reply
            else:
                yield query, None

    # ------------------------------------------------------------------
    # introspection (used by tests and examples)
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        return self._now

    @property
    def active_neighbor_ids(self) -> list[int]:
        return [nb.node_id for nb in self._neighbors]

    @property
    def guid_allocator(self) -> GuidAllocator:
        return self._guids
