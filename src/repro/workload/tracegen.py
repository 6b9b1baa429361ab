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
  strings or GUIDs, streamed straight into :class:`repro.trace.blocks.PairBlock`
  partitioning.  This is what the experiments use.  Its Python steps
  scale with events, not pairs.  Between two state-changing events — a
  neighbor departure or a lazy reply-path reassignment — the neighbor
  set, the cumulative activity weights, the profiles and the category ->
  anchor table are constants, so a whole segment of pairs is a handful
  of searches and gathers over tables the events keep current, and only
  the events themselves (a few dozen per 10,000 pairs) run the scalar
  helpers.  Every pair takes one fixed record of uniforms, so a
  sub-chunk's draws are the columns of one view of the stream.  The
  per-pair loop it replaced lives on in
  ``tests/workload/reference_tracegen.py`` as the oracle the array code
  must match bit for bit (docs/performance.md, "Trace generation").
* :meth:`MonitorTraceGenerator.iter_events` — the full-fidelity path:
  :class:`~repro.trace.records.QueryRecord` / ``ReplyRecord`` streams with
  query strings, GUIDs (including buggy duplicates) and unreplied queries,
  for exercising the complete store/dedup/join pipeline.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Iterator, NamedTuple

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
from repro.workload.interests import InterestModel, InterestProfile
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
        check_non_negative("anchor_age_exponent", self.anchor_age_exponent)
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


#: the version of what ``generate_pair_arrays`` emits for a given config,
#: seed and call sizes.  The trace cache stamps it into every file it
#: names (:func:`repro.trace.cache.trace_fingerprint`), so bump it with
#: any change that moves those bytes — a pair's record of uniforms, the
#: order of the draws of either stream, or an event helper's arithmetic
#: — and an earlier layout's cached trace is never served as current.
#: 2: the alternate index is drawn whether the noise test hits or not.
TRACE_LAYOUT = 2

#: pairs whose uniforms and masks ``generate_pair_arrays``
#: holds at once: every transient is O(_SUB_CHUNK), never O(n_pairs).
_SUB_CHUNK = 8192

#: remote server ids live in [_HOST_SPACE, 2 * _HOST_SPACE), above any
#: neighbor id.
_HOST_SPACE = 1 << 20


class _Neighbor(NamedTuple):
    node_id: int
    joined_at: float
    weight: float
    profile: InterestProfile


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
        self._departures: list[tuple[float, int]] = []  # (leaves_at, node_id) heap
        # The neighbors in join order: ids are never reused and only grow,
        # so this order is also ascending id.
        self._by_id: dict[int, _Neighbor] = {}
        # The reply path of each category: its anchor's node id (-1 before
        # the first assignment) and when it expires (-inf when it must be
        # reassigned at the next lookup, as after its anchor departs).
        self._path_anchor = np.full(cfg.n_categories, -1, dtype=np.int64)
        self._path_expires = np.full(cfg.n_categories, -np.inf)
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
        self._build_table()

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
        neighbor = _Neighbor(node_id, joined_at, weight, profile)
        self._by_id[node_id] = neighbor
        heapq.heappush(self._departures, (leaves_at, node_id))
        return neighbor

    def _build_table(self) -> None:
        """The neighbor table, a row per neighbor in join order: ids, join
        times (anchor selection), activity weights and their running sums
        (source selection), and ``width`` profile categories, with the
        ephemeral profiles' rows after the neighbors'.  Departures splice it."""
        neighbors = list(self._by_id.values())
        profiles = [nb.profile for nb in neighbors] + self._ephemeral_profiles
        # InterestModel hands every profile of one width the same weight
        # tuple, so a pair's category is one search of one cumulative row
        # (InterestProfile.category_for_uniform, whatever the profile).
        weights = profiles[0].weights
        if any(p.weights != weights for p in profiles):
            raise RuntimeError("interest profiles must share one weight tuple")
        self._width = len(weights)
        self._profile_cum = np.cumsum(weights)
        self._ids = np.array([nb.node_id for nb in neighbors], dtype=np.int64)
        self._joined_at = np.array([nb.joined_at for nb in neighbors])
        self._activity = np.array([nb.weight for nb in neighbors])
        self._cum = np.cumsum(self._activity)
        self._cats = np.array(
            [cat for p in profiles for cat in p.categories], dtype=np.int64
        )

    def _process_departures(self) -> None:
        """Replace each neighbor whose session has ended by ``self._now``.

        Constant degree: a departure deletes its row and appends the
        newcomer's, and the running weights are summed again in row order
        (np.cumsum adds in order: the bits of a running ``acc += weight``).
        Ids are never reused, each neighbor is pushed once and only this
        method pops ``_by_id``: a departing id is always there
        (docs/reach.md, "The cut").
        """
        departures = self._departures
        ids, width = self._ids, self._width
        last = len(ids) - 1
        while departures[0][0] <= self._now:
            _, node_id = heapq.heappop(departures)
            del self._by_id[node_id]
            i = int(ids.searchsorted(node_id))
            # The paths it anchored are due at their next lookup.
            self._path_expires[self._path_anchor == node_id] = -np.inf
            duration = self._sessions.sample(self._rng)
            new = self._add_neighbor(joined_at=self._now, leaves_at=self._now + duration)
            # new[:3] is the newcomer's id, join time and weight
            for column, value in zip((ids, self._joined_at, self._activity), new[:3]):
                column[i:last] = column[i + 1 :]
                column[last] = value
            cats = self._cats
            cats[i * width : last * width] = cats[(i + 1) * width : (last + 1) * width]
            cats[last * width : (last + 1) * width] = new.profile.categories
            self._activity.cumsum(out=self._cum)

    def _pick_source(self) -> _Neighbor:
        if self.config.ephemeral_rate > 0.0 and (
            self._uniforms.next() < self.config.ephemeral_rate
        ):
            return self._make_ephemeral_source()
        cum = self._cum
        row = int(cum.searchsorted(self._uniforms.next() * cum[-1], side="right"))
        return self._by_id[int(self._ids[min(row, len(cum) - 1)])]  # float edge

    def _make_ephemeral_source(self) -> _Neighbor:
        """A one-shot source: unique id, never joins the neighbor set."""
        node_id = self._next_node_id
        self._next_node_id += 1
        profile = self._ephemeral_profiles[
            self._uniforms.next_index(len(self._ephemeral_profiles))
        ]
        return _Neighbor(node_id, self._now, 0.0, profile)

    # ------------------------------------------------------------------
    # reply paths
    # ------------------------------------------------------------------
    def _assign_path(self, category: int) -> int:
        """Give ``category`` a new reply path; returns its anchor's id."""
        cfg = self.config
        # Anchor selection ∝ min(session age, cap)^gamma: paths go through
        # stable, long-lived neighbors, but no single immortal neighbor
        # monopolizes every category.  The previous anchor is excluded so a
        # path-lifetime expiry genuinely moves the path (content migrates /
        # a better route appears), which is what ages rule consequents.
        ages = self._now - self._joined_at
        np.maximum(ages, 1.0, out=ages)
        np.minimum(ages, cfg.anchor_age_cap_blocks * cfg.seconds_per_block, out=ages)
        previous = self._by_id.get(int(self._path_anchor[category]))
        if previous is not None:
            ages[self._ids.searchsorted(previous.node_id)] = 0.0
        # Every other age is at least min(1, cap) > 0, there are two or
        # more neighbors and the exponent is not negative, so the weights
        # sum to more than zero.
        weights = ages
        if cfg.anchor_age_exponent != 1.0:  # x ** 1.0 is x exactly
            weights = ages**cfg.anchor_age_exponent
        # the row Generator.choice draws for p = weights / weights.sum(),
        # draw for draw, without its checks of p
        cdf = (weights / weights.sum()).cumsum()
        cdf /= cdf[-1]
        row = int(cdf.searchsorted(self._rng.random(), side="right"))
        lifetime_blocks = cfg.path_lifetime_blocks * float(
            np.exp(cfg.path_lifetime_sigma * self._rng.standard_normal())
        )
        lifetime = lifetime_blocks * cfg.seconds_per_block
        anchor = int(self._ids[row])
        self._path_anchor[category] = anchor
        self._path_expires[category] = self._now + lifetime
        return anchor

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
            # _host_behind, column-wise, no temporaries (& is % on ids >= 0)
            host = hosts[lo:hi]
            np.multiply(repliers[lo:hi], 1009, out=host)
            host += categories[lo:hi]
            host &= _HOST_SPACE - 1
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
        segment's sources are one ``searchsorted`` over the running
        activity weights (``bisect_right``, vectorised) and its
        categories one gather from the flat profile-category table.
        What does not depend on the neighbor set — each pair's slot in its
        profile, which pairs have one-shot sources and which replies take
        an alternate route — is found once for all the pairs, and one-shot
        ids and alternate repliers are written after the last segment:
        with constant degree every segment's table has ``n`` rows.
        """
        m = len(t)
        is_eph, u_source, u_category, anchored, u_alternate = self._pair_draws(m)
        n, width = len(self._ids), self._width
        # InterestProfile.category_for_uniform over the one shared weight
        # row: the running weights before the last that the draw reaches
        slot = np.zeros(m, dtype=np.intp)
        for edge in self._profile_cum[:-1].tolist():
            slot += u_category >= edge
        if is_eph is not None:
            # One-shot sources: a zero needle lands on row 0, and the slot
            # moves it to its ephemeral profile's row past the neighbors'.
            eph = is_eph.nonzero()[0]
            eph_rows = (u_source[eph] * len(self._ephemeral_profiles)).astype(np.intp)
            slot[eph] += (eph_rows + n) * width
            u_source[eph] = 0.0
            first_ids = []
        due_at = t
        if anchored is not None:
            # Transient alternate routes: a uniformly random neighbor.
            noisy = (~anchored).nonzero()[0]
            due_at = t.copy()
            due_at[noisy] = np.nan
            tables = []
        starts = []
        a = 0
        while a < m:
            self._now = t[a]
            self._process_departures()
            b = a + int(t[a:].searchsorted(self._departures[0][0]))
            ids = self._ids
            cum = self._cum
            rows = cum.searchsorted(u_source[a:b] * cum[-1], side="right")
            np.minimum(rows, n - 1, out=rows)  # floating-point edge
            ids.take(rows, out=source[a:b])
            rows *= width
            rows += slot[a:b]
            self._cats.take(rows, out=category[a:b])
            self._settle_segment(t[a:b], due_at[a:b], category[a:b], replier[a:b])
            starts.append(a)
            if is_eph is not None:
                # the next departure numbers its newcomer after these
                first_ids.append(self._next_node_id)
                self._next_node_id += int(np.count_nonzero(is_eph[a:b]))
            if anchored is not None:
                tables.append(ids.copy())
            a = b
        if is_eph is not None:
            segment = np.searchsorted(starts, eph, side="right") - 1
            first_ids = np.array(first_ids) - eph.searchsorted(starts)
            source[eph] = first_ids[segment] + np.arange(len(eph))
        if anchored is not None:
            segment = np.searchsorted(starts, noisy, side="right") - 1
            picks = (u_alternate[noisy] * n).astype(np.intp)
            replier[noisy] = np.concatenate(tables)[segment * n + picks]

    def _pair_draws(self, m: int):
        """The uniform draws of the next ``m`` pairs, one array per role.

        Every pair takes one fixed record, in the order the scalar helpers
        take it — [ephemeral test,] source, category[, noise test,
        alternate index] — the alternate drawn whether the test hits or
        not, so the ``m`` records are the columns of one ``m × stride``
        view of the stream.
        """
        cfg = self.config
        has_eph = int(cfg.ephemeral_rate > 0.0)  # a bool would index as a mask
        has_noise = cfg.path_noise > 0.0
        stride = has_eph + 2 + 2 * has_noise
        u = self._uniforms.peek(m * stride).reshape(m, stride)
        self._uniforms.advance(m * stride)
        is_eph = u[:, 0] < cfg.ephemeral_rate if has_eph else None
        u_source = u[:, has_eph].copy()  # _fill_pairs zeroes the one-shot ones
        u_category = u[:, has_eph + 1]
        anchored = u_alternate = None
        if has_noise:
            anchored = u[:, stride - 2] >= cfg.path_noise
            u_alternate = u[:, stride - 1]
        return is_eph, u_source, u_category, anchored, u_alternate

    def _settle_segment(self, t, due_at, category, replier) -> None:
        """Anchored repliers of one departure-free segment.

        Within the segment the category -> anchor table only changes at a
        lazy reply-path reassignment, which pushes only its own category's
        expiry later, so no pair becomes due in it.  The pairs due at its
        start are walked in order and checked again; one still due settles
        the pairs before it and is reassigned through :meth:`_assign_path`
        (``self._rng`` drawn from as a per-pair loop would).  ``due_at`` is
        ``t`` with NaN, never due, where the reply takes an alternate route.
        """
        expires = self._path_expires
        anchor_of = self._path_anchor
        due = (due_at >= expires[category]).nonzero()[0]
        settled = 0
        for event, when, cat in zip(
            due.tolist(), due_at[due].tolist(), category[due].tolist()
        ):
            if when >= expires[cat]:
                anchor_of.take(category[settled:event], out=replier[settled:event])
                self._now = t[event]
                replier[event] = self._assign_path(cat)
                settled = event + 1
        anchor_of.take(category[settled:], out=replier[settled:])

    def _reply_neighbor(self, category: int) -> _Neighbor:
        """The neighbor a reply for ``category`` arrives through.

        Usually the category's anchored path; with probability
        ``path_noise`` a uniformly random active neighbor (transient
        alternate route).  The noise test and the alternate index are
        both drawn whenever ``path_noise`` is above zero, so a pair's
        record has one length (:meth:`_pair_draws`).
        """
        if self.config.path_noise > 0.0:
            hit = self._uniforms.next() < self.config.path_noise
            row = self._uniforms.next_index(len(self._ids))  # drawn on a miss too
            if hit:
                return self._by_id[int(self._ids[row])]
        if self._path_expires[category] <= self._now:
            self._assign_path(category)
        return self._by_id[int(self._path_anchor[category])]

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
        return self._ids.tolist()

    @property
    def guid_allocator(self) -> GuidAllocator:
        return self._guids
