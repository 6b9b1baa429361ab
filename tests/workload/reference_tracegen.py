"""The per-pair loop ``generate_pair_arrays`` used to be, kept as the oracle.

``MonitorTraceGenerator.generate_pair_arrays`` is event-segmented array
code; this is the loop it replaced, one pair at a time.  The two must
produce the same five columns bit for bit and leave the generator in the
same state, so the differential tests run both on twin generators (same
config, same seed) and compare.

The loop does not call the generator's event helpers.  It runs its own
copies of them, as they stood before the neighbor table was spliced in
place (:class:`PerPairLoop`): per-neighbor Python lists made into arrays
again after each population change, the anchor drawn by
``Generator.choice`` and the reply path looked up one pair at a time.  So
the twin tests see a change to the generator's departures, source pick
or path assignment, not only the golden digests.  Only what those
helpers share with the full-fidelity path is borrowed: the random
streams, the departure heap, the path table, ``_add_neighbor`` and
``_make_ephemeral_source``.
"""

import heapq
from bisect import bisect_right

import numpy as np

from repro.workload.tracegen import MonitorTraceGenerator, PairArrays


class PerPairLoop:
    """The scalar event helpers over a list of neighbors in join order.

    Made from the generator's neighbor table, and written back into it by
    :meth:`write_back`, so the generator continues from where the loop
    left it.
    """

    def __init__(self, gen: MonitorTraceGenerator) -> None:
        self.gen = gen
        self.neighbors = [gen._by_id[node_id] for node_id in gen._ids.tolist()]
        self.dirty = True

    def rebuild(self) -> None:
        self.cum_weights = np.cumsum([nb.weight for nb in self.neighbors]).tolist()
        self.ids = np.array([nb.node_id for nb in self.neighbors], dtype=np.int64)
        self.joined_at = np.array([nb.joined_at for nb in self.neighbors])
        self.dirty = False

    def process_departures(self) -> None:
        gen = self.gen
        while gen._departures and gen._departures[0][0] <= gen._now:
            _, node_id = heapq.heappop(gen._departures)
            gone = gen._by_id.pop(node_id, None)
            if gone is None:
                continue
            del self.neighbors[self.neighbors.index(gone)]
            self.dirty = True
            gen._path_expires[gen._path_anchor == node_id] = -np.inf
            duration = gen._sessions.sample(gen._rng)
            self.neighbors.append(
                gen._add_neighbor(joined_at=gen._now, leaves_at=gen._now + duration)
            )

    def pick_source(self):
        gen = self.gen
        if gen.config.ephemeral_rate > 0.0 and (
            gen._uniforms.next() < gen.config.ephemeral_rate
        ):
            return gen._make_ephemeral_source()
        if self.dirty:
            self.rebuild()
        total = self.cum_weights[-1]
        idx = bisect_right(self.cum_weights, gen._uniforms.next() * total)
        if idx >= len(self.neighbors):  # floating-point edge
            idx = len(self.neighbors) - 1
        return self.neighbors[idx]

    def reply_neighbor(self, category: int):
        """The record's tail: with ``path_noise`` above zero the noise test
        and the alternate index are both drawn, and the index is used only
        on a hit."""
        gen = self.gen
        if gen.config.path_noise > 0.0:
            hit = gen._uniforms.next() < gen.config.path_noise
            alternate = self.neighbors[gen._uniforms.next_index(len(self.neighbors))]
            if hit:
                return alternate
        return self.path_for(category)

    def path_for(self, category: int):
        gen = self.gen
        if gen._path_expires[category] <= gen._now:
            return self.assign_path(category)
        return gen._by_id[int(gen._path_anchor[category])]

    def anchor_probabilities(self, category: int) -> np.ndarray:
        """What ``assign_path`` hands ``Generator.choice`` now."""
        gen = self.gen
        cfg = gen.config
        if self.dirty:
            self.rebuild()
        age_cap = cfg.anchor_age_cap_blocks * cfg.seconds_per_block
        ages = np.minimum(np.maximum(gen._now - self.joined_at, 1.0), age_cap)
        ages[self.ids == gen._path_anchor[category]] = 0.0
        weights = ages**cfg.anchor_age_exponent
        return weights / weights.sum()

    def assign_path(self, category: int):
        gen = self.gen
        cfg = gen.config
        probs = self.anchor_probabilities(category)
        anchor = self.neighbors[int(gen._rng.choice(len(self.neighbors), p=probs))]
        lifetime_blocks = cfg.path_lifetime_blocks * float(
            np.exp(cfg.path_lifetime_sigma * gen._rng.standard_normal())
        )
        lifetime = lifetime_blocks * cfg.seconds_per_block
        gen._path_anchor[category] = anchor.node_id
        gen._path_expires[category] = gen._now + lifetime
        return anchor

    def write_back(self) -> None:
        """Hand the loop's neighbor lists back to the generator's table."""
        gen = self.gen
        gen._ids[:] = [nb.node_id for nb in self.neighbors]
        gen._joined_at[:] = [nb.joined_at for nb in self.neighbors]
        gen._activity[:] = [nb.weight for nb in self.neighbors]
        gen._cum[:] = np.cumsum(gen._activity)
        flat = [cat for nb in self.neighbors for cat in nb.profile.categories]
        gen._cats[: len(flat)] = flat


def reference_generate_pair_arrays(gen: MonitorTraceGenerator, n_pairs: int) -> PairArrays:
    """Advance ``gen`` by ``n_pairs`` pairs, one Python iteration each."""
    if n_pairs < 0:
        raise ValueError("n_pairs must be non-negative")
    times = np.empty(n_pairs)
    sources = np.empty(n_pairs, dtype=np.int64)
    repliers = np.empty(n_pairs, dtype=np.int64)
    categories = np.empty(n_pairs, dtype=np.int64)
    hosts = np.empty(n_pairs, dtype=np.int64)
    gaps = gen._rng.exponential(1.0 / gen.config.pair_rate, size=n_pairs)
    loop = PerPairLoop(gen)
    for i in range(n_pairs):
        gen._now += gaps[i]
        loop.process_departures()
        source = loop.pick_source()
        category = source.profile.category_for_uniform(gen._uniforms.next())
        replier = loop.reply_neighbor(category)
        times[i] = gen._now
        sources[i] = source.node_id
        repliers[i] = replier.node_id
        categories[i] = category
        hosts[i] = gen._host_behind(replier, category)
    loop.write_back()
    return PairArrays(
        time=times, source=sources, replier=repliers, category=categories, host=hosts
    )
