"""The per-pair loop ``generate_pair_arrays`` used to be, kept as the oracle.

``MonitorTraceGenerator.generate_pair_arrays`` is event-segmented array
code; this is the loop it replaced, one pair at a time through the scalar
helpers ``iter_events`` still uses.  The two must produce the same five
columns bit for bit and leave the generator in the same state, so the
differential tests run both on twin generators (same config, same seed)
and compare.
"""

import numpy as np

from repro.workload.tracegen import MonitorTraceGenerator, PairArrays


def reference_offsets(u, m: int, stride: int, noise: float):
    """The sequential offset pass ``tracegen._draw_offsets`` replaced.

    Pair ``i`` starts at ``offsets[i]`` in ``u``, takes ``stride`` draws
    (the last its noise test) and one more when the test hits.
    """
    hit = (np.asarray(u) < noise).tolist()
    offsets = [0] * m
    consumed = 0
    test = stride - 1
    for i in range(m):
        offsets[i] = consumed
        consumed += stride + hit[consumed + test]
    return np.array(offsets, dtype=np.intp), consumed


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
    for i in range(n_pairs):
        gen._now += gaps[i]
        gen._process_departures()
        source = gen._pick_source()
        category = source.profile.category_for_uniform(gen._uniforms.next())
        replier = gen._reply_neighbor(category)
        times[i] = gen._now
        sources[i] = source.node_id
        repliers[i] = replier.node_id
        categories[i] = category
        hosts[i] = gen._host_behind(replier, category)
    return PairArrays(
        time=times, source=sources, replier=repliers, category=categories, host=hosts
    )
