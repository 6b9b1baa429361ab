"""The query stream of the two-tier simulators, pinned draw for draw.

``run_workload`` draws each query's leaf, category and file off the
network's generator with its methods bound once; the stream it issues
must be exactly what the per-query sampling calls make on a generator in
the same state: ``int(rng.integers(0, n_leaves))``, then
``profile.sample_category(rng)``, then ``catalog.sample_file(rng,
category)``.  Warm-up queries are issued like any other, so the whole
``warmup + n`` sequence is compared.
"""

import numpy as np
import pytest

from repro.network.hier.network import HIER_MODES, HierConfig, HierNetwork
from repro.network.superpeer import SuperPeerConfig, SuperPeerNetwork

SUBSTRATE = dict(
    n_superpeers=10,
    leaves_per_superpeer=5,
    superpeer_degree=3,
    n_categories=8,
    files_per_category=30,
    library_size=12,
)


def reference_stream(net, n: int) -> list[tuple[int, int]]:
    """The (leaf, file) pairs the per-query calls draw from a copy of
    ``net``'s generator in its current state."""
    rng = np.random.Generator(type(net._rng.bit_generator)())
    rng.bit_generator.state = net._rng.bit_generator.state
    stream = []
    for _ in range(n):
        leaf = int(rng.integers(0, net.config.n_leaves))
        category = net._leaf_profile[leaf].sample_category(rng)
        stream.append((leaf, net.catalog.sample_file(rng, category)))
    return stream


def issued_stream(net, n: int, warmup: int) -> list[tuple[int, int]]:
    issued = []
    query = net.query

    def recording(leaf, file_id):
        issued.append((leaf, file_id))
        return query(leaf, file_id)

    net.query = recording  # run_workload binds self.query once per call
    try:
        stats = net.run_workload(n, warmup=warmup)
    finally:
        del net.query
    assert stats.n_queries == n
    return issued


def make(kind: str, seed: int) -> SuperPeerNetwork:
    if kind == "superpeer":
        return SuperPeerNetwork(SuperPeerConfig(**SUBSTRATE), seed=seed)
    return HierNetwork(HierConfig(mode=kind, **SUBSTRATE), seed=seed)


@pytest.mark.parametrize("kind", ["superpeer", *HIER_MODES])
@pytest.mark.parametrize("seed", [0, 11, 2006])
def test_run_workload_issues_the_per_query_draws(kind, seed):
    net = make(kind, seed)
    expected = reference_stream(net, 250)
    issued = issued_stream(net, 200, warmup=50)
    assert issued == expected
    assert all(type(leaf) is int and type(f) is int for leaf, f in issued)


def test_consecutive_calls_continue_the_stream():
    """Two calls draw what one call of their total length draws."""
    one, two = make("hybrid", 5), make("hybrid", 5)
    expected = reference_stream(one, 120)
    assert issued_stream(one, 120, warmup=0) == expected
    first = issued_stream(two, 70, warmup=10)
    assert first + issued_stream(two, 40, warmup=0) == expected
