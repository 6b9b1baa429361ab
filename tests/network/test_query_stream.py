"""The query stream of the two-tier simulators, pinned draw for draw.

``run_workload`` draws each query's leaf, category and file off the
network's generator with its methods bound once; the stream it issues
must be exactly what the per-query sampling calls make on a generator in
the same state: ``int(rng.integers(0, n_leaves))``, then
``profile.sample_category(rng)``, then ``catalog.sample_file(rng,
category)``.  Warm-up queries are issued like any other, so the whole
``warmup + n`` sequence is compared, and so is the generator's whole
``bit_generator.state`` afterwards: the buffered 32-bit half included,
whichever state the run starts from, and also when a bounded draw's half
is rejected and drawn again.
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


def reference_stream(net, n: int, states=None) -> list[tuple[int, int]]:
    """The (leaf, file) pairs the per-query calls draw from a copy of
    ``net``'s generator in its current state; the copy's state after them
    is appended to ``states``."""
    rng = np.random.Generator(type(net._rng.bit_generator)())
    rng.bit_generator.state = net._rng.bit_generator.state
    stream = []
    for _ in range(n):
        leaf = int(rng.integers(0, net.config.n_leaves))
        category = net._leaf_profile[leaf].sample_category(rng)
        stream.append((leaf, net.catalog.sample_file(rng, category)))
    if states is not None:
        states.append(rng.bit_generator.state)
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
    states = []
    expected = reference_stream(net, 250, states)
    issued = issued_stream(net, 200, warmup=50)
    assert issued == expected
    assert all(type(leaf) is int and type(f) is int for leaf, f in issued)
    assert net._rng.bit_generator.state == states[0]


@pytest.mark.parametrize("start", ["buffered half", "rejected half"])
@pytest.mark.parametrize("n", [1, 2, 1500])
def test_the_stream_leaves_the_state_the_per_query_calls_leave(start, n):
    """A run that starts with a 32-bit half in the buffer takes it for its
    first leaf.  A buffered half of 0 multiplies to a remainder of 0,
    under Lemire's threshold ``2**32 % n_leaves`` (46 for 50 leaves): the
    first leaf is drawn again from a fresh word, as numpy does."""
    net = make("hybrid", 3)
    state = net._rng.bit_generator.state
    state["has_uint32"] = 1
    state["uinteger"] = 0 if start == "rejected half" else 0x9E3779B9
    net._rng.bit_generator.state = state
    states = []
    expected = reference_stream(net, n, states)
    assert issued_stream(net, n, warmup=0) == expected
    assert net._rng.bit_generator.state == states[0]


def test_consecutive_calls_continue_the_stream():
    """Two calls draw what one call of their total length draws."""
    one, two = make("hybrid", 5), make("hybrid", 5)
    expected = reference_stream(one, 120)
    assert issued_stream(one, 120, warmup=0) == expected
    first = issued_stream(two, 70, warmup=10)
    assert first + issued_stream(two, 40, warmup=0) == expected
    assert two._rng.bit_generator.state == one._rng.bit_generator.state
