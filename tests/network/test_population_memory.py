"""What one two-tier world costs in memory, as a gate a machine can hold.

The population is arrays: one ``int32`` library buffer, one sorted
(file, leaf) buffer per index, one key per pair in the holder index —
16 bytes a (leaf, file) pair plus the per-leaf and per-super-peer
objects (profiles, member lists, the overlay graph).  Boxed, it was 197
(a ``frozenset`` per leaf, a one-leaf list per indexed file).  Traced
allocations, not RSS, so the number is the same on every host.
"""

import gc
import tracemalloc
from types import BuiltinFunctionType, FunctionType, MethodType, ModuleType

from repro.network.superpeer import SuperPeerConfig, SuperPeerNetwork

CONFIG = SuperPeerConfig(n_superpeers=100, leaves_per_superpeer=20)
BOXED = (list, dict, set, frozenset, tuple)
NOT_DATA = (type, ModuleType, FunctionType, BuiltinFunctionType, MethodType)


def reachable_containers(root) -> list:
    """Every list / dict / set / tuple reachable from ``root`` through
    instances and containers (not through classes, modules or code)."""
    seen = {id(root)}
    frontier = [root]
    found = []
    while frontier:
        for obj in gc.get_referents(frontier.pop()):
            if id(obj) in seen or isinstance(obj, NOT_DATA):
                continue
            seen.add(id(obj))
            frontier.append(obj)
            if isinstance(obj, BOXED):
                found.append(obj)
    return found


def test_a_world_costs_at_most_64_bytes_a_pair_and_holds_no_boxed_pairs():
    was_tracing = tracemalloc.is_tracing()
    gc.collect()
    if not was_tracing:
        tracemalloc.start()
    before, _peak = tracemalloc.get_traced_memory()
    try:
        net = SuperPeerNetwork(CONFIG, seed=3)
        net.run_workload(50)  # builds the community index
        net.community.holders(0)  # and the holder index
        gc.collect()
        traced = tracemalloc.get_traced_memory()[0] - before
    finally:
        if not was_tracing:
            tracemalloc.stop()

    pairs = sum(net.index_size(sp) for sp in range(CONFIG.n_superpeers))
    assert pairs == 92_518
    assert pairs == sum(len(net.library(leaf)) for leaf in range(CONFIG.n_leaves))
    assert net.community.nbytes >= 16 * pairs  # the buffers are built and counted
    assert traced / pairs <= 64, f"{traced / pairs:.1f} B per (leaf, file) pair"

    # per-leaf and per-super-peer containers are fine (member lists, an
    # offsets list); one entry per pair is not
    per_pair = [
        (type(c).__name__, len(c))
        for c in reachable_containers(net.community)
        if len(c) > 2 * CONFIG.n_leaves
    ]
    assert per_pair == []
