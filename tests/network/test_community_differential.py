"""The array-held ``CommunityIndex`` against the dict-of-lists index it replaced.

``reference_community.ReferenceCommunityIndex`` is the parent commit's
class; the state machine below makes the same ``attach`` / ``kill`` /
``reattach`` calls on both and compares every read an experiment or a
report makes, after every step.  The whole-network tests then run the
array-probing ladder (``HierNetwork.query`` in its four modes, the
baseline's per-message loop) against the parent's
``lookup``-per-community bodies on the reference index, through kills.

Mutation-checked.  Each of these, applied to ``src/``, fails the test
named:

* a flood counts distinct communities, not (leaf, file) pairs: in
  ``HierNetwork._flood`` (``np.unique(found).size`` for ``found.size``) —
  ``test_networks_agree_with_the_reference_index`` in all four modes; in
  the baseline (``holders`` for ``sharers``) —
  ``test_baseline_agrees_with_the_reference_index``;
* ``kill`` forgets to drop the derived buffers —
  ``TestCommunityIndexMachine`` (a dead community's ``lookup`` still
  answers);
* a bisect runs into the neighbouring community's stretch (``end`` one
  past ``bounds[superpeer + 1]``): in ``count_pairs`` —
  ``TestCommunityIndexMachine``,
  ``test_sparse_worlds_agree_query_by_query`` in the three learning
  modes (the rule and directory rungs) and
  ``test_sparse_baseline_agrees_query_by_query`` (the home probe); in
  ``HierNetwork.query``'s inlined home probe —
  ``test_sparse_worlds_agree_query_by_query`` in all four;
* a directly re-attached orphan is read from its old stretch
  (``attach`` leaves ``_start`` / ``_stop`` of a leaf that has a library
  alone) — ``TestCommunityIndexMachine`` (``library`` and ``lookup``
  after ``attach_orphan_with_other_library``).
"""

import numpy as np
import pytest
from hypothesis import settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

from repro.network.community import CommunityIndex
from repro.network.hier.network import HIER_MODES, HierConfig, HierNetwork
from repro.network.superpeer import SuperPeerConfig, SuperPeerNetwork
from tests.network.reference_community import (
    IndexedHierNetwork,
    IndexedSuperPeerNetwork,
    ReferenceCommunityIndex,
)
from tests.network.test_hier_differential import learned_state

N_SUPERPEERS = 5
N_FILES = 24
libraries = st.frozensets(st.integers(0, N_FILES - 1), max_size=6)


class CommunityIndexMachine(RuleBasedStateMachine):
    def __init__(self) -> None:
        super().__init__()
        self.fast = CommunityIndex(N_SUPERPEERS)
        self.slow = ReferenceCommunityIndex(N_SUPERPEERS)
        self.next_leaf = 0
        self.orphans: list[int] = []

    def both(self, call, *args):
        getattr(self.fast, call)(*args)
        getattr(self.slow, call)(*args)

    # -- writes -------------------------------------------------------------
    @rule(data=st.data(), library=libraries, skip=st.integers(0, 3))
    def attach(self, data, library, skip):
        """A fresh leaf id, sometimes past the ids seen so far."""
        live = self.fast.live_superpeers()
        self.next_leaf += skip
        self.both("attach", self.next_leaf, data.draw(st.sampled_from(live)), library)
        self.next_leaf += 1

    @rule(data=st.data(), library=libraries)
    def attach_a_library_the_whole_community_shares(self, data, library):
        superpeer = data.draw(st.sampled_from(self.fast.live_superpeers()))
        for _ in range(3):
            self.both("attach", self.next_leaf, superpeer, library)
            self.next_leaf += 1

    @precondition(lambda self: len(self.fast.live_superpeers()) > 1)
    @rule(data=st.data())
    def kill(self, data):
        victim = data.draw(st.sampled_from(self.fast.live_superpeers()))
        orphans = self.fast.kill(victim)
        assert orphans == self.slow.kill(victim)
        self.orphans += orphans
        assert self.fast.kill(victim) == self.slow.kill(victim) == []

    @precondition(lambda self: self.orphans)
    @rule()
    def reattach(self):
        assert self.fast.reattach(self.orphans) == self.slow.reattach(self.orphans)
        self.orphans = []

    @precondition(lambda self: self.orphans)
    @rule(data=st.data(), library=libraries)
    def attach_orphan_with_other_library(self, data, library):
        leaf = self.orphans.pop(data.draw(st.integers(0, len(self.orphans) - 1)))
        superpeer = data.draw(st.sampled_from(self.fast.live_superpeers()))
        self.both("attach", leaf, superpeer, library)

    # -- reads: everything, after every step -----------------------------------
    @invariant()
    def every_read_agrees(self):
        fast, slow = self.fast, self.slow
        assert fast.live_superpeers() == slow.live_superpeers()
        for sp in range(N_SUPERPEERS):
            assert fast.is_live(sp) == slow.is_live(sp)
            assert fast.members(sp) == slow.members(sp)
            assert fast.load(sp) == slow.load(sp)
            assert fast.index_size(sp) == slow.index_size(sp)
            files = fast.files(sp)
            assert isinstance(files, np.ndarray)
            assert files.tolist() == sorted(slow.files(sp))
            for file_id in range(-1, N_FILES + 1):
                expected = sorted(slow.lookup(sp, file_id))
                assert fast.lookup(sp, file_id) == expected
                assert fast.count(sp, file_id) == len(expected)
        for file_id in range(-1, N_FILES + 1):
            assert fast.holders(file_id).tolist() == slow.holders(file_id).tolist()
            # one entry per sharing leaf, by community
            assert fast.sharers(file_id).tolist() == [
                sp for sp in range(N_SUPERPEERS) for _ in slow.lookup(sp, file_id)
            ]
        for leaf in range(self.next_leaf):
            if leaf in slow._library:
                library = fast.library(leaf)
                assert library == slow._library[leaf]
                assert all(type(f) is int for f in library)
                assert [fast.shares(leaf, f) for f in range(-1, N_FILES + 1)] == [
                    f in library for f in range(-1, N_FILES + 1)
                ]
            if leaf in slow._home:
                assert fast.superpeer_of(leaf) == slow.superpeer_of(leaf)
            else:
                with pytest.raises(KeyError):
                    fast.superpeer_of(leaf)


TestCommunityIndexMachine = CommunityIndexMachine.TestCase
TestCommunityIndexMachine.settings = settings(
    max_examples=60, stateful_step_count=20, deadline=None
)


# -- whole networks ------------------------------------------------------------
def every_field(stats) -> tuple:
    return (
        stats.n_queries,
        stats.n_succeeded,
        stats.total_messages,
        stats.total_duplicates,
        stats.total_hits,
        stats.n_rule_covered,
        stats.n_rule_succeeded,
        vars(stats.hop_stats),
        vars(stats.message_stats),
    )


SUBSTRATE = dict(
    n_superpeers=40, leaves_per_superpeer=8, superpeer_degree=3, n_categories=10,
    files_per_category=50, library_size=12, interests_per_peer=3, superpeer_ttl=3,
)


@pytest.mark.parametrize("mode", HIER_MODES)
def test_networks_agree_with_the_reference_index(mode):
    """3,000 queries with two kills in the middle — a fixed super-peer,
    then the home of leaf 0 — ``TrafficStats`` field for field, every
    re-attachment map, and every rule table afterwards."""
    config = HierConfig(mode=mode, digest_every=2, **SUBSTRATE)
    fast = HierNetwork(config, seed=11)
    slow = IndexedHierNetwork(config, seed=11)
    assert isinstance(slow.community, ReferenceCommunityIndex)
    assert learned_state(fast) == learned_state(slow)  # the directory build
    for victim in (17, None, "done"):
        a = fast.run_workload(1000, warmup=500 if victim == 17 else 0)
        b = slow.run_workload(1000, warmup=500 if victim == 17 else 0)
        assert every_field(a) == every_field(b)
        if victim != "done":
            victim = fast.superpeer_of(0) if victim is None else victim
            assert fast.kill_superpeer(victim) == slow.kill_superpeer(victim)
    assert learned_state(fast) == learned_state(slow)
    for leaf in range(config.n_leaves):
        assert fast.library(leaf) == slow.community._library[leaf]


#: one leaf with two files per community: most probes land on a stretch's
#: edge, next to a neighbour's first file
SPARSE = dict(
    n_superpeers=16, leaves_per_superpeer=1, superpeer_degree=3, n_categories=3,
    files_per_category=8, library_size=2, interests_per_peer=1, superpeer_ttl=2,
)


def every_query(fast, slow, n_leaves: int) -> None:
    for leaf in range(n_leaves):
        for file_id in range(fast.catalog.n_files):
            assert fast.query(leaf, file_id) == slow.query(leaf, file_id)


@pytest.mark.parametrize("mode", HIER_MODES)
def test_sparse_worlds_agree_query_by_query(mode):
    """Every (leaf, file) query, three times over — the rule and
    directory rungs run on what the earlier rounds taught — with a kill
    after the first round."""
    config = HierConfig(
        mode=mode, min_support_count=1, digest_every=1, lookup_contacts=2, **SPARSE
    )
    fast = HierNetwork(config, seed=5)
    slow = IndexedHierNetwork(config, seed=5)
    for round_ in range(3):
        every_query(fast, slow, config.n_leaves)
        if round_ == 0:
            assert fast.kill_superpeer(3) == slow.kill_superpeer(3)
    assert learned_state(fast) == learned_state(slow)


def test_sparse_baseline_agrees_query_by_query():
    config = SuperPeerConfig(**SPARSE)
    every_query(
        SuperPeerNetwork(config, seed=5),
        IndexedSuperPeerNetwork(config, seed=5),
        config.n_leaves,
    )


def test_baseline_agrees_with_the_reference_index():
    config = SuperPeerConfig(**SUBSTRATE)
    fast = SuperPeerNetwork(config, seed=11)
    slow = IndexedSuperPeerNetwork(config, seed=11)
    assert isinstance(slow.community, ReferenceCommunityIndex)
    assert every_field(fast.run_workload(3000)) == every_field(slow.run_workload(3000))
