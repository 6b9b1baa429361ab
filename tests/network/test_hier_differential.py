"""``HierNetwork``'s route plans against the per-message loops.

``reference_hier.ReferenceHierNetwork`` fills its k-buckets one insert
at a time, floods message by message and walks the keyspace hop by hop,
reading liveness on every call.  ``HierNetwork`` fills each table in one
vector pass and reads a memoised kernel reach per home, a walk table
planned whole for every (live super-peer, category) and the community
holder index, all of which a kill — a ``topology.detach_node`` — must
replace.  Both must agree on everything an experiment can observe:
every :class:`QueryOutcome` field, the control traffic, the re-attachment
map of every kill, every k-bucket table in insertion order, every live
super-peer's steward and hop count toward every category, the
directory, and — since the learned state is a
function of the order of the ``observe`` calls — every rule table's
``state()`` and every merged digest table's fingerprint.
"""

import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.network.community import CommunityIndex
from repro.network.engine import QueryEngine
from repro.network.hier.network import HIER_MODES, HierConfig, HierNetwork
from repro.network.superpeer import SuperPeerConfig, SuperPeerNetwork
from repro.workload.zipf import ZipfSampler
from tests.network.reference_hier import ReferenceHierNetwork

KILL_KINDS = ("home", "steward", "interior", "dead-again", "any")


def stats_counts(stats) -> list:
    return [
        stats.n_queries,
        stats.n_succeeded,
        stats.total_messages,
        stats.total_hits,
        stats.total_duplicates,
        stats.n_rule_covered,
        stats.n_rule_succeeded,
    ]


@st.composite
def hier_configs(draw):
    degree = draw(st.integers(2, 5))
    n_superpeers = draw(st.integers(12, 60))
    if n_superpeers * degree % 2:
        n_superpeers += 1  # random_regular pairs stubs
    return HierConfig(
        mode=draw(st.sampled_from(HIER_MODES)),
        n_superpeers=n_superpeers,
        leaves_per_superpeer=draw(st.integers(2, 6)),
        superpeer_degree=degree,
        n_categories=draw(st.integers(3, 8)),
        files_per_category=draw(st.integers(10, 40)),
        library_size=draw(st.integers(3, 10)),
        interests_per_peer=draw(st.integers(1, 3)),
        superpeer_ttl=draw(st.integers(1, 5)),
        rule_top_k=draw(st.integers(1, 4)),
        min_support_count=draw(st.integers(1, 2)),
        digest_every=draw(st.integers(1, 6)),
        digest_top_k=draw(st.integers(1, 4)),
        kbucket_k=draw(st.sampled_from((2, 20))),
        lookup_contacts=draw(st.integers(1, 4)),
    )


def kill_target(net: HierNetwork, kind: str, last_home: int, dead: list[int], rng) -> int:
    """A super-peer whose death the plans and the memo must notice."""
    live = net.community.live_superpeers()
    if kind == "home":
        return last_home
    if kind == "steward" and net.directory:
        stewards = sorted(net.directory)
        return stewards[int(rng.integers(len(stewards)))]
    if kind == "interior":
        # one hop from a home: inside every plan of that home with TTL > 1
        near = [sp for sp in net.topology.neighbors(last_home) if sp in live]
        if near:
            return near[int(rng.integers(len(near)))]
    if kind == "dead-again" and dead:
        return dead[-1]
    return live[int(rng.integers(len(live)))]


def learned_state(net: HierNetwork) -> dict:
    live = net.community.live_superpeers()
    categories = range(net.config.n_categories)
    return {
        # insertion order too: closer_than keeps the first of equal keys
        "kbuckets": [
            (table.entries(), table.buckets()) for table in net.kbuckets
        ],
        "walks": [net._kademlia_walk(sp, c) for sp in live for c in categories]
        if net.kbuckets
        else [],
        "control": net.control_messages,
        "tables": [(table.epoch, table.counts.state()) for table in net.sp_rules]
        + [table.state() for table in net.leaf_rules],
        "merged": [table.fingerprint() for table in net.merged],
        "directory": net.directory,
        "homes": [net.superpeer_of(leaf) for leaf in range(net.config.n_leaves)],
    }


def assert_kept_reaches_are_fresh(net: HierNetwork, dead: list[int]) -> None:
    """Every dead super-peer is edgeless, and every reach the network
    kept is what a new engine computes on the graph as it is now."""
    for superpeer in dead:
        assert net.topology.neighbors(superpeer) == ()
    fresh = QueryEngine(net)
    for home, (reach, position) in net._reaches.items():
        again = fresh.reach(home, net.config.superpeer_ttl)
        assert reach.order.tolist() == again.order.tolist()
        assert reach.depth.tolist() == again.depth.tolist()
        assert (reach.messages, reach.duplicates) == (again.messages, again.duplicates)
        assert not set(reach.order.tolist()) & set(dead)
        assert np.flatnonzero(position >= 0).tolist() == sorted(reach.order.tolist())
        assert position[reach.order].tolist() == list(range(reach.order.size))


@settings(max_examples=60, deadline=None)
@given(config=hier_configs(), seed=st.integers(0, 2**16), data=st.data())
def test_plans_agree_with_the_per_message_loops(config, seed, data):
    fast = HierNetwork(config, seed=seed)
    slow = ReferenceHierNetwork(config, seed=seed)
    assert learned_state(fast) == learned_state(slow)  # the build walks too

    rng = np.random.default_rng(seed)
    ranks = ZipfSampler(config.files_per_category, 1.0)
    dead: list[int] = []
    last_home = fast.superpeer_of(0)
    for _ in range(data.draw(st.integers(2, 6), label="stretches")):
        for _ in range(data.draw(st.integers(5, 80), label="queries")):
            leaf = int(rng.integers(config.n_leaves))
            category = fast._leaf_profile[leaf].sample_category(rng)
            file_id = category * config.files_per_category + ranks.sample(rng)
            last_home = fast.superpeer_of(leaf)
            assert fast.query(leaf, file_id) == slow.query(leaf, file_id)
        assert_kept_reaches_are_fresh(fast, dead)
        if len(fast.community.live_superpeers()) <= 4:
            continue
        kind = data.draw(st.sampled_from(KILL_KINDS), label="kill")
        target = kill_target(fast, kind, last_home, dead, rng)
        placement = fast.kill_superpeer(target)
        assert placement == slow.kill_superpeer(target)
        assert bool(placement) == (target not in dead)
        dead.append(target)
        assert_kept_reaches_are_fresh(fast, dead)
        assert learned_state(fast) == learned_state(slow)  # the replanned walks
    assert learned_state(fast) == learned_state(slow)


@pytest.mark.parametrize("mode", HIER_MODES)
def test_whole_workloads_agree_under_kills(mode):
    """``run_workload`` end to end, with the kinds of kill named above
    in a fixed order, at a size where floods, walks and digests all run."""
    config = HierConfig(
        mode=mode, n_superpeers=40, leaves_per_superpeer=8, superpeer_degree=3,
        n_categories=10, files_per_category=50, library_size=12,
        interests_per_peer=3, superpeer_ttl=3, digest_every=2,
    )
    fast = HierNetwork(config, seed=7)
    slow = ReferenceHierNetwork(config, seed=7)
    rng = np.random.default_rng(7)
    dead: list[int] = []
    for kind in KILL_KINDS:
        a = fast.run_workload(150, warmup=150)
        b = slow.run_workload(150, warmup=150)
        assert stats_counts(a) == stats_counts(b)
        assert a.hop_stats.mean == b.hop_stats.mean
        target = kill_target(fast, kind, fast.superpeer_of(3), dead, rng)
        assert fast.kill_superpeer(target) == slow.kill_superpeer(target)
        dead.append(target)
        assert_kept_reaches_are_fresh(fast, dead)
    assert stats_counts(fast.run_workload(300)) == stats_counts(slow.run_workload(300))
    assert_kept_reaches_are_fresh(fast, dead)
    assert learned_state(fast) == learned_state(slow)


def test_a_kill_inside_a_plan_changes_the_next_flood():
    """The same query before and after a kill one hop from its home: the
    plan made for the first flood must not serve the second."""
    config = HierConfig(
        mode="flood", n_superpeers=30, leaves_per_superpeer=4, superpeer_degree=3,
        n_categories=6, files_per_category=30, library_size=8, superpeer_ttl=3,
    )
    fast = HierNetwork(config, seed=2)
    slow = ReferenceHierNetwork(config, seed=2)
    leaf, home = 0, fast.superpeer_of(0)
    shared = set().union(*map(fast.library, range(config.n_leaves)))
    nobody_has = next(f for f in range(fast.catalog.n_files) if f not in shared)
    before = fast.query(leaf, nobody_has)
    assert before == slow.query(leaf, nobody_has)
    assert fast.query(leaf, nobody_has).messages == before.messages  # replayed plan
    slow.query(leaf, nobody_has)  # keep the guids in step

    victim = fast.topology.neighbors(home)[0]
    assert fast.kill_superpeer(victim) == slow.kill_superpeer(victim)
    assert fast.topology.neighbors(victim) == ()
    assert victim not in fast.topology.neighbors(home)
    after = fast.query(leaf, nobody_has)
    assert after == slow.query(leaf, nobody_has)
    assert after.messages < before.messages


def test_a_kill_moves_the_stewards_walks_end_at():
    """Killing a steward: every memoised walk that ended there must end
    somewhere live afterwards, where the republished directory points."""
    config = HierConfig(
        mode="hybrid", n_superpeers=24, leaves_per_superpeer=4, superpeer_degree=3,
        n_categories=6, files_per_category=30, library_size=8, kbucket_k=3,
    )
    fast = HierNetwork(config, seed=4)
    slow = ReferenceHierNetwork(config, seed=4)
    steward = sorted(fast.directory)[0]
    category = sorted(fast.directory[steward])[0]
    starts = [sp for sp in range(config.n_superpeers) if sp != steward]
    assert [fast._kademlia_walk(sp, category) for sp in starts] == [
        slow._kademlia_walk(sp, category) for sp in starts
    ]
    assert fast.kill_superpeer(steward) == slow.kill_superpeer(steward)
    walks = [fast._kademlia_walk(sp, category) for sp in starts]
    assert walks == [slow._kademlia_walk(sp, category) for sp in starts]
    assert all(end != steward and fast.community.is_live(end) for end, _hops in walks)
    assert fast.directory == slow.directory


# -- the community holder index ------------------------------------------------
def scan_holders(index: CommunityIndex, file_id: int) -> list[int]:
    return [sp for sp in range(index.n_superpeers) if index.lookup(sp, file_id)]


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_holder_index_equals_a_scan_of_lookup(data):
    n_superpeers = data.draw(st.integers(1, 8))
    n_files = data.draw(st.integers(1, 40))
    index = CommunityIndex(n_superpeers)
    libraries = st.frozensets(st.integers(0, n_files - 1), max_size=6)
    next_leaf = 0
    orphans: list[int] = []
    for _ in range(data.draw(st.integers(1, 25), label="steps")):
        live = index.live_superpeers()
        step = data.draw(st.sampled_from(("attach", "kill", "reattach", "read")))
        if step == "attach" and live:
            index.attach(next_leaf, data.draw(st.sampled_from(live)), data.draw(libraries))
            next_leaf += 1
        elif step == "kill" and len(live) > 1:
            orphans += index.kill(data.draw(st.sampled_from(live)))
        elif step == "reattach" and orphans:
            index.reattach(orphans)
            orphans = []
        else:
            # a read between two writes: the next write must drop what
            # this one built
            file_id = data.draw(st.integers(0, n_files - 1))
            assert index.holders(file_id).tolist() == scan_holders(index, file_id)
    for file_id in range(-1, n_files + 1):
        assert index.holders(file_id).tolist() == scan_holders(index, file_id)


def test_a_direct_attach_invalidates_the_holder_index():
    net = HierNetwork(
        HierConfig(
            mode="flood", n_superpeers=12, leaves_per_superpeer=3,
            superpeer_degree=3, n_categories=4, files_per_category=20,
            library_size=5,
        ),
        seed=1,
    )
    shared = set().union(*map(net.library, range(net.config.n_leaves)))
    nobody_has = next(f for f in range(net.catalog.n_files) if f not in shared)
    beyond = net.catalog.n_files + 5  # past what the built index has room for
    assert net.community.holders(nobody_has).size == 0
    assert net.community.holders(beyond).size == 0
    net.community.attach(net.config.n_leaves, 5, frozenset({nobody_has, beyond}))
    assert net.community.holders(nobody_has).tolist() == [5]
    assert net.community.holders(beyond).tolist() == [5]
    # and the flood finds the newcomer through it
    leaf = next(
        leaf for leaf in range(net.config.n_leaves)
        if 5 in net.topology.neighbors(net.superpeer_of(leaf))
    )
    assert net.query(leaf, nobody_has).hits == 1


# -- golden ---------------------------------------------------------------------
def test_golden_hybrid_counts_with_two_kills():
    """Recorded from the per-message loops at commit 89d455d: 120
    super-peers, hybrid, a kill of a fixed node and of a home.  The
    window after the second kill was re-recorded when the rule rung began
    to cut once: a dead super-peer or the home no longer takes a slot."""
    net = HierNetwork(
        HierConfig(
            mode="hybrid", n_superpeers=120, leaves_per_superpeer=8,
            superpeer_degree=4, n_categories=20, files_per_category=60,
            library_size=20, interests_per_peer=3, superpeer_ttl=3,
        ),
        seed=15,
    )
    seen = [(stats_counts(net.run_workload(1000, warmup=1500)), net.control_messages)]
    net.kill_superpeer(17)
    seen.append((stats_counts(net.run_workload(1000)), net.control_messages))
    net.kill_superpeer(net.superpeer_of(0))
    seen.append((stats_counts(net.run_workload(1000)), net.control_messages))
    assert seen == [
        ([1000, 970, 15325, 2165, 1479, 109, 51], 2997),
        ([1000, 974, 13104, 1937, 1235, 209, 111], 5554),
        ([1000, 971, 13166, 1793, 1195, 253, 116], 8120),
    ]


GOLDEN = json.loads((Path(__file__).parent / "golden_two_tier.json").read_text())


def test_golden_baseline_counts():
    """``SuperPeerNetwork`` as recorded at the parent commit (a1d2e2e),
    before it shared a graph class and an index with anything."""
    net = SuperPeerNetwork(SuperPeerConfig(**GOLDEN["substrate"]), seed=GOLDEN["seed"])
    assert stats_counts(net.run_workload(4000, warmup=1000)) == GOLDEN["superpeer"]


@pytest.mark.parametrize("mode", HIER_MODES)
def test_golden_counts_around_two_kills(mode):
    """``HierNetwork`` on the same substrate, recorded at commit a1d2e2e
    from its own BFS plans: 2,000 queries after 1,000 of warm-up,
    super-peers 7 and 31 killed, 2,000 more.  The rule arms' windows
    after the kills were re-recorded when the rule rung began to cut
    once (``after_kills_rerecorded``)."""
    net = HierNetwork(HierConfig(mode=mode, **GOLDEN["substrate"]), seed=GOLDEN["seed"])
    seen = [stats_counts(net.run_workload(2000, warmup=1000)), net.control_messages]
    net.kill_superpeer(7)
    net.kill_superpeer(31)
    seen += [stats_counts(net.run_workload(2000)), net.control_messages]
    assert seen == GOLDEN[mode]
