"""Live-cluster integration: real sockets, real traffic, real failures.

The ``live`` marker tags the heavyweight tests (hundreds of queries over
TCP); CI runs them in a dedicated step under a hard timeout.  Every
async body also runs under its own ``asyncio.wait_for`` so a routing or
teardown bug fails the test instead of hanging the suite.
"""

import asyncio

import numpy as np
import pytest

from repro.live.cluster import (
    LiveCluster,
    harness_config,
    interest_plan,
    make_vocabulary,
)
from repro.network.topology import Topology


def run(coro, timeout=120.0):
    return asyncio.run(asyncio.wait_for(coro, timeout))


def star(n_nodes: int) -> Topology:
    return Topology(n_nodes, [(0, i) for i in range(1, n_nodes)])


def targeted_plan(n_leaves: int, vocabulary, n_queries: int, rng):
    """Each leaf queries terms owned by one fixed *other* leaf — the
    interest locality that makes the center's rules learnable."""
    n_nodes = n_leaves + 1
    owned = {
        node: [t for i, t in enumerate(vocabulary) if i % n_nodes == node]
        for node in range(n_nodes)
    }
    plan = []
    for q in range(n_queries):
        origin = 1 + q % n_leaves
        target = 1 + (origin % n_leaves)
        terms = owned[target]
        plan.append((origin, terms[int(rng.integers(0, len(terms)))]))
    return plan


class TestSmallCluster:
    def test_query_travels_two_hops(self):
        async def body():
            path = Topology(3, [(0, 1), (1, 2)])
            vocab = make_vocabulary(6)
            async with LiveCluster(path) as cluster:
                cluster.stock_partitioned_library(vocab)
                owner = cluster.owner_of(vocab[2])
                assert owner == 2
                hits = await cluster.query(0, vocab[2])
            assert hits == 1

        run(body())

    def test_duplicate_guid_suppression_on_a_cycle(self):
        async def body():
            # A triangle delivers each query twice to the far node; the
            # GUID route table must drop the duplicate, so exactly one
            # hit comes back.
            triangle = Topology(3, [(0, 1), (1, 2), (0, 2)])
            vocab = make_vocabulary(6)
            async with LiveCluster(triangle) as cluster:
                cluster.stock_partitioned_library(vocab)
                hits = await cluster.query(0, vocab[1])
            assert hits == 1

        run(body())

    @pytest.mark.parametrize("rule_routed", [False, True])
    def test_restarted_node_mints_fresh_guids(self, rule_routed):
        """A restarted node's queries are answered: its new life does not
        re-mint GUIDs its peer's duplicate table already holds."""

        async def body():
            vocab = make_vocabulary(4)
            async with LiveCluster(
                Topology(2, [(0, 1)]), rule_routed=rule_routed
            ) as cluster:
                cluster.stock_partitioned_library(vocab)
                before = [await cluster.query(0, vocab[1]) for _ in range(3)]
                await cluster.kill(0)
                await cluster.restart(0)
                await cluster.wait_connected()
                after = [await cluster.query(0, vocab[1]) for _ in range(3)]
                guids = [guid for _node, _term, guid in cluster.issued]
            return before, after, guids

        before, after, guids = run(body())
        assert before == [1, 1, 1]
        assert after == [1, 1, 1]
        assert len(set(guids)) == len(guids)

    def test_interest_plan_is_deterministic(self):
        vocab = make_vocabulary(10)
        plan_a = interest_plan(4, vocab, 25, np.random.default_rng(3))
        plan_b = interest_plan(4, vocab, 25, np.random.default_rng(3))
        assert plan_a == plan_b
        assert len(plan_a) == 25
        assert all(0 <= node < 4 for node, _term in plan_a)


@pytest.mark.live
class TestRuleRoutingOverTcp:
    def test_rules_beat_flooding_per_answered_query(self):
        """The acceptance run: >=5 nodes, >=200 queries over real TCP,
        association routing strictly cheaper per answered query."""

        async def body():
            topology = star(6)  # 6 nodes, >=5 required
            vocab = make_vocabulary(20)
            plan = targeted_plan(5, vocab, 240, np.random.default_rng(11))
            assert len(plan) >= 200

            async with LiveCluster(
                topology, rule_routed=True, top_k=1
            ) as cluster:
                cluster.stock_partitioned_library(vocab)
                rule = await cluster.run_plan(plan)
                totals = cluster.totals()

            async with LiveCluster(topology, rule_routed=False) as cluster:
                cluster.stock_partitioned_library(vocab)
                flood = await cluster.run_plan(plan)

            # Both modes answer; rules keep finding the content...
            assert flood["answered"] > 0
            assert rule["answered"] > 0
            assert rule["answer_rate"] >= 0.9
            # ...while the center actually exercises learned rules...
            assert totals["queries_rule_routed"] > 0
            assert totals["rule_regenerations"] > 0
            # ...and the headline claim holds on the wire: traffic per
            # answered query strictly below flooding's.
            assert rule["frames_per_answered"] < flood["frames_per_answered"]

        run(body())

    def test_killed_peer_triggers_backoff_reconnect_and_cluster_answers(self):
        async def body():
            topology = star(6)
            vocab = make_vocabulary(20)
            config = harness_config(
                retry_initial_delay=0.05, retry_backoff=2.0, retry_max_delay=0.4
            )
            async with LiveCluster(
                topology, rule_routed=True, top_k=1, config=config
            ) as cluster:
                cluster.stock_partitioned_library(vocab)
                warmup = targeted_plan(5, vocab, 60, np.random.default_rng(5))
                await cluster.run_plan(warmup)

                # Kill leaf 5 (the center dials it, so the center's
                # supervisor owns the reconnect).
                await cluster.kill(5)
                await asyncio.sleep(0.5)
                center = cluster.nodes[0]
                assert 5 not in center.connected_peers
                assert center.stats.dial_failures >= 2  # retrying, backed off
                assert center.stats.reconnects == 0

                # The cluster keeps answering queries among live nodes.
                term_on_2 = next(
                    t for i, t in enumerate(vocab) if i % 6 == 2
                )
                hits = await cluster.query(1, term_on_2)
                assert hits == 1

                # Bring the peer back: the supervisor's next retry lands.
                await cluster.restart(5)
                await cluster.wait_connected(timeout=10.0)
                assert center.stats.reconnects >= 1
                assert 5 in center.connected_peers

                # And content on the restarted node is reachable again —
                # query from node 4, whose warmup traffic taught the
                # center the 4 -> 5 rule (top_k=1 sends it nowhere else).
                term_on_5 = next(
                    t for i, t in enumerate(vocab) if i % 6 == 5
                )
                hits = await cluster.query(4, term_on_5)
                assert hits == 1

        run(body())
