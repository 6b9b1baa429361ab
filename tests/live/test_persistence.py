"""Warm crash recovery over real TCP: kill -9 a servent, restart it, and
prove the recovered rule state is bit-identical to what the dying node
held — the tentpole acceptance scenario for :mod:`repro.persist`.

``hard=True`` kills skip the graceful final checkpoint, so recovery has
to come through the snapshot + WAL-tail path, exactly like a SIGKILL'd
daemon.  Fingerprints (blake2b over canonical count state) are the
equality oracle throughout.
"""

import asyncio
import os

import numpy as np
import pytest

from repro.core.streaming import StreamingRules
from repro.live.cluster import LiveCluster, harness_config, make_vocabulary
from repro.live.node import LiveServent
from repro.network.topology import Topology
from repro.persist.snapshot import fingerprint_counts
from repro.persist.state import PersistentState
from tests.live.test_cluster import targeted_plan


def run(coro, timeout=120.0):
    return asyncio.run(asyncio.wait_for(coro, timeout))


def star(n_nodes: int) -> Topology:
    return Topology(n_nodes, [(0, i) for i in range(1, n_nodes)])


def cluster_kwargs(tmp_path, **overrides):
    kwargs = dict(
        rule_routed=True,
        top_k=1,
        config=harness_config(),
        state_dir=str(tmp_path / "state"),
        checkpoint_interval=30.0,  # timer stays out of the way by default
        fsync="never",
    )
    kwargs.update(overrides)
    return kwargs


def warmup(n_leaves=4, n_queries=80, seed=7):
    vocab = make_vocabulary(15)
    return vocab, targeted_plan(n_leaves, vocab, n_queries, np.random.default_rng(seed))


@pytest.mark.live
class TestWarmRestart:
    def test_hard_kill_then_restart_recovers_bit_identical_state(self, tmp_path):
        async def body():
            vocab, plan = warmup()
            async with LiveCluster(star(5), **cluster_kwargs(tmp_path)) as cluster:
                cluster.stock_partitioned_library(vocab)
                await cluster.run_plan(plan)
                center = cluster.nodes[0]
                pre_crash = fingerprint_counts(center.servent.counts)
                pre_rules = center.servent.counts.n_rules()
                assert pre_rules > 0  # the warmup actually taught it rules

                await cluster.kill(0, hard=True)  # no final checkpoint
                node = await cluster.restart(0)
                await cluster.wait_connected(timeout=10.0)

                info = node.recovery
                assert info is not None
                assert info.fingerprint == pre_crash
                assert fingerprint_counts(node.servent.counts) == pre_crash
                assert info.n_rules == pre_rules
                assert not info.truncated
                # and the recovered node keeps serving rule-routed queries
                term_on_2 = next(t for i, t in enumerate(vocab) if i % 5 == 2)
                assert await cluster.query(1, term_on_2) == 1

        run(body())

    def test_snapshot_plus_wal_tail_path(self, tmp_path):
        """A checkpoint mid-life splits recovery into snapshot + tail."""

        async def body():
            vocab, plan = warmup()
            half = len(plan) // 2
            async with LiveCluster(star(5), **cluster_kwargs(tmp_path)) as cluster:
                cluster.stock_partitioned_library(vocab)
                await cluster.run_plan(plan[:half])
                center = cluster.nodes[0]
                header = center.checkpoint()
                assert header is not None and header["n_rules"] >= 0
                await cluster.run_plan(plan[half:])
                pre_crash = fingerprint_counts(center.servent.counts)

                await cluster.kill(0, hard=True)
                node = await cluster.restart(0)
                info = node.recovery
                assert info.restored  # came up from the snapshot...
                assert info.records_replayed > 0  # ...plus a WAL tail
                assert info.fingerprint == pre_crash

        run(body())

    def test_torn_final_wal_record_recovers_by_truncation(self, tmp_path):
        async def body():
            vocab, plan = warmup()
            async with LiveCluster(star(5), **cluster_kwargs(tmp_path)) as cluster:
                cluster.stock_partitioned_library(vocab)
                await cluster.run_plan(plan)
                await cluster.kill(0, hard=True)

                # Tear the journal: a partial frame at the end of the
                # newest segment, as if the crash hit mid-append.
                node_dir = cluster.node_state_dir(0)
                segments = sorted(
                    f for f in os.listdir(node_dir) if f.endswith(".wal")
                )
                newest = os.path.join(node_dir, segments[-1])
                with open(newest, "ab") as fh:
                    fh.write(b"\x10\x00\x00\x00\xde\xad")

                node = await cluster.restart(0)
                info = node.recovery
                assert info is not None and info.truncated
                assert info.n_rules >= 0  # recovered, not errored
                # the torn bytes were physically removed
                second = PersistentState(node_dir, fsync="never")
                twin, info2 = second.recover(
                    StreamingRules(min_support_count=2, window_pairs=512)
                )
                second.close()
                assert not info2.truncated
                assert info2.fingerprint == info.fingerprint

        run(body())

    def test_cold_restart_without_state_dir_forgets(self, tmp_path):
        async def body():
            vocab, plan = warmup()
            kwargs = cluster_kwargs(tmp_path)
            kwargs.pop("state_dir")
            async with LiveCluster(star(5), **kwargs) as cluster:
                cluster.stock_partitioned_library(vocab)
                await cluster.run_plan(plan)
                assert cluster.nodes[0].servent.counts.n_rules() > 0
                await cluster.kill(0, hard=True)
                node = await cluster.restart(0)
                assert node.recovery is None
                assert node.servent.counts.n_rules() == 0

        run(body())


@pytest.mark.live
class TestGracefulShutdown:
    def test_close_checkpoints_and_offline_replay_matches(self, tmp_path):
        async def body():
            vocab, plan = warmup()
            cluster = LiveCluster(star(5), **cluster_kwargs(tmp_path))
            await cluster.start()
            try:
                cluster.stock_partitioned_library(vocab)
                await cluster.run_plan(plan)
                fingerprints = {
                    node.node_id: fingerprint_counts(node.servent.counts)
                    for node in cluster.nodes
                }
            finally:
                await cluster.close()
            return cluster, fingerprints

        cluster, fingerprints = run(body())
        # Graceful close checkpointed every node; an offline recovery
        # must land on the exact live state, snapshot-only.
        for node_id, live in fingerprints.items():
            state = PersistentState(
                cluster.node_state_dir(node_id), fsync="never"
            )
            _counts, info = state.recover(
                StreamingRules(min_support_count=2, window_pairs=512)
            )
            state.close()
            assert info.restored
            assert info.records_replayed == 0  # checkpoint sealed it all
            assert info.fingerprint == live

    def test_checkpoint_timer_fires_without_traffic(self, tmp_path):
        async def body():
            vocab, plan = warmup(n_queries=30)
            kwargs = cluster_kwargs(tmp_path, checkpoint_interval=0.2)
            async with LiveCluster(star(5), **kwargs) as cluster:
                cluster.stock_partitioned_library(vocab)
                await cluster.run_plan(plan)
                await asyncio.sleep(0.5)  # let the periodic loop fire
                node_dir = cluster.node_state_dir(0)
                assert any(
                    name.endswith(".snap") for name in os.listdir(node_dir)
                )

        run(body())


class TestConfigValidation:
    def test_state_dir_requires_rule_routing(self, tmp_path):
        with pytest.raises(ValueError, match="rule_routed"):
            LiveCluster(star(3), state_dir=str(tmp_path / "s"))


class TestCheckpointInterval:
    """A nan interval slept forever (``asyncio.sleep(nan)`` never
    returns), so the node never checkpointed; inf is the same."""

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_servent_refuses_non_finite(self, tmp_path, value):
        with pytest.raises(ValueError, match="checkpoint_interval"):
            LiveServent(
                0,
                rule_routed=True,
                state_dir=str(tmp_path / "state"),
                checkpoint_interval=value,
            )

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_cluster_refuses_non_finite(self, tmp_path, value):
        with pytest.raises(ValueError, match="checkpoint_interval"):
            LiveCluster(star(3), **cluster_kwargs(tmp_path, checkpoint_interval=value))
