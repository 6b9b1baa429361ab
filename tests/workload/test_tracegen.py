"""Tests for repro.workload.tracegen (the synthetic monitor-node trace)."""

import numpy as np
import pytest

from repro.workload.tracegen import MonitorTraceConfig, MonitorTraceGenerator

# A small, fast config for unit tests (not the calibrated experiment one).
SMALL = MonitorTraceConfig(
    block_size=500,
    n_neighbors=20,
    median_session_blocks=8.0,
    n_categories=24,
)


class TestConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"block_size": 0},
            {"n_neighbors": 1},
            {"session_sigma": 0},
            {"path_lifetime_sigma": 0},
            {"median_session_blocks": 0},
            {"path_lifetime_blocks": -1},
            {"path_noise": 1.5},
            {"ephemeral_rate": -0.1},
            {"reply_rate": 0.0},
            {"reply_rate": 1.0},
            {"duplicate_guid_rate": 2.0},
            {"interests_per_neighbor": 0},
            {"pair_rate": 0.0},
            {"category_popularity_exponent": -0.2},
            {"anchor_age_exponent": -1.0},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            MonitorTraceConfig(**kwargs)

    def test_seconds_per_block(self):
        cfg = MonitorTraceConfig(block_size=600, pair_rate=6.0)
        assert cfg.seconds_per_block == pytest.approx(100.0)


class TestPairArrays:
    def test_shape_and_dtypes(self):
        gen = MonitorTraceGenerator(SMALL, seed=1)
        arrays = gen.generate_pair_arrays(1000)
        assert len(arrays) == 1000
        assert arrays.source.dtype == np.int64
        assert arrays.replier.dtype == np.int64
        assert (arrays.source >= 0).all()
        assert (arrays.replier >= 0).all()

    def test_times_strictly_increasing(self):
        gen = MonitorTraceGenerator(SMALL, seed=2)
        arrays = gen.generate_pair_arrays(500)
        assert (np.diff(arrays.time) > 0).all()

    def test_categories_in_range(self):
        gen = MonitorTraceGenerator(SMALL, seed=3)
        arrays = gen.generate_pair_arrays(500)
        assert arrays.category.min() >= 0
        assert arrays.category.max() < SMALL.n_categories

    def test_deterministic(self):
        a = MonitorTraceGenerator(SMALL, seed=7).generate_pair_arrays(400)
        b = MonitorTraceGenerator(SMALL, seed=7).generate_pair_arrays(400)
        np.testing.assert_array_equal(a.source, b.source)
        np.testing.assert_array_equal(a.replier, b.replier)
        np.testing.assert_array_equal(a.time, b.time)

    def test_seeds_differ(self):
        a = MonitorTraceGenerator(SMALL, seed=7).generate_pair_arrays(400)
        b = MonitorTraceGenerator(SMALL, seed=8).generate_pair_arrays(400)
        assert not np.array_equal(a.source, b.source)

    def test_repeated_calls_continue_the_trace(self):
        gen = MonitorTraceGenerator(SMALL, seed=9)
        first = gen.generate_pair_arrays(200)
        second = gen.generate_pair_arrays(200)
        assert second.time[0] > first.time[-1]

    def test_neighbor_count_constant(self):
        gen = MonitorTraceGenerator(SMALL, seed=10)
        gen.generate_pair_arrays(2000)
        assert len(gen.active_neighbor_ids) == SMALL.n_neighbors

    def test_repliers_are_active_neighbors_mostly(self):
        # Repliers always come from the neighbor set at reply time; sources
        # may be ephemeral.  Check repliers stay in the persistent id space
        # (ephemeral sources appear at most a handful of times each).
        gen = MonitorTraceGenerator(SMALL, seed=11)
        arrays = gen.generate_pair_arrays(2000)
        unique_sources, source_counts = np.unique(arrays.source, return_counts=True)
        singleton_share = (source_counts == 1).sum() / len(unique_sources)
        assert singleton_share > 0.5  # many ephemeral one-shot sources

    def test_interest_locality_concentrates_repliers(self):
        """A persistent source's replies should concentrate on few neighbors."""
        gen = MonitorTraceGenerator(SMALL, seed=12)
        arrays = gen.generate_pair_arrays(3000)
        unique_sources, counts = np.unique(arrays.source, return_counts=True)
        heavy = unique_sources[np.argmax(counts)]
        mask = arrays.source == heavy
        repliers = arrays.replier[mask]
        top_count = np.bincount(repliers).max()
        # With 3 interests + 10% path noise, the modal replier should carry
        # a large share of this source's replies.
        assert top_count / mask.sum() > 0.25

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            MonitorTraceGenerator(SMALL, seed=1).generate_pair_arrays(-1)


class TestIterEvents:
    def test_reply_rate_approximate(self):
        gen = MonitorTraceGenerator(SMALL, seed=20)
        events = list(gen.iter_events(600))
        replies = sum(1 for _q, r in events if r is not None)
        assert replies == 600
        rate = replies / len(events)
        assert abs(rate - SMALL.reply_rate) < 0.05

    def test_reply_guid_matches_query(self):
        gen = MonitorTraceGenerator(SMALL, seed=21)
        for query, reply in gen.iter_events(100):
            if reply is not None:
                assert reply.guid == query.guid
                assert reply.time >= query.time

    def test_duplicate_guids_present(self):
        cfg = MonitorTraceConfig(
            block_size=500, n_neighbors=20, duplicate_guid_rate=0.05
        )
        gen = MonitorTraceGenerator(cfg, seed=22)
        guids = [q.guid for q, _r in gen.iter_events(300)]
        assert len(set(guids)) < len(guids)

    def test_query_strings_parseable(self):
        from repro.workload.querygen import QueryTextModel

        gen = MonitorTraceGenerator(SMALL, seed=23)
        for query, _reply in list(gen.iter_events(30)):
            category, _rank = QueryTextModel.parse(query.query_string)
            assert 0 <= category < SMALL.n_categories
