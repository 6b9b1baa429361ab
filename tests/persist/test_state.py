"""Tests for repro.persist.state — the checkpoint/journal/recover lifecycle."""

import os

import pytest

from repro.core.streaming import StreamingRules
from repro.obs.registry import MetricsRegistry
from repro.persist.snapshot import fingerprint_counts, write_snapshot
from repro.persist.state import PersistentState, inspect_state_dir
from repro.persist.wal import RECORD_BYTES

PAIRS = [(q % 5, r % 4) for q, r in zip(range(60), range(2, 122, 2))]


def rules():
    return StreamingRules(min_support_count=2, window_pairs=256)


def fresh_state(tmp_path, **kwargs):
    kwargs.setdefault("fsync", "never")
    return PersistentState(str(tmp_path / "node"), **kwargs)


class TestLifecycle:
    def test_cold_start(self, tmp_path):
        state = fresh_state(tmp_path)
        counts, info = state.recover(rules())
        assert not info.restored
        assert info.snapshot_seq is None
        assert info.records_replayed == 0
        assert counts.n_rules() == 0
        assert state.wal_segments() and not state.snapshots()

    def test_record_pair_before_recover_rejected(self, tmp_path):
        with pytest.raises(RuntimeError, match="recover"):
            fresh_state(tmp_path).record_pair(1, 2)

    def test_checkpoint_before_recover_rejected(self, tmp_path):
        with pytest.raises(RuntimeError, match="recover"):
            fresh_state(tmp_path).checkpoint(rules().make_counts())

    def test_a_closed_state_refuses_to_journal_or_checkpoint(self, tmp_path):
        """Before the guard, ``checkpoint`` after ``close()`` wrote a
        snapshot and opened a segment nothing would close, which a later
        ``record_pair`` journalled into; ``record_pair`` after a plain
        ``close()`` raised the file's untyped ``ValueError``."""
        state = fresh_state(tmp_path)
        counts, _ = state.recover(rules())
        state.record_pair(1, 2)
        state.close()
        before = sorted(os.listdir(state.state_dir))
        with pytest.raises(RuntimeError, match=r"close\(\)"):
            state.record_pair(3, 4)
        with pytest.raises(RuntimeError, match=r"close\(\)"):
            state.checkpoint(counts)
        with pytest.raises(RuntimeError, match=r"close\(\)"):
            state.record_pair(3, 4)
        assert sorted(os.listdir(state.state_dir)) == before
        assert state.closed

    def test_wal_only_recovery(self, tmp_path):
        state = fresh_state(tmp_path)
        counts, _ = state.recover(rules())
        for source, replier in PAIRS:
            counts.observe(source, replier)
            state.record_pair(source, replier)
        live = fingerprint_counts(counts)
        state.close()

        twin_state = fresh_state(tmp_path)
        twin, info = twin_state.recover(rules())
        assert not info.restored  # no snapshot was ever taken
        assert info.records_replayed == len(PAIRS)
        assert info.fingerprint == live
        assert fingerprint_counts(twin) == live
        twin_state.close()

    def test_snapshot_plus_tail_recovery(self, tmp_path):
        state = fresh_state(tmp_path)
        counts, _ = state.recover(rules())
        for source, replier in PAIRS[:40]:
            counts.observe(source, replier)
            state.record_pair(source, replier)
        state.checkpoint(counts)
        for source, replier in PAIRS[40:]:
            counts.observe(source, replier)
            state.record_pair(source, replier)
        live = fingerprint_counts(counts)
        state.close()

        twin_state = fresh_state(tmp_path)
        twin, info = twin_state.recover(rules())
        assert info.restored
        assert info.records_replayed == len(PAIRS) - 40  # only the tail
        assert fingerprint_counts(twin) == live
        twin_state.close()

    def test_checkpoint_rotates_and_compacts(self, tmp_path):
        state = fresh_state(tmp_path)
        counts, _ = state.recover(rules())
        for source, replier in PAIRS:
            counts.observe(source, replier)
            state.record_pair(source, replier)
        state.checkpoint(counts)
        state.checkpoint(counts)
        # steady state: exactly one snapshot, one (fresh) WAL segment
        snaps = state.snapshots()
        segments = state.wal_segments()
        assert len(snaps) == 1 and len(segments) == 1
        assert segments[0][0] == snaps[0][0] + 1  # WAL seq follows snapshot


class TestDamageTolerance:
    def _populated(self, tmp_path):
        state = fresh_state(tmp_path)
        counts, _ = state.recover(rules())
        for source, replier in PAIRS:
            counts.observe(source, replier)
            state.record_pair(source, replier)
        state.close()
        return fingerprint_counts(counts), state.wal_segments()

    def test_torn_tail_truncated_physically(self, tmp_path):
        _live, segments = self._populated(tmp_path)
        _seq, path = segments[-1]
        torn_size = os.path.getsize(path) - 5
        os.truncate(path, torn_size)

        state = fresh_state(tmp_path)
        twin, info = state.recover(rules())
        assert info.truncated
        assert info.records_replayed == len(PAIRS) - 1
        # the torn bytes are gone from disk, not just skipped
        assert os.path.getsize(path) == torn_size - (RECORD_BYTES - 5)
        state.close()

        # a second recovery over the repaired log is clean and identical
        state2 = fresh_state(tmp_path)
        twin2, info2 = state2.recover(rules())
        assert not info2.truncated
        assert info2.fingerprint == info.fingerprint
        state2.close()

    def test_corrupt_snapshot_falls_back_to_older(self, tmp_path):
        state = fresh_state(tmp_path)
        counts, _ = state.recover(rules())
        for source, replier in PAIRS[:30]:
            counts.observe(source, replier)
            state.record_pair(source, replier)
        old_fingerprint = fingerprint_counts(counts)
        state.checkpoint(counts)
        old_snap = state.snapshots()[0][1]
        keep = open(old_snap, "rb").read()
        for source, replier in PAIRS[30:]:
            counts.observe(source, replier)
            state.record_pair(source, replier)
        state.checkpoint(counts)
        state.close()
        # resurrect the older snapshot, then corrupt the newest one
        with open(old_snap, "wb") as fh:
            fh.write(keep)
        newest = state.snapshots()[-1][1]
        data = bytearray(open(newest, "rb").read())
        data[-1] ^= 0xFF
        open(newest, "wb").write(bytes(data))

        twin_state = fresh_state(tmp_path)
        twin, info = twin_state.recover(rules())
        assert info.restored
        assert info.snapshot_seq == state.snapshots()[0][0]
        # WAL covered by the bad snapshot was compacted away, so the
        # fallback restores exactly the older checkpoint's state.
        assert fingerprint_counts(twin) == old_fingerprint
        twin_state.close()

    def test_all_snapshots_invalid_means_cold_start(self, tmp_path):
        state = fresh_state(tmp_path)
        write_snapshot(
            os.path.join(state.state_dir, "snap-00000001.snap"),
            rules().make_counts(),
        )
        bad = os.path.join(state.state_dir, "snap-00000002.snap")
        with open(bad, "wb") as fh:
            fh.write(b"junk")
        counts, info = state.recover(rules())
        assert info.restored  # seq 1 is still fine
        assert info.snapshot_seq == 1
        state.close()


class TestMetricsAndInspect:
    def test_metrics_flow_through_registry(self, tmp_path):
        registry = MetricsRegistry()
        state = fresh_state(tmp_path, label="n0", registry=registry)
        counts, _ = state.recover(rules())
        for source, replier in PAIRS:
            counts.observe(source, replier)
            state.record_pair(source, replier)
        state.checkpoint(counts)
        state.close()
        assert registry.total("repro_persist_wal_records_total") == len(PAIRS)
        assert registry.total("repro_persist_checkpoints_total") == 1
        assert registry.total("repro_persist_wal_bytes_total") == (
            len(PAIRS) * RECORD_BYTES
        )

    def test_inspect_state_dir(self, tmp_path):
        state = fresh_state(tmp_path)
        counts, _ = state.recover(rules())
        for source, replier in PAIRS:
            counts.observe(source, replier)
            state.record_pair(source, replier)
        state.checkpoint(counts)
        state.record_pair(9, 9)
        state.close()
        report = inspect_state_dir(state.state_dir)
        assert len(report["snapshots"]) == 1
        assert report["snapshots"][0]["n_rules"] == counts.n_rules()
        assert len(report["wal_segments"]) == 1
        assert report["wal_segments"][0]["records"] == 1

    def test_inspect_reports_bad_snapshot_instead_of_raising(self, tmp_path):
        state = fresh_state(tmp_path)
        bad = os.path.join(state.state_dir, "snap-00000001.snap")
        with open(bad, "wb") as fh:
            fh.write(b"nope")
        report = inspect_state_dir(state.state_dir)
        assert "error" in report["snapshots"][0]

    def test_close_is_idempotent(self, tmp_path):
        state = fresh_state(tmp_path)
        state.recover(rules())
        state.close()
        state.close()
        assert state.closed
