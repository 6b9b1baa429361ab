"""Tests for repro.network.hier.digest — wire codec and merge determinism."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.network.hier.digest import (
    DigestEntry,
    DigestError,
    MergedRuleTable,
    RuleDigest,
    decode_digest,
)


def _digest(origin=1, epoch=1, total=100, entries=((0, 2, 10), (1, 3, 5))):
    return RuleDigest(
        origin, epoch, total, [DigestEntry(*triple) for triple in entries]
    )


class TestWireCodec:
    def test_roundtrip(self):
        digest = _digest()
        assert decode_digest(digest.encode()) == digest

    def test_roundtrip_empty(self):
        digest = _digest(entries=())
        assert decode_digest(digest.encode()) == digest

    def test_canonical_entry_order(self):
        forward = _digest(entries=((0, 2, 10), (1, 3, 5)))
        backward = _digest(entries=((1, 3, 5), (0, 2, 10)))
        assert forward.entries == backward.entries
        assert forward.encode() == backward.encode()
        assert forward.fingerprint() == backward.fingerprint()

    def test_truncated_rejected(self):
        with pytest.raises(DigestError):
            decode_digest(b"RD")

    def test_crc_mismatch_rejected(self):
        wire = bytearray(_digest().encode())
        wire[10] ^= 0xFF
        with pytest.raises(DigestError):
            decode_digest(bytes(wire))

    def test_bad_magic_rejected(self):
        import struct
        import zlib

        body = b"XXX1" + _digest().encode()[4:-4]
        wire = body + struct.pack("<I", zlib.crc32(body))
        with pytest.raises(DigestError):
            decode_digest(wire)

    def test_entry_count_mismatch_rejected(self):
        import struct
        import zlib

        wire = _digest().encode()
        # Drop one entry from the body but keep the header count; re-CRC
        # so only the structural check can catch it.
        body = wire[:-4][:-12]
        forged = body + struct.pack("<I", zlib.crc32(body))
        with pytest.raises(DigestError):
            decode_digest(forged)

    def test_confidence(self):
        entry = DigestEntry(0, 2, 25)
        assert entry.confidence(100) == 0.25
        assert entry.confidence(0) == 0.0


# -- merge determinism (the property the overlay exchange relies on) --------

entry_strategy = st.builds(
    DigestEntry,
    category=st.integers(0, 15),
    consequent=st.integers(0, 31),
    support=st.integers(1, 1 << 40),
)

digest_strategy = st.builds(
    RuleDigest,
    origin=st.integers(0, 7),
    epoch=st.integers(0, 5),
    total=st.integers(0, 1 << 40),
    entries=st.lists(entry_strategy, max_size=6),
)


@settings(max_examples=150, deadline=None)
@given(st.lists(digest_strategy, max_size=10), st.randoms(use_true_random=False))
def test_merge_is_order_independent(digests, rnd):
    """Any permutation of the same digest set converges to a
    bit-identical table encoding (hence an identical fingerprint)."""
    ordered = MergedRuleTable()
    for digest in digests:
        ordered.merge(digest)
    shuffled_digests = list(digests)
    rnd.shuffle(shuffled_digests)
    shuffled = MergedRuleTable()
    for digest in shuffled_digests:
        shuffled.merge(digest)
    assert ordered.encode() == shuffled.encode()
    assert ordered.fingerprint() == shuffled.fingerprint()


@settings(max_examples=100, deadline=None)
@given(st.lists(digest_strategy, max_size=8))
def test_merge_is_idempotent(digests):
    once = MergedRuleTable()
    for digest in digests:
        once.merge(digest)
    twice = MergedRuleTable()
    for digest in digests:
        twice.merge(digest)
        twice.merge(digest)  # duplicate delivery (gossip retransmit)
    assert once.encode() == twice.encode()


@settings(max_examples=100, deadline=None)
@given(st.lists(digest_strategy, max_size=8))
def test_highest_epoch_wins_regardless_of_order(digests):
    table = MergedRuleTable()
    for digest in digests:
        table.merge(digest)
    for digest in digests:
        origin_epochs = [d.epoch for d in digests if d.origin == digest.origin]
        assert table.epoch_of(digest.origin) == max(origin_epochs)


class TestMergedRuleTable:
    def test_stale_epoch_ignored(self):
        table = MergedRuleTable()
        assert table.merge(_digest(epoch=3))
        assert not table.merge(_digest(epoch=2, entries=((9, 9, 9),)))
        assert table.epoch_of(1) == 3
        assert table.consequents(9) == []

    def test_equal_epoch_republish_is_noop(self):
        table = MergedRuleTable()
        table.merge(_digest(epoch=1))
        before = table.encode()
        assert not table.merge(_digest(epoch=1))
        assert table.encode() == before

    def test_invalidate_drops_origin(self):
        table = MergedRuleTable()
        table.merge(_digest(origin=1))
        table.merge(_digest(origin=2, entries=((0, 5, 99),)))
        assert table.invalidate(1)
        assert not table.invalidate(1)  # already gone
        assert table.epoch_of(1) is None
        assert len(table) == 1
        assert table.consequents(0) == [5]

    def test_consequents_aggregate_and_rank(self):
        table = MergedRuleTable()
        table.merge(
            _digest(origin=1, entries=((0, 4, 10), (0, 5, 3), (0, 6, 1), (0, 7, 2)))
        )
        table.merge(_digest(origin=2, entries=((0, 5, 10),)))
        # support: sp5 = 13, sp4 = 10, sp7 = 2, sp6 = 1 — the whole
        # ranking, however long: the rule rung makes the one cut
        assert table.consequents(0) == [5, 4, 7, 6]
        assert table.consequents(7) == []
