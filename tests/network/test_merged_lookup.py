"""``MergedRuleTable.consequents`` against a brute-force scan, and the
digest wire form pinned to fixed bytes.

The lookup bisects each held digest to the category's stretch of its
canonical entries; the reference below scans every entry of every
digest a plain dict model holds.  The model applies the merge rule on
its own (highest epoch per origin, the larger encoding on an equal
epoch), so a lookup that read a stale or dropped digest shows up too.
"""

from hypothesis import given, settings, strategies as st

from repro.network.hier.digest import (
    DigestEntry,
    MergedRuleTable,
    RuleDigest,
    decode_digest,
)

N_CATEGORIES = 6  # lookups also ask categories no entry names


def brute_force_consequents(digests, category: int) -> list[int]:
    support: dict[int, int] = {}
    for digest in digests:
        for entry in digest.entries:
            if entry.category == category:
                support[entry.consequent] = (
                    support.get(entry.consequent, 0) + entry.support
                )
    return sorted(support, key=lambda c: (-support[c], c))


def model_merge(model: dict[int, RuleDigest], digest: RuleDigest) -> None:
    current = model.get(digest.origin)
    if current is None or (current.epoch, current.encode()) < (
        digest.epoch,
        digest.encode(),
    ):
        model[digest.origin] = digest


# small supports and few consequents: summed supports tie often
entries = st.lists(
    st.builds(
        DigestEntry,
        category=st.integers(0, N_CATEGORIES - 3),
        consequent=st.integers(0, 5),
        support=st.integers(1, 3),
    ),
    max_size=8,  # includes the empty digest
)
merge_op = st.tuples(
    st.just("merge"), st.integers(0, 3), st.integers(0, 3), entries
)
republish_op = st.tuples(st.just("republish"), st.integers(0, 3), entries)
invalidate_op = st.tuples(st.just("invalidate"), st.integers(0, 3))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.one_of(merge_op, republish_op, invalidate_op), max_size=14))
def test_consequents_match_a_brute_force_scan(ops):
    table = MergedRuleTable()
    model: dict[int, RuleDigest] = {}
    for op in ops:
        if op[0] == "merge":
            _, origin, epoch, rules = op
            digest = RuleDigest(origin, epoch, 100, rules)
        elif op[0] == "republish":
            # the same origin again, one epoch past what the table holds
            _, origin, rules = op
            held = table.epoch_of(origin)
            digest = RuleDigest(origin, 0 if held is None else held + 1, 100, rules)
        else:
            _, origin = op
            assert table.invalidate(origin) == (model.pop(origin, None) is not None)
            digest = None
        if digest is not None:
            model_merge(model, digest)
            table.merge(digest)
        for category in range(N_CATEGORIES):
            assert table.consequents(category) == brute_force_consequents(
                model.values(), category
            )
    assert table.encode() == b"".join(model[o].encode() for o in sorted(model))


def test_ties_in_summed_support_go_to_the_smaller_id():
    table = MergedRuleTable()
    table.merge(RuleDigest(1, 1, 10, [DigestEntry(2, 8, 3), DigestEntry(2, 3, 1)]))
    table.merge(RuleDigest(2, 1, 10, [DigestEntry(2, 3, 2), DigestEntry(2, 5, 3)]))
    # 3, 5 and 8 all sum to 3
    assert table.consequents(2) == [3, 5, 8]
    assert table.consequents(1) == table.consequents(3) == []


def test_a_remerge_at_a_higher_epoch_replaces_the_origin():
    table = MergedRuleTable()
    table.merge(RuleDigest(1, 1, 10, [DigestEntry(0, 4, 9)]))
    table.merge(RuleDigest(1, 2, 10, [DigestEntry(0, 6, 1)]))
    assert table.consequents(0) == [6]
    table.invalidate(1)
    assert table.consequents(0) == []


# -- the wire form, pinned -------------------------------------------------

GOLDEN = RuleDigest(
    7,
    3,
    1234567890123,
    [
        DigestEntry(5, 9, 40),
        DigestEntry(0, 2, 10),
        DigestEntry(5, 1, 40),
        DigestEntry(39, 499, 2**40 + 1),
    ],
)
GOLDEN_WIRE = bytes.fromhex(
    "524447310700000003000000cb04fb711f0100000400000000000000"
    "020000000a00000000000000"
    "050000000100000028000000000000000500000009000000280000000000000027000000"
    "f301000001000000000100009baed8c9"
)


class TestWireGolden:
    def test_encode_bytes(self):
        assert GOLDEN.encode() == GOLDEN_WIRE

    def test_decode_reads_back_the_canonical_entries(self):
        digest = decode_digest(GOLDEN_WIRE)
        assert digest == GOLDEN
        assert digest.entries == (
            (0, 2, 10),
            (5, 1, 40),
            (5, 9, 40),
            (39, 499, 2**40 + 1),
        )
        assert all(type(e) is DigestEntry for e in digest.entries)

    def test_merged_table_fingerprint_and_lookup(self):
        table = MergedRuleTable()
        table.merge(GOLDEN)
        table.merge(RuleDigest(2, 1, 50, [DigestEntry(5, 4, 3)]))
        assert table.fingerprint().hex() == "45e0f75f7e9ca9cd"
        assert table.consequents(5) == [1, 9, 4]

    def test_entries_are_named_tuples_sorted_as_tuples(self):
        entry = DigestEntry(1, 2, 3)
        assert entry == (1, 2, 3)
        assert entry._fields == ("category", "consequent", "support")
        assert sorted([DigestEntry(1, 2, 9), DigestEntry(1, 1, 9)]) == [
            (1, 1, 9),
            (1, 2, 9),
        ]
