"""Tests for repro.persist.snapshot — round trips, integrity, fingerprints."""

import hashlib
import json
import os
import struct
import zlib
from pathlib import Path

import pytest

from repro.core.streaming import StreamingRules
from repro.persist.snapshot import (
    SNAPSHOT_MAGIC,
    SnapshotError,
    fingerprint_counts,
    load_snapshot,
    read_snapshot_header,
    write_snapshot,
)

PAIRS = [(s % 4, r % 3) for s, r in zip(range(40), range(1, 81, 2))]


def exact_counts():
    counts = StreamingRules(min_support_count=2, window_pairs=64).make_counts()
    for source, replier in PAIRS:
        counts.observe(source, replier)
    return counts


def lossy_counts():
    counts = StreamingRules(
        min_support_count=2, backend="lossy", epsilon=0.01
    ).make_counts()
    for source, replier in PAIRS:
        counts.observe(source, replier)
    return counts


@pytest.fixture(params=["exact", "lossy"])
def counts(request):
    return exact_counts() if request.param == "exact" else lossy_counts()


class TestRoundTrip:
    def test_loaded_twin_fingerprints_identically(self, tmp_path, counts):
        path = str(tmp_path / "s.snap")
        write_snapshot(path, counts)
        twin, header = load_snapshot(path)
        assert fingerprint_counts(twin) == fingerprint_counts(counts)
        assert header["fingerprint"] == fingerprint_counts(counts)
        assert twin.n_rules() == counts.n_rules()

    def test_loaded_twin_behaves_identically(self, tmp_path, counts):
        path = str(tmp_path / "s.snap")
        write_snapshot(path, counts)
        twin, _header = load_snapshot(path)
        for source in range(4):
            assert twin.covers(source) == counts.covers(source)
            assert twin.consequents(source) == counts.consequents(source)
        # the twin keeps learning exactly in step
        for source, replier in [(0, 1), (0, 1), (3, 2)]:
            assert twin.observe(source, replier) == counts.observe(source, replier)
        assert fingerprint_counts(twin) == fingerprint_counts(counts)

    def test_header_fields_and_meta(self, tmp_path):
        counts = exact_counts()
        path = str(tmp_path / "s.snap")
        header = write_snapshot(path, counts, meta={"node": "7"})
        assert header["backend"] == "exact"
        assert header["n_rules"] == counts.n_rules()
        assert header["node"] == "7"
        assert read_snapshot_header(path) == header

    def test_no_temp_file_left_behind(self, tmp_path):
        path = str(tmp_path / "s.snap")
        write_snapshot(path, exact_counts())
        assert os.listdir(tmp_path) == ["s.snap"]

    def test_rewrite_replaces_atomically(self, tmp_path):
        counts = exact_counts()
        path = str(tmp_path / "s.snap")
        write_snapshot(path, counts)
        counts.observe(0, 1)
        write_snapshot(path, counts)
        twin, _ = load_snapshot(path)
        assert fingerprint_counts(twin) == fingerprint_counts(counts)


class TestFingerprint:
    def test_equal_state_equal_fingerprint(self):
        assert fingerprint_counts(exact_counts()) == fingerprint_counts(
            exact_counts()
        )

    def test_fingerprint_tracks_state_changes(self):
        a, b = exact_counts(), exact_counts()
        b.observe(0, 1)
        assert fingerprint_counts(a) != fingerprint_counts(b)

    def test_backends_never_collide(self):
        assert fingerprint_counts(exact_counts()) != fingerprint_counts(
            lossy_counts()
        )

    def test_lossy_qualified_cache_excluded(self):
        """What a read memoises (the ranked consequents) is not state."""
        counts = lossy_counts()
        before = fingerprint_counts(counts)
        for source in range(4):
            counts.consequents(source)
        assert fingerprint_counts(counts) == before


class TestIntegrity:
    def _snapshot(self, tmp_path):
        path = str(tmp_path / "s.snap")
        write_snapshot(path, exact_counts())
        return path

    def test_truncated_file(self, tmp_path):
        path = self._snapshot(tmp_path)
        os.truncate(path, 10)
        with pytest.raises(SnapshotError, match="truncated"):
            load_snapshot(path)

    def test_bad_magic(self, tmp_path):
        path = self._snapshot(tmp_path)
        data = bytearray(open(path, "rb").read())
        data[0] ^= 0xFF
        open(path, "wb").write(bytes(data))
        with pytest.raises(SnapshotError, match="bad magic"):
            load_snapshot(path)

    def test_unsupported_version(self, tmp_path):
        path = str(tmp_path / "s.snap")
        with open(path, "wb") as fh:
            fh.write(b"RPSN" + struct.pack("<HH", 42, 0) + b"\x00" * 8)
        with pytest.raises(SnapshotError, match="version"):
            load_snapshot(path)

    def test_corrupt_header(self, tmp_path):
        path = self._snapshot(tmp_path)
        data = bytearray(open(path, "rb").read())
        data[20] ^= 0xFF  # inside the JSON header
        open(path, "wb").write(bytes(data))
        with pytest.raises(SnapshotError, match="header checksum"):
            load_snapshot(path)

    def test_corrupt_payload(self, tmp_path):
        path = self._snapshot(tmp_path)
        data = bytearray(open(path, "rb").read())
        data[-1] ^= 0xFF
        open(path, "wb").write(bytes(data))
        with pytest.raises(SnapshotError, match="payload digest"):
            load_snapshot(path)

    def test_short_payload(self, tmp_path):
        path = self._snapshot(tmp_path)
        os.truncate(path, os.path.getsize(path) - 4)
        with pytest.raises(SnapshotError, match="payload"):
            load_snapshot(path)

    def test_magic_is_eight_bytes(self):
        assert len(SNAPSHOT_MAGIC) == 8

    def _rewrite(self, path, *, header_edit=None, payload_edit=None):
        """Re-frame the snapshot with a valid CRC and payload digest."""
        data = open(path, "rb").read()
        (header_len,) = struct.unpack("<I", data[8:12])
        header = json.loads(data[16 : 16 + header_len])
        payload = data[16 + header_len :]
        if payload_edit is not None:
            payload = payload_edit(payload)
            header["payload_len"] = len(payload)
            header["payload_blake2b"] = hashlib.blake2b(
                payload, digest_size=16
            ).hexdigest()
        if header_edit is not None:
            header_edit(header)
        header_bytes = json.dumps(header, sort_keys=True).encode()
        with open(path, "wb") as fh:
            fh.write(SNAPSHOT_MAGIC)
            fh.write(struct.pack("<II", len(header_bytes), zlib.crc32(header_bytes)))
            fh.write(header_bytes)
            fh.write(payload)

    def test_unknown_backend_is_a_snapshot_error(self, tmp_path):
        path = self._snapshot(tmp_path)
        self._rewrite(path, header_edit=lambda h: h.update(backend="bloom"))
        read_snapshot_header(path)  # checksums hold: the frame is intact
        with pytest.raises(SnapshotError, match="unknown backend 'bloom'"):
            load_snapshot(path)

    @pytest.mark.parametrize("make", [exact_counts, lossy_counts])
    def test_ragged_payload_is_a_snapshot_error(self, tmp_path, make):
        path = str(tmp_path / "s.snap")
        write_snapshot(path, make())
        self._rewrite(path, payload_edit=lambda payload: payload[:-3])
        with pytest.raises(SnapshotError, match="not whole"):
            load_snapshot(path)

    def test_recover_falls_back_past_an_unknown_backend(self, tmp_path):
        """The typed error is what lets recovery try the older generation."""
        from repro.persist.state import PersistentState

        counts = exact_counts()
        write_snapshot(str(tmp_path / "snap-00000001.snap"), counts)
        newest = str(tmp_path / "snap-00000002.snap")
        write_snapshot(newest, counts)
        self._rewrite(newest, header_edit=lambda h: h.update(backend="bloom"))
        state = PersistentState(str(tmp_path))
        recovered, info = state.recover(StreamingRules(min_support_count=2))
        state.close()
        assert info.restored and info.snapshot_seq == 1
        assert fingerprint_counts(recovered) == fingerprint_counts(counts)


def _frame_header(path, header_bytes):
    """Overwrite ``path`` with ``header_bytes`` as a CRC-valid header."""
    with open(path, "wb") as fh:
        fh.write(SNAPSHOT_MAGIC)
        fh.write(struct.pack("<II", len(header_bytes), zlib.crc32(header_bytes)))
        fh.write(header_bytes)


def _read_via_inspect(path):
    from repro.persist.state import inspect_state_dir

    (entry,) = inspect_state_dir(os.path.dirname(path))["snapshots"]
    if "error" in entry:
        raise SnapshotError(entry["error"])
    return entry


BAD_HEADERS = [
    pytest.param(b"[]", id="array"),
    pytest.param(b"not json", id="not-json"),
    pytest.param(b"\xff\xfe", id="not-utf8"),
    pytest.param(b"[" * 100_000, id="nested-too-deep"),
    pytest.param(b'{"payload_len": 0}', id="fields-missing"),
    pytest.param(
        b'{"payload_len": "0", "payload_blake2b": "", "backend": "exact"}',
        id="len-is-str",
    ),
    pytest.param(
        b'{"payload_len": true, "payload_blake2b": "", "backend": "exact"}',
        id="len-is-bool",
    ),
    pytest.param(
        b'{"payload_len": 0, "payload_blake2b": 7, "backend": "exact"}',
        id="digest-is-int",
    ),
    pytest.param(
        b'{"payload_len": 0, "payload_blake2b": "", "backend": ["exact"]}',
        id="backend-is-list",
    ),
]


class TestHeaderShape:
    """A CRC-valid header that is not the object the reader expects is a
    :class:`SnapshotError`, never a ``TypeError`` / ``KeyError`` /
    ``JSONDecodeError`` from inside the reader."""

    @pytest.mark.parametrize("header_bytes", BAD_HEADERS)
    @pytest.mark.parametrize(
        "read", [load_snapshot, read_snapshot_header, _read_via_inspect]
    )
    def test_is_a_snapshot_error(self, tmp_path, header_bytes, read):
        path = str(tmp_path / "snap-00000001.snap")
        _frame_header(path, header_bytes)
        with pytest.raises(SnapshotError):
            read(path)

    @pytest.mark.parametrize("header_bytes", BAD_HEADERS)
    def test_recover_falls_back_to_the_older_snapshot(self, tmp_path, header_bytes):
        from repro.persist.state import PersistentState

        counts = exact_counts()
        write_snapshot(str(tmp_path / "snap-00000001.snap"), counts)
        _frame_header(str(tmp_path / "snap-00000002.snap"), header_bytes)
        state = PersistentState(str(tmp_path))
        recovered, info = state.recover(StreamingRules(min_support_count=2))
        state.close()
        assert info.restored and info.snapshot_seq == 1
        assert fingerprint_counts(recovered) == fingerprint_counts(counts)


DATA = Path(__file__).parent / "data"


class TestParentGoldens:
    """Snapshots written by the commit before ``repro.core.counts`` existed
    (``_ExactWindowCounts`` / ``_LossyCounts``): the format did not move."""

    @pytest.mark.parametrize(
        "name, fingerprint, n_rules",
        [
            ("parent_exact.snap", "af054ccc0f8880781a23e1e347a4d027", 19),
            ("parent_lossy.snap", "450904e1b8e9db5af3212b76b5a6d333", 20),
        ],
    )
    def test_loads_and_reencodes_to_the_same_bytes(
        self, tmp_path, name, fingerprint, n_rules
    ):
        counts, header = load_snapshot(str(DATA / name))
        assert header["fingerprint"] == fingerprint
        assert fingerprint_counts(counts) == fingerprint
        assert counts.n_rules() == header["n_rules"] == n_rules
        again = str(tmp_path / name)
        write_snapshot(again, counts)
        assert Path(again).read_bytes() == (DATA / name).read_bytes()
