"""Durable rule state: snapshot + WAL-tail lifecycle for one servent.

:class:`PersistentState` owns one state directory and runs the classic
checkpoint/journal protocol over it:

* every observed (query-source, reply-source) pair is appended to the
  current WAL segment *as it is folded* into the live counts;
* :meth:`checkpoint` freezes the counts into a fingerprinted snapshot,
  rotates to a fresh WAL segment, and deletes the segments the
  snapshot just made redundant (compaction) — steady-state disk usage
  is one snapshot plus the journal written since it;
* :meth:`recover` loads the newest *valid* snapshot (corrupt ones are
  skipped, falling back to older generations), replays the WAL tail on
  top, and truncates a torn final record instead of failing — the
  invariant is that recovery never loses an fsynced record and never
  fabricates one.

Directory layout (sequence numbers are monotonic and shared)::

    state_dir/
      snap-00000003.snap    # counts after every pair in segments <= 3
      wal-00000004.wal      # pairs observed since that snapshot

The obs registry (optional) gets checkpoint/recovery timings and WAL
volume counters, labelled by node.
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass
from time import perf_counter

from repro.obs.logging import get_logger
from repro.persist.snapshot import (
    SnapshotError,
    fingerprint_counts,
    load_snapshot,
    read_snapshot_header,
    write_snapshot,
)
from repro.persist.wal import WalError, WalWriter, read_wal, wal_header

__all__ = ["PersistentState", "RecoveryInfo", "inspect_state_dir"]

_log = get_logger("persist")

_SNAP_RE = re.compile(r"^snap-(\d{8})\.snap$")
_WAL_RE = re.compile(r"^wal-(\d{8})\.wal$")


@dataclass(frozen=True)
class RecoveryInfo:
    """What one :meth:`PersistentState.recover` run found and rebuilt."""

    #: True when a snapshot was loaded (False = cold start or WAL-only).
    restored: bool
    #: sequence number of the snapshot used (None when none was valid).
    snapshot_seq: int | None
    #: rules at/above threshold inside that snapshot.
    snapshot_rules: int
    #: WAL segments and records replayed on top of the snapshot.
    segments_replayed: int
    records_replayed: int
    #: True when a torn/corrupt record forced a tail truncation.
    truncated: bool
    #: rules at/above threshold after replay.
    n_rules: int
    #: blake2b fingerprint of the recovered counts state.
    fingerprint: str
    #: wall-clock recovery duration.
    seconds: float

    def as_dict(self) -> dict:
        return {
            "restored": self.restored,
            "snapshot_seq": self.snapshot_seq,
            "snapshot_rules": self.snapshot_rules,
            "segments_replayed": self.segments_replayed,
            "records_replayed": self.records_replayed,
            "truncated": self.truncated,
            "n_rules": self.n_rules,
            "fingerprint": self.fingerprint,
            "seconds": self.seconds,
        }


def _scan(state_dir: str, pattern: re.Pattern) -> list[tuple[int, str]]:
    """(seq, path) entries matching ``pattern``, ascending by seq."""
    found = []
    for name in os.listdir(state_dir):
        match = pattern.match(name)
        if match:
            found.append((int(match.group(1)), os.path.join(state_dir, name)))
    found.sort()
    return found


class PersistentState:
    """Snapshot + pair-WAL durability for one servent's rule counts."""

    def __init__(
        self,
        state_dir: str,
        *,
        fsync: str = "interval",
        label: str = "",
        registry=None,
    ) -> None:
        self.state_dir = state_dir
        self.fsync = fsync
        self.label = label or state_dir
        os.makedirs(state_dir, exist_ok=True)
        self._writer: WalWriter | None = None
        self._seq = 0  # current WAL segment sequence number
        self._closed = False
        if registry is None:
            from repro.obs.registry import NullRegistry

            registry = NullRegistry()
        node = str(self.label)
        self._wal_records = registry.counter(
            "repro_persist_wal_records_total",
            "Pair observations journaled to the write-ahead log.",
            ("node",),
        ).labels(node)
        self._wal_bytes = registry.counter(
            "repro_persist_wal_bytes_total",
            "Bytes appended to the write-ahead log.",
            ("node",),
        ).labels(node)
        self._checkpoints = registry.counter(
            "repro_persist_checkpoints_total",
            "Snapshots taken (each rotates and compacts the WAL).",
            ("node",),
        ).labels(node)
        self._checkpoint_seconds = registry.histogram(
            "repro_persist_checkpoint_seconds",
            "Time to snapshot the counts and rotate the WAL.",
            ("node",),
        ).labels(node)
        self._recovery_seconds = registry.histogram(
            "repro_persist_recovery_seconds",
            "Time to load a snapshot and replay the WAL tail.",
            ("node",),
        ).labels(node)
        self._recovered_rules = registry.gauge(
            "repro_persist_recovered_rules",
            "Rules at/above threshold right after the last recovery.",
            ("node",),
        ).labels(node)

    # -- paths ------------------------------------------------------------
    def _wal_path(self, seq: int) -> str:
        return os.path.join(self.state_dir, f"wal-{seq:08d}.wal")

    def _snap_path(self, seq: int) -> str:
        return os.path.join(self.state_dir, f"snap-{seq:08d}.snap")

    def snapshots(self) -> list[tuple[int, str]]:
        return _scan(self.state_dir, _SNAP_RE)

    def wal_segments(self) -> list[tuple[int, str]]:
        return _scan(self.state_dir, _WAL_RE)

    # -- recovery ---------------------------------------------------------
    def recover(self, rules) -> tuple[object, RecoveryInfo]:
        """Rebuild live counts from disk; open a fresh WAL segment.

        Must be called once, before :meth:`record_pair` — on an empty
        state directory it degenerates to ``rules.make_counts()`` (a
        cold start with an empty journal).  Returns ``(counts, info)``.

        A snapshot that fails validation is skipped with a warning and
        the next-older one is tried; WAL segments newer than the chosen
        snapshot are replayed in order, and a torn or corrupt record
        truncates that segment (physically, so later tools see a clean
        log) and ends the replay.
        """
        t0 = perf_counter()
        counts = None
        snap_seq: int | None = None
        snap_rules = 0
        for seq, path in reversed(self.snapshots()):
            try:
                counts, header = load_snapshot(path)
            except (SnapshotError, OSError, KeyError, ValueError) as exc:
                _log.warning(
                    "skipping invalid snapshot",
                    extra={"path": path, "error": str(exc)},
                )
                continue
            snap_seq = seq
            snap_rules = int(header.get("n_rules", counts.n_rules()))
            if header["backend"] != rules.backend:
                _log.warning(
                    "snapshot backend differs from configured rules; "
                    "restoring the snapshot's",
                    extra={
                        "snapshot": header["backend"],
                        "configured": rules.backend,
                    },
                )
            break
        if counts is None:
            counts = rules.make_counts()
        segments_replayed = 0
        records_replayed = 0
        truncated = False
        max_seq = snap_seq or 0
        for seq, path in self.wal_segments():
            max_seq = max(max_seq, seq)
            if snap_seq is not None and seq <= snap_seq:
                continue  # already folded into the snapshot
            if truncated:
                _log.warning(
                    "WAL segment follows a truncated one; not replaying",
                    extra={"path": path},
                )
                continue
            result = read_wal(path)
            for source, replier in result.pairs:
                counts.observe(source, replier)
            segments_replayed += 1
            records_replayed += len(result.pairs)
            if not result.clean:
                truncated = True
                os.truncate(path, result.good_offset)
                _log.warning(
                    "truncated torn WAL tail",
                    extra={
                        "path": path,
                        "good_bytes": result.good_offset,
                        "records": len(result.pairs),
                    },
                )
        self._seq = max_seq + 1
        self._writer = WalWriter(self._wal_path(self._seq), fsync=self.fsync)
        info = RecoveryInfo(
            restored=snap_seq is not None,
            snapshot_seq=snap_seq,
            snapshot_rules=snap_rules,
            segments_replayed=segments_replayed,
            records_replayed=records_replayed,
            truncated=truncated,
            n_rules=counts.n_rules(),
            fingerprint=fingerprint_counts(counts),
            seconds=perf_counter() - t0,
        )
        self._recovery_seconds.observe(info.seconds)
        self._recovered_rules.set(float(info.n_rules))
        _log.info("recovered rule state", extra=info.as_dict())
        return counts, info

    # -- journaling -------------------------------------------------------
    def record_pair(self, source: int, replier: int) -> None:
        """Journal one observed pair (call :meth:`recover` first)."""
        if self._writer is None:
            raise RuntimeError(self._no_writer("record_pair"))
        n = self._writer.append(source, replier)
        self._wal_records.inc()
        self._wal_bytes.inc(n)

    # -- checkpointing ----------------------------------------------------
    def checkpoint(self, counts) -> dict:
        """Snapshot ``counts``, rotate the WAL, compact old segments.

        Ordering is what makes this crash-consistent: the snapshot is
        durably in place (atomic rename) *before* any WAL segment it
        covers is deleted, so every instant in the procedure leaves the
        directory recoverable to the same state.
        """
        if self._writer is None:
            raise RuntimeError(self._no_writer("checkpoint"))
        t0 = perf_counter()
        sealed = self._seq
        self._writer.close()
        header = write_snapshot(
            self._snap_path(sealed),
            counts,
            meta={"through_segment": sealed, "node": str(self.label)},
        )
        self._seq = sealed + 1
        self._writer = WalWriter(self._wal_path(self._seq), fsync=self.fsync)
        for seq, path in self.wal_segments():
            if seq <= sealed:
                os.remove(path)
        for seq, path in self.snapshots():
            if seq < sealed:
                os.remove(path)
        elapsed = perf_counter() - t0
        self._checkpoints.inc()
        self._checkpoint_seconds.observe(elapsed)
        _log.debug(
            "checkpoint",
            extra={
                "seq": sealed,
                "n_rules": header["n_rules"],
                "seconds": elapsed,
            },
        )
        return header

    def close(self) -> None:
        """Seal the current WAL segment (no implicit checkpoint)."""
        if self._closed:
            return
        self._closed = True
        if self._writer is not None:
            self._writer.close()
            self._writer = None

    def _no_writer(self, call: str) -> str:
        sealed = f"{call}() after close(): the state is sealed"
        return sealed if self._closed else f"recover() must run before {call}()"

    @property
    def closed(self) -> bool:
        return self._closed


def inspect_state_dir(state_dir: str) -> dict:
    """Snapshot and WAL headers for one state directory, as plain data.

    Powers ``python -m repro persist inspect``; unreadable snapshot and
    WAL files are reported with their error rather than aborting the dump.
    """
    snapshots = []
    for _seq, path in _scan(state_dir, _SNAP_RE):
        try:
            snapshots.append({"path": path, **read_snapshot_header(path)})
        except (SnapshotError, OSError) as exc:
            snapshots.append({"path": path, "error": str(exc)})
    segments = []
    for _seq, path in _scan(state_dir, _WAL_RE):
        try:
            segments.append(wal_header(path))
        except (WalError, OSError) as exc:
            segments.append({"path": path, "error": str(exc)})
    return {
        "state_dir": state_dir,
        "snapshots": snapshots,
        "wal_segments": segments,
    }
