"""Durable rule-state: pair WAL + snapshots + warm crash recovery.

A servent's mined rule set is traffic-derived state the paper spends a
7-day trace to earn; this subpackage keeps it across restarts:

* :mod:`~repro.persist.wal` — append-only, CRC-32-checksummed journal
  of observed (query-source, reply-source) pairs with ``always`` /
  ``interval`` / ``never`` fsync policies;
* :mod:`~repro.persist.snapshot` — versioned, blake2b-fingerprinted
  freezes of the streaming count structures (exact window or lossy
  sketch);
* :mod:`~repro.persist.state` — :class:`PersistentState`, tying both
  into the checkpoint/rotate/compact/recover lifecycle one live node
  drives.

See ``docs/persistence.md`` for the format spec and the
crash-consistency argument.
"""
