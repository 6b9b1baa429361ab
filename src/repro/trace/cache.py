"""The one route from the trace generator to a trace-driven experiment.

The paper imported its seven-day trace into a database once and ran
every strategy against that one copy.  Here the copy is an on-disk
columnar store (:mod:`repro.trace.store`), one file per generated trace,
and :func:`trace_blocks` is the only way an experiment gets its blocks:
the executor's loop and its pool workers both call it, so the
first caller on a machine pays for generation and everyone after —
other experiments, other processes, later runs — reads the same file.
The OS page cache is the cross-process share; nothing is shipped to
workers.

A cache file is named and stamped by *provenance*: the generating
``(config, seed, n_pairs)`` is hashed (:func:`trace_fingerprint`) into
the file name ``trace-<fingerprint>.rptrace`` and the store header's
metadata word.  The length is part of the stamp because
:meth:`~repro.workload.tracegen.MonitorTraceGenerator.generate_pair_arrays`
pre-draws its inter-arrival gaps per call: a longer trace is not a
superset of a shorter one, so a prefix of one file can never stand in
for another.  What the stamp does not cover is the generator's *code* —
point ``REPRO_TRACE_CACHE_DIR`` somewhere fresh when comparing
checkouts.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import json
import os
import uuid
import warnings

import numpy as np

from repro.trace.blocks import PairBlock, blocks_from_arrays
from repro.trace.store import TraceStoreError, TraceStoreReader, TraceStoreWriter
from repro.workload.tracegen import MonitorTraceConfig, MonitorTraceGenerator, PairArrays

__all__ = ["trace_fingerprint", "default_trace_cache_dir", "trace_blocks"]


def trace_fingerprint(
    config: MonitorTraceConfig | None, seed: int, n_pairs: int
) -> int:
    """64-bit provenance hash of a trace's generating parameters.

    Defined over the config's field values (via a canonical JSON
    encoding), the seed and the length, so two specs that compare equal
    always fingerprint equal, and any knob, seed or length change
    produces a different stamp.  ``config=None`` hashes the defaults it
    stands for.
    """
    payload = json.dumps(
        {
            "config": dataclasses.asdict(config or MonitorTraceConfig()),
            "seed": int(seed),
            "n_pairs": int(n_pairs),
        },
        sort_keys=True,
        default=repr,
    )
    digest = hashlib.blake2b(payload.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "little")


def default_trace_cache_dir() -> str:
    """Directory holding the process-shared trace cache.

    ``$REPRO_TRACE_CACHE_DIR`` when set, else ``~/.cache/repro/traces``.
    """
    override = os.environ.get("REPRO_TRACE_CACHE_DIR")
    if override:
        return override
    return os.path.join(os.path.expanduser("~"), ".cache", "repro", "traces")


#: the one open reader per cache file in this process, keyed by path.
#: Readers stay open for the process lifetime so a block already handed
#: out can still read a segment it has not read yet, whatever later
#: calls do.
_READERS: dict[str, TraceStoreReader] = {}


def _generate(config: MonitorTraceConfig, seed: int, n_pairs: int) -> PairArrays:
    return MonitorTraceGenerator(config, seed=seed).generate_pair_arrays(n_pairs)


def _open_complete(path: str, stamp: int, n_pairs: int, block_size: int):
    """A reader on ``path`` if it is this spec's complete store, else None.

    No file, bytes that are not a store, a footer-less (torn) store,
    another spec's stamp and a store in a layout an earlier release wrote
    (raw columns, or keys counted from them on every read) are all misses
    to be rebuilt; an error opening the file is the caller's to handle.
    """
    try:
        reader = TraceStoreReader(path)
    except (FileNotFoundError, TraceStoreError):
        return None
    with contextlib.suppress(TraceStoreError):  # a header row_indexed refuses
        if (
            reader.meta_fingerprint == stamp
            and not reader.recovered
            and reader.n_pairs == n_pairs
            and reader.block_size == block_size
            and reader.row_indexed
        ):
            return reader
    reader.close()
    return None


def _publish(path: str, arrays: PairArrays, block_size: int, stamp: int) -> None:
    """Write ``arrays`` as a stamped store that appears at ``path`` whole.

    The store is written under a sibling temp name and renamed into
    place, so another process sees no file or a complete one, and a
    file somebody has open is replaced, never truncated.  Concurrent
    writers of one spec write identical bytes; the last rename wins.
    """
    tmp = f"{path}.{uuid.uuid4().hex}.tmp"
    writer = TraceStoreWriter(tmp, block_size=block_size, meta_fingerprint=stamp)
    try:
        writer.append(arrays.source, arrays.replier)
        # Keep the partial tail block: the file holds every requested
        # pair, so any block size can be cut from it.
        writer.close(drop_partial=False)
        os.replace(tmp, path)
    except BaseException:
        writer.abandon()
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise


def _reader(
    n_pairs: int, config: MonitorTraceConfig, seed: int, cache_dir
) -> TraceStoreReader:
    directory = (
        os.fspath(cache_dir) if cache_dir is not None else default_trace_cache_dir()
    )
    stamp = trace_fingerprint(config, seed, n_pairs)
    path = os.path.join(directory, f"trace-{stamp:016x}.rptrace")
    reader = _READERS.get(path)
    if reader is None:
        os.makedirs(directory, exist_ok=True)
        reader = _open_complete(path, stamp, n_pairs, config.block_size)
        if reader is None:
            _publish(path, _generate(config, seed, n_pairs), config.block_size, stamp)
            reader = TraceStoreReader(path)
        # First registered wins: dropping a reader closes it, and its
        # blocks could then read no segment they have not read yet.
        reader = _READERS.setdefault(path, reader)
    return reader


def trace_blocks(
    n_pairs: int,
    *,
    config: MonitorTraceConfig | None = None,
    seed: int = 0,
    block_size: int | None = None,
    cache_dir: str | os.PathLike | None = None,
) -> list[PairBlock]:
    """Whole blocks of the single-shot ``(config, seed, n_pairs)`` trace.

    Bit-identical to ``blocks_from_arrays`` over one
    ``generate_pair_arrays(n_pairs)`` call (a trailing partial block is
    dropped), but generated at most once per machine: the first call
    for a spec writes it as a store under ``cache_dir`` (default:
    :func:`default_trace_cache_dir`), every later call in any process
    opens that file, and a cache file in a layout an earlier release
    wrote is written again, once.  Blocks of the config's own size come
    with fingerprints pre-seeded from the file and their packed keys
    read: each pair's row of the block's decoded key histogram.  Another
    ``block_size`` re-cuts the same cached columns.
    When the cache directory cannot be used the trace is generated in
    memory, with a warning.
    """
    if n_pairs < 0:
        raise ValueError("n_pairs must be non-negative")
    if n_pairs == 0:
        return []  # nothing to cache
    config = config or MonitorTraceConfig()
    if block_size is None:
        block_size = config.block_size
    try:
        blocks = _reader(n_pairs, config, seed, cache_dir).blocks()
    except (OSError, TraceStoreError) as exc:
        warnings.warn(
            f"trace-store cache unusable ({exc}); generating in memory",
            stacklevel=2,
        )
        arrays = _generate(config, seed, n_pairs)
        return blocks_from_arrays(arrays.source, arrays.replier, block_size=block_size)
    if block_size == config.block_size:
        return blocks[: n_pairs // config.block_size]
    return blocks_from_arrays(
        np.concatenate([block.sources for block in blocks]),
        np.concatenate([block.repliers for block in blocks]),
        block_size=block_size,
    )
