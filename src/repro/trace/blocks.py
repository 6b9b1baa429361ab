"""Blocks of query–reply pairs.

The paper's simulator operates on *blocks* — consecutive runs of (by
default) 10,000 query–reply pairs: a rule set is generated from one block
and tested against following blocks.  :class:`PairBlock` is the columnar
(numpy) representation the rule engine consumes; there is one way in per
source: parallel id arrays (the fast-path
:class:`~repro.workload.tracegen.PairArrays`), the full pipeline's
:class:`~repro.trace.capture.PairLog`, and an on-disk trace store.

It also owns the *packed pair key*, one int64 ``(source << 32) | replier``
for ids in ``[0, 2**31)``, which the trace store persists: keys sort by
source, then replier, and only the functions here pack or split one.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from repro.trace.capture import PairLog

__all__ = [
    "PairBlock", "count_keys", "key_order", "rank_keys", "partition_pairs",
    "blocks_from_arrays", "iter_blocks_from_arrays", "scan_id_range",
    # the packed pair key
    "ID_LIMIT", "pack_keys", "key_sources", "key_repliers", "source_bits",
    "source_key_range",
]

#: node ids must stay below this for (source << 32) | replier key packing.
ID_LIMIT = 1 << 31
_REPLIER = 0xFFFFFFFF
_SOURCE = ~np.int64(_REPLIER)


def pack_keys(sources: np.ndarray, repliers: np.ndarray) -> np.ndarray:
    """Each pair's packed key, of ids :func:`scan_id_range` has checked."""
    return (np.asarray(sources, np.int64) << 32) | np.asarray(repliers, np.int64)


def key_sources(keys: np.ndarray) -> np.ndarray:
    """The source half of each packed key."""
    return keys >> 32


def key_repliers(keys: np.ndarray) -> np.ndarray:
    """The replier half of each packed key."""
    return keys & _REPLIER


def source_bits(keys: np.ndarray) -> np.ndarray:
    """Each key with its replier half cleared (its source's first key)."""
    return keys & _SOURCE


def source_key_range(sources: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each source's first and last key, inclusive: the last is
    ``source << 32 | 0xFFFFFFFF``, since ``(source + 1) << 32`` overflows
    int64 at source ``2**31 - 1``."""
    first = np.asarray(sources, np.int64) << 32
    return first, first | _REPLIER


def count_keys(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The sorted distinct ``keys`` and how often each occurs: an
    in-memory block's histogram (resolved at call time so tests can
    count it)."""
    return np.unique(keys, return_counts=True)


def _row_dtype(n_rows: int) -> np.dtype:
    """The narrowest unsigned dtype that numbers ``n_rows`` rows: one a
    stable ``argsort`` orders by radix, not by timsort, up to 2**16."""
    return np.dtype(
        np.uint8 if n_rows <= 1 << 8 else np.uint16 if n_rows <= 1 << 16 else np.uint32
    )


def key_order(keys: np.ndarray) -> np.ndarray:
    """What ``np.argsort(keys, kind="stable")`` returns for packed
    ``keys``: their order, equal keys by position.

    When there is room for a position beside each key, it is one
    ``np.sort`` of ``value << bits | position``, which orders and
    locates at once.  The value is the key less the smallest one, or,
    when that span is too wide, ``source * replier span + replier`` with
    ids less the smallest of each (up to 2**24 ids each for 2**14 keys:
    the paper's trace); past that it is the stable argsort, a timsort."""
    n = len(keys)
    if n == 0:
        return np.zeros(0, dtype=np.intp)
    bits = max((n - 1).bit_length(), 1)
    smallest = int(keys.min())
    if (int(keys.max()) - smallest).bit_length() + bits <= 63:
        order = keys - smallest
    else:
        sources, repliers = key_sources(keys), key_repliers(keys)
        sources -= sources.min()
        low = int(repliers.min())
        span = int(repliers.max()) - low + 1
        if ((int(sources.max()) + 1) * span) << bits > 1 << 63:
            return np.argsort(keys, kind="stable")
        order = sources * span
        order += repliers
        order -= low
    order <<= bits
    order |= np.arange(n)
    order.sort()
    order &= (1 << bits) - 1
    return order


def rank_keys(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:func:`count_keys` of ``keys`` and each key's row of it, in the
    narrowest unsigned dtype that numbers the rows, from one
    :func:`key_order`: an in-memory block's histogram and inverse when it
    is asked for its inverse first (resolved at call time so tests can
    count it)."""
    n = len(keys)
    order = key_order(keys)
    ordered = keys[order]
    head = np.empty(n, dtype=bool)
    head[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=head[1:])
    starts = np.flatnonzero(head)
    counts = np.diff(starts, append=n)
    rows = np.empty(n, dtype=_row_dtype(len(starts)))
    rows[order] = np.repeat(np.arange(len(starts), dtype=rows.dtype), counts)
    return ordered[starts], counts, rows


def column_digest(sources: np.ndarray, repliers: np.ndarray) -> bytes:
    """blake2b-128 of the int64 source, then replier, column bytes: what
    a store block header records and :meth:`PairBlock.fingerprint` hexes."""
    digest = hashlib.blake2b(digest_size=16)
    for column in (sources, repliers):
        digest.update(np.ascontiguousarray(column, dtype=np.int64).tobytes())
    return digest.digest()


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


def scan_id_range(sources: np.ndarray, repliers: np.ndarray) -> None:
    """Check both id arrays fit the packed-key id range (``[0, 2**31)``).

    A :class:`PairBlock` runs it once, through
    :meth:`PairBlock.validate_ids`, however often its keys are asked for.
    """
    sources, repliers = np.asarray(sources, np.int64), np.asarray(repliers, np.int64)
    if sources.size and (
        sources.min() < 0
        or repliers.min() < 0
        or sources.max() >= ID_LIMIT
        or repliers.max() >= ID_LIMIT
    ):
        raise ValueError("node ids must be in [0, 2**31) for key packing")


@dataclass(frozen=True)
class PairBlock:
    """One block of query–reply pairs in columnar form.

    Attributes
    ----------
    sources:
        int64 array — the neighbor each query arrived from (rule
        antecedent candidates).
    repliers:
        int64 array — the neighbor each reply arrived from (rule
        consequent candidates).
    index:
        Position of this block within the trace (0-based).
    """

    sources: np.ndarray
    repliers: np.ndarray
    index: int = 0

    def __post_init__(self) -> None:
        if self.sources.shape != self.repliers.shape:
            raise ValueError("sources and repliers must have the same shape")
        if self.sources.ndim != 1:
            raise ValueError("block columns must be 1-D")

    def __len__(self) -> int:
        return len(self.sources)

    def pairs(self) -> np.ndarray:
        """(n, 2) array of [source, replier] rows (copy)."""
        return np.stack([self.sources, self.repliers], axis=1)

    # -- memoized derived views --------------------------------------------
    # A block is immutable, so its packed keys, key histogram, id-range
    # check, and content fingerprint are computed at most once and cached
    # on the instance.  Replay sweeps hit the same blocks dozens of times
    # (every strategy and sweep point re-mines / re-tests them), so these
    # were measurable per-call costs on the hot path.  The cached arrays
    # are read-only: one caller writing into a memo would change what
    # every later one mines or tests.

    def validate_ids(self) -> None:
        """Check ids fit the packed-key range; runs the scan once per block."""
        if "_ids_validated" not in self.__dict__:
            scan_id_range(self.sources, self.repliers)
            object.__setattr__(self, "_ids_validated", True)

    def packed_keys(self) -> np.ndarray:
        """Memoized, read-only ``(source << 32) | replier`` int64 keys.

        In-memory blocks pack through :func:`pack_keys` (a module
        global, so tests can install a counting hook) on first use;
        store-resident blocks take each pair's row of their decoded key
        histogram instead.
        """
        cached = self.__dict__.get("_packed_keys")
        if cached is None:
            self.validate_ids()
            cached = _read_only(pack_keys(self.sources, self.repliers))
            object.__setattr__(self, "_packed_keys", cached)
        return cached

    def key_histogram(self) -> tuple[np.ndarray, np.ndarray]:
        """Memoized, read-only ``(keys, counts)``: the block's distinct
        packed keys, sorted, and how many pairs carry each — what
        ``np.unique(packed_keys(), return_counts=True)`` returns.

        GENERATE-RULESET's support counts and RULESET-TEST's ``N``, ``n``
        and ``s`` are all sums over it, so a block that is tested and
        then mined is sorted once.  A store block decodes it from its
        store's histogram-rows key segment instead, reading neither
        column.
        """
        cached = self.__dict__.get("_key_histogram")
        if cached is None:
            keys, counts = count_keys(self.packed_keys())
            cached = (_read_only(keys), _read_only(counts))
            object.__setattr__(self, "_key_histogram", cached)
        return cached

    def key_inverse(self) -> np.ndarray:
        """Memoized, read-only row of ``key_histogram()`` for each pair,
        in the narrowest unsigned dtype that numbers the rows: scatters a
        per-key answer back to the pairs, for the tests that need one
        answer per pair, and orders the pairs by key with a radix
        ``argsort``.

        An in-memory block ranks its keys with :func:`rank_keys`, which
        memoizes the histogram too when it is not yet known; a store
        block decodes its row index instead.
        """
        cached = self.__dict__.get("_key_inverse")
        if cached is None:
            keys, counts, cached = rank_keys(self.packed_keys())
            if "_key_histogram" not in self.__dict__:
                histogram = (_read_only(keys), _read_only(counts))
                object.__setattr__(self, "_key_histogram", histogram)
            cached = _read_only(cached)
            object.__setattr__(self, "_key_inverse", cached)
        return cached

    def fingerprint(self) -> str:
        """Content address of this block (hash of both id columns).

        Two blocks with identical (source, replier) columns share a
        fingerprint regardless of their ``index``: it addresses the
        content, not the position.
        """
        cached = self.__dict__.get("_fingerprint")
        if cached is None:
            cached = column_digest(self.sources, self.repliers).hex()
            object.__setattr__(self, "_fingerprint", cached)
        return cached


def iter_blocks_from_arrays(
    sources: np.ndarray,
    repliers: np.ndarray,
    *,
    block_size: int,
    drop_partial: bool = True,
) -> Iterator[PairBlock]:
    """Lazily split parallel source/replier arrays into consecutive blocks.

    Blocks are views of the input arrays, yielded one at a time — the
    generator form the streaming strategies consume.
    """
    if block_size < 1:
        raise ValueError("block_size must be >= 1")
    sources = np.asarray(sources, dtype=np.int64)
    repliers = np.asarray(repliers, dtype=np.int64)
    if sources.shape != repliers.shape:
        raise ValueError("sources and repliers must have the same shape")
    n = len(sources)
    for b, start in enumerate(range(0, n, block_size)):
        stop = min(start + block_size, n)
        if drop_partial and stop - start < block_size:
            break
        yield PairBlock(
            sources=sources[start:stop],
            repliers=repliers[start:stop],
            index=b,
        )


def blocks_from_arrays(
    sources: np.ndarray,
    repliers: np.ndarray,
    *,
    block_size: int,
    drop_partial: bool = True,
) -> list[PairBlock]:
    """Split parallel source/replier arrays into consecutive blocks.

    Parameters
    ----------
    block_size:
        Pairs per block (paper default: 10,000).
    drop_partial:
        Whether to discard a trailing block shorter than ``block_size``
        (the paper's fixed-size blocks imply this; keep it for analyses
        that must not lose data).
    """
    return list(
        iter_blocks_from_arrays(
            sources, repliers, block_size=block_size, drop_partial=drop_partial
        )
    )


def partition_pairs(
    pairs: PairLog, *, block_size: int, drop_partial: bool = True
) -> list[PairBlock]:
    """Partition the full pipeline's joined pairs into blocks."""
    return blocks_from_arrays(
        pairs.source, pairs.replier, block_size=block_size, drop_partial=drop_partial
    )

