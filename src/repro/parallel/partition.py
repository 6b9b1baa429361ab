"""Partitioned parallel evaluation over an on-disk trace store.

PR 8's ``.rptrace`` store made the paper's 10.5M-query regime fit in
flat RSS, but evaluating one store was still serial.  This module splits
a store's blocks into contiguous *block-range shards*, runs the
strategy over each shard in a separate process (each worker opens the
store read-only and maps one block at a time), and reassembles the
partial :class:`~repro.core.runner.StrategyRun` objects with
:func:`~repro.core.runner.merge_runs` — **bit-identical** to the serial
streaming run for every strategy.

The subtlety is warm-up: a strategy's rule set at block ``b`` is mined
from earlier blocks, so a shard scoring ``[start, stop)`` must first
replay the prefix blocks that determine the serial state at ``start``.
Each strategy knows its own minimal prefix
(:meth:`~repro.core.strategies.RulesetStrategy.partition_warmup`):

========  ==========================  =====================================
strategy  warm-up blocks              why
========  ==========================  =====================================
static    ``(0,)``                    the only rule set ever mined
sliding   ``(start-1,)``              rules always come from the previous
                                      block
lazy      last schedule point → start the regeneration schedule is fixed
                                      (every ``laziness`` trials), so at
                                      most ``laziness`` blocks
adaptive  ``0 → start``               rolling thresholds depend on every
                                      prior trial — full prefix (no
                                      wall-clock win; see
                                      docs/performance.md)
exact     window tail → start         the sliding pair-window *is* the
streaming                             state; replay blocks covering
                                      ``window_pairs``
========  ==========================  =====================================

Workers therefore redo a bounded amount of mining (the warm-up overlap)
in exchange for scoring their ranges concurrently; with cheap warm-up
(static/sliding/lazy) a 4-way partition approaches 4x throughput while
per-process RSS stays O(block).
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Iterator, Sequence

from repro.core.runner import StrategyRun, merge_runs
from repro.trace.blocks import PairBlock
from repro.trace.store import TraceStoreReader

__all__ = [
    "BlockShard",
    "plan_shards",
    "run_shard",
    "evaluate_store",
    "evaluate_store_partitioned",
]


@dataclass(frozen=True)
class BlockShard:
    """One worker's slice of a store: warm-up prefix + scored range.

    ``warmup`` lists the block indices replayed (in order) to rebuild
    the serial strategy state at ``scored_start``; blocks
    ``[scored_start, scored_stop)`` are then tested and contribute
    trials.  Warm-up blocks never contribute trials — they overlap with
    a neighboring shard's scored range.
    """

    warmup: tuple[int, ...]
    scored_start: int
    scored_stop: int

    def __post_init__(self) -> None:
        if not 1 <= self.scored_start < self.scored_stop:
            raise ValueError("shard needs scored_start >= 1 and a non-empty range")
        if not self.warmup:
            raise ValueError("shard needs at least one warm-up block")
        if any(b >= self.scored_start for b in self.warmup):
            raise ValueError("warm-up blocks must precede the scored range")

    @property
    def n_scored(self) -> int:
        return self.scored_stop - self.scored_start

    @property
    def n_warmup(self) -> int:
        return len(self.warmup)

    def block_indices(self) -> Iterator[int]:
        """All block indices the shard reads, in stream order."""
        yield from self.warmup
        yield from range(self.scored_start, self.scored_stop)


def plan_shards(
    strategy,
    n_blocks: int,
    n_shards: int,
    *,
    block_pairs: Sequence[int] | None = None,
) -> list[BlockShard]:
    """Split ``[1, n_blocks)`` into near-equal contiguous scored ranges.

    Block 0 only ever trains, so the scored universe is the remaining
    ``n_blocks - 1`` blocks; ``n_shards`` is clamped to that (asking for
    more workers than scoreable blocks degrades gracefully to one block
    per shard, never to empty shards).  Each shard's warm-up prefix
    comes from ``strategy.partition_warmup`` — ``block_pairs`` (per-block
    pair counts, e.g. :meth:`TraceStoreReader.block_pairs`) lets
    pair-windowed strategies bound their replay exactly.

    The union of scored ranges is exactly ``[1, n_blocks)`` with no
    overlap, which is what makes the merged run serial-identical.
    """
    if n_blocks < 2:
        raise ValueError(
            f"partitioned evaluation needs >= 2 blocks, store has {n_blocks} "
            "(block 0 only trains)"
        )
    if n_shards < 1:
        raise ValueError("n_shards must be >= 1")
    n_scored = n_blocks - 1
    n_shards = min(n_shards, n_scored)
    base, extra = divmod(n_scored, n_shards)
    shards: list[BlockShard] = []
    start = 1
    for i in range(n_shards):
        stop = start + base + (1 if i < extra else 0)
        warmup = tuple(strategy.partition_warmup(start, block_pairs))
        shards.append(BlockShard(warmup, start, stop))
        start = stop
    return shards


def run_shard(
    reader: TraceStoreReader, strategy, shard: BlockShard
) -> StrategyRun:
    """Run ``strategy`` over one shard of an open store.

    Streams warm-up then scored blocks through the strategy's
    ``run_partition``, which drops warm-up trials and attributes
    generations exactly as the serial loop would inside the scored
    range.  O(block) resident memory — blocks are read one at a time.
    """

    def blocks() -> Iterator[PairBlock]:
        for index in shard.block_indices():
            yield reader.block(index)

    return strategy.run_partition(blocks(), shard.scored_start)


def _shard_task(path: str, strategy, shard: BlockShard) -> StrategyRun:
    """Worker entry point: open read-only, run one shard, close."""
    with TraceStoreReader(path) as reader:
        return run_shard(reader, strategy, shard)


def evaluate_store(path: str | os.PathLike, strategy) -> StrategyRun:
    """Serial reference evaluation: stream the whole store in-process."""
    with TraceStoreReader(path) as reader:
        return strategy.run(reader.iter_blocks())


def evaluate_store_partitioned(
    path: str | os.PathLike,
    strategy,
    *,
    workers: int,
    block_pairs: Sequence[int] | None = None,
) -> StrategyRun:
    """Evaluate a stored trace across ``workers`` processes and merge.

    Plans one shard per worker (clamped to the scoreable block count),
    fans :func:`_shard_task` out over a ``ProcessPoolExecutor``, and
    merges the partials in block order.  The result is bit-identical to
    :func:`evaluate_store` — same trials, same ``n_generations`` — for
    every strategy that implements the partition contract.

    ``workers <= 1`` short-circuits to the serial path (no pool, no
    warm-up overlap): it *is* the reference run.
    """
    if workers < 0:
        raise ValueError("workers must be >= 0")
    path = os.fspath(path)
    if workers <= 1:
        return evaluate_store(path, strategy)
    if block_pairs is None:
        with TraceStoreReader(path) as reader:
            n_blocks = reader.n_blocks
            block_pairs = reader.block_pairs()
    else:
        n_blocks = len(block_pairs)
    shards = plan_shards(strategy, n_blocks, workers, block_pairs=block_pairs)
    if len(shards) == 1:
        return evaluate_store(path, strategy)
    with ProcessPoolExecutor(max_workers=len(shards)) as pool:
        futures = [
            pool.submit(_shard_task, path, strategy, shard) for shard in shards
        ]
        partials = [future.result() for future in futures]
    return merge_runs(partials)
