"""repro.parallel — partitioned evaluation of an on-disk trace store."""

from repro.parallel.partition import (
    BlockShard,
    evaluate_store,
    evaluate_store_partitioned,
    plan_shards,
    run_shard,
)

__all__ = [
    "BlockShard",
    "evaluate_store",
    "evaluate_store_partitioned",
    "plan_shards",
    "run_shard",
]
