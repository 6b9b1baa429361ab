"""repro.parallel — partitioned evaluation of an on-disk trace store."""
