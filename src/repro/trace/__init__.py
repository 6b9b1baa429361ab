"""Trace records and the paper's import pipeline.

The original study captured queries and replies at a modified Gnutella node
for 7 days, imported them into a relational database, removed records with
duplicated GUIDs (keeping the first), joined queries with replies on GUID to
form query–reply pairs, and partitioned the pairs into blocks for the rule
simulator.  This subpackage reproduces that pipeline as array passes over
column logs (the relational form is the tests' oracle,
``tests/store/relational``):

* :mod:`~repro.trace.records` — `QueryRecord` / `ReplyRecord` /
  `QueryReplyPair` dataclasses;
* :mod:`~repro.trace.capture` — `QueryLog` / `ReplyLog` / `PairLog` column
  sets (128-bit GUIDs and hosts), duplicate-GUID removal (first record
  kept) and the GUID equi-join producing pairs;
* :mod:`~repro.trace.blocks` — `PairBlock` (columnar numpy view of a block
  of pairs) and block partitioning;
* :mod:`~repro.trace.io` — TSV (de)serialization for persisting traces;
* :mod:`~repro.trace.store` — out-of-core trace store (append-only
  chunked writer, lazy block reader, O(block) memory).
"""
