"""First wall-clock: trace -> store -> mine/test.

``offline_pipeline`` generates a trace, writes it to a raw store and
streams the paper's four strategies off it, so tracegen dominates and
the store is used for writes.  ``offline_eval`` writes a zlib store in
set-up and measures only reading it: the four strategies, then
``StreamingRules`` exact and lossy, so mining, testing and streaming
dominate and tracegen does nothing inside a window.
"""

from __future__ import annotations

import os
from contextlib import nullcontext

import numpy as np

from benchmarks.perf.harness import (
    Stopwatch,
    Workload,
    median,
    peak_rss_mb,
    per_call,
    scaled,
)
from repro.core.evaluation import ruleset_test
from repro.core.generation import generate_ruleset
from repro.core.runner import StrategyRun, TrialResult, merge_runs
from repro.core.strategies import (
    AdaptiveSlidingWindow,
    LazySlidingWindow,
    SlidingWindow,
    StaticRuleset,
)
from repro.core.streaming import StreamingRules
from repro.parallel.partition import (
    evaluate_store,
    evaluate_store_partitioned,
    plan_shards,
    run_shard,
)
from repro.trace.blocks import PairBlock, blocks_from_arrays
from repro.trace.store import TraceStoreReader, TraceStoreWriter
from repro.workload.tracegen import MonitorTraceConfig, MonitorTraceGenerator

__all__ = ["OfflineEval", "OfflinePipeline"]

BLOCK_SIZE = 10_000
CHUNK_PAIRS = 100_000

STRATEGIES = (
    ("static", StaticRuleset),
    ("sliding", SlidingWindow),
    ("lazy", LazySlidingWindow),
    ("adaptive", AdaptiveSlidingWindow),
)

#: blocks the direct-call probes of a traced run work on.
PROBE_BLOCKS = 10


def write_store(path, n_pairs, *, seed, codec, tracer, stretch=nullcontext):
    """Generate ``n_pairs`` in chunks and append them to a fresh store.

    Each chunk runs inside its own ``stretch()`` — a window passes
    ``host.timed`` — and the stretches are returned; the first holds the
    generator's start-up, the last the store's footer."""
    append = "trace.store.append" if codec is None else "trace.store.append_zlib"
    stretches = []
    generator = writer = None
    written = 0
    while written < n_pairs:
        n = min(CHUNK_PAIRS, n_pairs - written)
        with stretch() as timed:
            if generator is None:
                with tracer.span("workload.tracegen.init"):
                    generator = MonitorTraceGenerator(
                        MonitorTraceConfig(block_size=BLOCK_SIZE), seed=seed
                    )
                writer = TraceStoreWriter(path, block_size=BLOCK_SIZE, codec=codec)
            with tracer.span("workload.tracegen.generate"):
                arrays = generator.generate_pair_arrays(n)
            with tracer.span(append):
                writer.append(arrays.source, arrays.replier)
                written += n
                if written == n_pairs:
                    writer.close()
        stretches.append(timed)
    return stretches


def stream_strategies(path, tracer, decode_span) -> dict[str, StrategyRun]:
    """Run the four strategies, each streaming the store once."""
    runs = {}
    for name, cls in STRATEGIES:
        with tracer.span("trace.store.open"):
            reader = TraceStoreReader(path)
        with reader:
            with tracer.span(f"core.strategies.{name}"):
                runs[name] = cls().run(
                    tracer.timed_iter(decode_span, reader.iter_blocks())
                )
    return runs


def run_counts(runs: dict[str, StrategyRun]) -> dict:
    """What must repeat exactly for one seed."""
    return {
        name: [
            run.n_trials,
            run.n_generations,
            sum(t.result.n_covered for t in run.trials),
            sum(t.result.n_successful for t in run.trials),
        ]
        for name, run in runs.items()
    }


def manual_sliding(blocks) -> StrategyRun:
    """SLIDING-WINDOW written out with GENERATE-RULESET and RULESET-TEST."""
    it = iter(blocks)
    previous = next(it)
    trials = []
    for block in it:
        ruleset = generate_ruleset(previous)
        trials.append(
            TrialResult(
                block_index=block.index,
                result=ruleset_test(ruleset, block),
                fresh_ruleset=True,
                ruleset_size=len(ruleset),
            )
        )
        previous = block
    return StrategyRun("sliding", tuple(trials), n_generations=len(trials))


def check_store(path) -> list[str]:
    """Store-streamed runs must equal in-memory runs; the hand-rolled
    sliding loop must equal ``SlidingWindow().run``."""
    failures = []
    with TraceStoreReader(path) as reader:
        columns = [reader.columns(i) for i in range(reader.n_blocks)]
        sources = np.concatenate([s for s, _r in columns])
        repliers = np.concatenate([r for _s, r in columns])
        block_size = reader.block_size
    in_memory = blocks_from_arrays(sources, repliers, block_size=block_size)
    for name, cls in STRATEGIES:
        if evaluate_store(path, cls()) != cls().run(in_memory):
            failures.append(f"store-streamed {name} run differs from in-memory run")
    if manual_sliding(in_memory) != SlidingWindow().run(in_memory):
        failures.append("hand-rolled sliding loop differs from SlidingWindow.run")
    return failures


def store_probes(path, work_dir) -> dict[str, float]:
    """Direct calls into the store, block, mining, streaming and
    partition layers on the first blocks of ``path``."""
    out: dict[str, float] = {}
    with TraceStoreReader(path) as reader:
        n_blocks = min(PROBE_BLOCKS, reader.n_blocks)
        columns = [
            tuple(np.array(c) for c in reader.columns(i)) for i in range(n_blocks)
        ]
        block_size = reader.block_size
    n_pairs = sum(len(s) for s, _ in columns)

    def fresh():
        return [PairBlock(s, r, index=i) for i, (s, r) in enumerate(columns)]

    out["trace.blocks.pack_s"] = per_call(PairBlock.packed_keys, fresh())
    out["trace.blocks.fingerprint_s"] = per_call(PairBlock.fingerprint, fresh())

    blocks = fresh()
    rulesets = []
    out["core.generation.mine_s"] = per_call(
        lambda b: rulesets.append(generate_ruleset(b)), blocks
    )
    out["core.generation.rules_per_block"] = median(len(r) for r in rulesets)
    out["core.evaluation.test_s"] = per_call(
        lambda pair: ruleset_test(*pair), zip(rulesets, blocks[1:])
    )

    raw = os.path.join(work_dir, "probe-raw.rptrace")
    zlib_path = os.path.join(work_dir, "probe-zlib.rptrace")
    for target, codec, key in (
        (raw, None, "write_pairs_per_s"),
        (zlib_path, "zlib", "write_zlib_pairs_per_s"),
    ):
        with Stopwatch() as watch:
            with TraceStoreWriter(target, block_size=block_size, codec=codec) as writer:
                for s, r in columns:
                    writer.append(s, r)
        out[f"trace.store.{key}"] = n_pairs / watch.wall
    for target, key in ((raw, "decode_s"), (zlib_path, "decode_zlib_s")):
        with TraceStoreReader(target) as reader:
            out[f"trace.store.{key}"] = per_call(reader.block, range(n_blocks))
    with TraceStoreReader(raw) as reader, Stopwatch() as watch:
        reader.verify_blocks(strict=True)
    out["trace.store.verify_s"] = watch.wall / n_blocks

    for backend in ("exact", "lossy"):
        with TraceStoreReader(raw) as reader, Stopwatch() as watch:
            run = StreamingRules(backend=backend).run(reader.iter_blocks())
        out[f"core.streaming.{backend}_pairs_per_s"] = n_pairs / watch.wall
        if backend == "exact":
            out["core.streaming.n_rules"] = run.trials[-1].ruleset_size

    with TraceStoreReader(path) as reader:
        with Stopwatch() as watch:
            shards = plan_shards(
                AdaptiveSlidingWindow(),
                reader.n_blocks,
                2,
                block_pairs=reader.block_pairs(),
            )
        out["parallel.partition.plan_s"] = watch.wall
        out["parallel.partition.warmup_blocks"] = sum(s.n_warmup for s in shards)
        partials = [
            run_shard(reader, SlidingWindow(), shard)
            for shard in plan_shards(SlidingWindow(), reader.n_blocks, 2)
        ]
    with Stopwatch() as watch:
        merge_runs(partials)
    out["core.runner.merge_s"] = watch.wall

    with Stopwatch() as serial:
        for cls in (SlidingWindow, AdaptiveSlidingWindow):
            evaluate_store(path, cls())
    with Stopwatch() as partitioned:
        for cls in (SlidingWindow, AdaptiveSlidingWindow):
            evaluate_store_partitioned(path, cls(), workers=2)
    out["parallel.partition.speedup_2w"] = serial.wall / partitioned.wall
    return out


class _Offline(Workload):
    """What the two offline workloads share: store, scoring, checks."""

    #: span charged with each ``next()`` of the store's block stream.
    decode_span: str
    n_pairs: int

    def __init__(self, seed, scale, work_dir, host) -> None:
        super().__init__(seed, scale, work_dir, host)
        self.path = os.path.join(work_dir, f"{self.name}.rptrace")
        self.reference: dict = {}

    def _score(self, runs: dict[str, StrategyRun]) -> tuple[int, dict]:
        """Failed passes: a run that differs from the first one of its
        name since set-up (every pass streams the same store)."""
        counts = run_counts(runs)
        failed = sum(
            1
            for name, value in counts.items()
            if self.reference.setdefault(name, value) != value
        )
        return failed, counts

    def check(self) -> list[str]:
        return check_store(self.path)

    def layers(self, tracer, traced) -> dict[str, float]:
        """Probes first, then the first traced window's own stages on
        top: generate and append are totals, open and decode are per call."""
        window = traced[0]
        self_times, calls = tracer.self_times(), tracer.counts()
        out = store_probes(self.path, self.work_dir)
        generate = self_times["workload.tracegen.generate"]
        out["workload.tracegen.generate_s"] = generate
        out["workload.tracegen.pairs_per_s"] = self.n_pairs / generate
        out["trace.store.bytes_per_pair"] = os.path.getsize(self.path) / self.n_pairs
        out["trace.store.open_s"] = (
            self_times["trace.store.open"] / calls["trace.store.open"]
        )
        decode_key = self.decode_span.rpartition(".")[2]
        out[f"trace.store.{decode_key}_s"] = (
            self_times[self.decode_span] / calls[self.decode_span]
        )
        for name, _cls in STRATEGIES:
            out[f"core.strategies.{name}_s"] = self_times[f"core.strategies.{name}"]
        out["core.strategies.regenerations"] = sum(
            window["counts"]["runs"][name][1] for name, _cls in STRATEGIES
        )
        return out


class OfflinePipeline(_Offline):
    name = "offline_pipeline"
    decode_span = "trace.store.decode"

    def __init__(self, seed, scale, work_dir, host) -> None:
        super().__init__(seed, scale, work_dir, host)
        self.n_pairs = scaled(300_000, scale, floor=4 * BLOCK_SIZE, multiple=BLOCK_SIZE)

    def sizes(self) -> dict:
        return {
            "pairs_per_window": self.n_pairs,
            "block_size": BLOCK_SIZE,
            "chunk_pairs": CHUNK_PAIRS,
            "codec": "raw",
        }

    def setup(self, tracer) -> None:
        # Every window generates, writes and evaluates from scratch, so
        # nothing is prepared ahead of it; set-up is the imports plus the
        # part of the pipeline that runs before the first pair exists —
        # an empty store file and a generator brought to its steady state.
        with tracer.span("workload.tracegen.init"):
            MonitorTraceGenerator(
                MonitorTraceConfig(block_size=BLOCK_SIZE), seed=self.seed
            )
        TraceStoreWriter(self.path, block_size=BLOCK_SIZE).close()

    def window(self, tracer) -> dict:
        stretches = write_store(
            self.path,
            self.n_pairs,
            seed=self.seed,
            codec=None,
            tracer=tracer,
            stretch=self.host.timed,
        )
        with self.host.timed() as strategies:
            runs = stream_strategies(self.path, tracer, self.decode_span)
        stretches.append(strategies)
        failed, counts = self._score(runs)
        return {
            "busy_s": sum(t.wall for t in stretches),
            "ref_s": sum(t.reference for t in stretches),
            "ops": len(runs),
            "failed": failed,
            "counts": {"runs": counts, "bytes": os.path.getsize(self.path)},
        }

    def summarize(self, windows) -> dict[str, float]:
        return {
            "pairs_per_s": median(self.n_pairs / w["ref_s"] for w in windows),
            "peak_rss_mb": peak_rss_mb(),
        }

    def layers(self, tracer, traced) -> dict[str, float]:
        out = super().layers(tracer, traced)
        out["trace.store.append_s"] = tracer.self_times()["trace.store.append"]
        return out


class OfflineEval(_Offline):
    name = "offline_eval"
    decode_span = "trace.store.decode_zlib"

    def __init__(self, seed, scale, work_dir, host) -> None:
        super().__init__(seed, scale, work_dir, host)
        self.n_pairs = scaled(300_000, scale, floor=4 * BLOCK_SIZE, multiple=BLOCK_SIZE)

    def sizes(self) -> dict:
        return {
            "store_pairs": self.n_pairs,
            "block_size": BLOCK_SIZE,
            "codec": "zlib",
        }

    def setup(self, tracer) -> None:
        write_store(
            self.path,
            self.n_pairs,
            seed=self.seed,
            codec="zlib",
            tracer=tracer,
            stretch=self.host.timed,
        )

    def window(self, tracer) -> dict:
        with self.host.timed() as strategies:
            runs = stream_strategies(self.path, tracer, self.decode_span)
        streaming, stream = {}, []
        for backend in ("exact", "lossy"):
            with self.host.timed() as timed:
                with tracer.span("trace.store.open"):
                    reader = TraceStoreReader(self.path)
                with reader, tracer.span(f"core.streaming.{backend}"):
                    streaming[backend] = StreamingRules(backend=backend).run(
                        tracer.timed_iter(self.decode_span, reader.iter_blocks())
                    )
            stream.append(timed)
        failed, counts = self._score({**runs, **streaming})
        stream_ref_s = sum(t.reference for t in stream)
        return {
            "busy_s": strategies.wall + sum(t.wall for t in stream),
            "ref_s": strategies.reference + stream_ref_s,
            "strategies_ref_s": strategies.reference,
            "stream_ref_s": stream_ref_s,
            "ops": len(counts),
            "failed": failed,
            "n_rules": streaming["exact"].trials[-1].ruleset_size,
            "counts": {"runs": counts},
        }

    def summarize(self, windows) -> dict[str, float]:
        return {
            # pairs taken through all four strategies, as on offline_pipeline
            "pairs_per_s": median(
                self.n_pairs / w["strategies_ref_s"] for w in windows
            ),
            "stream_pairs_per_s": median(
                2 * self.n_pairs / w["stream_ref_s"] for w in windows
            ),
            "peak_rss_mb": peak_rss_mb(),
        }

    def layers(self, tracer, traced) -> dict[str, float]:
        out = super().layers(tracer, traced)
        self_times = tracer.self_times()
        # this workload generates and writes in set-up, which is traced too
        out["trace.store.write_zlib_pairs_per_s"] = (
            self.n_pairs / self_times["trace.store.append_zlib"]
        )
        for backend in ("exact", "lossy"):
            out[f"core.streaming.{backend}_pairs_per_s"] = (
                self.n_pairs / self_times[f"core.streaming.{backend}"]
            )
        out["core.streaming.n_rules"] = traced[0]["n_rules"]
        return out
