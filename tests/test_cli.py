"""Tests for the command-line interface."""

import os
from pathlib import Path

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_requires_experiment(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run"])

    def test_seed_option(self):
        args = build_parser().parse_args(["--seed", "7", "list"])
        assert args.seed == 7


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig1" in out
        assert "traffic" in out

    def test_unknown_experiment(self, capsys):
        assert main(["run", "fig99"]) == 2
        # usage errors are diagnostics: structured log on stderr, not
        # mixed into the stdout report stream.
        captured = capsys.readouterr()
        assert "unknown experiment" in captured.err
        assert "unknown experiment" not in captured.out

    def test_run_fig1(self, capsys):
        assert main(["run", "fig1"]) == 0
        out = capsys.readouterr().out
        assert "coverage" in out
        assert "[fig1] OK" in out
        assert "*=coverage" in out  # chart rendered

    def test_run_no_chart(self, capsys):
        assert main(["run", "fig1", "--no-chart"]) == 0
        out = capsys.readouterr().out
        assert "*=coverage" not in out

    def test_run_reads_the_trace_cache(
        self, tmp_path, monkeypatch, capsys, generate_calls
    ):
        """``run`` generates its trace once into the trace cache, a second
        run replays the cached blocks to the same report without
        regenerating, and the cached file is a trace store
        ``trace-eval`` reads."""

        def report(out):
            return [line for line in out.splitlines() if "] OK in" not in line]

        monkeypatch.setenv("REPRO_TRACE_CACHE_DIR", str(tmp_path))
        assert main(["--seed", "5", "run", "fig1", "--no-chart"]) == 0
        first = report(capsys.readouterr().out)
        (store,) = tmp_path.iterdir()
        assert store.suffix == ".rptrace"
        assert main(["trace-eval", str(store)]) == 0
        assert "trials=" in capsys.readouterr().out
        assert main(["--seed", "5", "run", "fig1", "--no-chart"]) == 0
        assert report(capsys.readouterr().out) == first
        assert len(generate_calls) == 1
        assert list(tmp_path.iterdir()) == [store]

    def test_bench_all_reports_no_trace_transport(self, tmp_path, capsys):
        """What ``bench-all`` wrote is ``run``'s ``--json``: timings per
        run, no trace-transport and no ruleset-cache block."""
        import json

        path = tmp_path / "bench.json"
        assert main(["run", "fig1", "--no-chart", "--json", str(path)]) == 0
        out = capsys.readouterr().out
        assert "prewarm" not in out and "shared trace" not in out
        payload = json.loads(path.read_text())
        assert set(payload) == {"name", "workers", "wall_seconds", "experiments"}
        (row,) = payload["experiments"]
        assert set(row) == {"experiment_id", "seed", "seconds", "pid", "within_band"}
        assert row["experiment_id"] == "fig1" and row["within_band"] is True

    def test_bench_all_command_is_gone(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["bench-all"])

    def test_full_flag_carries_the_scale_not_the_environment(
        self, monkeypatch, capsys, tmp_path
    ):
        """``--full`` reaches the experiment as its context's scale, in
        this process and in pool workers, and ``os.environ`` is left
        alone."""
        import os

        import repro.experiments.registry as registry
        from repro.experiments.config import DEFAULT_SCALE, FULL_SCALE

        def probe(ctx):
            (tmp_path / f"{ctx.scale.name}-{os.getpid()}").touch()
            return ctx.result([])

        monkeypatch.delenv("REPRO_FULL_SCALE", raising=False)
        monkeypatch.setattr(registry, "EXPERIMENTS", {"probe": ("t", probe)})
        monkeypatch.setattr("repro.experiments.EXPERIMENTS", registry.EXPERIMENTS)
        assert main(["--full", "run", "probe", "probe"]) == 0
        assert main(["--full", "run", "probe", "probe", "--workers", "2"]) == 0
        assert main(["run", "probe"]) == 0
        assert "REPRO_FULL_SCALE" not in os.environ
        seen = sorted(p.name.rsplit("-", 1)[0] for p in tmp_path.iterdir())
        assert seen.count(DEFAULT_SCALE.name) == 1
        assert seen.count(FULL_SCALE.name) == len(seen) - 1 >= 2


class TestTracegenCli:
    @pytest.mark.parametrize(
        "flag, value",
        [
            ("--chunk-size", "0"),
            ("--chunk-size", "-5"),
            ("--pairs", "0"),
            ("--pairs", "-1"),
            ("--blocks", "0"),
        ],
    )
    def test_sizes_below_one_are_usage_errors(self, tmp_path, capsys, flag, value):
        """Rejected at parse time: a chunk size below one used to become
        one-pair calls, slow and a different trace than the default
        chunking."""
        path = tmp_path / "t.rptrace"
        with pytest.raises(SystemExit) as exit_info:
            main(["tracegen", str(path), "--blocks", "2", flag, value])
        assert exit_info.value.code == 2
        assert "must be >= 1" in capsys.readouterr().err
        assert not path.exists()

    @pytest.mark.parametrize("pairs", [5_000, 15_000, 20_000])
    def test_reports_what_the_store_holds(self, tmp_path, capsys, pairs):
        """The fixed-size blocks drop a partial tail at close; the line
        counts the store's blocks and pairs and names the tail."""
        from repro.trace.store import TraceStoreReader

        path = tmp_path / "t.rptrace"
        assert main(["tracegen", str(path), "--pairs", str(pairs)]) == 0
        out = capsys.readouterr().out
        with TraceStoreReader(path) as reader:
            held = f"wrote {reader.n_pairs:,} pairs / {reader.n_blocks} block(s) "
            tail = pairs - reader.n_pairs
        assert out.startswith(held)
        if tail:
            assert f"(dropped a {tail:,}-pair partial block)" in out
        else:
            assert "dropped" not in out

    def test_codec_is_not_an_option(self, tmp_path, capsys):
        """Every store has one layout, so there is no codec to choose."""
        path = tmp_path / "t.rptrace"
        with pytest.raises(SystemExit) as exit_info:
            main(["tracegen", str(path), "--blocks", "1", "--codec", "zlib"])
        assert exit_info.value.code == 2
        assert "--codec" in capsys.readouterr().err
        assert not path.exists()

    def test_sizes_of_one_are_accepted(self):
        sizes = ["--pairs", "1", "--blocks", "1", "--chunk-size", "1"]
        args = build_parser().parse_args(["tracegen", "t.rptrace", *sizes])
        assert (args.pairs, args.blocks, args.chunk_size) == (1, 1, 1)


class TestHierCli:
    @pytest.mark.parametrize(
        "flags",
        [
            ["--superpeers", "1"],
            ["--ttl", "0"],
            ["--degree", "0"],
            ["--categories", "0"],
            ["--leaves-per", "0"],
            ["--warmup", "-5"],
            ["--queries", "-1"],
            ["--superpeers", "5", "--degree", "3"],
        ],
    )
    def test_out_of_range_flag_exits_2_on_one_line(self, flags, capsys):
        """Refused before any arm is built: one line on stderr, no
        traceback and no table."""
        assert main(["hier", *flags]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("hier: ")
        assert captured.err.count("\n") == 1


_STORES = Path(__file__).parent / "trace" / "data"


class TestTraceInspectCli:
    """``trace-inspect`` prints the header and one row per block."""

    @staticmethod
    def rows(out):
        """Each block row's fields, after the header line and the heads."""
        return [line.split() for line in out.splitlines()[2:]]

    @pytest.mark.parametrize(
        "name", sorted(p.name for p in _STORES.glob("parent_*.rptrace"))
    )
    def test_every_committed_store(self, name, capsys):
        import numpy as np

        from repro.trace.store import TraceStoreReader

        path = _STORES / name
        assert main(["trace-inspect", str(path)]) == 0
        out = capsys.readouterr().out
        with TraceStoreReader(path) as reader:
            head = f"version {reader.version}, flags {reader.flags:#x}, meta 0x"
            d = [len(np.unique(b.packed_keys())) for b in reader.iter_blocks()]
            pairs = reader.block_pairs()
        assert head in out.splitlines()[0]
        rows = self.rows(out)
        assert [int(row[0]) for row in rows] == list(range(len(pairs)))
        assert [int(row[1]) for row in rows] == pairs
        assert [int(row[4]) for row in rows] == d
        assert {(row[5], row[6]) for row in rows} == {("-", "ok")}
        if "v1" in name:
            assert {row[2] for row in rows} == {"0,0,0"}

    def test_a_fresh_zlib_store(self, tmp_path, capsys):
        """A fresh store's columns are a row index: codecs 4,4,3, segment
        1 empty, rows 2 bytes wide for a block's ~2,500 distinct keys, and
        the meta word the writer stamped; ``codec=None`` writes the same
        layout, 1 byte a row for 10 distinct keys."""
        from repro.trace.store import TraceStoreReader, TraceStoreWriter

        path = tmp_path / "z.rptrace"
        assert main(["tracegen", str(path), "--blocks", "3"]) == 0
        data = bytearray(path.read_bytes())
        data[24:32] = (0x5EED).to_bytes(8, "little")  # the header's meta word
        path.write_bytes(bytes(data))
        capsys.readouterr()
        assert main(["trace-inspect", str(path)]) == 0
        out = capsys.readouterr().out
        assert "version 2, flags 0x2, meta 0x0000000000005eed" in out
        rows = self.rows(out)
        with TraceStoreReader(path) as reader:
            d = [len(b.key_histogram()[0]) for b in reader.iter_blocks()]
        assert len(rows) == 3
        for row, distinct in zip(rows, d):
            index, empty, _keys = map(int, row[3].split(","))
            assert row[2] == "4,4,3" and (index, empty) == (5 + 2 * 10_000, 0)
            assert (int(row[4]), row[5], row[6]) == (distinct, "2", "ok")
        with TraceStoreWriter(tmp_path / "raw.rptrace", block_size=10) as writer:
            writer.append(list(range(10)), [7] * 10)
        assert main(["trace-inspect", str(tmp_path / "raw.rptrace")]) == 0
        (row,) = self.rows(capsys.readouterr().out)
        assert row[2:] == ["4,4,3", "15,0,37", "10", "1", "ok"]

    def test_a_corrupt_block_fails_and_exits_1(self, tmp_path, capsys):
        path = tmp_path / "z.rptrace"
        assert main(["tracegen", str(path), "--blocks", "3"]) == 0
        data = bytearray(path.read_bytes())
        lengths = [int.from_bytes(data[at : at + 8], "little") for at in (64, 72, 80)]
        block_1 = 32 + 56 + sum(lengths)
        data[block_1 + 56 + 100] ^= 0xFF  # a row of block 1's index
        path.write_bytes(bytes(data))
        capsys.readouterr()
        assert main(["trace-inspect", str(path)]) == 1
        out = capsys.readouterr().out
        assert [row[-1] for row in self.rows(out) if row[0].isdigit()] == [
            "ok", "FAIL", "ok"
        ]
        assert "index segment fails its CRC" in out

    def test_not_a_store_exits_2(self, tmp_path):
        path = tmp_path / "junk.rptrace"
        path.write_bytes(b"not a trace store at all, not even close")
        assert main(["trace-inspect", str(path)]) == 2


class TestTraceEvalCli:
    @pytest.mark.parametrize("extra", [[], ["--check-serial"], ["--strategy", "streaming"]])
    def test_corrupt_segment_exits_2_without_a_traceback(self, tmp_path, capsys, extra):
        """A zlib store with flipped payload bytes in block 2 opens
        cleanly; the evaluation that reads the block logs the error and
        exits 2 instead of raising.  A strategy reads the key segment,
        which fails its CRC, and so does the streaming fold: a pair's key
        is its row of that histogram, decoded first."""
        import struct

        import numpy as np

        from repro.trace.store import TraceStoreReader, TraceStoreWriter

        path = tmp_path / "z.rptrace"
        rng = np.random.default_rng(3)
        sources = rng.integers(0, 6, 500)
        repliers = 100 + (sources + rng.integers(0, 2, 500)) % 4
        with TraceStoreWriter(path, block_size=100) as writer:
            writer.append(sources, repliers)
        with TraceStoreReader(path) as reader:
            offset = reader._entries[2].offset
        data = bytearray(path.read_bytes())
        lengths = struct.unpack_from("<3Q", data, offset + 32)
        start = offset + 32 + 3 * 8
        for length in lengths:  # every segment of block 2 that stores bytes
            if length:
                data[start + 5] ^= 0xFF
                data[start + 6] ^= 0xFF
            start += length
        path.write_bytes(bytes(data))
        assert main(["trace-eval", str(path), *extra]) == 2
        captured = capsys.readouterr()
        assert "trace store unreadable" in captured.err
        assert "histogram segment fails its CRC" in captured.err
        assert "trials=" not in captured.out


    @pytest.mark.parametrize("workers", [[], ["--workers", "2"]])
    @pytest.mark.parametrize(
        "strategy", ["static", "sliding", "lazy", "adaptive", "streaming"]
    )
    @pytest.mark.parametrize("n_blocks", [0, 1])
    def test_too_short_a_store_exits_2_without_a_traceback(
        self, tmp_path, capsys, n_blocks, strategy, workers
    ):
        """A strategy trains on one block and tests on the next: a store
        with fewer than two is refused after the open, on one line."""
        import numpy as np

        from repro.trace.store import TraceStoreWriter

        path = tmp_path / "short.rptrace"
        with TraceStoreWriter(path, block_size=100) as writer:
            sources = np.arange(100 * n_blocks + 40) % 6
            writer.append(sources, sources + 100)
        argv = ["trace-eval", str(path), "--strategy", strategy, *workers]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert "Traceback" not in captured.err
        assert captured.err.count("\n") == 1
        assert "trace store too short" in captured.err
        assert f"blocks={n_blocks}" in captured.err
        assert "trials=" not in captured.out


@pytest.fixture
def tiny_default_scale(monkeypatch):
    from repro.experiments.config import ExperimentScale

    tiny = ExperimentScale("t", 8, 10, 30_000, 80, 30, 60)
    monkeypatch.setattr("repro.experiments.config.DEFAULT_SCALE", tiny)


class TestSeedSweepCli:
    def test_run_with_seeds(self, capsys, tiny_default_scale):
        assert main(["run", "fig1", "--seeds", "2"]) in (0, 1)
        out = capsys.readouterr().out
        assert "seed sweep over" in out
        assert "±" in out

    @pytest.mark.parametrize("flag", ["--csv", "--markdown"])
    def test_sweep_with_a_single_run_output_is_rejected(
        self, flag, tmp_path, capsys, tiny_default_scale
    ):
        """A sweep has no single series to write: exit 2 and say so,
        instead of exiting 0 with nothing written."""
        target = tmp_path / "out"
        assert main(["run", "fig1", "--seeds", "2", flag, str(target)]) == 2
        captured = capsys.readouterr()
        assert "seed sweep" in captured.err and flag in captured.err
        assert captured.out == ""
        assert not target.exists()


class TestCsvExport:
    def test_run_with_csv(self, tmp_path, capsys, tiny_default_scale):
        out_dir = tmp_path / "csv"
        assert main(["run", "fig1", "--no-chart", "--csv", str(out_dir)]) in (0, 1)
        csv_path = out_dir / "fig1.csv"
        assert csv_path.exists()
        header = csv_path.read_text().splitlines()[0]
        assert header.startswith("trial,")

    def test_all_takes_the_same_options(
        self, tmp_path, capsys, monkeypatch, tiny_default_scale
    ):
        """``all`` is ``run`` over the whole table: ``--csv``,
        ``--no-chart`` and ``--workers`` included."""
        import repro.experiments.registry as registry

        two = {k: registry.EXPERIMENTS[k] for k in ("fig1", "fig3")}
        monkeypatch.setattr(registry, "EXPERIMENTS", two)
        monkeypatch.setattr("repro.experiments.EXPERIMENTS", two)
        out_dir = tmp_path / "csv"
        code = main(["all", "--no-chart", "--workers", "2", "--csv", str(out_dir)])
        assert code in (0, 1)
        assert sorted(p.name for p in out_dir.iterdir()) == ["fig1.csv", "fig3.csv"]
        out = capsys.readouterr().out
        assert "*=coverage" not in out
        assert out.index("[fig1]") < out.index("[fig3]")


class TestPersistInspect:
    def _state_dir(self, tmp_path):
        from repro.core.streaming import StreamingRules
        from repro.persist import PersistentState

        state = PersistentState(str(tmp_path / "node"), fsync="never")
        counts, _ = state.recover(StreamingRules(min_support_count=2))
        for source, replier in [(1, 2)] * 3 + [(3, 4)] * 2:
            counts.observe(source, replier)
            state.record_pair(source, replier)
        state.checkpoint(counts)
        state.record_pair(5, 6)
        state.close()
        return state.state_dir

    def test_inspect_dumps_headers_as_json(self, tmp_path, capsys):
        import json

        state_dir = self._state_dir(tmp_path)
        assert main(["persist", "inspect", state_dir]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["state_dir"] == state_dir
        assert len(report["snapshots"]) == 1
        assert report["snapshots"][0]["backend"] == "exact"
        assert report["wal_segments"][0]["records"] == 1
        assert report["wal_segments"][0]["clean"] is True

    def test_inspect_reports_an_unreadable_wal_segment(self, tmp_path, capsys):
        import json
        import os

        state_dir = self._state_dir(tmp_path)
        bogus = os.path.join(state_dir, "wal-99999999.wal")
        with open(bogus, "wb") as fh:
            fh.write(b"not a WAL at all")
        assert main(["persist", "inspect", state_dir]) == 0
        segments = json.loads(capsys.readouterr().out)["wal_segments"]
        assert segments[0]["records"] == 1  # the good segment still reads
        assert segments[-1]["path"] == bogus
        assert "bad magic" in segments[-1]["error"]

    def test_inspect_missing_dir_is_an_error(self, tmp_path, capsys):
        assert main(["persist", "inspect", str(tmp_path / "nope")]) == 2

    def test_inspect_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["persist"])


class TestTraceViewCli:
    def test_parser_defaults(self):
        args = build_parser().parse_args(["trace-view"])
        assert args.command == "trace-view"
        assert args.endpoint == []
        assert args.guid is None
        assert args.polls == 2 and args.trees == 1

    def test_no_endpoints_is_an_error(self):
        assert main(["trace-view"]) == 2

    def test_unknown_guid_is_an_error(self, monkeypatch):
        class FakeCollector:
            def __init__(self, endpoints, **kwargs):
                self.traces = {}
                self.per_node = {0: {}}
                self.errors = 0

            def poll(self):
                return {"nodes": 1, "traces": 0, "window": None}

        monkeypatch.setattr(
            "repro.obs.collect.ClusterTraceCollector", FakeCollector
        )
        monkeypatch.setattr(
            "repro.obs.collect.format_cluster_rollup", lambda c: "rollup"
        )
        code = main(
            ["trace-view", "--endpoint", "127.0.0.1:9100",
             "--polls", "1", "--guid", "deadbeef"]
        )
        assert code == 2


class TestLoadTestCli:
    @pytest.mark.parametrize(
        "setting",
        [["--rps", "nan"], ["--rps", "10,inf"], ["--duration", "nan"],
         ["--timeout", "inf"]],
    )
    def test_non_finite_setting_exits_before_loading(self, setting, capsys):
        code = main(["load-test", "--target", "127.0.0.1:9", *setting])
        assert code == 2
        assert "finite and positive" in capsys.readouterr().err


class TestHostPort:
    """``live-node --connect``, ``load-test --target`` and ``trace-view
    --endpoint`` share one HOST:PORT parser: a bad value is a usage error
    naming it, raised while parsing, before anything is dialled or
    polled."""

    @pytest.mark.parametrize("value", ["host:notaport", "localhost"])
    @pytest.mark.parametrize(
        "argv",
        [
            ["live-node", "--duration", "0.1", "--connect"],
            ["load-test", "--target"],
            ["trace-view", "--polls", "1", "--endpoint"],
        ],
        ids=["live-node", "load-test", "trace-view"],
    )
    def test_bad_value_exits_2_naming_it(self, argv, value, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main([*argv, value])
        assert exit_info.value.code == 2
        captured = capsys.readouterr()
        assert f"expected HOST:PORT, got {value!r}" in captured.err
        assert captured.out == ""


class TestNonFiniteTimes:
    """A time setting of nan or inf is a usage error, not a node that
    never checkpoints or a soak that hangs (or fires every fault at
    once)."""

    @pytest.mark.parametrize("value", ["nan", "inf"])
    @pytest.mark.parametrize(
        "command",
        [["live-node", "--checkpoint-interval"], ["chaos-soak", "--time-scale"]],
    )
    def test_rejected_at_parse(self, command, value, capsys):
        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args([*command, value])
        assert exit_info.value.code == 2
        assert "finite and positive" in capsys.readouterr().err


@pytest.mark.live
class TestDaemonsLive:
    """The long-running commands, each for a short ``--duration``."""

    def test_live_node_runs_for_its_duration(self, tmp_path, capsys):
        state = tmp_path / "state"
        code = main(
            ["live-node", "--port", "0", "--node-id", "3", "--share",
             "jazz,blues", "--metrics-port", "0", "--state-dir", str(state),
             "--duration", "0.5"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert out.startswith("final counters:")
        assert "queries_issued" in out
        assert any(name.startswith("snap-") for name in os.listdir(state))

    def test_load_test_targets_live_nodes(self, capsys):
        import json
        import socket
        import subprocess
        import sys
        import time

        ports = []
        for _ in range(2):
            with socket.socket() as probe:
                probe.bind(("127.0.0.1", 0))
                ports.append(probe.getsockname()[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        nodes = [
            subprocess.Popen(
                [sys.executable, "-m", "repro", "live-node", "--port",
                 str(port), "--node-id", str(i), "--share", share,
                 "--duration", "10",
                 *(["--connect", f"127.0.0.1:{ports[0]}"] if i else [])],
                env=env,
                stdout=subprocess.DEVNULL,
                stderr=subprocess.DEVNULL,
            )
            for i, (port, share) in enumerate(zip(ports, ("jazz", "blues")))
        ]
        try:
            deadline = time.monotonic() + 30.0
            for node, port in zip(nodes, ports):
                while True:
                    assert node.poll() is None, "live-node exited early"
                    assert time.monotonic() < deadline, "live-node never listened"
                    try:
                        socket.create_connection(("127.0.0.1", port), 0.2).close()
                        break
                    except OSError:
                        time.sleep(0.1)
            targets = [
                arg for port in ports for arg in ("--target", f"127.0.0.1:{port}")
            ]
            code = main(
                ["load-test", *targets, "--terms", "jazz,blues",
                 "--rps", "10,20", "--duration", "1"]
            )
            assert code == 0
            report = json.loads(capsys.readouterr().out)
            assert [s["offered_rps"] for s in report["steps"]] == [10.0, 20.0]
            assert all(s["completed"] > 0 for s in report["steps"])
            assert report["summary"]["steps_total"] == 2
        finally:
            for node in nodes:
                assert node.wait(timeout=60) == 0


class TestCounts:
    """A worker or seed count out of range is a usage error, raised while
    parsing: it neither dies in the executor nor quietly runs as one."""

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["all", "--workers", "-1"], "must be >= 0"),
            (["run", "fig1", "--workers", "-1"], "must be >= 0"),
            (["run", "fig1", "--seeds", "0"], "must be >= 1"),
            (["run", "fig1", "--seeds", "-2"], "must be >= 1"),
            (["all", "--seeds", "0"], "must be >= 1"),
            (["trace-eval", "t.rptrace", "--workers", "0"], "must be >= 1"),
            (["trace-eval", "t.rptrace", "--workers", "-1"], "must be >= 1"),
        ],
    )
    def test_out_of_range_exits_2(self, argv, message, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        captured = capsys.readouterr()
        assert message in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize(
        "argv, field, value",
        [
            (["all", "--workers", "0"], "workers", 0),
            (["run", "fig1", "--seeds", "1"], "seeds", 1),
            (["trace-eval", "t.rptrace", "--workers", "1"], "workers", 1),
        ],
    )
    def test_smallest_value_parses(self, argv, field, value):
        assert getattr(build_parser().parse_args(argv), field) == value
