"""Self-tests of the perf benchmark, at a reduced size.

Run with ``PYTHONPATH=src python -m pytest benchmarks/perf/tests -q``.
They check the benchmark's own promises — names, nesting, determinism —
not the speed of the system under test.
"""

from __future__ import annotations

import json
import math
import re

import pytest

from benchmarks.perf.cli import main
from benchmarks.perf.compare import compare_results, count_mismatches, spread
from benchmarks.perf.harness import run_workload, workload_classes
from benchmarks.perf.hostspeed import (
    _REFERENCE_SECONDS,
    SAMPLES_PER_READING,
    WARM_SAMPLES,
    HostSpeed,
)
from benchmarks.perf.spans import NullTracer, Tracer
from benchmarks.perf.spec import OUT_DIR, ROOT, Metric, Spec, load_spec

SCALE = 0.1
SEED = 424242
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


@pytest.fixture(scope="module")
def spec():
    return load_spec()


@pytest.fixture(scope="module")
def records(spec):
    """One untraced and one traced run of every workload."""
    return {
        (name, trace): run_workload(
            name, seed=SEED, seconds=6, trace=trace, scale=SCALE, spec=spec
        )
        for name in spec.workloads
        for trace in (False, True)
    }


def test_benchmark_json_meets_the_contract():
    raw = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert set(raw) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }  # fmt: skip
    assert raw["paths"] == ["benchmarks/perf"]
    assert raw["command"][-1].startswith("benchmarks/perf/")
    assert 1 <= raw["run_seconds"] <= 60
    assert 2 <= len(raw["workloads"]) <= 8
    assert 1 <= len(raw["end_to_end"]) <= 16
    assert 1 <= len(raw["per_layer"]) <= 128
    names = [entry["name"] for key in ("workloads", "end_to_end", "per_layer") for entry in raw[key]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    for workload in raw["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for metric in raw["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in raw["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in raw["end_to_end"] + raw["per_layer"]:
        assert UNIT.fullmatch(metric["unit"])
        assert metric["better"] in ("lower", "higher")
    setup = next(m for m in raw["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in raw["end_to_end"])


def test_workloads_are_the_declared_ones(spec):
    assert tuple(workload_classes()) == spec.workloads


#: the workloads each end-to-end metric is defined on (ISSUE 11's table,
#: plus ``answered_share`` wherever a query can go unanswered).
HOME = {
    "setup_s": {"offline_pipeline", "offline_eval", "sim_flat", "sim_hier", "live_flood", "live_rules"},
    "pairs_per_s": {"offline_pipeline", "offline_eval"},
    "stream_pairs_per_s": {"offline_eval"},
    "peak_rss_mb": {"offline_pipeline", "offline_eval", "sim_hier"},
    "sim_queries_per_s": {"sim_flat", "sim_hier"},
    "msgs_per_query": {"sim_flat", "sim_hier"},
    "qps_per_core": {"live_flood", "live_rules"},
    "latency_p50_ms": {"live_flood", "live_rules"},
    "frames_per_query": {"live_flood", "live_rules"},
    "answered_share": {"sim_flat", "sim_hier", "live_flood", "live_rules"},
}  # fmt: skip


def test_every_declared_name_is_emitted_and_nothing_else(spec, records):
    e2e = [m.name for m in spec.end_to_end]
    layers = [m.name for m in spec.per_layer]
    assert set(HOME) == set(e2e)
    touched = set()
    for (name, trace), record in records.items():
        assert record["correct"], (name, trace, record["check_failures"])
        declared = layers if trace else e2e
        # a record holds what the workload measured; with its fill it
        # covers every declared name exactly once
        assert not set(record["metrics"]) & set(record["fill"])
        assert sorted([*record["metrics"], *record["fill"]]) == sorted(declared)
        for metric, entry in {**record["metrics"], **record["fill"]}.items():
            assert math.isfinite(entry["value"]), (name, metric)
            if not trace:
                # the driver's line never carries a 0
                assert entry["value"] > 0, (name, metric)
        if trace:
            touched |= set(record["metrics"])
        else:
            homes = {metric for metric, where in HOME.items() if name in where}
            assert set(record["metrics"]) == homes, name
    # every per-layer name is measured by at least one workload
    assert touched == set(layers)


def test_attempted_and_failed_are_whole_numbers(records):
    for record in records.values():
        assert isinstance(record["attempted"], int) and record["attempted"] >= 1
        assert isinstance(record["failed"], int) and record["failed"] == 0


def test_spans_nest_with_non_negative_self_time(records):
    for name in workload_classes():
        path = OUT_DIR / f"spans-{name}-{SEED}.jsonl"
        spans = [json.loads(line) for line in path.read_text().splitlines()]
        assert spans, name
        covered = [0.0] * len(spans)
        for span in spans:
            assert span["workload"] == name
            assert span["end"] >= span["start"]
            if span["parent"] is not None:
                parent = spans[span["parent"]]
                assert parent["id"] < span["id"]
                assert parent["start"] <= span["start"]
                assert span["end"] <= parent["end"]
                covered[span["parent"]] += span["end"] - span["start"]
        for span, child_time in zip(spans, covered):
            assert span["end"] - span["start"] - child_time >= -1e-9


def test_pipeline_stages_account_for_the_window():
    """The named stages' self times sum to within 5 % of the window."""
    path = OUT_DIR / f"spans-offline_pipeline-{SEED}.jsonl"
    spans = [json.loads(line) for line in path.read_text().splitlines()]
    window = next(s for s in spans if s["name"] == "offline_pipeline.window")
    staged = sum(
        s["end"] - s["start"] for s in spans if s["parent"] == window["id"]
    )
    assert staged / (window["end"] - window["start"]) >= 0.95


def test_host_speed_divides_a_stretch_by_the_samples_around_it():
    host = HostSpeed()
    try:
        with host.timed() as first:
            sum(range(20_000))
        assert first.host > 0
        assert math.isclose(first.reference, first.wall / first.host)
        assert math.isclose(first.cpu_reference, first.cpu / first.host)
        assert host.stretches[-1] is first
        taken = len(host.samples)
        # the sample that ended one stretch starts the next
        with host.timed():
            pass
        assert len(host.samples) == taken + 1
        with host.paused(), host.timed() as unsampled:
            pass
        assert len(host.samples) == taken + 1
        assert unsampled.host == host.samples[-1]
        with host.timed(steady=True):
            pass
        per_reading = WARM_SAMPLES + SAMPLES_PER_READING
        assert len(host.samples) == taken + 1 + 2 * per_reading
        # a host on which every part takes twice its reference time
        host.part_seconds = lambda: {k: 2 * v for k, v in _REFERENCE_SECONDS.items()}
        assert math.isclose(host.sample(), 2.0)
    finally:
        host.close()


def test_records_hold_what_the_host_did(records):
    for (name, trace), record in records.items():
        assert record["host_samples"], name
        assert all(sample > 0 for sample in record["host_samples"])
        for busy, reference in record["window_seconds"]:
            assert busy > 0 and reference > 0, name
        if not trace:
            assert record["metrics"]["setup_s"]["value"] > 0


def test_tracer_self_time_subtracts_children():
    tracer = Tracer("unit")
    with tracer.span("outer"):
        with tracer.span("inner"):
            pass
        with tracer.span("inner"):
            pass
        list(tracer.timed_iter("item", iter(range(3))))
    self_times = tracer.self_times()
    _name, start, end, _parent = tracer.spans[0]
    total = end - start
    assert math.isclose(sum(self_times.values()), total, rel_tol=1e-9)
    assert tracer.counts() == {"outer": 1, "inner": 2, "item": 4}
    assert all(value >= 0 for value in self_times.values())
    assert list(NullTracer().timed_iter("item", [1, 2])) == [1, 2]


@pytest.mark.parametrize("name", ["offline_pipeline", "sim_flat", "sim_hier"])
def test_same_seed_same_counts(name, spec, records):
    first = records[name, False]
    again = run_workload(name, seed=SEED, seconds=6, trace=False, scale=SCALE, spec=spec)
    other = run_workload(name, seed=SEED + 1, seconds=6, trace=False, scale=SCALE, spec=spec)
    assert again["counts"] == first["counts"]
    assert other["counts"] != first["counts"]
    for key in ("attempted", "failed", "missed"):
        assert again[key] == first[key]
    for metric in ("msgs_per_query", "answered_share"):
        if metric in first["metrics"]:
            assert again["metrics"][metric] == first["metrics"][metric]
    assert count_mismatches([first], [again]) == []
    assert count_mismatches([first], [other]) == []  # other inputs: not compared
    again["counts"][0] = None
    assert count_mismatches([first], [again]) == [name]


def test_single_workload_command_ends_with_the_driver_line(capsys, spec):
    code = main(
        ["--workload", "sim_hier", "--seed", str(SEED), "--seconds", "6",
         "--trace", "0", "--scale", str(SCALE)]
    )  # fmt: skip
    assert code == 0
    line = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True
    assert list(line["metrics"]) == [m.name for m in spec.end_to_end]
    for metric in spec.end_to_end:
        assert line["metrics"][metric.name]["unit"] == metric.unit


def _table(value, **overrides):
    return {"w": {"m": list(value), **overrides}}


def test_compare_applies_bounds_and_reports_unresolved():
    spec = Spec(
        workloads=("w",),
        end_to_end=(Metric("m", "ms", "lower", 0.10),),
        per_layer=(),
        run_seconds=1,
    )
    steady = [100, 101, 99, 100, 100]

    def verdict(candidate):
        (row,) = compare_results(spec, _table(steady), _table(candidate))
        return row["verdict"]

    assert verdict([104, 105, 103, 104, 104]) == "ok"
    assert verdict([120, 121, 119, 120, 120]) == "regression"
    # a spread wider than the bound hides a change of the same size...
    assert verdict([80, 130, 100, 125, 90]) == "unresolved"
    # ...unless every candidate run beats every baseline run
    assert verdict([50, 70, 60, 55, 80]) == "ok"
    assert spread([5.0]) == 0.0
    assert math.isclose(spread([1, 2, 3, 4, 5]), 3 / 3)
