"""Prometheus text exposition parsing, and histograms merged across nodes."""

import pytest

from repro.obs.registry import MetricsRegistry
from repro.obs.scrape import (
    histogram_quantile,
    merge_histograms,
    parse_histograms,
    parse_labels,
    parse_samples,
)


def stocked_registry() -> MetricsRegistry:
    registry = MetricsRegistry()
    frames = registry.counter("repro_frames_total", "frames", ("node", "direction"))
    frames.labels("0", "in").inc(10)
    frames.labels("0", "out").inc(5)
    gauge = registry.gauge("repro_connected_peers", "peers", ("node",))
    gauge.labels("0").set(3)
    hist = registry.histogram("repro_decode_seconds", "decode", ("node",))
    hist.labels("0").observe(0.5)
    hist.labels("0").observe(1.5)
    return registry


class TestParsing:
    def test_render_parse_round_trip(self):
        samples = parse_samples(stocked_registry().render())
        by_key = {
            (name, tuple(sorted(labels.items()))): value
            for name, labels, value in samples
        }
        assert by_key[
            ("repro_frames_total", (("direction", "in"), ("node", "0")))
        ] == 10.0
        assert by_key[
            ("repro_connected_peers", (("node", "0"),))
        ] == 3.0
        assert by_key[("repro_decode_seconds_count", (("node", "0"),))] == 2.0
        assert by_key[("repro_decode_seconds_sum", (("node", "0"),))] == 2.0

    def test_label_escapes(self):
        labels = parse_labels(r'peer="a\"b",path="c\\d",msg="x\ny"')
        assert labels == {"peer": 'a"b', "path": "c\\d", "msg": "x\ny"}

    def test_inf_values_and_malformed_lines(self):
        samples = parse_samples('m_bucket{le="+Inf"} 4\nedge +Inf\n')
        assert samples[0] == ("m_bucket", {"le": "+Inf"}, 4.0)
        assert samples[1][2] == float("inf")
        with pytest.raises(ValueError):
            parse_samples("lonely_name\n")


class TestHistogramParsing:
    def test_parse_histograms_from_rendered_registry(self):
        hists = parse_histograms(stocked_registry().render())
        assert list(hists) == ["repro_decode_seconds"]
        hist = hists["repro_decode_seconds"]
        assert hist["count"] == 2.0
        assert hist["sum"] == 2.0
        # cumulative: the +Inf bucket covers every observation, and
        # counts never decrease as bounds grow.
        bounds = sorted(hist["buckets"])
        assert bounds[-1] == float("inf")
        assert hist["buckets"][float("inf")] == 2.0
        counts = [hist["buckets"][b] for b in bounds]
        assert counts == sorted(counts)

    def test_plain_counters_are_not_histograms(self):
        text = "repro_shutdown_sum 3\nrepro_x_total 1\n"
        assert parse_histograms(text) == {}

    def test_prefix_filter(self):
        text = (
            'a_seconds_bucket{le="1"} 1\n'
            'a_seconds_bucket{le="+Inf"} 1\n'
            "a_seconds_sum 0.5\na_seconds_count 1\n"
            'b_seconds_bucket{le="+Inf"} 2\n'
            "b_seconds_sum 1\nb_seconds_count 2\n"
        )
        assert list(parse_histograms(text, prefix="a_")) == ["a_seconds"]

    def test_merge_sums_buckets_across_nodes(self):
        node_a = parse_histograms(
            'q_seconds_bucket{le="0.1"} 1\n'
            'q_seconds_bucket{le="+Inf"} 4\n'
            "q_seconds_sum 2.0\nq_seconds_count 4\n"
        )
        node_b = parse_histograms(
            'q_seconds_bucket{le="0.1"} 3\n'
            'q_seconds_bucket{le="+Inf"} 6\n'
            "q_seconds_sum 1.0\nq_seconds_count 6\n"
        )
        merged = merge_histograms(node_a, node_b)
        hist = merged["q_seconds"]
        assert hist["buckets"][0.1] == 4.0
        assert hist["buckets"][float("inf")] == 10.0
        assert hist["sum"] == 3.0
        assert hist["count"] == 10.0

    def test_quantile_walks_cumulative_buckets(self):
        hist = {
            "buckets": {0.1: 5.0, 0.5: 8.0, float("inf"): 10.0},
            "sum": 3.0,
            "count": 10.0,
        }
        assert histogram_quantile(hist, 0.5) == 0.1
        assert histogram_quantile(hist, 0.8) == 0.5
        assert histogram_quantile(hist, 1.0) == float("inf")
        assert histogram_quantile({"buckets": {}, "count": 0.0}, 0.5) == 0.0
        with pytest.raises(ValueError):
            histogram_quantile(hist, 1.5)
