"""Read Prometheus text exposition back into samples.

:meth:`~repro.obs.registry.MetricsRegistry.render` writes the text
format scrapers ingest; this module is the inverse direction.
:func:`parse_samples` and :func:`parse_histograms` turn one exposition
back into ``(name, labels, value)`` samples and bucketed distributions,
and :func:`scrape_text` fetches one ``/metrics`` page over HTTP.  The
reader is :mod:`repro.obs.collect`, which polls ``live-node
--metrics-port`` daemons that live in other processes.

Implemented on :mod:`urllib.request` (stdlib only), with a per-request
timeout so one dead daemon cannot hang a sweep.
"""

from __future__ import annotations

import urllib.request

__all__ = [
    "histogram_quantile",
    "merge_histograms",
    "parse_histograms",
    "parse_labels",
    "parse_samples",
    "scrape_text",
]


def parse_labels(spec: str) -> dict[str, str]:
    """Parse the ``a="x",b="y"`` interior of a label braces block.

    A malformed block raises ``ValueError``.
    """
    labels: dict[str, str] = {}
    i = 0
    n = len(spec)
    try:
        while i < n:
            eq = spec.index("=", i)
            name = spec[i:eq].strip().lstrip(",").strip()
            if spec[eq + 1] != '"':
                raise ValueError(f"unquoted label value in {spec!r}")
            j = eq + 2
            value: list[str] = []
            while True:
                ch = spec[j]
                if ch == "\\":
                    nxt = spec[j + 1]
                    value.append(
                        {"n": "\n", "\\": "\\", '"': '"'}.get(nxt, "\\" + nxt)
                    )
                    j += 2
                elif ch == '"':
                    break
                else:
                    value.append(ch)
                    j += 1
            labels[name] = "".join(value)
            i = j + 1
    except IndexError:  # the block ends inside a name, value or escape
        raise ValueError(f"unterminated label block {spec!r}") from None
    return labels


def parse_samples(text: str) -> list[tuple[str, dict[str, str], float]]:
    """Every ``(name, labels, value)`` sample in one text exposition.

    Comment/``# HELP``/``# TYPE`` lines and blanks are skipped;
    histogram ``_bucket``/``_sum``/``_count`` series appear under their
    suffixed names, exactly as exposed.  A malformed line raises
    ``ValueError``.
    """
    samples: list[tuple[str, dict[str, str], float]] = []
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "{" in line:
            name, rest = line.split("{", 1)
            spec, value_part = rest.rsplit("}", 1)
            labels = parse_labels(spec)
        else:
            parts = line.split()
            if len(parts) < 2:
                raise ValueError(f"malformed sample line {line!r}")
            name, value_part = parts[0], parts[1]
            labels = {}
        fields = value_part.split()
        if not fields:
            raise ValueError(f"sample line without a value {line!r}")
        value_text = fields[0]
        if value_text == "+Inf":
            value = float("inf")
        elif value_text == "-Inf":
            value = float("-inf")
        else:
            value = float(value_text)
        samples.append((name.strip(), labels, value))
    return samples


def parse_histograms(text: str, *, prefix: str = "") -> dict[str, dict]:
    """Histogram series in one exposition, keyed by base metric name.

    Each value is ``{"buckets": {upper_bound: cumulative_count}, "sum":
    float, "count": float}`` with samples summed across label
    combinations (the ``le`` bound aside), so a multi-labelled histogram
    collapses to one distribution per name.  The ``le`` strings become
    float bounds (``"+Inf"`` → ``inf``).  Only names that actually
    expose ``_bucket`` series are returned — a plain counter that
    happens to end in ``_sum`` is not mistaken for a histogram.
    """
    buckets: dict[str, dict[float, float]] = {}
    sums: dict[str, float] = {}
    counts: dict[str, float] = {}
    for name, labels, value in parse_samples(text):
        if name.endswith("_bucket"):
            base = name[: -len("_bucket")]
            if prefix and not base.startswith(prefix):
                continue
            le = labels.get("le")
            if le is None:
                continue
            bound = float("inf") if le == "+Inf" else float(le)
            per = buckets.setdefault(base, {})
            per[bound] = per.get(bound, 0.0) + value
        elif name.endswith("_sum"):
            base = name[: -len("_sum")]
            sums[base] = sums.get(base, 0.0) + value
        elif name.endswith("_count"):
            base = name[: -len("_count")]
            counts[base] = counts.get(base, 0.0) + value
    return {
        base: {
            "buckets": per,
            "sum": sums.get(base, 0.0),
            "count": counts.get(base, 0.0),
        }
        for base, per in buckets.items()
    }


def merge_histograms(*histogram_maps: dict[str, dict]) -> dict[str, dict]:
    """Merge per-node histogram maps into cluster-wide distributions.

    Cumulative bucket counts sum bucket-by-bucket (summing cumulative
    series is still cumulative), as do ``sum`` and ``count`` — every
    node records into identically configured registries, so the bucket
    bounds line up by construction.
    """
    merged: dict[str, dict] = {}
    for histograms in histogram_maps:
        for base, hist in histograms.items():
            out = merged.setdefault(
                base, {"buckets": {}, "sum": 0.0, "count": 0.0}
            )
            for bound, count in hist["buckets"].items():
                out["buckets"][bound] = out["buckets"].get(bound, 0.0) + count
            out["sum"] += hist["sum"]
            out["count"] += hist["count"]
    return merged


def histogram_quantile(hist: dict, q: float) -> float:
    """Upper-bound estimate of the ``q`` quantile of one histogram.

    Walks the cumulative buckets to the first bound covering ``q`` of
    the observations — the standard text-format quantile read, accurate
    to one bucket width.  Returns 0.0 for an empty histogram.
    """
    if not 0.0 <= q <= 1.0:
        raise ValueError("q must be in [0, 1]")
    total = hist.get("count", 0.0) or hist["buckets"].get(float("inf"), 0.0)
    if total <= 0:
        return 0.0
    target = q * total
    for bound in sorted(hist["buckets"]):
        if hist["buckets"][bound] >= target:
            return bound
    return float("inf")


def scrape_text(url: str, *, timeout: float = 5.0) -> str:
    """Fetch one ``/metrics`` page as text."""
    with urllib.request.urlopen(url, timeout=timeout) as response:
        return response.read().decode("utf-8")

