"""The declared metric and workload names, read from ``BENCHMARK.json``.

``BENCHMARK.json`` at the repository root is the single list of what the
benchmark emits; the harness reads names and units from it so the two
cannot drift apart (the self-tests check the reverse direction).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

__all__ = ["ROOT", "OUT_DIR", "Metric", "Spec", "load_spec"]

#: the checkout root (``benchmarks/perf/spec.py`` is two levels below it).
ROOT = Path(__file__).resolve().parents[2]

#: everything a run leaves behind (stores, span files, result JSON) goes
#: here, inside the benchmark's own directory; ``.gitignore`` names it.
OUT_DIR = Path(__file__).with_name("out")


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    #: share of the baseline median a metric may worsen by; None for
    #: per-layer metrics, which carry no bound.
    bound: float | None = None


@dataclass(frozen=True)
class Spec:
    workloads: tuple[str, ...]
    end_to_end: tuple[Metric, ...]
    per_layer: tuple[Metric, ...]
    run_seconds: int

    def metrics(self, trace: bool) -> tuple[Metric, ...]:
        return self.per_layer if trace else self.end_to_end


def load_spec(path: Path | None = None) -> Spec:
    with open(path or ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        raw = json.load(fh)
    return Spec(
        workloads=tuple(w["name"] for w in raw["workloads"]),
        end_to_end=tuple(Metric(**m) for m in raw["end_to_end"]),
        per_layer=tuple(Metric(**m) for m in raw["per_layer"]),
        run_seconds=int(raw["run_seconds"]),
    )
