"""repro.scale — multi-process cluster + open-loop saturation benchmarking.

The single-machine scale-out layer: everything below here runs servents
in one process (one core); :mod:`repro.scale` spawns **one process per
node** and measures what the system can actually sustain.

* :mod:`~repro.scale.supervisor` — spawn/wire/watch a process-per-node
  cluster over real TCP, with graceful stop, hard kill, crash detection
  and port-pinned restarts (the :mod:`repro.faults` semantics, across
  process boundaries).
* :mod:`~repro.scale.worker` — the spawned entry point: one
  :class:`~repro.live.node.LiveServent` plus a control pipe.
* :mod:`~repro.scale.loadgen` — seeded **open-loop** load generation
  (weighted task mix, think-time distributions, deadline scheduling that
  never slows when the target does), keeping every request's latency.
* :mod:`~repro.scale.ramp` — step offered RPS to trace a saturation
  curve and read off the max sustainable QPS (per core).
* :mod:`~repro.scale.loop` — optional uvloop installation with a silent
  stdlib fallback.

Entry points: ``python -m benchmarks.bench_live_scale`` for the gated
saturation benchmark, ``python -m repro.cli cluster`` / ``load-test``
for interactive use.
"""

from repro.scale.loadgen import (
    CLIENT_ID_BASE,
    TASK_BROWSE,
    TASK_IDLE,
    TASK_QUERY,
    LoadClient,
    LoadConfig,
    LoadGenerator,
    LoadResult,
    ScheduledTask,
    build_schedule,
)
from repro.scale.loop import install_uvloop
from repro.scale.ramp import (
    format_saturation_markdown,
    run_ramp,
    run_ramp_async,
    saturation_summary,
)
from repro.scale.supervisor import (
    ClusterSupervisor,
    WorkerHandle,
    partitioned_specs,
)
from repro.scale.worker import WorkerSpec

__all__ = [
    "CLIENT_ID_BASE",
    "ClusterSupervisor",
    "LoadClient",
    "LoadConfig",
    "LoadGenerator",
    "LoadResult",
    "ScheduledTask",
    "TASK_BROWSE",
    "TASK_IDLE",
    "TASK_QUERY",
    "WorkerHandle",
    "WorkerSpec",
    "build_schedule",
    "format_saturation_markdown",
    "install_uvloop",
    "partitioned_specs",
    "run_ramp",
    "run_ramp_async",
    "saturation_summary",
]
