"""repro.scale — open-loop load and saturation benchmarking.

What load the live servent sustains, measured from outside it over real
TCP.  The servents under load are either an in-process
:class:`~repro.live.cluster.LiveCluster` sharing the generator's event
loop (``bench_live_scale``) or ``live-node`` daemons (``load-test``).

* :mod:`~repro.scale.loadgen` — seeded **open-loop** load generation
  (weighted task mix, think-time distributions, deadline scheduling that
  never slows when the target does), keeping every request's latency
  from the instant it was due.
* :mod:`~repro.scale.ramp` — step offered RPS to trace a saturation
  curve and read off the max sustainable QPS.

Entry points: ``python -m benchmarks.bench_live_scale`` for the gated
saturation benchmark, ``python -m repro load-test`` against running
``live-node`` daemons.
"""
