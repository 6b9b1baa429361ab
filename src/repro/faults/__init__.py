"""Deterministic fault injection for the live stack and the simulators.

The paper's adaptive routing exists *because* overlays churn — peers
crash, links stall, partitions cut reply paths — so the reproduction
needs failure as a first-class, replayable input rather than an
accident of the test machine.  This package provides:

* :mod:`repro.faults.plan` — seeded :class:`FaultPlan` schedules whose
  events activate at fixed offsets, replaying bit-identically;
* :mod:`repro.faults.transport` — stream wrappers + a
  :class:`FaultController` whose transport openers plug into
  :func:`repro.live.connection.dial_peer`, so faults act at the socket
  boundary without the protocol code knowing;
* :mod:`repro.faults.injector` — executes a plan against a
  :class:`~repro.live.cluster.LiveCluster` in real (scaled) time;
* :mod:`repro.faults.churn` — replays the same plan as topology churn
  for the in-process simulators;
* :mod:`repro.faults.soak` — the ``chaos-soak`` harness: run a cluster
  under a plan, audit invariants, emit a replay-stable report.
"""
