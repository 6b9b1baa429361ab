"""Execute a :class:`~repro.faults.plan.FaultPlan` against a live cluster.

The injector walks the plan's events at their absolute activation times
(scaled by ``time_scale``), dispatching node-level events (crash /
restart) to the :class:`~repro.live.cluster.LiveCluster` and everything
else to the :class:`~repro.faults.transport.FaultController`.  It keeps
a replay log whose entries carry the *planned* times, never wall-clock
readings, so two runs of the same plan produce byte-identical logs.

After the last event the injector sleeps out the plan's remaining
``duration`` (reconnects and rule relearning need scheduled room), then
restores a sane end state — any node still down is restarted and any
partition still active is healed, logged as ``final-restart`` /
``final-heal`` — so invariant checks always look at a cluster the plan
intended to leave whole.
"""

from __future__ import annotations

import asyncio

from repro.faults.plan import CRASH, RESTART, FaultEvent, FaultPlan
from repro.faults.transport import FaultController
from repro.obs.logging import get_logger
from repro.utils.validation import check_finite_positive

__all__ = ["FaultInjector"]

_log = get_logger("faults.injector")


class FaultInjector:
    """Drives one plan, once, against one cluster."""

    def __init__(self, plan: FaultPlan, controller: FaultController) -> None:
        self.plan = plan
        self.controller = controller
        #: the deterministic replay log: one dict per applied event.
        self.log: list[dict] = []

    def _record(self, event: FaultEvent, applied: bool) -> None:
        entry = event.as_dict()
        entry["applied"] = bool(applied)
        self.log.append(entry)
        _log.debug("fault", extra=dict(entry))

    async def run(self, cluster, *, time_scale: float = 1.0) -> list[dict]:
        """Apply every event at its activation time; returns the log."""
        time_scale = check_finite_positive("time_scale", time_scale)
        loop = asyncio.get_running_loop()
        t0 = loop.time()
        down: set[int] = set()
        for event in self.plan.events:
            delay = t0 + event.time * time_scale - loop.time()
            if delay > 0:
                await asyncio.sleep(delay)
            applied = await self._apply(event, cluster, down)
            self._record(event, applied)
        tail = t0 + self.plan.duration * time_scale - loop.time()
        if tail > 0:
            await asyncio.sleep(tail)
        # restore a sane end state so invariants can be checked.
        for node in sorted(down):
            await cluster.restart(node)
            self.log.append(
                {"time": self.plan.duration, "kind": "final-restart", "node": node}
            )
        if self.controller.partition is not None:
            self.controller.heal_partition()
            self.log.append({"time": self.plan.duration, "kind": "final-heal"})
        return self.log

    async def _apply(self, event: FaultEvent, cluster, down: set[int]) -> bool:
        if event.kind == CRASH:
            node = cluster.nodes[event.node]
            if node.closed:
                return False
            # hard: a crash must not take the graceful final checkpoint,
            # or warm restarts would never exercise the WAL-tail replay.
            await cluster.kill(event.node, hard=True)
            down.add(event.node)
            return True
        if event.kind == RESTART:
            if event.node not in down:
                return False
            await cluster.restart(event.node)
            down.discard(event.node)
            return True
        return self.controller.apply(event)  # partition/heal + link faults
