"""Seeded, replayable schedules of fault events.

The paper's premise is that rule sets decay under churn — neighbors
leave, reply paths move — so the reproduction needs failure that is
*deterministic*: a :class:`FaultPlan` fixes every fault (what, whom,
when) up front, with absolute activation times measured from the start
of the run, so two executions of the same plan inject bit-identical
fault sequences.  Plans drive both the live stack (via
:class:`~repro.faults.injector.FaultInjector` +
:class:`~repro.faults.transport.FaultController`) and the in-process
simulators (via :class:`~repro.faults.churn.TopologyChurn`).

Fault taxonomy (``FaultEvent.kind``):

========== ============================================================
``crash``      hard-stop one node (server, connections, supervisors)
``restart``    bring a crashed node back on its old port
``reset``      abort one link's TCP connection (RST-style)
``partition``  split the overlay into two groups: cross links reset,
               cross dials refused until ``heal``
``heal``       lift the active partition
``latency``    add fixed delay to one link's reads/drains (``seconds``;
               0 clears)
``corrupt``    inject garbage bytes mid-stream on one link (the remote
               decoder sees a malformed descriptor and drops the peer)
``truncate``   cut the next frame on one link in half, then reset it
               (a peer dying mid-write)
``stall``      one-shot slow-reader stall on one link (``seconds``):
               backpressure builds on the remote side
========== ============================================================
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.utils.rng import as_generator

__all__ = [
    "CRASH",
    "CORRUPT",
    "FaultEvent",
    "FaultPlan",
    "HEAL",
    "KINDS",
    "LATENCY",
    "PARTITION",
    "RESET",
    "RESTART",
    "STALL",
    "TRUNCATE",
    "chaos_plan",
    "crash_restart_plan",
    "partition_heal_plan",
]

CRASH = "crash"
RESTART = "restart"
RESET = "reset"
PARTITION = "partition"
HEAL = "heal"
LATENCY = "latency"
CORRUPT = "corrupt"
TRUNCATE = "truncate"
STALL = "stall"

KINDS = (
    CRASH,
    RESTART,
    RESET,
    PARTITION,
    HEAL,
    LATENCY,
    CORRUPT,
    TRUNCATE,
    STALL,
)

#: kinds that target a single node / a single link.
_NODE_KINDS = (CRASH, RESTART)
_LINK_KINDS = (RESET, LATENCY, CORRUPT, TRUNCATE, STALL)


@dataclass(frozen=True)
class FaultEvent:
    """One scheduled fault, activated ``time`` seconds into the run."""

    time: float
    kind: str
    #: target node for crash / restart.
    node: int | None = None
    #: target link (u, v), u < v, for link-level faults.
    link: tuple[int, int] | None = None
    #: the two node groups for a partition.
    groups: tuple[tuple[int, ...], tuple[int, ...]] | None = None
    #: latency / stall magnitude.
    seconds: float = 0.0

    def __post_init__(self) -> None:
        if self.time < 0:
            raise ValueError("event time must be >= 0")
        if self.kind not in KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}")
        if self.kind in _NODE_KINDS and self.node is None:
            raise ValueError(f"{self.kind} needs a node")
        if self.kind in _LINK_KINDS:
            if self.link is None:
                raise ValueError(f"{self.kind} needs a link")
            u, v = self.link
            if u >= v:
                raise ValueError("link must be (u, v) with u < v")
        if self.kind == PARTITION:
            if self.groups is None or not self.groups[0] or not self.groups[1]:
                raise ValueError("partition needs two non-empty groups")

    def as_dict(self) -> dict:
        """A compact JSON-ready record (None fields omitted)."""
        out: dict = {"time": self.time, "kind": self.kind}
        if self.node is not None:
            out["node"] = self.node
        if self.link is not None:
            out["link"] = list(self.link)
        if self.groups is not None:
            out["groups"] = [list(g) for g in self.groups]
        if self.seconds:
            out["seconds"] = self.seconds
        return out


@dataclass(frozen=True)
class FaultPlan:
    """An ordered, immutable schedule of :class:`FaultEvent`.

    ``duration`` is the plan's horizon: an injector sleeps out the
    remainder after the last event so late consequences (reconnects,
    rule relearning) have scheduled room before invariants are checked.
    """

    events: tuple[FaultEvent, ...]
    duration: float
    label: str = "plan"
    seed: int | None = None

    def __post_init__(self) -> None:
        ordered = tuple(
            sorted(self.events, key=lambda e: (e.time, e.kind, e.node or 0))
        )
        object.__setattr__(self, "events", ordered)
        if self.duration < 0:
            raise ValueError("duration must be >= 0")
        if ordered and ordered[-1].time > self.duration:
            raise ValueError("duration must cover the last event")
        self._check_lifecycles(ordered)

    @staticmethod
    def _check_lifecycles(events: tuple[FaultEvent, ...]) -> None:
        """Reject double-crashes, restarts of live nodes, and nested
        partitions — ambiguous schedules would make replay logs lie."""
        down: set[int] = set()
        partitioned = False
        for event in events:
            if event.kind == CRASH:
                if event.node in down:
                    raise ValueError(f"node {event.node} crashed twice")
                down.add(event.node)
            elif event.kind == RESTART:
                if event.node not in down:
                    raise ValueError(
                        f"restart of node {event.node} which is not down"
                    )
                down.discard(event.node)
            elif event.kind == PARTITION:
                if partitioned:
                    raise ValueError("nested partitions are not supported")
                partitioned = True
            elif event.kind == HEAL:
                if not partitioned:
                    raise ValueError("heal without an active partition")
                partitioned = False

    def __len__(self) -> int:
        return len(self.events)

    def kind_counts(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for event in self.events:
            counts[event.kind] = counts.get(event.kind, 0) + 1
        return counts


#: Plan timing, in seconds of the run: the first fault fires at
#: ``START``; a crashed node stays down ``DOWNTIME`` and a partition
#: lasts ``OUTAGE``; the next fault waits ``GAP`` after a restart or a
#: heal; a plan's horizon is ``SETTLE`` past its last restart or heal
#: (``CHAOS_SETTLE`` past the mixed plan's last link fault).
START = 0.3
DOWNTIME = 0.6
GAP = 0.3
OUTAGE = 0.8
SETTLE = 0.8
CHAOS_SETTLE = 1.0


def _round(t: float) -> float:
    """Millisecond-quantised times: replay logs compare cleanly."""
    return round(float(t), 3)


def _crash_cycles(
    order: list[int], crashes: int, t: float
) -> tuple[list[FaultEvent], list[tuple[float, float, int]], float]:
    """Crash→restart cycles over ``order``'s first ``crashes`` nodes, the
    first at ``t``: the events, each cycle's ``(down, up, node)``, and
    when the next fault may fire."""
    events: list[FaultEvent] = []
    cycles: list[tuple[float, float, int]] = []
    for node in order[:crashes]:
        down, up = t, t + DOWNTIME
        events.append(FaultEvent(time=_round(down), kind=CRASH, node=node))
        events.append(FaultEvent(time=_round(up), kind=RESTART, node=node))
        cycles.append((down, up, node))
        t = up + GAP
    return events, cycles, t


def _bisection(
    order: list[int], t: float
) -> tuple[list[FaultEvent], tuple[tuple[int, ...], tuple[int, ...]], float]:
    """A partition into ``order``'s first half and the rest at ``t``,
    healed ``OUTAGE`` later: the events, the groups, and the heal time."""
    cut = max(1, len(order) // 2)
    groups = (tuple(sorted(order[:cut])), tuple(sorted(order[cut:])))
    up = t + OUTAGE
    events = [
        FaultEvent(time=_round(t), kind=PARTITION, groups=groups),
        FaultEvent(time=_round(up), kind=HEAL),
    ]
    return events, groups, up


def crash_restart_plan(n_nodes: int, *, seed: int = 0, crashes: int = 1) -> FaultPlan:
    """Seeded crash→restart cycles over distinct nodes."""
    if n_nodes < 2:
        raise ValueError("need at least 2 nodes")
    crashes = min(crashes, n_nodes - 1)  # always keep one node up
    rng = as_generator(seed)
    order = [int(x) for x in rng.permutation(n_nodes)]
    events, _cycles, t = _crash_cycles(order, crashes, START)
    return FaultPlan(
        events=tuple(events),
        duration=_round(t - GAP + SETTLE),
        label="crash-restart",
        seed=seed,
    )


def partition_heal_plan(n_nodes: int, *, seed: int = 0) -> FaultPlan:
    """A seeded random bisection of the overlay, healed after ``OUTAGE``."""
    if n_nodes < 2:
        raise ValueError("need at least 2 nodes")
    rng = as_generator(seed)
    order = [int(x) for x in rng.permutation(n_nodes)]
    events, _groups, up = _bisection(order, START)
    return FaultPlan(
        events=tuple(events),
        duration=_round(up + SETTLE),
        label="partition-heal",
        seed=seed,
    )


def chaos_plan(
    n_nodes: int,
    edges: list[tuple[int, int]],
    *,
    seed: int = 0,
    crashes: int = 1,
    partitions: int = 1,
    corruptions: int = 1,
    stalls: int = 1,
    latency_spikes: int = 1,
    resets: int = 0,
    truncations: int = 0,
) -> FaultPlan:
    """A mixed plan over a known edge set: crash cycles, then a
    partition, then link faults.

    Link faults are scheduled on edges *not incident to a crashed node
    or severed by the partition at that moment*, so every logged fault
    actually lands on a live link — the soak's fault-vs-metrics
    agreement invariant depends on that.
    """
    if n_nodes < 2:
        raise ValueError("need at least 2 nodes")
    if not edges:
        raise ValueError("need at least one edge")
    rng = as_generator(seed)
    order = [int(x) for x in rng.permutation(n_nodes)]
    events, crashed, t = _crash_cycles(order, min(crashes, n_nodes - 1), START)

    cut_groups: tuple[tuple[int, ...], tuple[int, ...]] | None = None
    cut_window = (0.0, 0.0)
    if partitions:
        cut_events, cut_groups, up = _bisection(order, t)
        events += cut_events
        cut_window = (t, up)
        t = up + GAP

    def link_is_clear(u: int, v: int, when: float) -> bool:
        for down, up, node in crashed:
            if node in (u, v) and down - 0.2 <= when <= up + 0.4:
                return False
        if cut_groups is not None:
            lo, hi = cut_window
            if lo - 0.2 <= when <= hi + 0.4:
                a, b = set(cut_groups[0]), set(cut_groups[1])
                if (u in a) != (v in a) or (u in b) != (v in b):
                    return False
        return True

    def pick_link(when: float) -> tuple[int, int] | None:
        candidates = [e for e in edges if link_is_clear(*e, when)]
        if not candidates:
            return None
        return candidates[int(rng.integers(0, len(candidates)))]

    link_faults = (
        [(CORRUPT, 0.0)] * corruptions
        + [(STALL, 0.25)] * stalls
        + [(LATENCY, 0.02)] * latency_spikes
        + [(RESET, 0.0)] * resets
        + [(TRUNCATE, 0.0)] * truncations
    )
    for kind, seconds in link_faults:
        link = pick_link(t)
        if link is None:
            continue
        u, v = (link[0], link[1]) if link[0] < link[1] else (link[1], link[0])
        events.append(
            FaultEvent(time=_round(t), kind=kind, link=(u, v), seconds=seconds)
        )
        if kind == LATENCY:
            # spikes clear themselves so the probe phase is not slowed.
            events.append(
                FaultEvent(
                    time=_round(t + 0.3), kind=LATENCY, link=(u, v), seconds=0.0
                )
            )
        t += 0.35

    return FaultPlan(
        events=tuple(events),
        duration=_round(t + CHAOS_SETTLE),
        label="mixed-chaos",
        seed=seed,
    )
