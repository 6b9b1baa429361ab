"""Open-loop load generation against live servents, over real TCP.

The locust-style harness the ROADMAP asks for, with the one property a
saturation measurement cannot live without: the generator is
**open-loop**.  Request issue times are drawn up front from a seeded
arrival process (`exponential`/`lognormal`/`fixed` think-time between
arrivals, scaled to the offered rate) and the scheduler fires each
request at its precomputed absolute deadline *whether or not earlier
requests have completed*.  A closed-loop driver (issue, await reply,
think, repeat) slows down exactly when the system under test does,
hiding queueing delay — the "coordinated omission" failure mode; an
open-loop driver keeps offering load, so a saturated servent shows up
as growing latency percentiles and shed/timeout counts, which is the
truth a saturation curve must plot.

Pieces:

* :func:`build_schedule` — the deterministic (seeded) arrival plan:
  weighted task mix (``query`` / ``browse`` / ``idle``), think-time
  distribution, per-task target assignment.  Same seed ⇒ same plan.
* :class:`LoadClient` — one peer-handshaked TCP connection to a servent;
  issues Query/Ping descriptors without awaiting drain (issuing must
  never block on the target) and resolves replies by GUID.
* :class:`LoadGenerator` — runs a plan against a set of servent
  addresses, recording every request's latency (timed from the instant
  it was due, so the generator's own stalls count), timeouts, errors,
  and the schedule-fidelity figures (`schedule_stretch`,
  `max_lateness_seconds`) that *prove* the run stayed open-loop.
"""

from __future__ import annotations

import asyncio
import math
import random
from dataclasses import dataclass, field

from repro.live.connection import ConnectionConfig, PeerConnection, dial_peer
from repro.network.protocol import (
    DEFAULT_TTL,
    PAYLOAD_PONG,
    PAYLOAD_QUERY_HIT,
    PingMessage,
    QueryMessage,
    encode_message,
)
from repro.obs.logging import get_logger
from repro.obs.tracing import traced_guid
from repro.utils.validation import check_finite_positive

__all__ = [
    "LoadClient",
    "LoadConfig",
    "LoadGenerator",
    "LoadResult",
    "ScheduledTask",
    "TASK_BROWSE",
    "TASK_IDLE",
    "TASK_QUERY",
    "build_schedule",
]

_log = get_logger("scale.loadgen")

#: a Query descriptor answered by a QueryHit routed back to us.
TASK_QUERY = "query"
#: a TTL-1 Ping answered by the peer's Pong — the cheap liveness probe
#: real clients interleave with searches.
TASK_BROWSE = "browse"
#: an arrival slot that sends nothing (a user pausing mid-session);
#: keeps the arrival process realistic without adding wire traffic.
TASK_IDLE = "idle"

_THINK_DISTRIBUTIONS = ("exponential", "lognormal", "fixed")

#: client ids live far above any plausible worker node id so a load
#: client can never be mistaken for (or collide with) an overlay node;
#: a servent's GUID is :func:`repro.network.servent.node_guid`.
CLIENT_ID_BASE = 1_000_000

#: a load client's link: no keepalives and no idle timeout, since a
#: client may sit silent between bursts of an open-loop schedule.
CLIENT_LINK = ConnectionConfig(keepalive_interval=0.0, idle_timeout=0.0)


@dataclass(frozen=True)
class LoadConfig:
    """One load step: offered rate, mix, think-time shape, timeouts."""

    #: offered arrival rate (tasks per second, idle slots included).
    rps: float
    #: seconds of offered load.
    duration: float
    #: arrival-process seed; the whole schedule derives from it.
    seed: int = 0
    #: weighted task mix, locust-style.
    mix: tuple[tuple[str, float], ...] = (
        (TASK_QUERY, 0.8),
        (TASK_BROWSE, 0.1),
        (TASK_IDLE, 0.1),
    )
    #: inter-arrival (think-time) distribution: ``exponential`` is a
    #: Poisson arrival process, ``lognormal`` is burstier (heavy right
    #: tail), ``fixed`` is a metronome.
    think: str = "exponential"
    #: lognormal shape parameter sigma (ignored by the others).
    think_sigma: float = 0.6
    #: a request unanswered for this long is counted as timed out.
    request_timeout: float = 2.0
    #: GUID-sampled tracing: 0 disables, N marks the 1-in-N GUID subset
    #: (``traced_guid``) the *servents'* tracers record spans for — the
    #: generator mints sequential GUIDs, so the sampling decision needs
    #: no coordination, only the same modulus on both sides.
    trace_sample: int = 0

    def __post_init__(self) -> None:
        # nan or inf here would leave build_schedule's clock short of
        # the duration forever.
        check_finite_positive("rps", self.rps)
        check_finite_positive("duration", self.duration)
        check_finite_positive("request_timeout", self.request_timeout)
        if self.trace_sample < 0:
            raise ValueError("trace_sample must be >= 0")
        if self.think not in _THINK_DISTRIBUTIONS:
            raise ValueError(f"think must be one of {_THINK_DISTRIBUTIONS}")
        if not self.mix or any(w < 0 for _, w in self.mix):
            raise ValueError("mix weights must be non-negative")
        if sum(w for _, w in self.mix) <= 0:
            raise ValueError("mix needs at least one positive weight")
        known = (TASK_QUERY, TASK_BROWSE, TASK_IDLE)
        unknown = [k for k, _ in self.mix if k not in known]
        if unknown:
            raise ValueError(f"unknown task kinds {unknown}")


@dataclass(frozen=True)
class ScheduledTask:
    """One planned arrival: when, what, against whom."""

    at: float  # seconds from run start
    kind: str
    target: int  # index into the generator's client list
    term: str  # search term (queries only)


def _think_time(rng: random.Random, config: LoadConfig, mean: float) -> float:
    if config.think == "exponential":
        return rng.expovariate(1.0 / mean)
    if config.think == "lognormal":
        sigma = config.think_sigma
        mu = math.log(mean) - sigma * sigma / 2.0  # E[X] == mean
        return rng.lognormvariate(mu, sigma)
    return mean  # fixed


def build_schedule(
    config: LoadConfig, vocabulary: list[str], n_targets: int
) -> list[ScheduledTask]:
    """The full arrival plan for one load step, deterministically.

    Everything a run will do — arrival instants, task kinds, target
    servents, query terms — is sampled here from ``config.seed``, so a
    schedule can be rebuilt bit-identically for replay or comparison,
    and the live run's only job is to *honour* the timestamps.
    """
    if n_targets < 1:
        raise ValueError("need at least one target")
    if not vocabulary:
        raise ValueError("need a non-empty vocabulary")
    rng = random.Random(config.seed)
    kinds = [kind for kind, _ in config.mix]
    weights = [weight for _, weight in config.mix]
    mean = 1.0 / config.rps
    schedule: list[ScheduledTask] = []
    t = 0.0
    while True:
        t += _think_time(rng, config, mean)
        if t >= config.duration:
            return schedule
        kind = rng.choices(kinds, weights)[0]
        term = (
            vocabulary[rng.randrange(len(vocabulary))]
            if kind == TASK_QUERY
            else ""
        )
        schedule.append(
            ScheduledTask(
                at=t, kind=kind, target=rng.randrange(n_targets), term=term
            )
        )


class LoadClient:
    """One load-generating peer attached to a live servent.

    Handshakes exactly like a real peer (so the servent treats it as a
    leaf connection), then *originates* descriptors: Query frames whose
    QueryHits the servent routes back to this connection by GUID, and
    TTL-1 Pings answered by Pongs.  Frames forwarded our way by the
    servent's flooding (we are a connection like any other) are ignored.

    It rides the servents' own :class:`PeerConnection`, and ``issue``
    never waits on the target (open-loop issuing must not block): if the
    servent stalls, bytes queue in the kernel and the link's bounded
    outbox and the requests age into timeouts — the signal being measured.
    """

    def __init__(
        self,
        client_id: int,
        host: str,
        port: int,
        *,
        on_reply,
    ) -> None:
        self.client_id = client_id
        self.host = host
        self.port = port
        self._on_reply = on_reply
        self._link: PeerConnection | None = None
        self.peer_id: int | None = None
        #: frames the servent pushed at us that answered nothing we
        #: asked (its floods and keepalives) — dead-ended here.
        self.frames_ignored = 0

    async def connect(self) -> None:
        self._link = await dial_peer(
            self.host,
            self.port,
            self.client_id,
            CLIENT_LINK,
            on_message=self._on_frame,
        )
        self.peer_id = self._link.peer_id

    @property
    def connected(self) -> bool:
        return self._link is not None and not self._link.closed

    def issue(self, kind: str, term: str, guid: int) -> None:
        """Send one request frame; raises ``OSError`` if the link died
        or its outbox is full."""
        if not self.connected:
            raise OSError("connection to target is down")
        if kind == TASK_QUERY:
            frame = encode_message(
                guid, DEFAULT_TTL, 0, QueryMessage(min_speed=0, search=term)
            )
        else:
            frame = encode_message(guid, 1, 0, PingMessage())
        if not self._link.send(frame):
            raise OSError("send queue to target is full")

    def _on_frame(self, _peer_id: int, header, _payload) -> None:
        if header.payload_type in (PAYLOAD_QUERY_HIT, PAYLOAD_PONG):
            self._on_reply(header.guid)
        else:
            self.frames_ignored += 1

    async def aclose(self) -> None:
        if self._link is not None:
            await self._link.aclose()
            self._link = None


@dataclass
class LoadResult:
    """What one load step measured."""

    offered_rps: float
    duration: float
    scheduled: int
    issued: dict[str, int] = field(default_factory=dict)
    idle_slots: int = 0
    completed: int = 0
    timeouts: int = 0
    errors: int = 0
    #: requests whose GUID fell in the traced 1-in-N subset.
    traced: int = 0
    #: seconds from the instant a request was due to its first reply,
    #: one per completed request, so a request the generator issued late
    #: (its loop was busy) carries that delay.
    latencies: list[float] = field(default_factory=list)
    achieved_rps: float = 0.0
    schedule_stretch: float = 0.0
    max_lateness_seconds: float = 0.0

    @property
    def requests(self) -> int:
        """Wire requests issued (idle slots excluded)."""
        return sum(self.issued.values())

    @property
    def error_rate(self) -> float:
        """Timeouts + transport errors over issued requests — the
        shed/error rate axis of the saturation curve."""
        attempted = self.requests + self.errors
        return (self.timeouts + self.errors) / attempted if attempted else 0.0

    def to_dict(self) -> dict:
        return {
            "offered_rps": self.offered_rps,
            "duration_seconds": self.duration,
            "scheduled": self.scheduled,
            "issued": dict(self.issued),
            "idle_slots": self.idle_slots,
            "requests": self.requests,
            "completed": self.completed,
            "timeouts": self.timeouts,
            "errors": self.errors,
            "traced": self.traced,
            "error_rate": self.error_rate,
            "achieved_rps": self.achieved_rps,
            "schedule_stretch": self.schedule_stretch,
            "max_lateness_seconds": self.max_lateness_seconds,
            "latency": _latency_summary(self.latencies),
        }


def _latency_summary(latencies: list[float]) -> dict[str, float]:
    """Count, mean, extremes and p50/p95/p99 of a step's latencies.

    Percentile ``p`` is the nearest-rank sample, the
    ``ceil(count * p / 100)``-th smallest: a latency some request
    actually saw, not an estimate.
    """
    count = len(latencies)
    ordered = sorted(latencies) or [0.0]  # an empty step reads all zeros

    def rank(p: float) -> float:
        return ordered[max(1, math.ceil(count * p / 100.0)) - 1]

    return {
        "count": count,
        "mean_seconds": sum(ordered) / max(count, 1),
        "min_seconds": ordered[0],
        "max_seconds": ordered[-1],
        "p50_seconds": rank(50.0),
        "p95_seconds": rank(95.0),
        "p99_seconds": rank(99.0),
    }


class LoadGenerator:
    """Drive one open-loop load step against a set of servent addresses."""

    def __init__(
        self,
        addresses: list[tuple[str, int]],
        vocabulary: list[str],
        config: LoadConfig,
    ) -> None:
        if not addresses:
            raise ValueError("need at least one target address")
        self.addresses = list(addresses)
        self.vocabulary = list(vocabulary)
        self.config = config
        self._clients: list[LoadClient] = []
        #: guid -> (due instant, task kind) of requests awaiting a reply.
        self._pending: dict[int, tuple[float, str]] = {}
        # Seed-disjoint GUID block: servents deduplicate descriptors by
        # GUID in their reply-routing tables, so a second generator run
        # against the *same warm cluster* (every ramp step) must never
        # re-mint an earlier run's GUIDs — its requests would be
        # silently dropped and misread as timeouts.  Ramps vary the
        # seed per step, which lands each step in its own 2^32 block.
        self._next_guid = (
            (CLIENT_ID_BASE << 64)
            + ((config.seed % (1 << 30)) << 32)
            + 1
        )
        self._loop: asyncio.AbstractEventLoop | None = None
        self._result: LoadResult | None = None

    # -- reply path -------------------------------------------------------
    def _fresh_guid(self) -> int:
        guid = self._next_guid
        self._next_guid += 1
        return guid % (1 << 128)

    def _on_reply(self, guid: int) -> None:
        entry = self._pending.pop(guid, None)
        if entry is None:
            return  # duplicate hit for an answered/expired request
        due, _kind = entry
        self._result.latencies.append(self._loop.time() - due)
        self._result.completed += 1

    def _sweep_pending(self, now: float) -> None:
        cutoff = now - self.config.request_timeout
        expired = [g for g, (t, _k) in self._pending.items() if t <= cutoff]
        for guid in expired:
            del self._pending[guid]
            self._result.timeouts += 1

    # -- the run ----------------------------------------------------------
    async def run(self) -> LoadResult:
        """Execute the schedule; returns the step's measurements."""
        schedule = build_schedule(
            self.config, self.vocabulary, len(self.addresses)
        )
        self._loop = asyncio.get_running_loop()
        self._result = result = LoadResult(
            offered_rps=self.config.rps,
            duration=self.config.duration,
            scheduled=len(schedule),
        )
        self._clients = [
            LoadClient(CLIENT_ID_BASE + i, host, port, on_reply=self._on_reply)
            for i, (host, port) in enumerate(self.addresses)
        ]
        try:
            await asyncio.gather(*(c.connect() for c in self._clients))
            await self._issue_all(schedule, result)
            await self._drain(result)
        finally:
            await asyncio.gather(*(c.aclose() for c in self._clients))
        return result

    async def _issue_all(
        self, schedule: list[ScheduledTask], result: LoadResult
    ) -> None:
        loop = self._loop
        sweep_every = min(0.1, self.config.request_timeout / 4.0)
        next_sweep = loop.time() + sweep_every
        t0 = loop.time()
        first_offset = last_offset = None
        for task in schedule:
            deadline = t0 + task.at
            now = loop.time()
            if now < deadline:
                await asyncio.sleep(deadline - now)
                now = loop.time()
            # behind schedule: issue immediately — an open-loop
            # generator catches up by bursting, never by rescheduling.
            offset = now - t0
            if first_offset is None:
                first_offset = offset
            last_offset = offset
            lateness = offset - task.at
            if lateness > result.max_lateness_seconds:
                result.max_lateness_seconds = lateness
            if task.kind == TASK_IDLE:
                result.idle_slots += 1
            else:
                guid = self._fresh_guid()
                try:
                    self._clients[task.target].issue(
                        task.kind, task.term, guid
                    )
                except OSError:
                    result.errors += 1
                else:
                    self._pending[guid] = (deadline, task.kind)
                    result.issued[task.kind] = (
                        result.issued.get(task.kind, 0) + 1
                    )
                    if self.config.trace_sample and traced_guid(
                        guid, self.config.trace_sample
                    ):
                        result.traced += 1
            if now >= next_sweep:
                self._sweep_pending(now)
                next_sweep = now + sweep_every
        if schedule and first_offset is not None:
            planned_span = schedule[-1].at - schedule[0].at
            actual_span = last_offset - first_offset
            if planned_span > 0:
                result.schedule_stretch = max(
                    0.0, actual_span / planned_span - 1.0
                )
            result.achieved_rps = result.requests / self.config.duration

    async def _drain(self, result: LoadResult) -> None:
        """Give in-flight requests one timeout window to resolve, then
        expire whatever is left (the stragglers *are* timeouts)."""
        loop = self._loop
        grace_end = loop.time() + self.config.request_timeout
        while self._pending and loop.time() < grace_end:
            await asyncio.sleep(0.02)
            self._sweep_pending(loop.time())
        result.timeouts += len(self._pending)
        self._pending.clear()
