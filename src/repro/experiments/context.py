"""The run context: what every experiment is a function of.

The paper's evaluation was one simulator run one way over one imported
trace; an experiment here is likewise one function of one
:class:`RunContext`, which carries the resolved
:class:`~repro.experiments.config.ExperimentScale` and the seed and
owns the two things experiments do with them — replay the calibrated
monitor trace through a strategy (:meth:`RunContext.trace`) and push a
workload through an overlay under a routing condition
(:meth:`RunContext.overlay`).  The named conditions are stated once, in
:data:`POLICIES` and :func:`association`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

from repro.core.strategies import StrategyRun
from repro.experiments.config import ExperimentScale
from repro.experiments.results import ExperimentResult
from repro.metrics.report import ComparisonRow
from repro.metrics.traffic import TrafficStats
from repro.network.overlay import Overlay, OverlayConfig
from repro.routing.association import AssociationRoutingPolicy
from repro.routing.expanding_ring import ExpandingRingPolicy
from repro.routing.flooding import FloodingPolicy
from repro.routing.random_walk import KRandomWalkPolicy
from repro.routing.routing_indices import RoutingIndicesPolicy, build_routing_indices
from repro.routing.shortcuts import InterestShortcutsPolicy
from repro.trace.blocks import PairBlock
from repro.trace.cache import trace_blocks
from repro.utils.rng import as_generator
from repro.workload.tracegen import MonitorTraceConfig

__all__ = ["BLOCK_SIZE", "POLICIES", "RunContext", "association"]

#: pairs per block of the calibrated trace every experiment replays.
BLOCK_SIZE = MonitorTraceConfig().block_size

#: ``policy_factory(node_id, overlay)``, as ``Overlay.install_policies`` takes it.
PolicyFactory = Callable[[int, Overlay], Any]


def association(policy: type = AssociationRoutingPolicy, **kwargs) -> PolicyFactory:
    """The ``"association"`` condition: rule routing over a 2048-reply window.

    ``policy`` may be a subclass (the hybrid and topology-adapting
    extensions), ``kwargs`` its own knobs; the window is the same for
    every arm that learns rules.
    """
    return lambda node_id, overlay: policy(node_id, overlay, window=2048, **kwargs)


#: named routing conditions -> what ``ctx.overlay(name)`` installs on every
#: node (``"k-random-walk"`` is seeded per run, see ``RunContext.policy``).
POLICIES: dict[str, PolicyFactory] = {
    "flooding": FloodingPolicy,
    "expanding-ring": ExpandingRingPolicy,
    "shortcuts": InterestShortcutsPolicy,
    "routing-indices": RoutingIndicesPolicy,
    "association": association(),
}


@dataclass(frozen=True)
class RunContext:
    """One experiment run: which table entry, at what scale, on what seed."""

    experiment_id: str
    title: str
    scale: ExperimentScale
    seed: int
    _blocks: dict = field(default_factory=dict, compare=False, repr=False)

    # -- trace-driven -------------------------------------------------------
    def blocks(
        self, n_pairs: int | None = None, *, block_size: int = BLOCK_SIZE
    ) -> list[PairBlock]:
        """Blocks of the calibrated trace at this run's seed.

        ``n_pairs`` defaults to the scale's ``n_blocks`` whole blocks.
        One list per ``(n_pairs, block_size)`` per run, so every strategy
        an experiment sweeps shares the blocks' memoized views.
        """
        if n_pairs is None:
            n_pairs = self.scale.n_blocks * BLOCK_SIZE
        key = (n_pairs, block_size)
        if key not in self._blocks:
            self._blocks[key] = trace_blocks(
                n_pairs, seed=self.seed, block_size=block_size
            )
        return self._blocks[key]

    def trace(
        self, strategy, n_pairs: int | None = None, *, block_size: int = BLOCK_SIZE
    ) -> StrategyRun:
        """Replay the trace through ``strategy`` (anything with ``run(blocks)``)."""
        return strategy.run(self.blocks(n_pairs, block_size=block_size))

    # -- overlay-driven -----------------------------------------------------
    def policy(self, name: str) -> PolicyFactory:
        """The install factory of a named routing condition."""
        if name == "k-random-walk":
            # Walkers draw from a side stream so the overlay's own
            # workload stream is the same under every condition.
            rng = as_generator(self.seed + 1)
            return lambda node_id, overlay: KRandomWalkPolicy(
                node_id, overlay, seed=int(rng.integers(1 << 30))
            )
        return POLICIES[name]

    def adoption(self, fraction: float) -> PolicyFactory:
        """Association routing on ``fraction`` of the scale's peers, flooding
        on the rest; the adopter set is drawn from a side stream, so it is
        the same whatever the workload stream does."""
        n_nodes = self.scale.overlay_nodes
        picker = as_generator(self.seed + 17)
        size = int(round(fraction * n_nodes))
        adopters = set(picker.choice(n_nodes, size=size, replace=False).tolist())
        rules = POLICIES["association"]
        return lambda node_id, overlay: (
            rules if node_id in adopters else FloodingPolicy
        )(node_id, overlay)

    def overlay(
        self,
        policy: str | PolicyFactory,
        *,
        n_queries: int | None = None,
        warmup: int | None = None,
        **config,
    ) -> tuple[Overlay, TrafficStats]:
        """Build an overlay on this run's seed, install ``policy`` on every
        node and run the workload through it.

        ``policy`` is a name from :data:`POLICIES` (or ``"k-random-walk"``)
        or an install factory; ``config`` overrides
        :class:`~repro.network.overlay.OverlayConfig` fields (``n_nodes``
        defaults to the scale's).  ``n_queries`` and ``warmup`` default to
        the scale's; memoryless arms pass ``warmup=0``.
        """
        config.setdefault("n_nodes", self.scale.overlay_nodes)
        overlay = Overlay(OverlayConfig(**config), seed=self.seed)
        overlay.install_policies(
            self.policy(policy) if isinstance(policy, str) else policy
        )
        if policy == "routing-indices":
            index = build_routing_indices(overlay, horizon=3)
            for node_id in range(overlay.n_nodes):
                overlay.node(node_id).policy.install_index(index[node_id])
        stats = overlay.run_workload(
            self.scale.overlay_queries if n_queries is None else n_queries,
            warmup=self.scale.overlay_warmup if warmup is None else warmup,
        )
        return overlay, stats

    # -- result -------------------------------------------------------------
    def result(
        self,
        rows: list[ComparisonRow],
        *,
        series: dict[str, list[float]] | None = None,
        extras: dict[str, Any] | None = None,
    ) -> ExperimentResult:
        """This run's rows under its table entry's id and title."""
        return ExperimentResult(
            experiment_id=self.experiment_id,
            title=self.title,
            rows=rows,
            series=series or {},
            extras=extras or {},
        )
