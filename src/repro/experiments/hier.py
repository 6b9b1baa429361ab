"""Two-tier rule routing vs the seed super-peer flooding baseline.

One workload, five arms at equal seeds (identical query sequences, per
:class:`~repro.network.hier.network.HierNetwork`'s rng contract):

* the seed :class:`~repro.network.superpeer.SuperPeerNetwork` baseline
  (satellite of ISSUE 10: its TrafficStats now carry the same α/ρ
  accounting, with α = 0 by construction);
* ``flood`` — HierNetwork in baseline mode (must match the seed
  baseline exactly; reported as a banded identity check);
* ``leaf-rules`` — the paper's flat per-node rule tables transplanted
  onto the tier (one node's evidence);
* ``superpeer-rules`` — community rule tables (~20–50 leaves'
  evidence) plus neighbor digest exchange;
* ``hybrid`` — super-peer rules plus the Kademlia-style category
  directory before flooding.

The claim under test is the ISSUE's acceptance gate, scaled down to
the experiment harness (the 10k+-node run lives in
``benchmarks/bench_hier.py``): super-peer rules strictly reduce
traffic per query at equal or better success, and community evidence
widens coverage α over per-node evidence.
"""

from __future__ import annotations

from repro.experiments.config import DEFAULT_SEED
from repro.experiments.context import RunContext
from repro.experiments.results import ExperimentResult
from repro.metrics.report import ComparisonRow
from repro.metrics.traffic import TrafficStats
from repro.network.hier.network import HIER_MODES, HierConfig, HierNetwork
from repro.network.superpeer import SuperPeerConfig, SuperPeerNetwork

__all__ = ["format_arm_table", "hier_arm_stats", "run_hier"]

#: The two-tier world every comparison runs on: the registered
#: experiment, ``repro hier`` and ``benchmarks/bench_hier.py`` each set
#: ``n_superpeers`` (and ``repro hier`` the keys it has flags for) over it.
SUBSTRATE = dict(
    leaves_per_superpeer=20,
    superpeer_degree=4,
    n_categories=40,
    files_per_category=250,
    library_size=60,
    interests_per_peer=4,
    superpeer_ttl=4,
)


def hier_arm_stats(
    substrate: dict,
    *,
    n_queries: int,
    warmup: int,
    seed: int = DEFAULT_SEED,
    hier_kwargs: dict | None = None,
) -> dict[str, tuple[TrafficStats, int]]:
    """Run all five arms on one workload: arm -> (stats, control msgs).

    Shared by the registered experiment (harness scale),
    ``repro hier`` and ``benchmarks/bench_hier.py`` (10k+ nodes), so all
    three run the same computation on a ``substrate`` built over
    :data:`SUBSTRATE`.  ``hier_kwargs`` tunes the rule/keyspace tier
    (``rule_top_k``, ``digest_every``, ...) without touching the
    substrate the baseline shares.
    """
    tier = hier_kwargs or {}
    arms: dict[str, tuple[TrafficStats, int]] = {}
    baseline = SuperPeerNetwork(SuperPeerConfig(**substrate), seed=seed)
    arms["baseline"] = (baseline.run_workload(n_queries, warmup=warmup), 0)
    for mode in HIER_MODES:
        net = HierNetwork(HierConfig(mode=mode, **substrate, **tier), seed=seed)
        arms[mode] = (net.run_workload(n_queries, warmup=warmup), net.control_messages)
    return arms


def amortized_messages_per_query(
    stats: TrafficStats, control_messages: int
) -> float:
    """Query traffic plus the arm's digest/directory overhead, per query."""
    if not stats.n_queries:
        return 0.0
    return (stats.total_messages + control_messages) / stats.n_queries


def format_arm_table(arms: dict[str, tuple[TrafficStats, int]]) -> str:
    """The arm table ``repro hier`` and ``bench_hier`` print: per arm,
    messages per query without and with its control traffic, success
    rate, coverage α, success ρ and mean hops to the first hit."""
    header = (
        f"{'arm':<16s} {'msgs/query':>10s} {'+control':>10s} "
        f"{'success':>8s} {'alpha':>7s} {'rho':>7s} {'hops':>6s}"
    )
    lines = [header, "-" * len(header)]
    for arm, (stats, control) in arms.items():
        lines.append(
            f"{arm:<16s} {stats.messages_per_query:>10.2f} "
            f"{amortized_messages_per_query(stats, control):>10.2f} "
            f"{stats.success_rate:>8.4f} {stats.coverage_alpha:>7.3f} "
            f"{stats.success_rho:>7.3f} {stats.mean_first_hit_hops:>6.2f}"
        )
    return "\n".join(lines)


def run_hier(ctx: RunContext) -> ExperimentResult:
    """Flood vs per-node rules vs super-peer rules vs hybrid."""
    scale = ctx.scale
    n_superpeers = max(12, scale.overlay_nodes // 20)
    n_queries = max(scale.overlay_queries, 10 * n_superpeers)
    warmup = scale.overlay_warmup
    arms = hier_arm_stats(
        {**SUBSTRATE, "n_superpeers": n_superpeers},
        n_queries=n_queries,
        warmup=warmup,
        seed=ctx.seed,
    )
    baseline, _ = arms["baseline"]
    flood, _ = arms["flood"]
    leaf, leaf_ctrl = arms["leaf-rules"]
    sp, sp_ctrl = arms["superpeer-rules"]
    hybrid, hybrid_ctrl = arms["hybrid"]
    sp_amortized = amortized_messages_per_query(sp, sp_ctrl)

    rows = [
        ComparisonRow(
            "seed baseline msgs/query (tier-2 flooding)",
            "-",
            baseline.messages_per_query,
        ),
        ComparisonRow(
            "flood-mode identity check (HierNetwork == seed baseline)",
            "0",
            abs(flood.messages_per_query - baseline.messages_per_query)
            + abs(flood.success_rate - baseline.success_rate),
            band=(0.0, 0.0),
        ),
        ComparisonRow(
            "per-node (leaf) rules msgs/query",
            "-",
            amortized_messages_per_query(leaf, leaf_ctrl),
        ),
        ComparisonRow(
            "super-peer rules msgs/query (incl. digest traffic)",
            "-",
            sp_amortized,
        ),
        ComparisonRow(
            "hybrid msgs/query (incl. digest + directory traffic)",
            "-",
            amortized_messages_per_query(hybrid, hybrid_ctrl),
        ),
        ComparisonRow(
            "super-peer rules vs baseline traffic ratio",
            "<1 (strict domination)",
            sp_amortized / baseline.messages_per_query,
            band=(0.0, 0.97),
        ),
        ComparisonRow(
            "super-peer rules success vs baseline",
            "~equal or better",
            sp.success_rate - baseline.success_rate,
            band=(-0.01, 1.0),
        ),
        ComparisonRow(
            "community evidence widens coverage (alpha_sp - alpha_leaf)",
            ">0",
            sp.coverage_alpha - leaf.coverage_alpha,
            band=(0.0, 1.0),
        ),
        ComparisonRow(
            "super-peer rule success rho",
            "-",
            sp.success_rho,
        ),
    ]
    arm_order = ["baseline", "flood", "leaf-rules", "superpeer-rules", "hybrid"]
    series = {
        "success": [arms[a][0].success_rate for a in arm_order],
        "alpha": [arms[a][0].coverage_alpha for a in arm_order],
        "rho": [arms[a][0].success_rho for a in arm_order],
    }
    extras = {
        "arms": arm_order,
        "n_superpeers": n_superpeers,
        "n_leaves": n_superpeers * SUBSTRATE["leaves_per_superpeer"],
        "n_queries": n_queries,
        "warmup": warmup,
        "control_messages": {
            "leaf-rules": leaf_ctrl,
            "superpeer-rules": sp_ctrl,
            "hybrid": hybrid_ctrl,
        },
        "messages_per_query": {
            a: arms[a][0].messages_per_query for a in arm_order
        },
    }
    return ctx.result(
        rows,
        series=series,
        extras=extras,
    )
