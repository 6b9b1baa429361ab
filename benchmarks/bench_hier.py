"""Two-tier rule-routing gate (``python -m benchmarks.bench_hier``).

Runs the ISSUE 10 acceptance comparison at 10k+ simulated nodes:
flood (the seed ``SuperPeerNetwork`` baseline, plus ``HierNetwork`` in
flood mode as an identity check) vs per-node rules vs super-peer rules
vs hybrid, all on one seeded workload (identical query sequences).

The gate *asserts*, not eyeballs:

* **identity** — flood-mode HierNetwork reproduces the seed baseline's
  TrafficStats exactly (messages, successes, hits, duplicates);
* **strict domination** — super-peer rules' messages per query,
  *including amortized digest control traffic*, is strictly below the
  flooding baseline's;
* **no success regression** — super-peer rules' success rate is >= the
  baseline's (the per-query flood fallback makes regression
  impossible, so this catches accounting bugs);
* **community evidence** — super-peer rules cover more queries than
  per-node (leaf) rules (alpha_sp > alpha_leaf).

Results land in ``BENCH_hier.json`` and a human-readable
``hier_report.txt`` (both in ``$BENCH_OUTPUT_DIR`` or the cwd); a
failed gate exits non-zero.  ``--quick`` (CI smoke) keeps the node
count but trims the workload.  ``build_seconds`` beside
``elapsed_seconds`` is the part of the run spent constructing the five
networks (one population, drawn five times), as the constructors report
it in ``repro_sim_build_seconds``; ``population_bytes`` is what one of
those worlds occupies — its library buffer and the two index buffers
derived from it — as ``repro_sim_population_bytes`` reads when the run
ends (``peak_rss_bytes`` is the whole process, five arms' high-water
mark).
"""

from __future__ import annotations

import argparse
import sys
from time import perf_counter

from benchmarks._emit import bench_output_dir, emit_bench_json, peak_rss

#: tier tuning for the gate runs (denser fan-out than the library
#: defaults: at 500 super-peers every converted flood saves ~450
#: messages, so contacting 5 communities instead of 3 pays for itself).
_TIER = {"rule_top_k": 5, "digest_top_k": 5}


def _stats_payload(stats, control: int) -> dict:
    from repro.experiments.hier import amortized_messages_per_query

    return {
        "n_queries": stats.n_queries,
        "messages_per_query": stats.messages_per_query,
        "amortized_messages_per_query": amortized_messages_per_query(
            stats, control
        ),
        "control_messages": control,
        "success_rate": stats.success_rate,
        "coverage_alpha": stats.coverage_alpha,
        "success_rho": stats.success_rho,
        "mean_first_hit_hops": stats.mean_first_hit_hops,
        "total_messages": stats.total_messages,
        "total_hits": stats.total_hits,
        "total_duplicates": stats.total_duplicates,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--superpeers", type=int, default=500)
    parser.add_argument("--leaves-per", type=int, default=20, dest="leaves_per")
    parser.add_argument("--queries", type=int, default=4000)
    parser.add_argument("--warmup", type=int, default=30_000)
    parser.add_argument("--seed", type=int, default=20060814)
    parser.add_argument(
        "--quick",
        action="store_true",
        help="CI smoke: same node count, smaller workload",
    )
    args = parser.parse_args(argv)
    if args.quick:
        args.queries = min(args.queries, 2000)
        args.warmup = min(args.warmup, 12_000)

    from repro.experiments.hier import (
        SUBSTRATE,
        amortized_messages_per_query,
        format_arm_table,
        hier_arm_stats,
    )
    from repro.obs.registry import get_global_registry

    n_nodes = args.superpeers * (args.leaves_per + 1)
    print(
        f"bench_hier: {args.superpeers} super-peers x {args.leaves_per} leaves "
        f"= {n_nodes} nodes, {args.queries} queries after {args.warmup} warm-up"
    )
    substrate = {
        **SUBSTRATE,
        "n_superpeers": args.superpeers,
        "leaves_per_superpeer": args.leaves_per,
    }
    t0 = perf_counter()
    arms = hier_arm_stats(
        substrate,
        n_queries=args.queries,
        warmup=args.warmup,
        seed=args.seed,
        hier_kwargs=_TIER,
    )
    elapsed = perf_counter() - t0
    builds = get_global_registry().family("repro_sim_build_seconds")
    build_seconds = sum(child.sum for child in builds.children().values())
    population = get_global_registry().family("repro_sim_population_bytes")
    population_bytes = int(population.children()[("superpeer",)].value)

    baseline, _ = arms["baseline"]
    flood, _ = arms["flood"]
    leaf, _ = arms["leaf-rules"]
    sp, sp_control = arms["superpeer-rules"]
    sp_amortized = amortized_messages_per_query(sp, sp_control)

    report = (
        format_arm_table(arms)
        + f"\npopulation: {population_bytes:,} bytes a world (library + indices)"
    )
    print(report)

    gates = {
        "flood_identity": (
            flood.total_messages == baseline.total_messages
            and flood.n_succeeded == baseline.n_succeeded
            and flood.total_hits == baseline.total_hits
            and flood.total_duplicates == baseline.total_duplicates
        ),
        "strict_traffic_domination": sp_amortized < baseline.messages_per_query,
        "no_success_regression": sp.success_rate >= baseline.success_rate,
        "community_evidence_widens_coverage": (
            sp.coverage_alpha > leaf.coverage_alpha
        ),
        "min_10k_nodes": n_nodes >= 10_000,
    }

    payload = {
        "n_superpeers": args.superpeers,
        "leaves_per_superpeer": args.leaves_per,
        "n_nodes": n_nodes,
        "n_queries": args.queries,
        "warmup": args.warmup,
        "seed": args.seed,
        "quick": args.quick,
        "tier_tuning": _TIER,
        "elapsed_seconds": elapsed,
        "build_seconds": build_seconds,
        "population_bytes": population_bytes,
        "peak_rss_bytes": peak_rss(),
        "arms": {arm: _stats_payload(*result) for arm, result in arms.items()},
        "baseline_messages_per_query": baseline.messages_per_query,
        "superpeer_rules_amortized_messages_per_query": sp_amortized,
        "traffic_ratio": sp_amortized / baseline.messages_per_query,
        "gates": gates,
    }
    json_path = emit_bench_json("hier", payload)
    print(f"bench json written: {json_path}")
    report_path = f"{bench_output_dir()}/hier_report.txt"
    with open(report_path, "w", encoding="utf-8") as fh:
        fh.write(report + "\n")
    print(f"comparison report written: {report_path}")

    failed = [name for name, ok in gates.items() if not ok]
    if failed:
        print(f"GATE FAILED: {', '.join(failed)}", file=sys.stderr)
        return 1
    print(
        f"gate ok: traffic ratio {payload['traffic_ratio']:.3f} "
        f"(< 1 required), success {sp.success_rate:.4f} >= "
        f"{baseline.success_rate:.4f}, elapsed {elapsed:.1f}s"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
