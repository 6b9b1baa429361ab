#!/usr/bin/env python
"""The paper's rule-routed node as a live network service.

Boots a six-node star of asyncio TCP servents on loopback ports, drives
a query plan with per-leaf interest locality through it twice — once
with association routing (rules learned online from QueryHits, §VI
streaming style) and once with plain flooding — then kills a leaf to
show the reconnect supervisor at work, and prints the traffic ledger.

Everything travels over real sockets: the Gnutella 0.4 frames are
reassembled from arbitrary TCP chunks, slow peers are held back by
bounded send queues, and dead peers are re-dialed with exponential
backoff.

Run:  python examples/live_cluster.py
"""

import asyncio

import numpy as np

from repro.live.cluster import LiveCluster, make_vocabulary
from repro.network.topology import Topology


def targeted_plan(n_leaves, vocabulary, n_queries, rng):
    """Each leaf queries terms owned by the next leaf around the star —
    stable interest locality the center's rules can learn."""
    n_nodes = n_leaves + 1
    owned = {
        node: [t for i, t in enumerate(vocabulary) if i % n_nodes == node]
        for node in range(n_nodes)
    }
    plan = []
    for q in range(n_queries):
        origin = 1 + q % n_leaves
        target = 1 + (origin % n_leaves)
        terms = owned[target]
        plan.append((origin, terms[int(rng.integers(0, len(terms)))]))
    return plan


async def run_mode(topology, vocab, plan, *, rule_routed):
    async with LiveCluster(topology, rule_routed=rule_routed, top_k=1) as c:
        c.stock_partitioned_library(vocab)
        summary = await c.run_plan(plan)
        totals = c.totals()
    return summary, totals


async def main():
    topology = Topology(6, [(0, i) for i in range(1, 6)])
    vocab = make_vocabulary(20)
    plan = targeted_plan(5, vocab, 150, np.random.default_rng(7))

    print("== association routing vs flooding, same plan, real TCP ==")
    results = {}
    for mode, rule_routed in (("rules", True), ("flood", False)):
        summary, totals = await run_mode(
            topology, vocab, plan, rule_routed=rule_routed
        )
        results[mode] = summary
        print(
            f"{mode:>6}: answered {summary['answered']:.0f}/"
            f"{summary['n_queries']:.0f}, "
            f"{summary['frames_per_answered']:.2f} frames/answered "
            f"(rule-routed decisions: {totals['queries_rule_routed']}, "
            f"flood fallbacks: {totals['queries_flooded']})"
        )
    reduction = (
        results["flood"]["frames_per_answered"]
        / results["rules"]["frames_per_answered"]
    )
    print(f"  -> rules are {reduction:.2f}x cheaper per answered query")

    print()
    print("== kill a leaf; the center re-dials with backoff ==")
    async with LiveCluster(topology, rule_routed=True, top_k=1) as c:
        c.stock_partitioned_library(vocab)
        await c.run_plan(plan[:50])
        await c.kill(5)
        await asyncio.sleep(0.4)
        center = c.nodes[0]
        print(
            f"after kill: center sees peers {sorted(center.connected_peers)}, "
            f"dial failures so far: {center.stats.dial_failures}"
        )
        term = next(t for i, t in enumerate(vocab) if i % 6 == 2)
        hits = await c.query(1, term)
        print(f"cluster still answers: query from node 1 got {hits} hit(s)")
        await c.restart(5)
        await c.wait_connected()
        print(
            f"after restart: center sees peers {sorted(center.connected_peers)}, "
            f"reconnects: {center.stats.reconnects}"
        )


if __name__ == "__main__":
    asyncio.run(main())
