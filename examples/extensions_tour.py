#!/usr/bin/env python
"""Tour of the paper's §VI future-work extensions, implemented.

Runs the four §VI extension experiments plus the §III-B incremental
deployment sweep, printing each paper-vs-measured table:

* query-string (category) dimension in rule antecedents;
* rule-driven overlay rewiring ("one less hop");
* interest shortcuts with rules as the pre-flood last chance;
* streaming rule maintenance (immediate updates);
* partial-adoption deployment.

Run:  python examples/extensions_tour.py            (~30 s)
"""

import time

from repro.experiments.registry import run_experiment
from repro.metrics.ascii_chart import sparkline

TOUR = [
    (
        "category-rules",
        "§VI: 'Adding dimensions such as the query strings during rule "
        "generation ... could also aid in increasing the quality of the rule sets.'",
    ),
    (
        "topology-adaptation",
        "§VI: '...attempt to make this third node a new neighbor, which would "
        "result in queries ... requiring one less hop in the path to its target.'",
    ),
    (
        "hybrid",
        "§VI: 'association rules could be used to route queries that have not "
        "been successfully replied to when using the shortcuts ... one last "
        "chance to avoid flooding.'",
    ),
    (
        "streaming",
        "§VI: 'update these rules immediately as query and reply messages are "
        "received ... consistently show coverage and success values above 90%.'",
    ),
    (
        "adoption",
        "§III-B: 'the benefits increase as the number of nodes using this "
        "routing technique increases.'",
    ),
]


def main() -> None:
    for experiment_id, quote in TOUR:
        print("=" * 78)
        print(quote)
        print()
        t0 = time.time()
        result = run_experiment(experiment_id)
        print(result.report())
        if "success" in result.series:
            print(f"\nsuccess over blocks: {sparkline(result.series['success'])}")
        status = "all bands OK" if result.all_within_band else "OUT OF BAND"
        print(f"\n[{experiment_id}] {status} ({time.time() - t0:.1f}s)\n")


if __name__ == "__main__":
    main()
