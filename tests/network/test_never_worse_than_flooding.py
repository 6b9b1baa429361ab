"""Rule routing is never worse than flooding, query for query.

§III-B: "if hits aren't found ... the node can still revert to flooding".
Every ladder in the repo ends in that flood and charges it on top of the
failed attempts, so at equal seeds — equal worlds, equal churn, equal
kills, equal (origin, file) sequences — a query the flooding arm answers
is answered by every ladder arm.  On the flat overlay the answered sets
are equal: a rule path is at most ``ttl`` hops long, so what it finds is
inside the flood's horizon too.
"""

from dataclasses import replace

from hypothesis import given, settings, strategies as st

from repro.network.hier.network import HIER_MODES, HierNetwork
from repro.network.overlay import Overlay, OverlayConfig
from repro.routing.association import AssociationRoutingPolicy
from repro.routing.flooding import FloodingPolicy
from tests.network.test_hier_differential import hier_configs


@st.composite
def overlay_configs(draw):
    degree = draw(st.integers(3, 4))
    return OverlayConfig(
        n_nodes=2 * draw(st.integers(10, 30)),
        degree=degree,
        n_categories=draw(st.integers(3, 6)),
        files_per_category=draw(st.integers(10, 40)),
        library_size=draw(st.integers(2, 8)),
        interests_per_peer=draw(st.integers(1, 3)),
        ttl=draw(st.integers(1, 4)),
        churn_rate=draw(st.sampled_from((0.0, 0.05, 0.3))),
    )


def flat_arm(config, seed, factory, n_queries):
    """``[(origin, file, answered), ...]`` of one workload."""
    overlay = Overlay(config, seed=seed)
    overlay.install_policies(factory)
    issued = []
    make_query = overlay.make_query

    def recording(origin=None):
        query = make_query(origin)
        issued.append((query.origin, query.file_id))
        return query

    overlay.make_query = recording
    answered = [overlay.run_workload(1).n_succeeded == 1 for _ in range(n_queries)]
    return [(*query, hit) for query, hit in zip(issued, answered, strict=True)]


@settings(max_examples=25, deadline=None)
@given(
    config=overlay_configs(),
    seed=st.integers(0, 2**16),
    n_queries=st.integers(50, 250),
)
def test_flat_overlay_answers_exactly_what_flooding_answers(config, seed, n_queries):
    flood = flat_arm(config, seed, FloodingPolicy, n_queries)
    for top_k in (1, 2):
        routed = flat_arm(
            config,
            seed,
            lambda node, overlay: AssociationRoutingPolicy(
                node, overlay, top_k=top_k, window=64, min_support_count=1
            ),
            n_queries,
        )
        assert routed == flood


def tier_arm(config, seed, stretches):
    """``[(leaf, file, answered), ...]`` across the stretches, with the
    super-peer named after each stretch killed (when it has company)."""
    net = HierNetwork(config, seed=seed)
    log = []
    query = net.query

    def recording(leaf, file_id):
        outcome = query(leaf, file_id)
        log.append((leaf, file_id, outcome.succeeded))
        return outcome

    net.query = recording
    for n_queries, victim in stretches:
        net.run_workload(n_queries)
        victim %= config.n_superpeers
        if net.community.live_superpeers() != [victim]:
            net.kill_superpeer(victim)
    return log


@settings(max_examples=25, deadline=None)
@given(
    config=hier_configs(),
    seed=st.integers(0, 2**16),
    stretches=st.lists(
        st.tuples(st.integers(20, 120), st.integers(0, 59)), min_size=1, max_size=4
    ),
)
def test_every_tier_mode_answers_what_the_flood_answers(config, seed, stretches):
    flood = tier_arm(replace(config, mode="flood"), seed, stretches)
    for mode in HIER_MODES[1:]:
        ladder = tier_arm(replace(config, mode=mode), seed, stretches)
        assert [query[:2] for query in ladder] == [query[:2] for query in flood]
        lost = [
            query[:2]
            for query, baseline in zip(ladder, flood)
            if baseline[2] and not query[2]
        ]
        assert not lost
