"""The two-tier world ``sim_hier`` builds, pinned component by component.

A 500 x 20 hybrid ``HierNetwork`` (seed 7, ``sim_hier``'s substrate and
tier) is drawn a community at a time and its keyspace filled in vector
passes; every part of it must be what the leaf-by-leaf, table-by-table
build made: the community index (both stretches and the bounds), every
leaf's profile, every k-bucket table's entries in insertion order, both
walk tables, the category directory in its insertion order, the control
traffic of the build, and the generator's state after it — everything
queried later is drawn from that state.  Each component's blake2b digest
was recorded from the build before it was vectorised, so a failure
names the component that moved.
"""

import hashlib

import pytest

from repro.network.hier.network import HierConfig, HierNetwork

CONFIG = HierConfig(
    mode="hybrid",
    n_superpeers=500,
    leaves_per_superpeer=20,
    superpeer_degree=4,
    n_categories=40,
    files_per_category=250,
    library_size=60,
    interests_per_peer=4,
    superpeer_ttl=4,
    rule_top_k=5,
    digest_top_k=5,
)

GOLDEN = {
    "stretches": "ba47a1cb62760883427437394320c3ea",
    "profiles": "f7f3f6180782402df2e7f5fd6589ce27",
    "kbuckets": "ccdb02c878afb94dd9302d77062d90b1",
    "walks": "cababf43ca2ae626f0af1ef396937706",
    "directory": "c0c66566337db7bc39c7bcd2ef49b000",
    "control": "91ae68575c676a08a540f35b3cd0df0c",
    "rng": "58b62d8c4dcb10e65d7a576a7e9abef0",
}


@pytest.fixture(scope="module")
def world():
    net = HierNetwork(CONFIG, seed=7)
    files, leaves, bounds = net.community.stretches()
    return {
        "stretches": (bytes(files), bytes(leaves), bounds),
        "profiles": [(p.categories, p.weights) for p in net._leaf_profile],
        "kbuckets": [(table.owner_id, table.entries()) for table in net.kbuckets],
        "walks": (net._walk_steward.tolist(), net._walk_hops.tolist()),
        "directory": [
            (steward, list(categories.items()))
            for steward, categories in net.directory.items()
        ],
        "control": net.control_messages,
        "rng": net._rng.bit_generator.state,
    }


@pytest.mark.parametrize("component", list(GOLDEN))
def test_the_world_is_the_leaf_by_leaf_build(world, component):
    digest = hashlib.blake2b(repr(world[component]).encode(), digest_size=16)
    assert digest.hexdigest() == GOLDEN[component]
