"""``HolderIndex`` against a brute-force scan, for both of its owners.

The flat overlay holds one over (file, node) and patches it with
``replace`` when a peer churns; the community index holds one over
(file, super-peer) and rebuilds it after attach / kill / reattach.  Either
way ``holders(item)`` must be what a scan of the libraries says.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.network.community import CommunityIndex
from repro.network.holders import HolderIndex
from repro.network.overlay import Overlay, OverlayConfig


def scan(libraries: list[frozenset[int]], item: int) -> list[int]:
    return [owner for owner, items in enumerate(libraries) if item in items]


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_holders_equal_a_scan_under_replace(data):
    n_owners = data.draw(st.integers(1, 9))
    n_items = data.draw(st.integers(1, 30))
    room = data.draw(st.integers(0, 6))
    library = st.frozensets(st.integers(0, n_items - 1), max_size=room)
    libraries = [data.draw(library) for _ in range(n_owners)]
    index = HolderIndex(n_owners, n_items, enumerate(libraries), n_owners * room)
    assert index._keys.dtype == np.min_scalar_type(-n_items * n_owners - 1)
    for _ in range(data.draw(st.integers(0, 12), label="replacements")):
        owner = data.draw(st.integers(0, n_owners - 1))
        fresh = data.draw(library)
        index.replace(index.pack(owner, libraries[owner]), index.pack(owner, fresh))
        libraries[owner] = fresh
        item = data.draw(st.integers(0, n_items - 1))
        assert index.holders(item).tolist() == scan(libraries, item)
    # one bounds rule: an item outside 0..n_items-1 has no holders, also
    # where its key would not fit the buffer's integer type
    for item in (*range(-2, n_items + 2), 2**40):
        assert index.holders(item).tolist() == scan(libraries, item)
    held = index._keys[: index._size]
    assert held.tolist() == sorted(
        item * n_owners + owner for owner, items in enumerate(libraries) for item in items
    )


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 600),
    st.integers(1, 200),
    st.integers(0, 599),
    st.lists(st.integers(0, 199), max_size=40),
)
def test_a_buffer_packs_as_its_set(n_owners, n_items, owner, items):
    """A community's ``int32`` stretch (a ``memoryview``) and an array are
    packed in one conversion, a set item by item: the same keys."""
    owner %= n_owners
    items = sorted({item % n_items for item in items})
    index = HolderIndex(n_owners, n_items, (), 0)
    expected = index.pack(owner, frozenset(items))
    stretch = np.array(items, np.int32)
    for buffer in (memoryview(stretch), stretch, stretch.astype(np.int64)):
        packed = index.pack(owner, buffer)
        assert packed.dtype == index._keys.dtype
        assert packed.tolist() == expected.tolist()


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**16), data=st.data())
def test_both_owners_under_interleaved_churn_and_kills(seed, data):
    """One overlay and one community index over the same libraries, churn
    on one interleaved with attach / kill / reattach on the other."""
    overlay = Overlay(
        OverlayConfig(
            n_nodes=24, degree=4, n_categories=4, files_per_category=10, library_size=6
        ),
        seed=seed,
    )
    n_files = overlay.catalog.n_files
    community = CommunityIndex(6)
    orphans: list[int] = []
    next_leaf = 0
    for _ in range(data.draw(st.integers(1, 20), label="steps")):
        live = community.live_superpeers()
        step = data.draw(st.sampled_from(("churn", "attach", "kill", "reattach")))
        if step == "churn":
            overlay.churn_one()
        elif step == "attach":
            # the library of a peer the overlay may churn away later
            library = overlay.node(next_leaf % overlay.n_nodes).library
            community.attach(next_leaf, data.draw(st.sampled_from(live)), library)
            next_leaf += 1
        elif step == "kill" and len(live) > 1:
            orphans += community.kill(data.draw(st.sampled_from(live)))
        elif orphans:
            community.reattach(orphans)
            orphans = []
        file_id = data.draw(st.integers(0, n_files - 1))
        assert overlay.holders(file_id).tolist() == [
            u for u in range(overlay.n_nodes) if overlay.node(u).shares(file_id)
        ]
        assert community.holders(file_id).tolist() == [
            sp for sp in range(6) if community.lookup(sp, file_id)
        ]
