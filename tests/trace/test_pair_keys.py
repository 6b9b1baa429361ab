"""Tests for the packed pair key, owned by ``repro.trace.blocks``.

A pair is one int64 key, ``(source << 32) | replier``.  These tests pin
the format at its edges, ids 0 and ``2**31 - 1``.  Each mutant of
``repro.trace.blocks`` below fails the named test:

* ending a source's key range at ``(source + 1) << 32``, searched
  ``side="left"``, instead of at ``source << 32 | 0xFFFFFFFF``: that
  bound overflows int64 at source ``2**31 - 1``
  (``test_source_key_range_at_the_largest_id``);
* packing or splitting at bit 31 instead of bit 32
  (``test_pack_then_split_round_trips``).
"""

import os
import subprocess
import sys

import numpy as np
from hypothesis import given, strategies as st

from repro.trace.blocks import (
    ID_LIMIT,
    key_repliers,
    key_sources,
    pack_keys,
    source_bits,
    source_key_range,
)

MAX_ID = ID_LIMIT - 1
ids = st.lists(
    st.one_of(st.sampled_from([0, 1, MAX_ID - 1, MAX_ID]), st.integers(0, MAX_ID)),
    min_size=1,
    max_size=40,
)


@given(ids, ids)
def test_pack_then_split_round_trips(sources, repliers):
    n = min(len(sources), len(repliers))
    sources = np.array(sources[:n], dtype=np.int64)
    repliers = np.array(repliers[:n], dtype=np.int64)
    keys = pack_keys(sources, repliers)
    assert (keys >= 0).all()
    np.testing.assert_array_equal(key_sources(keys), sources)
    np.testing.assert_array_equal(key_repliers(keys), repliers)
    np.testing.assert_array_equal(source_bits(keys), pack_keys(sources, 0 * sources))
    order = np.lexsort((repliers, sources))
    np.testing.assert_array_equal(np.argsort(keys, kind="stable"), order)


def test_source_key_range_at_the_largest_id():
    sources = np.array([0, 5, MAX_ID - 1, MAX_ID], dtype=np.int64)
    first, last = source_key_range(sources)
    np.testing.assert_array_equal(key_sources(first), sources)
    np.testing.assert_array_equal(key_repliers(first), 0)
    np.testing.assert_array_equal(key_sources(last), sources)
    np.testing.assert_array_equal(key_sources(last[:-1] + 1), sources[:-1] + 1)
    assert last[-1] == np.iinfo(np.int64).max
    # the largest source's keys are the top of a sorted key array
    keys = np.sort(pack_keys([MAX_ID - 1, MAX_ID, MAX_ID], [MAX_ID, 0, MAX_ID]))
    lo = np.searchsorted(keys, first[-1])
    hi = np.searchsorted(keys, last[-1], side="right")
    assert (lo, hi) == (1, 3)


def test_importing_repro_trace_loads_no_core_module():
    probe = (
        "import sys, repro.trace; "
        "print(sorted(m for m in sys.modules if m.startswith('repro.core')))"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        check=True,
        timeout=60,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
    )
    assert out.stdout.strip() == "[]"
