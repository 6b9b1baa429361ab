"""Tests for repro.core.generation (GENERATE-RULESET)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.generation import generate_ruleset
from repro.trace.blocks import key_repliers, key_sources, pack_keys, scan_id_range
from tests.conftest import make_block
from tests.core.reference_rules import reference_generate_ruleset


class TestPackPairKeys:
    """The packed key GENERATE-RULESET counts, from its one owner
    (``tests/trace/test_pair_keys.py`` holds the module's own tests)."""

    def test_roundtrip(self):
        sources = np.array([1, 2, 3], dtype=np.int64)
        repliers = np.array([10, 20, 30], dtype=np.int64)
        keys = pack_keys(sources, repliers)
        np.testing.assert_array_equal(key_sources(keys), sources)
        np.testing.assert_array_equal(key_repliers(keys), repliers)

    def test_rejects_out_of_range_ids(self):
        big = np.array([1 << 31], dtype=np.int64)
        ok = np.array([0], dtype=np.int64)
        with pytest.raises(ValueError):
            scan_id_range(big, ok)
        with pytest.raises(ValueError):
            scan_id_range(ok, -big)
        with pytest.raises(ValueError):
            generate_ruleset(make_block([(0, 1 << 31)]), min_support_count=1)

    def test_repeated_mining_scans_block_ids_once(self, small_block, monkeypatch):
        """The id-range scan runs once per block, so re-mining the same
        block must not repeat it."""
        import repro.trace.blocks as blocks_module

        calls = []
        real_scan = blocks_module.scan_id_range
        monkeypatch.setattr(
            blocks_module,
            "scan_id_range",
            lambda *args: calls.append(1) or real_scan(*args),
        )
        for _ in range(3):
            generate_ruleset(small_block, min_support_count=1)
        assert len(calls) == 1


class TestGenerateRuleset:
    def test_counts_from_small_block(self, small_block):
        rs = generate_ruleset(small_block, min_support_count=1)
        # (1,10) x4, (1,11) x2, (2,12) x3, (2,10) x1
        best = next(iter(rs))  # antecedent 1's highest-support rule
        assert (best.antecedent, best.consequent, best.count) == (1, 10, 4)
        assert rs.matches(2, 12)
        assert rs.matches(2, 10)
        assert len(rs) == 4

    def test_support_pruning(self, small_block):
        rs = generate_ruleset(small_block, min_support_count=3)
        assert rs.matches(1, 10)
        assert rs.matches(2, 12)
        assert not rs.matches(1, 11)  # count 2 < 3
        assert not rs.matches(2, 10)  # count 1 < 3

    def test_top_k(self, small_block):
        rs = generate_ruleset(small_block, min_support_count=1, top_k=1)
        assert rs.consequents(1) == [10]
        assert rs.consequents(2) == [12]

    def test_confidence_pruning(self, small_block):
        # Source 1 has 6 pairs: (1,10) conf 4/6, (1,11) conf 2/6.
        rs = generate_ruleset(small_block, min_support_count=1, min_confidence=0.5)
        assert rs.matches(1, 10)
        assert not rs.matches(1, 11)

    def test_empty_block(self):
        rs = generate_ruleset(make_block([]))
        assert len(rs) == 0

    def test_all_pruned(self, small_block):
        rs = generate_ruleset(small_block, min_support_count=100)
        assert len(rs) == 0

    @pytest.mark.parametrize("impl", ["numpy", "python"])
    def test_both_implementations_work(self, small_block, impl):
        generate = generate_ruleset if impl == "numpy" else reference_generate_ruleset
        rs = generate(small_block, min_support_count=2)
        assert rs.matches(1, 10)

    def test_unknown_implementation(self, small_block):
        """There is one implementation; naming any is a ``TypeError``."""
        with pytest.raises(TypeError):
            generate_ruleset(small_block, implementation="python")

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"min_support_count": 0},
            {"top_k": 0},
            {"min_confidence": 1.5},
        ],
    )
    def test_parameter_validation(self, small_block, kwargs):
        with pytest.raises(ValueError):
            generate_ruleset(small_block, **kwargs)


pairs_strategy = st.lists(
    st.tuples(st.integers(0, 6), st.integers(0, 6)), min_size=0, max_size=200
)


@settings(max_examples=60, deadline=None)
@given(
    pairs_strategy,
    st.integers(1, 5),
    st.sampled_from([None, 1, 2]),
    st.sampled_from([0.0, 0.3, 0.6]),
)
def test_numpy_equals_python_reference(pairs, min_support, top_k, min_conf):
    """Property: the vectorized code and the reference loop agree."""
    block = make_block(pairs)
    a = generate_ruleset(
        block,
        min_support_count=min_support,
        top_k=top_k,
        min_confidence=min_conf,
    )
    b = reference_generate_ruleset(
        block,
        min_support_count=min_support,
        top_k=top_k,
        min_confidence=min_conf,
    )
    assert sorted((r.antecedent, r.consequent, r.count) for r in a) == sorted(
        (r.antecedent, r.consequent, r.count) for r in b
    )
