"""Tests for repro.core.category_rules (the §VI query-string extension)."""

import numpy as np
import pytest

from repro.core.category_rules import CategorizedBlock, categorize_queries
from repro.core.evaluation import ruleset_test_fallback
from repro.core.generation import generate_ruleset

N_CATS = 4


def mine(train, **kwargs):
    """(fine, host): the two plain rule sets ``category-rules`` mines from
    one block — (source, category)-keyed and host-only."""
    return (
        generate_ruleset(train.keyed(N_CATS), **kwargs),
        generate_ruleset(train.block, **kwargs),
    )


def key(source, category):
    """The packed antecedent ``CategorizedBlock.keyed`` gives the pair."""
    return int(cblock([(source, category, 0)]).keyed(N_CATS).sources[0])


def fallback_test(tiers, test):
    fine, host = tiers
    return ruleset_test_fallback([(fine, test.keyed(N_CATS)), (host, test.block)])


def cblock(triples, index=0):
    """Build a CategorizedBlock from (source, category, replier) triples."""
    if triples:
        sources, categories, repliers = zip(*triples)
    else:
        sources, categories, repliers = (), (), ()
    return CategorizedBlock.from_arrays(sources, repliers, categories, index=index)


# Source 1 queries two categories served by different repliers.
TRAIN = cblock(
    [(1, 0, 10)] * 6 + [(1, 1, 11)] * 4 + [(2, 2, 12)] * 5
)


class TestCategorizedBlock:
    def test_alignment_enforced(self):
        from repro.trace.blocks import PairBlock

        block = PairBlock(
            sources=np.array([1], dtype=np.int64),
            repliers=np.array([2], dtype=np.int64),
        )
        with pytest.raises(ValueError):
            CategorizedBlock(block=block, categories=np.array([0, 1]))

    def test_len(self):
        assert len(TRAIN) == 15


class TestGenerateCategoryRuleset:
    def test_fine_rules_keyed_by_category(self):
        fine, _host = mine(TRAIN, min_support_count=3)
        assert fine.consequents(key(1, 0)) == [10]
        assert fine.consequents(key(1, 1)) == [11]
        assert fine.consequents(key(2, 2)) == [12]

    def test_fallback_for_unseen_category(self):
        fine, host = mine(TRAIN, min_support_count=3)
        # Source 1 never queried category 3: fall back to host-only rules.
        assert fine.consequents(key(1, 3)) == []
        assert 10 in host.consequents(1)  # host-only dominant consequent
        assert fallback_test((fine, host), cblock([(1, 3, 10)])).n_successful == 1

    def test_covers_hierarchy(self):
        fine, host = mine(TRAIN, min_support_count=3)
        assert fine.covers(key(1, 0))
        assert not fine.covers(key(1, 3)) and host.covers(1)  # via fallback
        assert not fine.covers(key(99, 0)) and not host.covers(99)

    def test_matches_uses_fine_tier_when_present(self):
        fine, host = mine(TRAIN, min_support_count=3)
        assert fine.matches(key(1, 0), 10)
        assert not fine.matches(key(1, 0), 11)  # 11 serves category 1, not 0
        assert fine.matches(key(1, 1), 11)
        # ... and the host-only {1} -> {11} does not rescue the covered pair
        assert host.matches(1, 11)
        result = fallback_test((fine, host), cblock([(1, 0, 11)]))
        assert (result.n_covered, result.n_successful) == (1, 0)

    def test_top_k_applies_to_both_tiers(self):
        fine, host = mine(TRAIN, min_support_count=1, top_k=1)
        assert fine.consequents(key(1, 0)) == [10]
        assert host.consequents(1) == [10]  # fallback truncated to top-1

    def test_category_bounds_checked(self):
        with pytest.raises(ValueError):
            key(1, N_CATS)

    def test_out_of_range_category_does_not_alias_another_source(self):
        """Source 1 / category 5 at ``n_categories=3`` used to pack to
        source 2 / category 2's key, so the rule set covered a pair it had
        never seen."""
        with pytest.raises(ValueError, match="categories"):
            cblock([(1, 5, 10)] * 3).keyed(3)
        with pytest.raises(ValueError, match="categories"):
            cblock([(1, -1, 10)]).keyed(3)


class TestCategoryRulesetTest:
    def test_perfect_on_training_data(self):
        result = fallback_test(mine(TRAIN, min_support_count=1), TRAIN)
        assert result.coverage == 1.0
        assert result.success == 1.0

    def test_category_separation_beats_host_only_at_top1(self):
        fine, host = mine(TRAIN, min_support_count=3, top_k=1)
        test = cblock([(1, 0, 10)] * 5 + [(1, 1, 11)] * 5)
        result = fallback_test((fine, host), test)
        assert result.success == 1.0  # both interests routed correctly
        # Host-only top-1 rules would miss the category-1 half.
        from repro.core.evaluation import ruleset_test

        host_result = ruleset_test(host, test.block)
        assert host_result.success == pytest.approx(0.5)

    def test_empty_block(self):
        result = fallback_test(mine(TRAIN), cblock([]))
        assert result.n_total == 0

    def test_uncovered_source(self):
        result = fallback_test(
            mine(TRAIN, min_support_count=3), cblock([(42, 0, 10)] * 3)
        )
        assert result.coverage == 0.0


class TestCategorizeQueries:
    def test_identical_rare_token_clusters_together(self):
        queries = [
            "free jazz album",
            "jazz collection",
            "rock anthem",
            "rock ballad live",
        ]
        labels = categorize_queries(queries, n_clusters=16)
        # 'jazz' is the distinctive token of the first two, 'anthem'/'ballad'
        # are unique — at minimum the jazz pair must agree.
        assert labels[0] == labels[1]

    def test_labels_in_range(self):
        labels = categorize_queries(["a b", "c d", ""], n_clusters=5)
        assert ((labels >= 0) & (labels < 5)).all()

    def test_rejects_bad_cluster_count(self):
        with pytest.raises(ValueError):
            categorize_queries(["x"], n_clusters=0)
