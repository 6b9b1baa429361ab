"""Property tests: ruleset_test_fallback over (source, category)-keyed and
host-only rule sets vs a pair-by-pair fine-then-host brute force."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core.category_rules import CategorizedBlock
from repro.core.evaluation import ruleset_test_fallback
from repro.core.generation import generate_ruleset

N_CATS = 4


def mine(cblock, **kwargs):
    """(fine, host): what ``category-rules`` mines from one block."""
    return (
        generate_ruleset(cblock.keyed(N_CATS), **kwargs),
        generate_ruleset(cblock.block, **kwargs),
    )


def fast(tiers, cblock):
    fine, host = tiers
    return ruleset_test_fallback([(fine, cblock.keyed(N_CATS)), (host, cblock.block)])


@st.composite
def categorized_blocks(draw):
    n = draw(st.integers(1, 80))
    seed = draw(st.integers(0, 2**31 - 1))
    rng = np.random.default_rng(seed)
    sources = rng.integers(0, 5, n)
    categories = rng.integers(0, N_CATS, n)
    repliers = rng.integers(100, 105, n)
    return CategorizedBlock.from_arrays(sources, repliers, categories)


def brute_force(tiers, cblock):
    """Reference: per-pair hierarchical covers/matches calls — the fine
    tier answers for a (source, category) it covers, the host-only tier
    for the rest."""
    fine, host = tiers
    n_covered = 0
    n_successful = 0
    for s, c, r in zip(
        cblock.block.sources.tolist(),
        cblock.categories.tolist(),
        cblock.block.repliers.tolist(),
    ):
        key = s * N_CATS + c
        if fine.covers(key):
            n_covered += 1
            n_successful += fine.matches(key, r)
        elif host.covers(s):
            n_covered += 1
            n_successful += host.matches(s, r)
    return len(cblock), n_covered, n_successful


@settings(max_examples=60, deadline=None)
@given(categorized_blocks(), categorized_blocks(), st.integers(1, 4), st.sampled_from([None, 1, 2]))
def test_vectorized_equals_brute_force(train, test, min_support, top_k):
    tiers = mine(train, min_support_count=min_support, top_k=top_k)
    result = fast(tiers, test)
    n_total, n_covered, n_successful = brute_force(tiers, test)
    assert (result.n_total, result.n_covered, result.n_successful) == (
        n_total,
        n_covered,
        n_successful,
    )


@settings(max_examples=40, deadline=None)
@given(categorized_blocks(), st.integers(1, 3))
def test_category_coverage_at_least_host_only(train, min_support):
    """The fallback tier guarantees coverage >= host-only coverage."""
    from repro.core.evaluation import ruleset_test

    tiers = mine(train, min_support_count=min_support)
    cat_result = fast(tiers, train)
    host_result = ruleset_test(tiers[1], train.block)
    assert cat_result.n_covered >= host_result.n_covered
