"""The array-drawn peer population against the per-draw loops it replaced.

Every comparison is on twin generators (same seed): equal values *and*
equal generator state afterwards, because everything drawn later — the
next peer, every query — comes from the same stream.  Random uniforms
never land on a bin edge, so the edge cases (``u`` equal to a cdf value
or a profile's running sum, 0.0, the largest double below 1) are fed
through a stub generator.
"""

import hashlib
from itertools import accumulate

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.network.superpeer import SuperPeerConfig, SuperPeerNetwork
from repro.workload.content import ContentCatalog
from repro.workload.interests import InterestModel, InterestProfile
from repro.workload.zipf import ZipfSampler

from .reference_population import (
    reference_draw_library,
    reference_sample_library,
    reference_sample_profile,
    reference_zipf_sample,
)

BELOW_ONE = float(np.nextafter(1.0, 0.0))


class StubGenerator(np.random.Generator):
    """A generator whose ``random`` hands out a prepared list, in order."""

    def __init__(self, uniforms) -> None:
        super().__init__(np.random.PCG64(0))
        self.uniforms = [float(u) for u in uniforms]

    def random(self, size=None):
        if size is None:
            return self.uniforms.pop(0)
        out = np.array(self.uniforms[:size], dtype=float)
        assert out.size == size, "stub ran out of uniforms"
        del self.uniforms[:size]
        return out


def twins(seed):
    return np.random.default_rng(seed), np.random.default_rng(seed)


def same_state(a, b) -> bool:
    return a.bit_generator.state == b.bit_generator.state


def around(values):
    """Each value (kept below 1) with its two neighbouring doubles."""
    out = []
    for v in values:
        out += [np.nextafter(v, 0.0), v, np.nextafter(v, 2.0)]
    return [float(u) for u in out if 0.0 <= u < 1.0]


seeds = st.integers(0, 2**32 - 1)
exponents = st.floats(0.0, 2.5, allow_nan=False)


@st.composite
def profiles(draw, n_categories):
    """A valid profile over ``n_categories``: 1-8 distinct categories in
    any order, positive weights summing to 1 within the tolerance."""
    width = draw(st.integers(1, min(8, n_categories)))
    categories = draw(
        st.lists(
            st.integers(0, n_categories - 1),
            min_size=width,
            max_size=width,
            unique=True,
        )
    )
    raw = draw(
        st.lists(st.floats(0.01, 1.0, allow_nan=False), min_size=width, max_size=width)
    )
    total = sum(raw)
    return InterestProfile(tuple(categories), tuple(w / total for w in raw))


# -- ZipfSampler -----------------------------------------------------------
class TestZipfScalarDraw:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 300), exponents, seeds)
    def test_scalar_equals_array_equals_reference(self, n, exponent, seed):
        sampler = ZipfSampler(n, exponent)
        scalar_rng, ref_rng = twins(seed)
        array_rng = np.random.default_rng(seed)
        for _ in range(50):
            rank = sampler.sample(scalar_rng)
            assert type(rank) is int
            assert rank == reference_zipf_sample(sampler, ref_rng)
            assert rank == int(sampler.sample(array_rng, size=1)[0])
        assert same_state(scalar_rng, ref_rng)
        assert same_state(scalar_rng, array_rng)

    @pytest.mark.parametrize("n, exponent", [(1, 1.0), (7, 0.0), (40, 0.8), (250, 1.0)])
    def test_uniforms_on_the_bin_edges(self, n, exponent):
        """``u`` equal to a cdf value belongs to the *next* rank."""
        sampler = ZipfSampler(n, exponent)
        uniforms = [0.0, BELOW_ONE] + around(sampler._cdf.tolist())
        expected = [
            reference_zipf_sample(sampler, StubGenerator([u])) for u in uniforms
        ]
        scalar = StubGenerator(uniforms)
        assert [sampler.sample(scalar) for _ in uniforms] == expected
        array = sampler.sample(StubGenerator(uniforms), size=len(uniforms))
        assert array.dtype == np.int64
        assert array.tolist() == expected
        assert max(expected) == n - 1 and min(expected) == 0
        # an exact cdf value was fed and read as the rank above it
        if n > 1:
            assert sampler.sample(StubGenerator([sampler._cdf[0]])) == 1


# -- InterestModel.sample_profile -------------------------------------------
class TestSampleProfile:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 60), exponents, exponents, st.integers(1, 8), seeds)
    def test_sequence_equals_reference(self, n, popularity, within, width, seed):
        model = InterestModel(
            n, popularity_exponent=popularity, within_profile_exponent=within
        )
        rng, ref_rng = twins(seed)
        for _ in range(8):
            assert model.sample_profile(rng, width=width) == reference_sample_profile(
                model, ref_rng, width=width
            )
        assert same_state(rng, ref_rng)

    def test_weights_follow_the_width_asked_for(self):
        """One model, widths interleaved: the per-width weight tuple is
        never handed to another width."""
        model = InterestModel(30)
        rng, ref_rng = twins(5)
        for width in (3, 1, 8, 3, 40, 1, 8, 30):
            assert model.sample_profile(rng, width=width) == reference_sample_profile(
                model, ref_rng, width=width
            )
        assert same_state(rng, ref_rng)

    def test_deterministic_fill_at_a_pathological_exponent(self):
        """All popularity mass on category 0: rejection gives up after
        ``200 * width`` draws and fills in id order — same draws consumed."""
        model = InterestModel(5, popularity_exponent=60.0)
        rng, ref_rng = twins(3)
        profile = model.sample_profile(rng, width=3)
        assert profile == reference_sample_profile(model, ref_rng, width=3)
        assert profile.categories == (0, 1, 2)
        assert same_state(rng, ref_rng)
        assert not same_state(rng, np.random.default_rng(3))

    @pytest.mark.parametrize(
        "total",
        [1.0, 1 + 1.0009e-5, 1 + 1.0011e-5, 1 - 1.0009e-5, 1 - 1.0011e-5,
         1 - 1e-6, 0.0, 2.0, float("nan"), float("inf")],
    )
    def test_weight_sum_tolerance_is_np_isclose(self, total):
        if np.isclose(total, 1.0):
            InterestProfile((0,), (total,))
        else:
            with pytest.raises(ValueError):
                InterestProfile((0,), (total,))


# -- ContentCatalog.sample_library -----------------------------------------
def assert_same_library(library, reference):
    assert library == reference
    # the same hash table, not only the same members: whatever walks a
    # library walks it in the order it always did
    assert list(library) == list(reference)


class TestSampleLibrary:
    @settings(max_examples=150, deadline=None)
    @given(st.data(), st.integers(1, 12), st.integers(1, 80), exponents,
           st.integers(0, 200), seeds)
    def test_equals_reference_loop(self, data, n_categories, per_category,
                                   exponent, size, seed):
        catalog = ContentCatalog(
            n_categories, per_category, popularity_exponent=exponent
        )
        profile = data.draw(profiles(n_categories))
        rng, ref_rng = twins(seed)
        # two libraries from one stream: the second starts where the
        # first one left the generator
        for _ in range(2):
            assert_same_library(
                catalog.sample_library(rng, profile, size=size),
                reference_sample_library(catalog, ref_rng, profile, size=size),
            )
        assert same_state(rng, ref_rng)

    def test_sampled_profiles_at_simulator_shape(self):
        """The shape both simulators use: 40 x 250, width 4, 60 draws."""
        catalog = ContentCatalog(40, 250)
        model = InterestModel(40)
        rng, ref_rng = twins(2006)
        for _ in range(200):
            profile = model.sample_profile(rng, width=4)
            assert profile == reference_sample_profile(model, ref_rng, width=4)
            assert_same_library(
                catalog.sample_library(rng, profile, size=60),
                reference_sample_library(catalog, ref_rng, profile, size=60),
            )
        assert same_state(rng, ref_rng)

    def test_uniforms_on_the_edges(self):
        """Exact profile edges in the category slots and exact cdf values
        in the rank slots, every pairing of the two."""
        catalog = ContentCatalog(6, 9, popularity_exponent=0.7)
        profile = InterestProfile((4, 0, 5, 2), (0.4, 0.3, 0.2, 0.1))
        category_us = [0.0, BELOW_ONE] + around(accumulate(profile.weights))
        rank_us = [0.0, BELOW_ONE] + around(catalog._rank_sampler._cdf.tolist())
        pairs = [(c, r) for c in category_us for r in rank_us]
        # one draw at a time: a library of many would hold every file
        # whichever side of an edge its uniforms fell
        seen = set()
        for pair in pairs:
            one = catalog.sample_library(StubGenerator(pair), profile, size=1)
            assert one == reference_sample_library(
                catalog, StubGenerator(pair), profile, size=1
            )
            seen |= one
        # every (category, rank) pair is reachable from those edges
        assert len(seen) == 4 * 9
        uniforms = [u for pair in pairs for u in pair]
        assert_same_library(
            catalog.sample_library(StubGenerator(uniforms), profile, size=len(pairs)),
            reference_sample_library(
                catalog, StubGenerator(uniforms), profile, size=len(pairs)
            ),
        )
        # a uniform equal to the first running sum is the second category's,
        # and category slots are not rank slots
        assert catalog.sample_library(
            StubGenerator([profile.weights[0], 0.0]), profile, size=1
        ) == {0 * 9 + 0}
        assert catalog.sample_library(
            StubGenerator([0.95, 0.0]), profile, size=1
        ) == {2 * 9 + 0}

    def test_weights_summing_short_of_one_clip_to_the_last_category(self):
        """A uniform above the last running sum has no edge above it."""
        profile = InterestProfile((3, 1, 2), (0.5, 0.3, 0.2 - 1e-6))
        assert BELOW_ONE >= sum(profile.weights)
        catalog = ContentCatalog(4, 5)
        uniforms = [BELOW_ONE, 0.0, 1 - 5e-7, 0.0, 0.1, BELOW_ONE]
        library = catalog.sample_library(StubGenerator(uniforms), profile, size=3)
        assert_same_library(
            library,
            reference_sample_library(catalog, StubGenerator(uniforms), profile, size=3),
        )
        assert library == {2 * 5 + 0, 3 * 5 + 4}

    def test_size_zero_draws_nothing(self):
        catalog = ContentCatalog(4, 5)
        profile = InterestProfile((0, 3), (0.5, 0.5))
        rng = np.random.default_rng(8)
        assert catalog.sample_library(rng, profile, size=0) == frozenset()
        assert same_state(rng, np.random.default_rng(8))

    @pytest.mark.parametrize("weight", [0.6, 1e-6])
    @pytest.mark.parametrize("bad", [4, -1])
    def test_unknown_category_raises_before_any_draw(self, weight, bad):
        """Heavy or all but never drawn, a category the catalog lacks is
        an error, not a smaller library."""
        catalog = ContentCatalog(4, 5)
        profile = InterestProfile((1, bad), (1.0 - weight, weight))
        rng = np.random.default_rng(8)
        with pytest.raises(IndexError):
            catalog.sample_library(rng, profile, size=60)
        assert same_state(rng, np.random.default_rng(8))


# -- ContentCatalog.libraries_for_uniforms -----------------------------------
def block_rows(catalog, profiles, uniforms):
    """Each row of the block mapping, and what the per-draw loop draws
    from the same row of uniforms."""
    u = np.array(uniforms, dtype=float).reshape(len(profiles), -1)
    block = catalog.libraries_for_uniforms(profiles, u)
    assert block.dtype == np.int64 and block.shape == (len(profiles), u.shape[1] // 2)
    size = u.shape[1] // 2
    for row, profile, drawn in zip(u, profiles, block):
        expected = reference_draw_library(
            catalog, StubGenerator(row), profile, size=size
        )
        yield drawn.tolist(), expected
        # and draw_library is the block of one row
        one = catalog.draw_library(StubGenerator(row), profile, size=size)
        assert one.tolist() == expected


class TestLibraryBlock:
    def test_a_community_at_the_simulator_shape(self):
        """20 leaves, 40 x 250, width 4, 60 files: profile then uniforms
        per leaf into a block, mapped at once — the reference's draws,
        and the generator where the reference leaves it."""
        catalog, model = ContentCatalog(40, 250), InterestModel(40)
        rng, ref_rng = twins(2006)
        u = np.empty((20, 120))
        for _ in range(10):
            profiles = []
            for row in u:
                profiles.append(model.sample_profile(rng, width=4))
                rng.random(out=row)
            block = catalog.libraries_for_uniforms(profiles, u)
            for profile, drawn in zip(profiles, block):
                assert profile == reference_sample_profile(model, ref_rng, width=4)
                assert drawn.tolist() == reference_draw_library(
                    catalog, ref_rng, profile, size=60
                )
        assert same_state(rng, ref_rng)

    @settings(max_examples=120, deadline=None)
    @given(st.data(), st.integers(1, 12), st.integers(1, 80), exponents,
           st.integers(0, 30), st.integers(1, 9), seeds)
    def test_profiles_of_every_width_in_one_block(self, data, n_categories,
                                                 per_category, exponent, size,
                                                 rows, seed):
        """Narrow rows beside wide ones, weights alike and not: each row
        maps as it would alone."""
        catalog = ContentCatalog(
            n_categories, per_category, popularity_exponent=exponent
        )
        block = [data.draw(profiles(n_categories)) for _ in range(rows)]
        uniforms = np.random.default_rng(seed).random(rows * 2 * size)
        for drawn, expected in block_rows(catalog, block, uniforms):
            assert drawn == expected

    def test_uniforms_on_the_edges(self):
        """Exact running sums and cdf values, their neighbours, 0.0 and
        the largest double below 1, paired every way across rows of
        profiles of widths 1 to 4 (one summing short of 1)."""
        catalog = ContentCatalog(6, 9, popularity_exponent=0.7)
        profiles = [
            InterestProfile((4, 0, 5, 2), (0.4, 0.3, 0.2, 0.1)),
            InterestProfile((3,), (1.0,)),
            InterestProfile((3, 1, 2), (0.5, 0.3, 0.2 - 1e-6)),
            InterestProfile((5, 1), (0.75, 0.25)),
        ]
        rank_us = [0.0, BELOW_ONE] + around(catalog._rank_sampler._cdf.tolist())
        category_us = [0.0, BELOW_ONE, 1 - 5e-7]
        for profile in profiles:
            category_us += around(accumulate(profile.weights))
        pairs = [(c, r) for c in category_us for r in rank_us]
        size = len(pairs)
        # every row sees every pair, each row shifted so that rows differ
        uniforms = [
            u for at in range(len(profiles)) for pair in pairs[at:] + pairs[:at]
            for u in pair
        ]
        seen = set()
        for drawn, expected in block_rows(catalog, profiles, uniforms):
            assert drawn == expected
            seen |= set(drawn)
        assert len(seen) == len({c for p in profiles for c in p.categories}) * 9
        assert size > 100

    def test_no_rows_and_no_draws(self):
        catalog = ContentCatalog(4, 5)
        profile = InterestProfile((0, 3), (0.5, 0.5))
        assert catalog.libraries_for_uniforms([], np.empty((0, 6))).shape == (0, 3)
        assert catalog.libraries_for_uniforms([profile], np.empty((1, 0))).shape == (1, 0)
        with pytest.raises(ValueError):
            catalog.libraries_for_uniforms([profile], np.empty((1, 5)))
        with pytest.raises(ValueError):
            catalog.libraries_for_uniforms([profile, profile], np.empty((1, 6)))

    @pytest.mark.parametrize("bad", [4, -1])
    def test_a_row_the_catalog_cannot_serve_raises(self, bad):
        catalog = ContentCatalog(4, 5)
        good = InterestProfile((1, 2), (0.5, 0.5))
        wrong = InterestProfile((1, bad), (1.0 - 1e-6, 1e-6))
        with pytest.raises(IndexError, match="out of range"):
            catalog.libraries_for_uniforms([good, wrong], np.zeros((2, 4)))


# -- the world both simulators are built from -------------------------------
def test_golden_population_and_queries():
    """A 100 x 20 population (profiles, libraries) and the first 2,000
    ``(leaf, file)`` queries asked of it, recorded at the parent commit
    (6b0560f) from the per-draw loops."""
    asked = []

    class Recording(SuperPeerNetwork):
        def query(self, leaf, file_id):
            asked.append((leaf, file_id))
            return super().query(leaf, file_id)

    net = Recording(SuperPeerConfig(n_superpeers=100, leaves_per_superpeer=20), seed=19)
    net.run_workload(2000)
    population = [
        (profile.categories, profile.weights, sorted(net.library(leaf)))
        for leaf, profile in enumerate(net._leaf_profile)
    ]
    assert len(population) == 2000 and len(asked) == 2000
    digest = hashlib.blake2b(repr((population, asked)).encode(), digest_size=16)
    assert digest.hexdigest() == "1dcf15f096f41d0459b3ba6101c6d5c9"
