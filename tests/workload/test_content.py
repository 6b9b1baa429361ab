"""Tests for repro.workload.content."""

import numpy as np
import pytest

from repro.workload.content import ContentCatalog
from repro.workload.interests import InterestModel, InterestProfile

from .reference_population import reference_draw_library, reference_sample_library


class TestContentCatalog:
    def test_n_files(self):
        assert ContentCatalog(4, 100).n_files == 400

    def test_category_of(self):
        catalog = ContentCatalog(4, 100)
        assert catalog.category_of(0) == 0
        assert catalog.category_of(99) == 0
        assert catalog.category_of(100) == 1
        assert catalog.category_of(399) == 3

    def test_category_of_out_of_range(self):
        with pytest.raises(IndexError):
            ContentCatalog(2, 10).category_of(20)

    def test_sample_file_stays_in_category(self, rng):
        catalog = ContentCatalog(5, 50)
        for _ in range(100):
            f = catalog.sample_file(rng, 3)
            assert catalog.category_of(f) == 3

    def test_sample_file_bad_category(self, rng):
        state = rng.bit_generator.state
        with pytest.raises(IndexError):
            ContentCatalog(2, 10).sample_file(rng, 5)
        assert rng.bit_generator.state == state  # refused before drawing

    @pytest.mark.parametrize("exponent", [0.0, 1.0, 1.7])
    def test_file_for_uniform_agrees_with_sample_file(self, exponent):
        catalog = ContentCatalog(5, 50, popularity_exponent=exponent)
        drawn, mapped = np.random.default_rng(3), np.random.default_rng(3)
        for category in [0, 4, 2, 2, 1, 3] * 50:
            f = catalog.sample_file(drawn, category)
            assert catalog.file_for_uniform(category, mapped.random()) == f
            assert type(f) is int

    def test_file_for_uniform_at_the_edges(self):
        catalog = ContentCatalog(3, 10)
        assert catalog.file_for_uniform(1, 0.0) == 10
        assert catalog.file_for_uniform(2, 1.0 - 2**-53) == 29

    def test_library_respects_interests(self, rng):
        catalog = ContentCatalog(6, 40)
        profile = InterestProfile(categories=(1, 4), weights=(0.7, 0.3))
        library = catalog.sample_library(rng, profile, size=60)
        assert library
        assert all(catalog.category_of(f) in (1, 4) for f in library)

    def test_library_size_zero(self, rng):
        catalog = ContentCatalog(2, 10)
        profile = InterestProfile(categories=(0,), weights=(1.0,))
        assert catalog.sample_library(rng, profile, size=0) == frozenset()

    def test_library_negative_size(self, rng):
        catalog = ContentCatalog(2, 10)
        profile = InterestProfile(categories=(0,), weights=(1.0,))
        with pytest.raises(ValueError):
            catalog.sample_library(rng, profile, size=-1)

    def test_file_name_stable_and_parseable(self):
        catalog = ContentCatalog(3, 20)
        name = catalog.file_name(45)  # category 2, rank 5
        assert name == "cat002/file00005.dat"

    def test_query_matches(self):
        catalog = ContentCatalog(2, 10)
        assert catalog.query_matches(5, frozenset({3, 5}))
        assert not catalog.query_matches(5, frozenset({3}))

    def test_rejects_bad_dimensions(self):
        with pytest.raises(ValueError):
            ContentCatalog(0, 10)
        with pytest.raises(ValueError):
            ContentCatalog(10, 0)


class TestDrawLibrary:
    """The one draw both simulators use, against the per-draw loop."""

    def test_equals_reference_loop_draw_for_draw(self):
        catalog = ContentCatalog(40, 250)
        model = InterestModel(40)
        rng, ref_rng = np.random.default_rng(2006), np.random.default_rng(2006)
        for size in (0, 1, 60, 200):
            for _ in range(25):
                profile = model.sample_profile(rng, width=4)
                assert profile == model.sample_profile(ref_rng, width=4)
                drawn = catalog.draw_library(rng, profile, size=size)
                assert isinstance(drawn, np.ndarray) and drawn.shape == (size,)
                # same files, same order, duplicates included
                assert drawn.tolist() == reference_draw_library(
                    catalog, ref_rng, profile, size=size
                )
                assert rng.bit_generator.state == ref_rng.bit_generator.state
        assert len(set(drawn.tolist())) < drawn.size  # there were duplicates

    def test_sample_library_is_the_draws_as_a_set(self):
        catalog = ContentCatalog(12, 80)
        profile = InterestProfile(categories=(3, 7, 1), weights=(0.5, 0.3, 0.2))
        rngs = [np.random.default_rng(77) for _ in range(3)]
        for _ in range(20):
            library = catalog.sample_library(rngs[0], profile, size=60)
            drawn = catalog.draw_library(rngs[1], profile, size=60)
            assert library == frozenset(drawn.tolist())
            # the table an add-per-draw loop leaves, not only its members
            assert list(library) == list(
                reference_sample_library(catalog, rngs[2], profile, size=60)
            )
            assert all(type(f) is int for f in library)

    def test_peers_holding_a_file_hold_one_int_object(self):
        """Libraries share the catalog's int per file id rather than each
        holding a fresh one (ids past 256, which CPython does not cache)."""
        catalog = ContentCatalog(2, 400)
        profile = InterestProfile(categories=(1,), weights=(1.0,))
        rng = np.random.default_rng(5)
        one, two = (catalog.sample_library(rng, profile, size=60) for _ in range(2))
        shared = one & two
        assert shared and min(shared) >= 400
        held_by_one = {f: f for f in one}
        for f in two:
            if f in shared:
                assert f is held_by_one[f]

    def test_unknown_category_raises_before_any_draw(self):
        catalog = ContentCatalog(4, 5)
        profile = InterestProfile((1, 4), (0.4, 0.6))
        rng = np.random.default_rng(8)
        with pytest.raises(IndexError):
            catalog.draw_library(rng, profile, size=60)
        assert rng.bit_generator.state == np.random.default_rng(8).bit_generator.state

    def test_negative_size(self, rng):
        profile = InterestProfile(categories=(0,), weights=(1.0,))
        with pytest.raises(ValueError):
            ContentCatalog(2, 10).draw_library(rng, profile, size=-1)
