"""Tests for repro.utils.rng.UniformBuffer."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.utils.rng import UniformBuffer


class TestUniformBuffer:
    def test_values_in_unit_interval(self):
        buf = UniformBuffer(np.random.default_rng(1), chunk=16)
        for _ in range(100):
            assert 0.0 <= buf.next() < 1.0

    def test_deterministic_per_seed(self):
        a = UniformBuffer(np.random.default_rng(2), chunk=8)
        b = UniformBuffer(np.random.default_rng(2), chunk=8)
        assert [a.next() for _ in range(40)] == [b.next() for _ in range(40)]

    def test_chunk_size_invisible(self):
        """The draw sequence must not depend on the buffering granularity."""
        small = UniformBuffer(np.random.default_rng(3), chunk=4)
        large = UniformBuffer(np.random.default_rng(3), chunk=1024)
        assert [small.next() for _ in range(50)] == [large.next() for _ in range(50)]

    def test_refill_seamless(self):
        buf = UniformBuffer(np.random.default_rng(4), chunk=5)
        values = [buf.next() for _ in range(20)]
        assert len(set(values)) == 20  # no repeats across refills

    def test_next_index_range(self):
        buf = UniformBuffer(np.random.default_rng(5), chunk=64)
        draws = [buf.next_index(7) for _ in range(500)]
        assert min(draws) == 0
        assert max(draws) == 6

    def test_next_index_roughly_uniform(self):
        buf = UniformBuffer(np.random.default_rng(6), chunk=4096)
        counts = np.bincount([buf.next_index(4) for _ in range(8000)], minlength=4)
        assert counts.min() > 1700

    def test_validation(self):
        with pytest.raises(ValueError):
            UniformBuffer(np.random.default_rng(7), chunk=0)
        buf = UniformBuffer(np.random.default_rng(8))
        with pytest.raises(ValueError):
            buf.next_index(0)


#: one step of an interleaving: (method, argument).  ``advance`` takes a
#: fraction of what the last peek showed, so it is always legal.
_STEPS = st.lists(
    st.one_of(
        st.tuples(st.just("next"), st.none()),
        st.tuples(st.just("next_index"), st.integers(1, 1000)),
        st.tuples(st.just("peek"), st.integers(0, 40)),
        st.tuples(st.just("advance"), st.floats(0.0, 1.0)),
    ),
    max_size=60,
)


class TestPeekAdvance:
    @given(st.integers(1, 33), _STEPS)
    @settings(max_examples=200, deadline=None)
    def test_any_interleaving_is_the_scalar_stream(self, chunk, steps):
        """next / next_index / peek / advance, in any order and for any
        chunk, walk the one stream ``next()`` alone would."""
        stream = np.random.default_rng(9).random(4000)
        buf = UniformBuffer(np.random.default_rng(9), chunk=chunk)
        pos = shown = 0  # stream position; draws the last peek showed from it
        for method, arg in steps:
            if method == "next":
                assert buf.next() == stream[pos]
                pos, shown = pos + 1, max(shown - 1, 0)
            elif method == "next_index":
                assert buf.next_index(arg) == int(stream[pos] * arg)
                pos, shown = pos + 1, max(shown - 1, 0)
            elif method == "peek":
                np.testing.assert_array_equal(buf.peek(arg), stream[pos : pos + arg])
                shown = max(shown, arg)
            else:
                k = int(arg * shown)
                buf.advance(k)
                pos, shown = pos + k, shown - k
        assert buf.next() == stream[pos]

    def test_peek_does_not_consume(self):
        buf = UniformBuffer(np.random.default_rng(10), chunk=4)
        first = buf.peek(10).copy()
        np.testing.assert_array_equal(buf.peek(10), first)
        assert buf.next() == first[0]

    def test_peek_is_read_only(self):
        buf = UniformBuffer(np.random.default_rng(11), chunk=8)
        with pytest.raises(ValueError):
            buf.peek(3)[0] = 0.5

    @pytest.mark.parametrize("chunk", [1, 4, 64])
    def test_advance_past_what_was_peeked_raises(self, chunk):
        buf = UniformBuffer(np.random.default_rng(12), chunk=chunk)
        with pytest.raises(ValueError):
            buf.advance(1)  # nothing peeked yet, whatever is buffered
        buf.peek(5)
        with pytest.raises(ValueError):
            buf.advance(6)
        buf.advance(2)
        buf.next()  # uses up one of the three draws still shown
        with pytest.raises(ValueError):
            buf.advance(3)
        buf.advance(2)
        buf.advance(0)

    def test_negative_k_raises(self):
        buf = UniformBuffer(np.random.default_rng(13), chunk=8)
        with pytest.raises(ValueError):
            buf.peek(-1)
        buf.peek(4)
        with pytest.raises(ValueError):
            buf.advance(-1)
