"""Tests for repro.utils.rng."""

import numpy as np
import pytest

from repro.utils.rng import as_generator, draw_records, spawn_child


class TestAsGenerator:
    def test_none_gives_generator(self):
        assert isinstance(as_generator(None), np.random.Generator)

    def test_int_seed_is_deterministic(self):
        a = as_generator(42).random(8)
        b = as_generator(42).random(8)
        np.testing.assert_array_equal(a, b)

    def test_different_seeds_differ(self):
        a = as_generator(1).random(8)
        b = as_generator(2).random(8)
        assert not np.array_equal(a, b)

    def test_generator_passthrough(self):
        gen = np.random.default_rng(7)
        assert as_generator(gen) is gen

    def test_seed_sequence_accepted(self):
        seq = np.random.SeedSequence(99)
        gen = as_generator(seq)
        assert isinstance(gen, np.random.Generator)

    def test_numpy_integer_seed(self):
        gen = as_generator(np.int64(5))
        assert isinstance(gen, np.random.Generator)

    @pytest.mark.parametrize("bad", ["42", 3.14, [1, 2], object()])
    def test_rejects_other_types(self, bad):
        with pytest.raises(TypeError):
            as_generator(bad)


class TestSpawnChild:
    def test_child_is_generator(self, rng):
        child = spawn_child(rng)
        assert isinstance(child, np.random.Generator)

    def test_deterministic_from_parent_state(self):
        a = spawn_child(np.random.default_rng(3)).random(5)
        b = spawn_child(np.random.default_rng(3)).random(5)
        np.testing.assert_array_equal(a, b)

    def test_children_with_different_keys_differ(self):
        parent = np.random.default_rng(3)
        state = parent.bit_generator.state
        a = spawn_child(parent, key=0).random(5)
        parent.bit_generator.state = state
        b = spawn_child(parent, key=1).random(5)
        assert not np.array_equal(a, b)

    def test_sequential_children_differ(self):
        parent = np.random.default_rng(3)
        a = spawn_child(parent).random(5)
        b = spawn_child(parent).random(5)
        assert not np.array_equal(a, b)

    def test_child_independent_of_parent_future(self):
        parent = np.random.default_rng(3)
        child = spawn_child(parent)
        first = child.random()
        parent.random(100)  # advancing the parent must not affect the child
        parent2 = np.random.default_rng(3)
        child2 = spawn_child(parent2)
        assert child2.random() == first

    def test_rejects_non_generator(self):
        with pytest.raises(TypeError):
            spawn_child(42)

    def test_rejects_negative_key(self, rng):
        with pytest.raises(ValueError):
            spawn_child(rng, key=-1)


def scalar_records(rng, n, high, n_uniforms):
    """What ``draw_records`` must equal: the per-record scalar calls."""
    ints, uniforms = [], []
    for _ in range(n):
        ints.append(int(rng.integers(0, high)))
        uniforms.append([rng.random() for _ in range(n_uniforms)])
    return ints, uniforms


def same_state(a, b):
    """Equal ``bit_generator.state`` dicts (Philox and MT19937 hold arrays)."""
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(same_state(a[k], b[k]) for k in a)
    return np.array_equal(a, b)


def twins(bit_generator, seed, buffered):
    """Two generators in one state; ``buffered`` leaves a 32-bit half in
    the state's buffer (``has_uint32`` 1) before the records start."""
    first = np.random.Generator(bit_generator(seed))
    if buffered:
        first.integers(0, 1000)
    second = np.random.Generator(bit_generator(seed))
    second.bit_generator.state = first.bit_generator.state
    return first, second


class TestDrawRecords:
    """``draw_records`` against the scalar calls it stands for: values,
    and the generator's whole state afterwards."""

    @pytest.mark.parametrize("buffered", [0, 1])
    @pytest.mark.parametrize("n", [0, 1, 2, 7, 64, 1025])
    @pytest.mark.parametrize("n_uniforms", [0, 1, 2, 3])
    @pytest.mark.parametrize("high", [2, 3, 600, 10_500, 2**32 - 1])
    def test_records_and_state_equal_the_scalar_calls(
        self, buffered, n, n_uniforms, high
    ):
        ours, theirs = twins(np.random.PCG64, 2006, buffered)
        if buffered:
            assert ours.bit_generator.state["has_uint32"] == 1
        ints, uniforms = draw_records(ours, n, high, n_uniforms)
        assert (ints.dtype, ints.shape) == (np.int64, (n,))
        assert uniforms.shape == (n, n_uniforms)
        assert (ints.tolist(), uniforms.tolist()) == scalar_records(
            theirs, n, high, n_uniforms
        )
        assert same_state(ours.bit_generator.state, theirs.bit_generator.state)

    @pytest.mark.parametrize("buffered", [0, 1])
    @pytest.mark.parametrize("cuts", [[5], [1, 1, 1], [2, 3, 4, 1], [0, 7, 0, 6]])
    def test_consecutive_calls_continue_one_stream(self, buffered, cuts):
        """Chunk edges: any split of ``n`` draws what one call draws,
        whatever half each chunk finds in the buffer."""
        ours, theirs = twins(np.random.PCG64, 7, buffered)
        drawn = [draw_records(ours, n, 10_000) for n in cuts]
        ints = np.concatenate([i for i, _u in drawn]).tolist()
        uniforms = np.concatenate([u for _i, u in drawn]).tolist()
        assert (ints, uniforms) == scalar_records(theirs, sum(cuts), 10_000, 2)
        assert same_state(ours.bit_generator.state, theirs.bit_generator.state)

    @pytest.mark.parametrize("buffered", [0, 1])
    @pytest.mark.parametrize(
        "seed,n", [(0, 101), (1, 101), (2, 101), (3, 101), (4, 5000)]
    )
    def test_a_rejected_half_is_drawn_again_as_numpy_does(self, buffered, seed, n):
        """``high = 2**31 + 1`` rejects about half of all 32-bit halves
        (Lemire's threshold is 2**31 - 1), so every call crosses many
        rejections, each redrawn by the scalar call; ``n`` past several
        segments, each rejection throwing away at most one."""
        high = 2**31 + 1
        probe = np.random.Generator(np.random.PCG64(seed)).bit_generator
        halves = probe.random_raw(50).view(np.uint32).astype(np.uint64)
        assert ((halves * high) % 2**32 < 2**32 % high).sum() > 10
        ours, theirs = twins(np.random.PCG64, seed, buffered)
        ints, uniforms = draw_records(ours, n, high)
        drawn = (ints.tolist(), uniforms.tolist())
        assert drawn == scalar_records(theirs, n, high, 2)
        assert same_state(ours.bit_generator.state, theirs.bit_generator.state)

    @pytest.mark.parametrize(
        "bit_generator",
        [np.random.MT19937, np.random.PCG64DXSM, np.random.SFC64, np.random.Philox],
    )
    @pytest.mark.parametrize("buffered", [0, 1])
    @pytest.mark.parametrize("high", [1, 10_500, 2**32, 2**40])
    def test_other_bit_generators_and_bounds(self, bit_generator, buffered, high):
        """MT19937's words are 32 bits and a bound outside [2, 2**32) takes
        no Lemire half: both draw every record by the scalar calls."""
        ours, theirs = twins(bit_generator, 11, buffered)
        ints, uniforms = draw_records(ours, 33, high)
        assert (ints.tolist(), uniforms.tolist()) == scalar_records(theirs, 33, high, 2)
        assert same_state(ours.bit_generator.state, theirs.bit_generator.state)

    @pytest.mark.parametrize("bad", [dict(n=-1), dict(high=0), dict(n_uniforms=-1)])
    def test_rejects_bad_sizes(self, bad):
        args = {"n": 3, "high": 5, "n_uniforms": 2, **bad}
        with pytest.raises(ValueError):
            draw_records(np.random.default_rng(0), **args)
