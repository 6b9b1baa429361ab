"""Deterministic random-number plumbing.

Every stochastic component in this repository accepts either an integer seed
or a ready-made :class:`numpy.random.Generator`.  Centralising the coercion
here keeps experiments reproducible bit-for-bit: a single seed at the
experiment level is fanned out into independent child streams via
:func:`spawn_child`, so adding a new consumer of randomness never perturbs
the draws seen by existing consumers.
"""

from __future__ import annotations

import numpy as np

__all__ = ["UniformBuffer", "as_generator", "draw_records", "spawn_child"]

SeedLike = "int | None | np.random.Generator | np.random.SeedSequence"


def as_generator(seed=None) -> np.random.Generator:
    """Coerce ``seed`` into a :class:`numpy.random.Generator`.

    Parameters
    ----------
    seed:
        ``None`` (fresh OS entropy), an ``int``, a
        :class:`numpy.random.SeedSequence`, or an existing ``Generator``
        (returned unchanged so callers can share a stream deliberately).
    """
    if isinstance(seed, np.random.Generator):
        return seed
    if isinstance(seed, np.random.SeedSequence):
        return np.random.default_rng(seed)
    if seed is None or isinstance(seed, (int, np.integer)):
        return np.random.default_rng(seed)
    raise TypeError(
        f"expected int, None, SeedSequence or numpy Generator, got {type(seed).__name__}"
    )


class UniformBuffer:
    """Buffered uniform(0, 1) draws for per-event hot loops.

    numpy's per-call scalar ``Generator.random()`` costs ~0.5 µs of
    dispatch overhead; event-driven simulators that draw several uniforms
    per event pay it millions of times.  This helper draws uniforms in
    large vectorized chunks and hands them out either one at a time
    (:meth:`next`, :meth:`next_index` — what per-event loops call) or in
    bulk (:meth:`peek` the next ``k`` as an array, then :meth:`advance`
    by however many were actually used — what array code calls when the
    number it consumes depends on the values themselves).

    Determinism: the sequence is a pure function of the generator's seed
    and the number of draws consumed, exactly like direct scalar calls —
    whatever the ``chunk`` and however scalar and bulk calls interleave.
    """

    def __init__(self, rng: np.random.Generator, *, chunk: int = 65536) -> None:
        if chunk < 1:
            raise ValueError("chunk must be >= 1")
        self._rng = as_generator(rng)
        self._chunk = int(chunk)
        self._buffer = self._rng.random(self._chunk)
        self._pos = 0
        # buffer index up to which peek() has shown draws to the caller
        self._peeked = 0

    def next(self) -> float:
        """One uniform draw in [0, 1)."""
        if self._pos == len(self._buffer):
            self._buffer = self._rng.random(self._chunk)
            self._pos = 0
            self._peeked = 0
        value = self._buffer[self._pos]
        self._pos += 1
        return value

    def next_index(self, n: int) -> int:
        """One uniform integer in [0, n)."""
        if n < 1:
            raise ValueError("n must be >= 1")
        return int(self.next() * n)

    def peek(self, k: int) -> np.ndarray:
        """The next ``k`` draws as a read-only array, without consuming them."""
        if k < 0:
            raise ValueError("k must be >= 0")
        end = self._pos + k
        if end > len(self._buffer):
            fresh = self._rng.random(max(end - len(self._buffer), self._chunk))
            self._buffer = np.concatenate((self._buffer[self._pos :], fresh))
            self._pos = 0
            self._peeked = 0
            end = k
        self._peeked = max(self._peeked, end)
        view = self._buffer[self._pos : end]
        view.flags.writeable = False
        return view

    def advance(self, k: int) -> None:
        """Consume ``k`` draws that an earlier :meth:`peek` has shown."""
        if not 0 <= k <= max(self._peeked - self._pos, 0):
            raise ValueError("advance() needs 0 <= k <= draws peeked and not yet consumed")
        self._pos += k


#: bit generators whose ``next_uint32`` hands out the two halves of one
#: 64-bit word, low half first, buffering the high one in the state's
#: ``has_uint32`` / ``uinteger``, and whose double is ``(word >> 11) *
#: 2**-53`` of one word: the words :func:`draw_records` accounts for.
_HALVED_WORDS = (
    np.random.PCG64, np.random.PCG64DXSM, np.random.SFC64, np.random.Philox
)

#: records :func:`draw_records` reads off one ``random_raw``: a rejection
#: throws away the words of at most one segment, so a bound that rejects
#: often costs a bounded factor, not a factor of ``n``.
_SEGMENT = 1024


def draw_records(
    rng: np.random.Generator, n: int, high: int, n_uniforms: int = 2
) -> tuple[np.ndarray, np.ndarray]:
    """``n`` records, each what ``int(rng.integers(0, high))`` and then
    ``n_uniforms`` calls of ``rng.random()`` draw, as an ``int64`` array
    and an ``(n, n_uniforms)`` array of doubles; ``rng`` is left in
    exactly the state those calls leave, ``bit_generator.state`` whole.

    Off a bit generator that halves its words (:data:`_HALVED_WORDS`) the
    records come from one ``random_raw`` a segment of at most
    :data:`_SEGMENT` records: the bounded int is
    Lemire's multiply-and-reject on a 32-bit half (the one the state
    buffers, else the low half of a fresh word, whose high half it then
    buffers), each double a word's top 53 bits.  A rejected half (rare
    unless ``high`` nears 2**32) ends the segment; that record and every
    record off any other bit generator, or with ``high`` outside
    ``[2, 2**32)``, is drawn by the scalar calls themselves.
    """
    if n < 0 or n_uniforms < 0:
        raise ValueError("n and n_uniforms must be non-negative")
    if high < 1:
        raise ValueError("high must be >= 1")
    ints = np.empty(n, np.int64)
    uniforms = np.empty((n, n_uniforms))
    bitgen = rng.bit_generator
    halved = type(bitgen) in _HALVED_WORDS and 2 <= high < 2**32
    done = 0
    while done < n:
        if halved:
            end = min(n, done + _SEGMENT)
            done += _draw_segment(bitgen, high, ints[done:end], uniforms[done:end])
            if done == end:
                continue
        ints[done] = rng.integers(0, high)
        rng.random(out=uniforms[done])
        done += 1
    return ints, uniforms


def _draw_segment(bitgen, high: int, ints: np.ndarray, uniforms: np.ndarray) -> int:
    """Fill ``ints`` / ``uniforms`` up to the first rejected record off
    ``bitgen``'s words and leave its state as the scalar calls for those
    records would; the number of records filled."""
    n, n_uniforms = uniforms.shape
    state = bitgen.state
    buffered = state["has_uint32"]
    record = np.arange(n + 1)
    # words before each record: its doubles, plus one word per record
    # before it that found no buffered half
    fresh_before = (record + 1 - buffered) // 2
    offset = record * n_uniforms + fresh_before
    words = bitgen.random_raw(int(offset[n]))
    fresh = (record[:n] + buffered) % 2 == 0
    int_words = words[offset[:n][fresh]]
    # the 32-bit halves the ints take, in order: the buffered one, then
    # low and high half of each fresh word
    halves = np.empty(2 * int_words.size + buffered, np.uint64)
    halves[:buffered] = state["uinteger"]
    halves[buffered::2] = int_words & 0xFFFFFFFF
    halves[buffered + 1 :: 2] = int_words >> 32
    product = halves[:n] * np.uint64(high)
    rejected = np.flatnonzero((product & 0xFFFFFFFF) < 2**32 % high)
    good = int(rejected[0]) if rejected.size else n
    ints[:good] = product[:good] >> 32
    first = offset[:good] + fresh[:good]
    uniforms[:good] = (words[first[:, None] + np.arange(n_uniforms)] >> 11) * 2.0**-53
    if good < n:
        # put the words back and take only the good records' share
        bitgen.state = state
        bitgen.random_raw(int(offset[good]))
    state = bitgen.state
    n_fresh = int(fresh_before[good])
    if n_fresh:
        state["uinteger"] = int(int_words[n_fresh - 1] >> 32)
    state["has_uint32"] = (buffered + good) % 2
    bitgen.state = state
    return good


def spawn_child(rng: np.random.Generator, *, key: int = 0) -> np.random.Generator:
    """Derive an independent child generator from ``rng``.

    The child stream is statistically independent of the parent (it is built
    from fresh words of the parent's bit generator), so separate subsystems
    seeded from one experiment-level generator do not interfere.  ``key``
    lets callers derive several distinguishable children in a loop.
    """
    if not isinstance(rng, np.random.Generator):
        raise TypeError("spawn_child expects a numpy Generator")
    if key < 0:
        raise ValueError("key must be non-negative")
    # Draw a fixed number of words regardless of key so different keys give
    # different (but deterministic) children for the same parent state.
    words = rng.integers(0, 2**63 - 1, size=4, dtype=np.int64)
    seq = np.random.SeedSequence(entropy=[int(w) for w in words] + [int(key)])
    return np.random.default_rng(seq)
