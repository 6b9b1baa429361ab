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

__all__ = ["UniformBuffer", "as_generator", "spawn_child"]

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
