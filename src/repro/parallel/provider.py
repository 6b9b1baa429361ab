"""Process-wide trace providers for the experiment layer.

Every trace-driven runner in :mod:`repro.experiments.figures` regenerates
its synthetic trace from scratch — at default scale that is 0.43 s per
experiment (400k pairs; it was ~2 s when this layer was written) for
byte-identical arrays (same config, seed and length).  A
*trace provider*, when installed, serves those arrays instead:

* :class:`CachingTraceProvider` — in-process memo; used by the engine's
  serial mode and by the parent process before fanning out.
* :class:`SharedMemoryTraceProvider` — worker-side; serves arrays as
  zero-copy views of the parent's shared-memory segments
  (:mod:`repro.parallel.shm`) and falls back to local generation (with
  memoization) for specs the parent did not pre-generate.

Trace equality is keyed by the exact spec ``(config, seed, n_pairs)``.
``n_pairs`` is part of the key because
:meth:`MonitorTraceGenerator.generate_pair_arrays` pre-draws its
inter-arrival gaps, so a longer trace is *not* a bit-identical superset
of a shorter one — slicing a prefix would silently change results versus
the serial path.

With no provider installed, :func:`provide_pair_columns` generates
directly — the status-quo serial path.
"""

from __future__ import annotations

import numpy as np

from repro.workload.tracegen import MonitorTraceConfig, MonitorTraceGenerator

__all__ = [
    "CachingTraceProvider",
    "SharedMemoryTraceProvider",
    "clear_trace_provider",
    "current_trace_provider",
    "install_trace_provider",
    "provide_pair_columns",
    "trace_key",
]


def trace_key(config: MonitorTraceConfig, seed: int, n_pairs: int) -> tuple:
    """Hashable identity of one generated trace.

    ``MonitorTraceConfig`` is a frozen dataclass of scalars, so its repr
    is a complete, deterministic fingerprint of the generative model.
    """
    return (repr(config), int(seed), int(n_pairs))


def _generate_columns(
    config: MonitorTraceConfig, seed: int, n_pairs: int
) -> tuple[np.ndarray, np.ndarray]:
    arrays = MonitorTraceGenerator(config, seed=seed).generate_pair_arrays(n_pairs)
    return arrays.source, arrays.replier


class CachingTraceProvider:
    """In-process memo of generated (source, replier) columns."""

    def __init__(self) -> None:
        self._traces: dict[tuple, tuple[np.ndarray, np.ndarray]] = {}
        self.hits = 0
        self.misses = 0

    def pair_columns(
        self, config: MonitorTraceConfig, seed: int, n_pairs: int
    ) -> tuple[np.ndarray, np.ndarray]:
        key = trace_key(config, seed, n_pairs)
        cached = self._traces.get(key)
        if cached is not None:
            self.hits += 1
            return cached
        self.misses += 1
        columns = _generate_columns(config, seed, n_pairs)
        self._traces[key] = columns
        return columns

    def warm(
        self, config: MonitorTraceConfig, seed: int, n_pairs: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """Generate (or reuse) one spec ahead of time."""
        return self.pair_columns(config, seed, n_pairs)


class SharedMemoryTraceProvider:
    """Worker-side provider backed by the parent's shared segments."""

    def __init__(self, attached) -> None:
        self._attached = attached  # AttachedTraceStore
        self._local = CachingTraceProvider()
        self.shared_hits = 0

    def pair_columns(
        self, config: MonitorTraceConfig, seed: int, n_pairs: int
    ) -> tuple[np.ndarray, np.ndarray]:
        key = trace_key(config, seed, n_pairs)
        if key in self._attached:
            self.shared_hits += 1
            return self._attached.arrays(key)
        return self._local.pair_columns(config, seed, n_pairs)


#: process-wide active provider (None = generate directly, serial path).
_ACTIVE = None


def install_trace_provider(provider) -> None:
    global _ACTIVE
    _ACTIVE = provider


def clear_trace_provider() -> None:
    global _ACTIVE
    _ACTIVE = None


def current_trace_provider():
    return _ACTIVE


def provide_pair_columns(
    config: MonitorTraceConfig, seed: int, n_pairs: int
) -> tuple[np.ndarray, np.ndarray]:
    """(source, replier) columns for one trace spec.

    Served by the installed provider when there is one, generated
    directly otherwise.  Either way the arrays are bit-identical — the
    provider only removes redundant regeneration.
    """
    provider = _ACTIVE
    if provider is not None:
        return provider.pair_columns(config, seed, n_pairs)
    return _generate_columns(config, seed, n_pairs)
