"""Which owners hold an item, as one sorted integer buffer.

Both simulators ask the same question before a flood — the flat overlay
"which nodes share this file", the two-tier one "which communities share
it" — so the per-query work follows the answer, not the reach.
:class:`HolderIndex` keeps every (item, owner) pair as
``item * n_owners + owner``, ascending, so an item's owners are a slice.
One buffer in the narrowest integer type that holds
``n_items * n_owners``, filled owner by owner and sorted in place (a dict
per item costs over ten times the memory, and megabyte-sized temporaries
are what moves peak RSS), then patched in place when an owner's items
change.
"""

from __future__ import annotations

from collections.abc import Collection, Iterable

import numpy as np

__all__ = ["HolderIndex"]


class HolderIndex:
    """Sorted ``item * n_owners + owner`` keys with room for ``capacity``."""

    def __init__(
        self,
        n_owners: int,
        n_items: int,
        libraries: Iterable[tuple[int, Collection[int]]],
        capacity: int,
    ) -> None:
        self.n_owners = n_owners
        self.n_items = n_items
        self._keys = np.empty(
            capacity, dtype=np.min_scalar_type(-n_items * n_owners - 1)
        )
        self._size = 0
        for owner, items in libraries:
            keys = self.pack(owner, items)
            self._keys[self._size : self._size + keys.size] = keys
            self._size += keys.size
        self._keys[: self._size].sort()

    @property
    def nbytes(self) -> int:
        return self._keys.nbytes

    def pack(self, owner: int, items: Collection[int]) -> np.ndarray:
        """``owner``'s ``items`` as keys of this index, ascending."""
        keys = np.fromiter(items, dtype=self._keys.dtype, count=len(items))
        keys *= self.n_owners
        keys += owner
        keys.sort()
        return keys

    def holders(self, item: int) -> np.ndarray:
        """The owners holding ``item``, ascending."""
        held = self._keys[: self._size]
        if not 0 <= item < self.n_items:
            return held[:0]  # also: past what the keys' type can hold
        # bounds in the keys' own type: anything wider makes searchsorted
        # convert the whole vector first
        base = held.dtype.type(item * self.n_owners)
        lo, hi = held.searchsorted(np.array((base, base + self.n_owners)))
        return held[lo:hi] - base

    def replace(self, gone: np.ndarray, arrived: np.ndarray) -> None:
        """Take the keys ``gone`` out and put ``arrived`` in (both as
        :meth:`pack` returns them), shifting the stretches between them
        inside the buffer."""
        keys, held = self._keys, self._size
        edges = [*keys[:held].searchsorted(gone).tolist(), held]
        for i in range(gone.size):
            # the stretch after the i-th removed key moves i + 1 down
            lo, hi = edges[i] + 1, edges[i + 1]
            keys[lo - i - 1 : hi - i - 1] = keys[lo:hi]
        held -= gone.size
        edges = [*keys[:held].searchsorted(arrived).tolist(), held]
        for i in reversed(range(arrived.size)):
            # the stretch after the i-th new key moves i + 1 up
            lo, hi = edges[i], edges[i + 1]
            keys[lo + i + 1 : hi + i + 1] = keys[lo:hi]
            keys[lo + i] = arrived[i]
        self._size = held + arrived.size
