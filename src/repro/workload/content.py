"""Content catalog: files, categories, popularity and replication.

Both overlay simulators (:class:`~repro.network.overlay.Overlay`, the
two-tier :class:`~repro.network.superpeer.SuperPeerNetwork` and what
inherits it) need actual shared content — files grouped into interest
categories, with Zipf popularity inside each category — so that queries
can hit or miss.  One catalog serves both of a simulator's needs from
one rank sampler: a peer's library (:meth:`ContentCatalog.draw_library`,
every draw of a peer in one array; :meth:`ContentCatalog.sample_library`
is its ``frozenset`` view; :meth:`ContentCatalog.libraries_for_uniforms`
maps a block of peers' uniforms at once) and a query's file
(:meth:`ContentCatalog.sample_file`, one draw, or
:meth:`ContentCatalog.file_for_uniform` off the caller's own uniform).
The monitor-node trace generator names reply files in
:meth:`ContentCatalog.file_name`'s format and needs nothing else from
here.
"""

from __future__ import annotations

from collections.abc import Sequence
from itertools import accumulate

import numpy as np

from repro.utils.rng import as_generator
from repro.workload.interests import InterestProfile
from repro.workload.zipf import ZipfSampler

__all__ = ["ContentCatalog"]


class ContentCatalog:
    """A universe of files partitioned evenly into categories.

    File ids are integers in ``[0, n_categories * files_per_category)``;
    file ``f`` belongs to category ``f // files_per_category``.  Within a
    category, query and replication popularity follow one bounded Zipf law.
    """

    def __init__(
        self,
        n_categories: int,
        files_per_category: int,
        *,
        popularity_exponent: float = 1.0,
    ) -> None:
        if n_categories < 1 or files_per_category < 1:
            raise ValueError("n_categories and files_per_category must be >= 1")
        self.n_categories = int(n_categories)
        self.files_per_category = int(files_per_category)
        self._rank_sampler = ZipfSampler(files_per_category, popularity_exponent)
        #: one int object per file id, made by the first sample_library
        self._file_ids: np.ndarray | None = None

    @property
    def n_files(self) -> int:
        return self.n_categories * self.files_per_category

    def category_of(self, file_id: int) -> int:
        if not 0 <= file_id < self.n_files:
            raise IndexError(f"file id {file_id} out of range [0, {self.n_files})")
        return file_id // self.files_per_category

    def sample_file(self, rng, category: int) -> int:
        """Draw a file from ``category`` with Zipf popularity (a category
        out of range raises before anything is drawn)."""
        if not 0 <= category < self.n_categories:
            raise IndexError(f"category {category} out of range")
        return self.file_for_uniform(category, as_generator(rng).random())

    def file_for_uniform(self, category: int, u: float) -> int:
        """Map a uniform(0, 1) draw to a file of ``category``, a category
        the caller has already checked (hot-loop fast path, the twin of
        :meth:`InterestProfile.category_for_uniform`)."""
        rank = self._rank_sampler.rank_for_uniform(u)
        return category * self.files_per_category + rank

    def draw_library(self, rng, profile: InterestProfile, *, size: int) -> np.ndarray:
        """``size`` files drawn for a peer with ``profile``, in draw order.

        Drawn with replacement from the peer's interest categories, so
        duplicates stay in and peers with overlapping interests end up
        sharing overlapping content — the premise behind both
        interest-based shortcuts and association-rule routing.

        One ``rng.random(2 * size)`` holds every draw in the order a
        draw-by-draw loop would make them, mapped as the one-row case of
        :meth:`libraries_for_uniforms`.  The profile's categories are
        checked before anything is drawn, so a profile this catalog
        cannot serve raises ``IndexError`` with the generator untouched.
        """
        if size < 0:
            raise ValueError("size must be non-negative")
        self._check_categories(profile.categories)
        u = as_generator(rng).random(2 * size)
        return self._map(np.array([profile.categories]), profile.weights, u[None])[0]

    def libraries_for_uniforms(
        self, profiles: Sequence[InterestProfile], u: np.ndarray
    ) -> np.ndarray:
        """Map row ``i`` of ``u`` to the library of a peer with
        ``profiles[i]``: slot ``2j`` picks file ``j``'s category
        (:meth:`InterestProfile.category_for_uniform`), slot ``2j + 1``
        its rank (:meth:`file_for_uniform`).  A caller that draws each
        peer's uniforms into one row of a block maps the whole block at
        once: rows whose profiles weigh alike (a model hands every
        profile of a width one weight tuple) are mapped together.
        """
        rows = len(profiles)
        if u.ndim != 2 or len(u) != rows or u.shape[1] % 2:
            raise ValueError("u must hold one row of 2 * size uniforms per profile")
        alike: dict[tuple[float, ...], list[int]] = {}
        for row, profile in enumerate(profiles):
            alike.setdefault(profile.weights, []).append(row)
        files = np.empty((rows, u.shape[1] // 2), np.int64)
        for weights, at in alike.items():
            chosen = [profiles[row].categories for row in at]
            if min(map(min, chosen)) < 0 or max(map(max, chosen)) >= self.n_categories:
                for categories in chosen:
                    self._check_categories(categories)
            files[at] = self._map(np.array(chosen), weights, u[at])
        return files

    def _map(
        self, categories: np.ndarray, weights: tuple[float, ...], u: np.ndarray
    ) -> np.ndarray:
        """Rows of uniforms mapped for peers whose profiles share
        ``weights``, row ``i``'s categories ``categories[i]``.  A
        category is the number of the running sums (the same adds in the
        same order) at or below its uniform, all but the last —
        ``searchsorted(..., side="right")`` clipped to the last category."""
        edges = np.array(list(accumulate(weights))[:-1])
        slot = edges.searchsorted(u[:, 0::2], side="right")
        slot += np.arange(0, categories.size, len(weights))[:, None]
        files = categories.ravel()[slot]
        files *= self.files_per_category
        files += self._rank_sampler.ranks_for_uniforms(u[:, 1::2])
        return files

    def _check_categories(self, categories: tuple[int, ...]) -> None:
        if not (0 <= min(categories) and max(categories) < self.n_categories):
            raise IndexError(
                f"profile categories {categories} out of range "
                f"[0, {self.n_categories})"
            )

    def sample_library(
        self, rng, profile: InterestProfile, *, size: int
    ) -> frozenset[int]:
        """:meth:`draw_library` deduplicated into the set a flat
        :class:`~repro.network.overlay.Overlay` peer shares — copied from
        a set filled in draw order: the table, hence the iteration order,
        an add-per-draw loop leaves.

        Every library holds the catalog's one int object per file id, not
        a fresh one per draw (``tolist`` on the drawn ids would pin ~28
        bytes per file per peer for the library's life)."""
        files = self.draw_library(rng, profile, size=size)
        ids = self._file_ids
        if ids is None:
            ids = self._file_ids = np.arange(self.n_files, dtype=object)
        return frozenset(set(ids[files].tolist()))

    def file_name(self, file_id: int) -> str:
        """Stable human-readable name, used in reply records."""
        category = self.category_of(file_id)
        rank = file_id % self.files_per_category
        return f"cat{category:03d}/file{rank:05d}.dat"

    def query_matches(self, queried_file: int, library: frozenset[int]) -> bool:
        """Whether a library satisfies a query for ``queried_file``.

        Exact-id match: the overlay simulator issues queries for specific
        files (keyword semantics are modelled by the category structure).
        """
        return queried_file in library
