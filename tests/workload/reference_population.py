"""The per-draw loops the peer population used to be drawn by, kept as the oracle.

``ZipfSampler.sample`` (scalar), ``InterestModel.sample_profile`` and
``ContentCatalog.draw_library`` (``sample_library`` is its ``frozenset``
view) are what both simulators build their world from: one rank is a ``bisect`` on a list, one library is one
``rng.random(2 * size)`` mapped through two ``searchsorted`` calls.  These
are the loops they replaced — one ``Generator.random()`` and one scalar
``np.searchsorted`` per draw, the weight vector recomputed per profile.
Each must return the same value *and* leave the generator in the same
state, so the differential tests run both on twin generators (same seed)
and compare.

The loop bodies are the parent commit's (6b0560f), verbatim, but for
reading the objects' tables from outside;
:func:`reference_draw_library` is :func:`reference_sample_library`'s
loop keeping every draw in order where that one adds them to a set.
"""

import numpy as np

from repro.workload.content import ContentCatalog
from repro.workload.interests import InterestModel, InterestProfile
from repro.workload.zipf import ZipfSampler


def reference_zipf_sample(sampler: ZipfSampler, rng) -> int:
    """One rank: one scalar draw, one scalar ``searchsorted``."""
    return int(np.searchsorted(sampler._cdf, rng.random(), side="right"))


def reference_sample_profile(
    model: InterestModel, rng, *, width: int = 3
) -> InterestProfile:
    """``width`` distinct categories by rejection, weights computed anew."""
    if width < 1:
        raise ValueError("width must be >= 1")
    width = min(width, model.n_categories)
    chosen: list[int] = []
    seen: set[int] = set()
    attempts = 0
    while len(chosen) < width:
        cat = reference_zipf_sample(model._popularity, rng)
        attempts += 1
        if cat not in seen:
            seen.add(cat)
            chosen.append(cat)
        if attempts > 200 * width:
            for cat in range(model.n_categories):
                if cat not in seen:
                    seen.add(cat)
                    chosen.append(cat)
                    if len(chosen) == width:
                        break
    raw = 1.0 / np.power(
        np.arange(1, width + 1, dtype=float), model.within_profile_exponent
    )
    weights = tuple((raw / raw.sum()).tolist())
    return InterestProfile(categories=tuple(chosen), weights=weights)


def reference_sample_library(
    catalog: ContentCatalog, rng, profile: InterestProfile, *, size: int
) -> frozenset[int]:
    """``size`` (category, rank) draws, two scalar uniforms each."""
    if size < 0:
        raise ValueError("size must be non-negative")
    library: set[int] = set()
    for _ in range(size):
        category = profile.category_for_uniform(float(rng.random()))
        if not 0 <= category < catalog.n_categories:
            raise IndexError(f"category {category} out of range")
        rank = reference_zipf_sample(catalog._rank_sampler, rng)
        library.add(category * catalog.files_per_category + rank)
    return frozenset(library)


def reference_draw_library(
    catalog: ContentCatalog, rng, profile: InterestProfile, *, size: int
) -> list[int]:
    """The same ``size`` draws, in draw order, duplicates kept."""
    if size < 0:
        raise ValueError("size must be non-negative")
    drawn: list[int] = []
    for _ in range(size):
        category = profile.category_for_uniform(float(rng.random()))
        if not 0 <= category < catalog.n_categories:
            raise IndexError(f"category {category} out of range")
        rank = reference_zipf_sample(catalog._rank_sampler, rng)
        drawn.append(category * catalog.files_per_category + rank)
    return drawn
