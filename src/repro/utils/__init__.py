"""Shared low-level utilities.

This subpackage holds the plumbing used by every other part of the
reproduction: deterministic random-number handling (:mod:`repro.utils.rng`),
Gnutella-style globally-unique identifiers including the paper's observed
buggy-client GUID reuse (:mod:`repro.utils.guid`), streaming statistics
(:mod:`repro.utils.stats`), argument validation helpers
(:mod:`repro.utils.validation`) and simulated-time helpers
(:mod:`repro.utils.timeline`).
"""
