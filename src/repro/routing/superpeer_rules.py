"""Super-peer community rule tables — tier-2 association routing.

The paper's flat design mines ``{upstream} -> {downstream}`` rules from
one node's reply history.  At the super-peer tier the same table sees
far more evidence: a super-peer observes every query its community
issues and every reply that comes back, so it mines ``{query category}
-> {replying super-peer}`` rules over 20–50 leaves' worth of traffic
instead of one node's.

:class:`SuperPeerRules` is that table: a
:class:`~repro.core.counts.SketchCounts` (the lossy-counting backend of
the one pair-count module) keyed by category, plus what only a
super-peer has — an owner id, an epoch, and :meth:`publish`, which cuts
a compact, epoch-versioned digest of the strongest rules for neighbor
super-peers to merge (:mod:`repro.network.hier.digest`).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core.counts import SketchCounts

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.network.hier.digest import RuleDigest

__all__ = ["SuperPeerRules"]


class SuperPeerRules:
    """One super-peer's mined ``{category} -> {super-peer}`` rule table."""

    name = "superpeer-rules"

    def __init__(
        self,
        superpeer_id: int,
        *,
        epsilon: float = 0.005,
        min_support_count: int = 2,
    ) -> None:
        self.superpeer_id = int(superpeer_id)
        #: the pair counts; ``rule_stats`` and the rest are read off it.
        self.counts = SketchCounts(epsilon, min_support_count)
        #: bumped on every publish; receivers keep the highest per origin.
        self.epoch = 0

    def observe(self, category: int, replier_superpeer: int) -> None:
        """Record one resolved query: its category and who answered."""
        self.counts.observe(int(category), int(replier_superpeer))

    def publish(self, top_k: int) -> "RuleDigest":
        """Snapshot the strongest rules as a new-epoch digest.

        Per category, the ``top_k`` consequents by support (ties to the
        smaller super-peer id) that clear the support floor: wire content,
        not a forwarding decision (the rule rung reads ``counts`` whole).
        The digest carries the raw counts plus the observation total, so
        receivers recompute confidence exactly.
        """
        if top_k < 1:
            raise ValueError("top_k must be >= 1")
        # Imported lazily: repro.network.hier.network imports this module,
        # so a module-level import would be circular.
        from repro.network.hier.digest import DigestEntry, RuleDigest

        counts = self.counts
        entries = [
            DigestEntry(category, replier, row[replier])
            for category, row in counts.rows.items()
            if row.qualified
            for replier in counts.consequents(category, top_k)
        ]
        self.epoch += 1
        return RuleDigest(self.superpeer_id, self.epoch, counts.n_seen, entries)

    def reset(self) -> None:
        self.counts.clear()
