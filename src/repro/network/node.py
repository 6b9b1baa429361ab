"""Per-peer state in the overlay simulator."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.workload.interests import InterestProfile

__all__ = ["PeerNode"]


@dataclass
class PeerNode:
    """A peer: its shared files, interests, and routing policy.

    ``library`` holds file ids the peer shares (drawn from its interest
    categories — interest-based locality).  ``policy`` is this node's
    routing-policy instance; policies that learn (association routing,
    shortcuts, routing indices) keep their tables on the instance.
    """

    node_id: int
    profile: InterestProfile
    library: frozenset[int] = frozenset()
    policy: object | None = None
    generation: int = 0  # bumped when churn replaces this peer's identity
    policy_changed: Callable[[], None] | None = field(
        default=None, repr=False, compare=False
    )

    def __setattr__(self, name: str, value) -> None:
        object.__setattr__(self, name, value)
        if name == "policy":
            # absent while __init__ is still filling the fields in
            hook = self.__dict__.get("policy_changed")
            if hook is not None:
                hook()

    def shares(self, file_id: int) -> bool:
        return file_id in self.library
