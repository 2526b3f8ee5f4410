"""Client-side associations with NTP servers.

An association tracks one server a client synchronises with: its address,
the 8-bit reachability shift register ntpd made famous, the offset samples it
produced, and how it was configured (statically, from a DNS "pool" directive,
or injected by an attack — the last only as experimenter ground truth).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum


class AssociationState(Enum):
    """Lifecycle of an association."""

    ACTIVE = "active"
    UNREACHABLE = "unreachable"
    REMOVED = "removed"


@dataclass
class Association:
    """One client-server association."""

    server_ip: str
    source_domain: str = ""
    persistent: bool = False
    state: AssociationState = AssociationState.ACTIVE
    reach: int = 0
    consecutive_failures: int = 0
    polls_sent: int = 0
    responses_received: int = 0
    kods_received: int = 0
    last_offset: float | None = None
    offset_samples: list[float] = field(default_factory=list)
    created_at: float = 0.0

    def record_success(self, offset: float) -> None:
        """Register a valid response carrying the measured ``offset``."""
        self.reach = ((self.reach << 1) | 1) & 0xFF
        self.consecutive_failures = 0
        self.responses_received += 1
        self.last_offset = offset
        self.offset_samples.append(offset)
        if self.state is AssociationState.UNREACHABLE:
            self.state = AssociationState.ACTIVE

    def record_failure(self) -> None:
        """Register a poll that went unanswered (or answered with a KoD)."""
        self.reach = (self.reach << 1) & 0xFF
        self.consecutive_failures += 1

    def record_kod(self) -> None:
        """Register a Kiss-o'-Death response."""
        self.kods_received += 1
        self.record_failure()

    @property
    def reachable(self) -> bool:
        """ntpd semantics: reachable while any of the last 8 polls succeeded."""
        return self.reach != 0

    def is_usable(self) -> bool:
        """Whether the client should keep polling / selecting this server."""
        return self.state is AssociationState.ACTIVE

