"""Message types exchanged over the simulated radio.

A ``Message`` is deliberately schema-free: protocols put their state in
``payload`` (a dict) and register handlers by ``kind``.  ``size_bytes`` is
the application payload size; PHY/MAC headers are added by the radio model
when computing airtime and energy.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Optional

BROADCAST = -1


@dataclass
class Message:
    """An application-layer message."""

    kind: str
    src: int
    dst: int  # node id, or BROADCAST
    size_bytes: int
    payload: Dict[str, Any] = field(default_factory=dict)
    hops: int = 0
    created_at: Optional[float] = None

    def forwarded(self, new_src: int, new_dst: int) -> "Message":
        """A copy of this message re-addressed for the next hop."""
        return Message(kind=self.kind, src=new_src, dst=new_dst,
                       size_bytes=self.size_bytes,
                       payload=dict(self.payload), hops=self.hops + 1,
                       created_at=self.created_at)

    @property
    def is_broadcast(self) -> bool:
        return self.dst == BROADCAST
