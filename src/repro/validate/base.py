"""Foundations of the runtime validation layer.

``repro.validate`` is the reproduction's referee: a set of pluggable
invariant checkers that observe the simulator, network and protocol while
a scenario runs, and fail loudly — naming the node, the simulated time and
the violated invariant — the moment the substrate misbehaves.  Checkers
are strictly observational: they draw no randomness, schedule no events
and mutate no simulation state, so a validated run is bit-identical to an
unvalidated one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.base import QueryProtocol
    from ..net.network import Network
    from ..routing.base import Router
    from ..sim.engine import Simulator


class InvariantViolation(AssertionError):
    """A runtime invariant of the simulation was violated.

    The message always names the invariant; ``node``, ``time`` and
    ``query_id`` pin down where it broke when known.
    """

    def __init__(self, invariant: str, detail: str,
                 node: Optional[int] = None,
                 time: Optional[float] = None,
                 query_id: Optional[int] = None):
        self.invariant = invariant
        self.detail = detail
        self.node = node
        self.time = time
        self.query_id = query_id
        where = []
        if time is not None:
            where.append(f"t={time:.6f}")
        if node is not None:
            where.append(f"node={node}")
        if query_id is not None:
            where.append(f"query={query_id}")
        prefix = f"[{invariant}]" + (" " + " ".join(where) if where else "")
        super().__init__(f"{prefix}: {detail}")
        # Any installed flight recorder gets a trigger before the raise
        # unwinds, so the ring captures the events leading up to this.
        try:
            from ..obs.flight import notify_violation
            notify_violation(self)
        except Exception:  # pragma: no cover - never mask the violation
            pass


@dataclass
class ValidationContext:
    """What a checker may look at (never touch)."""

    sim: "Simulator"
    network: "Network"
    protocol: Optional["QueryProtocol"] = None
    router: Optional["Router"] = None


class Checker:
    """One invariant family.

    Lifecycle: ``attach`` subscribes to the simulator's probe channels,
    ``checkpoint`` runs the (possibly expensive) consistency sweep,
    ``finalize`` adds end-of-run-only checks, ``detach`` removes exactly
    those subscriptions.  Subscribed callbacks may raise
    :class:`InvariantViolation` immediately for cheap per-event
    invariants.
    """

    #: short name used in violation messages and summaries
    name: str = "abstract"

    def __init__(self) -> None:
        self.checks_run = 0

    def attach(self, ctx: ValidationContext) -> None:
        """Subscribe to probe channels."""

    def checkpoint(self, ctx: ValidationContext) -> None:
        """Sweep current state for violations."""

    def finalize(self, ctx: ValidationContext) -> None:
        """End-of-run checks (after the event queue has settled)."""

    def detach(self, ctx: ValidationContext) -> None:
        """Remove the subscriptions :meth:`attach` made."""

    def fail(self, detail: str, node: Optional[int] = None,
             time: Optional[float] = None,
             query_id: Optional[int] = None) -> None:
        raise InvariantViolation(self.name, detail, node=node, time=time,
                                 query_id=query_id)
