"""The validation harness: wires checkers to a running simulation.

The harness is opt-in and zero-cost when off: nothing here is imported or
called unless validation was enabled (``--validate`` on the CLI, or
:func:`enable_validation` in code).  The harness and its checkers are
subscribers of the simulator's probe (``sim.probe``); each removes
exactly its own subscriptions on detach, so a telemetry attached to the
same run keeps observing whichever of the two detaches first.

Checkpoint cadence piggybacks on the probe's ``kernel`` channel — every
``checkpoint_every`` executed events the harness runs each checker's
consistency sweep.  Checkpoints never schedule events or draw randomness,
so a validated run stays bit-identical to an unvalidated one.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Type

from ..metrics.accuracy import post_accuracy, pre_accuracy
from .base import Checker, InvariantViolation, ValidationContext
from .checkers import DEFAULT_CHECKERS

_ACC_TOL = 1e-9


class ValidationHarness:
    """Attach a set of invariant checkers to one simulation."""

    def __init__(self,
                 checkers: Optional[Sequence[Type[Checker]]] = None,
                 checkpoint_every: int = 256):
        if checkpoint_every < 1:
            raise ValueError("checkpoint_every must be >= 1")
        self.checkers: List[Checker] = [
            cls() for cls in (DEFAULT_CHECKERS if checkers is None
                              else checkers)]
        self.checkpoint_every = checkpoint_every
        self.checkpoints_run = 0
        self.outcomes_checked = 0
        self._ctx: Optional[ValidationContext] = None
        self._events_seen = 0

    # -- lifecycle --------------------------------------------------------

    @property
    def attached(self) -> bool:
        return self._ctx is not None

    def attach(self, sim, network, protocol=None, router=None) -> None:
        if self._ctx is not None:
            raise RuntimeError("harness is already attached")
        self._ctx = ValidationContext(sim=sim, network=network,
                                      protocol=protocol, router=router)
        for checker in self.checkers:
            checker.attach(self._ctx)
        sim.probe.subscribe("kernel", self._on_event)

    def attach_handle(self, handle) -> None:
        """Attach to a :class:`~repro.experiments.config.SimulationHandle`."""
        self.attach(handle.sim, handle.network,
                    protocol=handle.protocol, router=handle.router)

    def detach(self) -> None:
        if self._ctx is None:
            return
        self._ctx.sim.probe.unsubscribe("kernel", self._on_event)
        for checker in self.checkers:
            checker.detach(self._ctx)
        self._ctx = None

    # -- checking ---------------------------------------------------------

    def _on_event(self, _time: float, _callback) -> None:
        self._events_seen += 1
        if self._events_seen % self.checkpoint_every == 0:
            self.check_now()

    def check_now(self) -> None:
        """Run every checker's consistency sweep against current state."""
        if self._ctx is None:
            raise RuntimeError("harness is not attached")
        self.checkpoints_run += 1
        for checker in self.checkers:
            checker.checkpoint(self._ctx)

    def finalize(self) -> None:
        """Final sweep plus end-of-run-only checks (queue-drain etc.)."""
        if self._ctx is None:
            raise RuntimeError("harness is not attached")
        self.check_now()
        for checker in self.checkers:
            checker.finalize(self._ctx)

    def observe_outcome(self, result, outcome, at=None) -> None:
        """Differentially validate one scored query outcome.

        Re-scores ``result`` against the omniscient oracle
        (:func:`repro.metrics.oracle.true_knn` via the accuracy helpers)
        and cross-checks the runner's reported accuracies.  ``at`` is the
        scoring time for partial results that never completed.
        """
        if self._ctx is None:
            raise RuntimeError("harness is not attached")
        self.outcomes_checked += 1
        now = self._ctx.sim.now
        for label, value in (("pre", outcome.pre_accuracy),
                             ("post", outcome.post_accuracy)):
            if not (-_ACC_TOL <= value <= 1.0 + _ACC_TOL):
                raise InvariantViolation(
                    "differential",
                    f"{label}-accuracy {value!r} is outside [0, 1]",
                    time=now, query_id=outcome.query_id)
        if result is None:
            if outcome.pre_accuracy or outcome.post_accuracy:
                raise InvariantViolation(
                    "differential",
                    "query produced no result yet scored nonzero accuracy",
                    time=now, query_id=outcome.query_id)
            return
        network = self._ctx.network
        oracle_pre = pre_accuracy(network, result)
        if at is None and result.completed_at is None:
            oracle_post = None
        else:
            oracle_post = post_accuracy(network, result, at=at)
        for label, reported, oracle in (
                ("pre", outcome.pre_accuracy, oracle_pre),
                ("post", outcome.post_accuracy, oracle_post)):
            if oracle is None:
                continue
            if not math.isclose(reported, oracle, rel_tol=1e-9,
                                abs_tol=1e-9):
                raise InvariantViolation(
                    "differential",
                    f"reported {label}-accuracy {reported:.9f} disagrees "
                    f"with the oracle re-score {oracle:.9f}",
                    time=now, query_id=outcome.query_id)

    # -- reporting --------------------------------------------------------

    def summary(self) -> Dict[str, int]:
        out = {checker.name: checker.checks_run
               for checker in self.checkers}
        out["checkpoints"] = self.checkpoints_run
        out["outcomes"] = self.outcomes_checked
        return out


# ---------------------------------------------------------------------------
# process-wide switch (what the CLI's --validate flips)
# ---------------------------------------------------------------------------

_ENABLED = False
_ACTIVE: List[ValidationHarness] = []


def enable_validation(enabled: bool = True) -> None:
    """Turn runtime validation on/off for subsequently built simulations."""
    global _ENABLED
    _ENABLED = enabled


def validation_enabled() -> bool:
    return _ENABLED


def maybe_attach(handle) -> Optional[ValidationHarness]:
    """Attach a harness to ``handle`` when validation is enabled.

    Called by :func:`repro.experiments.config.build_simulation`; returns
    the harness (also recorded on ``handle.validator``) or None.
    """
    if not _ENABLED:
        return None
    harness = ValidationHarness()
    harness.attach_handle(handle)
    _ACTIVE.append(harness)
    return harness


def validation_summary() -> Dict[str, int]:
    """Aggregate check counts across every harness attached this process."""
    totals: Dict[str, int] = {}
    for harness in _ACTIVE:
        for name, count in harness.summary().items():
            totals[name] = totals.get(name, 0) + count
    return totals


def reset_validation() -> None:
    """Disable validation and forget attached harnesses (tests)."""
    global _ENABLED
    _ENABLED = False
    for harness in _ACTIVE:
        harness.detach()
    _ACTIVE.clear()
