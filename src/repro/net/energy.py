"""First-order radio energy model and per-node accounting.

Substitutes ns-2's energy model (see DESIGN.md §4): transmitting ``b`` bits
over distance ``d`` costs ``E_elec*b + eps_amp*b*d^2``; receiving costs
``E_elec*b``.  Idle listening is charged per simulated second.  The default
constants are the widely used Heinzelman first-order values, which put whole
run totals in the same sub-Joule to few-Joule band as the paper's figures.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from types import MappingProxyType
from typing import Dict, Mapping, Sequence

import numpy as np

from ..sim.probe import Probe


def repeated_add(total: float, cost: float, count: int) -> float:
    """The float ``count`` scalar additions of ``cost`` onto ``total``
    would produce, computed in O(binades) instead of O(count).

    Bitwise-equal to ``for _ in range(count): total += cost`` (proven in
    ``tests/test_energy_closed_form.py``).  The blocked jump rests on two
    facts about IEEE-754 round-to-nearest-even:

    * After one add, ``d = fl(total + cost) - total`` is exact whenever
      ``cost/2 <= d <= 2*cost`` (Sterbenz), and is a multiple of the
      current binade's ulp ``u``.
    * If the rounding error ``r = cost - d`` satisfies ``|r| < u/2``
      strictly, then every subsequent add *within the binade* also
      advances by exactly ``d``: each partial total ``x`` is a multiple
      of ``u``, so ``x + d`` is representable and ``x + cost = (x + d)
      + r`` rounds back to ``x + d`` (no tie possible).

    The run length to the binade top is then jumped in one exact
    multiply-add.  Ties (``|r| == u/2``, where round-to-even makes the
    increment parity-dependent), near-fixed-point steps and non-finite
    or negative inputs fall back to scalar stepping, which is always
    correct.
    """
    if count <= 0:
        return total
    if cost == 0.0:
        return total + 0.0  # normalizes -0.0 exactly like one scalar add
    if count <= 64:
        # Below the crossover the frexp/ldexp guard machinery costs more
        # than just doing the adds.
        for _ in range(count):
            total += cost
        return total
    if not (math.isfinite(total) and math.isfinite(cost)) \
            or cost < 0.0 or total < 0.0:
        for _ in range(count):
            total += cost
        return total
    while count:
        t1 = total + cost
        if t1 == total:
            return total  # fixed point: all remaining adds are no-ops
        d = t1 - total
        total = t1
        count -= 1
        if not count:
            break
        if total <= 0.0 or not math.isfinite(total):
            continue
        _m, e = math.frexp(total)       # total in [2**(e-1), 2**e)
        top = math.ldexp(1.0, e)
        if not math.isfinite(top):
            continue                    # binade top overflows: stay scalar
        u = math.ldexp(1.0, e - 53)     # spacing within this binade
        if 2.0 * cost < d or 2.0 * d < cost:
            continue                    # Sterbenz precondition failed
        r = cost - d                    # exact by Sterbenz
        if 2.0 * abs(r) >= u:
            continue                    # rounding tie: parity-dependent
        # Exact integer arithmetic in units of u: gap is a multiple of u
        # by construction; d must be checked (an add that crossed into
        # this binade can leave d an odd multiple of the *previous*
        # binade's finer spacing).
        step_f = math.ldexp(d, 53 - e)
        if step_f < 1.0 or step_f != int(step_f):
            continue
        gap = int(math.ldexp(top - total, 53 - e))
        step = int(step_f)
        k = min(count, gap // step)
        if k > 0:
            total += k * d              # k*step <= 2**53: product exact
            count -= k
    return total


#: vector rounds of :func:`repeated_add_many` before the elements still
#: counting finish on the scalar path (one round per binade crossed,
#: plus one per step the blocked jump cannot take)
_VECTOR_ROUNDS = 80


def repeated_add_many(totals, cost: float, counts) -> np.ndarray:
    """:func:`repeated_add` elementwise: ``out[i]`` is bitwise
    ``repeated_add(totals[i], cost, counts[i])`` (proven in
    ``tests/test_energy_closed_form.py``).

    Each vector round is one iteration of the scalar loop for every
    element still counting: one add, then the blocked jump to the binade
    top where its guards hold.  A handful of rounds finishes realistic
    counts; whatever still counts after ``_VECTOR_ROUNDS`` (a long run of
    rounding ties) finishes on the scalar path, as do negative or
    non-finite totals and costs.
    """
    out = np.array(totals, dtype=np.float64)
    left = np.maximum(np.asarray(counts, dtype=np.int64), 0)
    if cost == 0.0:
        out[left > 0] += 0.0  # normalizes -0.0 like one scalar add
        return out
    scalar = left > 0
    if math.isfinite(cost) and cost > 0.0:
        scalar &= ~(np.isfinite(out) & (out >= 0.0))
    for i in np.flatnonzero(scalar).tolist():
        out[i] = repeated_add(float(out[i]), cost, int(left[i]))
    left[scalar] = 0
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(_VECTOR_ROUNDS):
            act = np.flatnonzero(left)
            if not act.size:
                return out
            total = out[act]
            count = left[act]
            t1 = total + cost
            # A fixed point ends the element: every later add is a no-op.
            count = np.where(t1 == total, 0, count - 1)
            d = t1 - total
            _m, e = np.frexp(t1)
            top = np.ldexp(1.0, e)
            u = np.ldexp(1.0, e - 53)
            step_f = np.ldexp(d, 53 - e)
            jump = ((count > 0) & (t1 > 0.0) & np.isfinite(t1)
                    & np.isfinite(top)
                    & ~((2.0 * cost < d) | (2.0 * d < cost))
                    & (2.0 * np.abs(cost - d) < u)
                    & (step_f >= 1.0) & (step_f == np.floor(step_f)))
            if jump.any():
                j = np.flatnonzero(jump)
                gap = np.ldexp(top[j] - t1[j], 53 - e[j]).astype(np.int64)
                k = np.minimum(count[j], gap // step_f[j].astype(np.int64))
                t1[j] += k * d[j]
                count[j] -= k
            out[act] = t1
            left[act] = count
    for i in np.flatnonzero(left).tolist():
        out[i] = repeated_add(float(out[i]), cost, int(left[i]))
    return out


@dataclass(frozen=True)
class EnergyModel:
    """Energy cost constants."""

    e_elec_j_per_bit: float = 50e-9
    eps_amp_j_per_bit_m2: float = 100e-12
    idle_w: float = 0.0  # idle listening power; 0 isolates protocol cost

    def tx_cost(self, bits: int, distance_m: float) -> float:
        """Joules to transmit ``bits`` at amplifier reach ``distance_m``."""
        return (self.e_elec_j_per_bit * bits
                + self.eps_amp_j_per_bit_m2 * bits * distance_m ** 2)

    def rx_cost(self, bits: int) -> float:
        """Joules to receive ``bits``."""
        return self.e_elec_j_per_bit * bits

    def idle_cost(self, seconds: float) -> float:
        """Joules spent idle-listening for ``seconds``."""
        return self.idle_w * seconds


@dataclass
class EnergyAccount:
    """Accumulated energy use of one node, broken down by activity."""

    tx_j: float = 0.0
    rx_j: float = 0.0
    idle_j: float = 0.0

    @property
    def total_j(self) -> float:
        return self.tx_j + self.rx_j + self.idle_j


class EnergyLedger:
    """Network-wide energy bookkeeping with checkpoint support.

    Every charge is booked under a probe channel: ``"charge"`` for
    protocol traffic (the default) and ``"beacon_charge"`` for beacon
    traffic.  Each node's account keeps one part per channel.
    Experiments measure "energy consumed by this query" from the protocol
    part, by snapshotting the ledger before issuing the query and diffing
    afterwards.

    Optionally enforces one battery per node: when a node's total over
    both parts crosses ``capacity_j`` the ``on_depleted`` callback fires
    exactly once for that node (the network uses this to kill the node).
    While armed, an optional ``settle`` callback runs before every
    protocol charge, so a producer that books the beacon part lazily can
    bring it up to the current time first: every protocol charge is then
    checked against all beacon energy spent before it, and every beacon
    charge against the protocol energy spent before it.
    """

    def __init__(self, model: EnergyModel,
                 capacity_j: "float | None" = None,
                 on_depleted: "object | None" = None):
        self.model = model
        # channel -> node -> that node's part of its account; each dict
        # keeps its own creation order, which total_j() sums in
        self._parts: Dict[str, Dict[int, EnergyAccount]] = {
            "charge": {}, "beacon_charge": {}}
        self.capacity_j = capacity_j
        self.on_depleted = on_depleted
        self.settle = None
        self._depleted: set = set()
        #: every charge is emitted as ``fn(node_id, kind, cost)`` (kind is
        #: "tx" | "rx" | "idle") on the probe channel it is booked under;
        #: a network rebinds its ledger to its simulator's probe
        #: (:meth:`emit_on`)
        self.probe = Probe()
        # Running protocol total, advanced once per protocol charge, so
        # snapshot()/since() are O(1) — the service layer checkpoints the
        # ledger around every query.  Deterministic (charges apply in a
        # fixed order per seed) but summed in chronological rather than
        # account order, so it may differ from total_j() in the last few
        # ulps; total_j() remains the exact account-order sum.
        self._running_j = 0.0
        #: optional deferred-charge source of the beacon part, called as
        #: ``fn(node_id)`` before any beacon-part access (``fn(None)`` =
        #: all nodes).  The batched beacon kernel banks per-node charge
        #: *counts* and materializes them here on first touch, so
        #: per-epoch account writes are amortized away.  Because every
        #: beacon-part mutation and read funnels through :meth:`account`,
        #: :meth:`accounts` or :meth:`node_total_j`, materializing at this
        #: gateway reproduces the eager per-epoch field order exactly.
        self.lazy_source = None

    def emit_on(self, probe: Probe) -> None:
        """Emit this ledger's charges on ``probe``."""
        self.probe = probe

    def observed(self, channel: str = "charge") -> bool:
        """True while ``channel`` has subscribers on the ledger's probe."""
        return bool(getattr(self.probe, channel))

    def set_battery(self, capacity_j: float, on_depleted,
                    settle=None) -> None:
        """Arm per-node battery enforcement; ``settle()`` (optional) runs
        before every protocol charge from then on."""
        if capacity_j <= 0:
            raise ValueError("battery capacity must be positive")
        self.capacity_j = capacity_j
        self.on_depleted = on_depleted
        self.settle = settle

    def account(self, node_id: int,
                channel: str = "charge") -> EnergyAccount:
        """``node_id``'s part of the ledger for ``channel``, created on
        first touch."""
        if channel != "charge":
            self._materialize(node_id)
        accounts = self._parts[channel]
        acct = accounts.get(node_id)
        if acct is None:
            acct = EnergyAccount()
            accounts[node_id] = acct
        return acct

    def accounts(self, channel: str = "charge"
                 ) -> Mapping[int, EnergyAccount]:
        """Read-only view of every node's ``channel`` part, in account
        creation order, with every deferred charge materialized."""
        if channel != "charge":
            self._materialize(None)
        return MappingProxyType(self._parts[channel])

    def node_total_j(self, node_id: int) -> float:
        """Energy ``node_id`` has used over both parts (its battery
        draw); creates no account."""
        self._materialize(node_id)
        total = 0.0
        for accounts in self._parts.values():
            acct = accounts.get(node_id)
            if acct is not None:
                total += acct.total_j
        return total

    def _materialize(self, node_id: "int | None") -> None:
        """Apply the deferred beacon charges of ``node_id`` (None: of
        every node)."""
        if self.lazy_source is not None:
            self.lazy_source(node_id)

    def remaining_j(self, node_id: int) -> float:
        """Battery charge left (inf without battery enforcement)."""
        if self.capacity_j is None:
            return float("inf")
        return max(0.0, self.capacity_j - self.node_total_j(node_id))

    def is_depleted(self, node_id: int) -> bool:
        return node_id in self._depleted

    def _booked(self, node_id: int, channel: str, kind: str,
                cost: float) -> None:
        """Everything one charge does after its account add: the running
        total (protocol only), the emission and the battery check."""
        if channel == "charge":
            self._running_j += cost
        for fn in getattr(self.probe, channel):
            fn(node_id, kind, cost)
        if self.capacity_j is not None and node_id not in self._depleted \
                and self.node_total_j(node_id) >= self.capacity_j:
            self._depleted.add(node_id)
            if self.on_depleted is not None:
                self.on_depleted(node_id)

    def charge_tx(self, node_id: int, bits: int, distance_m: float,
                  channel: str = "charge") -> float:
        if self.settle is not None and channel == "charge":
            self.settle()
        cost = self.model.tx_cost(bits, distance_m)
        self.account(node_id, channel).tx_j += cost
        self._booked(node_id, channel, "tx", cost)
        return cost

    def charge_rx(self, node_id: int, bits: int,
                  channel: str = "charge") -> float:
        if self.settle is not None and channel == "charge":
            self.settle()
        cost = self.model.rx_cost(bits)
        self.account(node_id, channel).rx_j += cost
        self._booked(node_id, channel, "rx", cost)
        return cost

    def charge_rx_many(self, node_ids: Sequence[int],
                       bits: Sequence[int]) -> None:
        """Charge one protocol reception per ``(node_ids[i], bits[i])``,
        in order.

        Bitwise-equal to that sequence of :meth:`charge_rx` calls (one
        MAC frame's receivers): each account gets the same adds and the
        running total the same chronological sum.  While the ``charge``
        channel has subscribers or a battery is armed, every charge is
        emitted and checked for depletion before the next is applied,
        exactly as the sequential calls do.
        """
        rx_cost = self.model.rx_cost
        if self.observed() or self.capacity_j is not None:
            settle = self.settle
            for node_id, b in zip(node_ids, bits):
                if settle is not None:
                    settle()
                cost = rx_cost(b)
                self.account(node_id).rx_j += cost
                self._booked(node_id, "charge", "rx", cost)
            return
        # Unobserved and unarmed: straight to the account dict.
        accounts = self._parts["charge"]
        running = self._running_j
        for node_id, b in zip(node_ids, bits):
            cost = rx_cost(b)
            acct = accounts.get(node_id)
            if acct is None:
                acct = self.account(node_id)
            acct.rx_j += cost
            running += cost
        self._running_j = running

    def charge_tx_repeated(self, node_id: int, bits: int, distance_m: float,
                           count: int) -> float:
        """Charge ``count`` identical protocol transmissions in one call.

        The per-charge cost is a constant, and the blocked closed form of
        :func:`repeated_add` is bitwise-identical to ``count`` separate
        ``charge_tx`` calls on the same account field.  Refuses to run
        when the ``charge`` channel has subscribers or a battery is
        armed — those need the chronological per-charge path.
        """
        if self.observed() or self.capacity_j is not None:
            raise ValueError(
                "bulk charging is only valid without observer/battery")
        cost = self.model.tx_cost(bits, distance_m)
        acct = self.account(node_id)
        acct.tx_j = repeated_add(acct.tx_j, cost, count)
        self._running_j = repeated_add(self._running_j, cost, count)
        return cost * count

    def charge_rx_repeated(self, node_id: int, bits: int,
                           count: int) -> float:
        """Charge ``count`` identical receptions in one call (see
        :meth:`charge_tx_repeated` for the equivalence argument)."""
        if self.observed() or self.capacity_j is not None:
            raise ValueError(
                "bulk charging is only valid without observer/battery")
        cost = self.model.rx_cost(bits)
        acct = self.account(node_id)
        acct.rx_j = repeated_add(acct.rx_j, cost, count)
        self._running_j = repeated_add(self._running_j, cost, count)
        return cost * count

    def charge_idle(self, node_id: int, seconds: float) -> float:
        if self.settle is not None:
            self.settle()
        cost = self.model.idle_cost(seconds)
        self.account(node_id).idle_j += cost
        self._booked(node_id, "charge", "idle", cost)
        return cost

    def total_j(self, channel: str = "charge") -> float:
        """Energy ``channel`` traffic has used network-wide so far (exact
        sum over accounts; O(nodes) — prefer :meth:`snapshot` for
        checkpoints)."""
        return sum(acct.total_j for acct in self.accounts(channel).values())

    def snapshot(self) -> float:
        """Protocol checkpoint value; pass to :meth:`since` for a delta.
        O(1): reads the running total maintained per protocol charge."""
        return self._running_j

    def since(self, checkpoint: float) -> float:
        """Protocol energy consumed since ``checkpoint`` was taken."""
        return self._running_j - checkpoint
