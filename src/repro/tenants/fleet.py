"""Columnar tenant fleet: every rack's need and slot run in array passes.

The engine asks three things of the tenants each slot: which racks want
spot capacity (and how much), the bid bundles, and how every rack runs
under its enforced budget.  :class:`RackFleet` answers all three over
columns, one per rack parameter, instead of one object call per rack:

* **Need, once.**  Interactive racks want ``min(desired - guaranteed,
  max_spot)`` when that is positive; batch racks want their
  ``useful_spot_w`` while the backlog is over the sprint threshold.
  Both are masked by ``useful_spot_w > 0``.  The engine's requesting
  set, the bids and the collector's ``wanted`` row all read this result.
* **Bids.**  The strategy runs only for racks with need, and bundles come
  out in tenant order through :meth:`repro.tenants.tenant._ParticipatingTenant.bundle`,
  the same code a per-tenant :meth:`make_bid` uses.
* **Execute.**  One pass per workload kind turns the budget row into
  power, value and SLO-violation rows.  Batch backlogs live in one
  float64 column the workloads are bound to
  (:meth:`repro.workloads.base.BatchWorkload.bind_backlog`), so the
  backlog has one owner and per-tenant readers see it current.

Rows are in *fleet order*: tenant order, then each tenant's rack order
— the order the metrics collector and the per-tenant code use.
:attr:`RackFleet.layout_index` maps it onto the topology's
:class:`~repro.infrastructure.layout.RackLayout` order.

Every element equals the scalar per-rack code bit for bit: ties follow
Python's ``min``/``max`` (:func:`~repro.power.elementwise.py_min`), and
powers with per-rack exponents are raised element by element with
Python's float ``**`` (:func:`~repro.power.elementwise.pow_each`).

**Hooks.**  Only the library's own sprinting, opportunistic and
non-participating tenants running interactive, batch or trace-power
workloads are run in columns.  Every other tenant — bundled tiered
services, composites, the misbehaving wrappers, user subclasses — keeps
its per-tenant ``needed_spot_w`` / ``make_bid`` / ``execute_slot``,
which the fleet calls for that tenant's racks only, in tenant order.

The fleet holds nothing that is not derivable from the tenants.  Its
trace matrices are ``(racks x slots)``, and each workload reads its
prepared trace as its own row of them
(:meth:`~repro.workloads.base.InteractiveWorkload.use_traces`): a
contiguous view, so a run keeps every trace in memory once and a
checkpoint pickles it once, exactly as before.  The backlog column is
shared with the workloads the same way.  A checkpoint therefore leaves
the fleet out, and a resumed run builds it again.
"""

from __future__ import annotations

from collections.abc import Sequence
from itertools import compress
from typing import NamedTuple

import numpy as np

from repro.core.bids import TenantBid
from repro.errors import SimulationError, WorkloadError
from repro.power.elementwise import py_max, py_min
from repro.power.latency import LatencyColumns
from repro.power.throughput import ThroughputColumns
from repro.tenants.bidding import LinearElasticStrategy
from repro.tenants.portfolio import TenantRack
from repro.tenants.tenant import (
    NonParticipatingTenant,
    OpportunisticTenant,
    SprintingTenant,
    Tenant,
)
from repro.workloads.base import BatchWorkload, InteractiveWorkload, TracePowerWorkload

__all__ = ["RackFleet", "SlotNeed"]

#: Tenant classes the fleet runs in columns; any other class is hooked.
_COLUMNAR_TENANTS = (SprintingTenant, OpportunisticTenant, NonParticipatingTenant)


class SlotNeed(NamedTuple):
    """One slot's spot-capacity need, in fleet order.

    Attributes:
        watts: Extra watts wanted per rack (0 where none).
        wanted: Whether the rack wants spot capacity.
        rack_ids: The wanting racks' ids.
    """

    watts: np.ndarray
    wanted: np.ndarray
    rack_ids: frozenset[str]


def _column(values) -> np.ndarray:
    return np.array(list(values), dtype=float)


class _Group:
    """Racks of one workload kind: fleet positions plus the need columns."""

    def __init__(self, members) -> None:
        # members: (fleet position, TenantRack, owner bids) triples.
        self.positions = np.array([m[0] for m in members], dtype=np.intp)
        racks = [m[1] for m in members]
        self.workloads = [rack.workload for rack in racks]
        self.guaranteed = _column(rack.guaranteed_w for rack in racks)
        self.max_spot = _column(rack.max_spot_w for rack in racks)
        self.useful = _column(rack.useful_spot_w for rack in racks)
        # Racks whose owner bids and that can use spot capacity at all.
        self.can_use = np.array([m[2] for m in members], dtype=bool) & (self.useful > 0)


class _Interactive(_Group):
    """Latency-SLO racks: rate and desired-power matrices, latency columns."""

    def __init__(self, members) -> None:
        super().__init__(members)
        self.rates = np.stack([w.rates for w in self.workloads])
        self.desired = np.stack([w.desired_powers for w in self.workloads])
        self.latency = LatencyColumns(w.latency_model for w in self.workloads)
        self.slo = _column(w.slo_ms for w in self.workloads)
        for i, workload in enumerate(self.workloads):
            workload.use_traces(self.rates[i], self.desired[i])

    def need(self, slot: int):
        extra = self.desired[:, slot] - self.guaranteed
        wanted = self.can_use & (extra > 0)
        return np.where(wanted, py_min(extra, self.max_spot), 0.0), wanted

    def execute(self, slot, budget, slot_seconds):
        """``InteractiveWorkload.execute`` over every rack: the latency model."""
        power = py_min(self.desired[:, slot], budget)
        latency = self.latency.latency_ms(power, self.rates[:, slot])
        return power, latency, latency > self.slo


class _Batch(_Group):
    """Backlog racks: arrival matrix, backlog column, throughput columns."""

    def __init__(self, members) -> None:
        super().__init__(members)
        self.arrivals = np.stack([w.arrivals for w in self.workloads])
        self.model = ThroughputColumns(w.throughput_model for w in self.workloads)
        self.threshold = _column(
            w.sprint_backlog_s * w.throughput_model.rate_max for w in self.workloads
        )
        self.backlog = np.zeros(len(self.workloads))
        for i, workload in enumerate(self.workloads):
            workload.use_traces(self.arrivals[i])
            workload.bind_backlog(self.backlog, i)

    def need(self, slot: int):
        wanted = self.can_use & (self.backlog > self.threshold)
        return np.where(wanted, self.useful, 0.0), wanted

    def execute(self, slot, budget, slot_seconds):
        """``BatchWorkload.execute`` over every rack; drains the backlog column."""
        model = self.model
        backlog = self.backlog
        arrivals = self.arrivals[:, slot]
        # Keep up with arrivals (plus drain any small residual backlog),
        # or run flat out while the backlog is worth sprinting for.
        target = np.where(
            backlog > 0, py_min(model.rate_max, arrivals + backlog / 60.0), arrivals
        )
        desired = np.where(
            backlog > self.threshold, model.peak, model.power_for_rate(target)
        )
        power = py_min(desired, budget)
        rate = model.rate_at(power)
        available = backlog + arrivals * slot_seconds
        processed = py_min(available, rate * slot_seconds)
        backlog[:] = available - processed
        achieved = processed / slot_seconds
        # Drawn power follows the work actually done: an idle rack draws
        # idle power, a partly busy one what its achieved rate needs.
        drawn = np.where(processed > 0, model.power_for_rate(achieved), model.idle)
        drawn = py_max(model.idle, py_min(drawn, py_max(budget, model.idle)))
        return drawn, achieved, np.zeros(len(drawn), dtype=bool)


class _TracePower(_Group):
    """Trace-replay racks: the power matrix."""

    def __init__(self, members) -> None:
        super().__init__(members)
        self.powers = np.stack([w.powers for w in self.workloads])
        for i, workload in enumerate(self.workloads):
            workload.use_traces(self.powers[i])

    def need(self, slot: int):
        return None

    def execute(self, slot, budget, slot_seconds):
        power = py_min(self.powers[:, slot], budget)
        return power, power, np.zeros(len(power), dtype=bool)


_KINDS = (
    (InteractiveWorkload, _Interactive),
    (BatchWorkload, _Batch),
    (TracePowerWorkload, _TracePower),
)


class RackFleet:
    """Every tenant rack of a run, as columns aligned to one rack order.

    Build it after the tenants' workloads are prepared (the engine does
    so in ``begin_run``).

    Args:
        tenants: Every tenant of the facility, in scenario order.
        layout: The topology's rack layout; each rack must be owned by
            exactly one tenant.

    Attributes:
        rack_ids: Rack ids in fleet order.
        layout_index: Layout position of each fleet rack.
    """

    def __init__(self, tenants: Sequence[Tenant], layout) -> None:
        rack_ids: list[str] = []
        members: dict[type, list] = {kind: [] for kind, _ in _KINDS}
        self._hooked: list[tuple[Tenant, list[int]]] = []
        # Columnar bidders' racks, ascending fleet position.
        bid_racks: list[tuple[int, TenantRack, Tenant]] = []
        for tenant in tenants:
            columnar = type(tenant) in _COLUMNAR_TENANTS and all(
                type(rack.workload) in members for rack in tenant.racks
            )
            bids = columnar and tenant.participates
            positions = []
            for rack in tenant.racks:
                position = len(rack_ids)
                rack_ids.append(rack.rack_id)
                positions.append(position)
                if columnar:
                    members[type(rack.workload)].append((position, rack, bids))
                    if bids:
                        bid_racks.append((position, rack, tenant))
            if not columnar:
                self._hooked.append((tenant, positions))
        self.rack_ids = tuple(rack_ids)
        if sorted(rack_ids) != sorted(layout.rack_ids):
            missing = sorted(set(layout.rack_ids) - set(rack_ids))
            raise SimulationError(
                f"tenant racks do not match the topology (unowned: {missing[:5]}, "
                f"{len(rack_ids)} tenant racks for {len(layout.rack_ids)})"
            )
        self.layout_index = np.array(
            [layout.index[rack_id] for rack_id in rack_ids], dtype=np.intp
        )
        self._in_layout_order = bool(
            (self.layout_index == np.arange(len(rack_ids))).all()
        )
        self._groups = [
            group(members[kind]) for kind, group in _KINDS if members[kind]
        ]
        self._columnar_bidders = {id(tenant) for _, _, tenant in bid_racks}
        self._bid_positions = np.array([b[0] for b in bid_racks], dtype=np.intp)
        self._bid_racks = [(rack, tenant) for _, rack, tenant in bid_racks]
        self._hooked_bidders = [
            tenant for tenant, _ in self._hooked if tenant.participates
        ]
        self._position = {rack_id: i for i, rack_id in enumerate(rack_ids)}
        self._need: tuple[int, SlotNeed] | None = None

    @property
    def in_layout_order(self) -> bool:
        """Whether fleet order is the layout order (no reordering needed)."""
        return self._in_layout_order

    def to_layout(self, row: np.ndarray) -> np.ndarray:
        """A fleet-order row rearranged into layout order."""
        if self._in_layout_order:
            return row
        out = np.empty_like(row)
        out[self.layout_index] = row
        return out

    # ------------------------------------------------------------------
    # Need
    # ------------------------------------------------------------------

    def need(self, slot: int) -> SlotNeed:
        """This slot's spot-capacity need (computed once per slot).

        Call it before the slot executes: batch need reads the backlog
        the previous slot left.
        """
        if self._need is not None and self._need[0] == slot:
            return self._need[1]
        n = len(self.rack_ids)
        watts = np.zeros(n)
        wanted = np.zeros(n, dtype=bool)
        for group in self._groups:
            found = group.need(slot)
            if found is not None:
                watts[group.positions], wanted[group.positions] = found
        for tenant in self._hooked_bidders:
            for rack_id, needed_w in tenant.needed_spot_w(slot).items():
                position = self._position[rack_id]
                watts[position] = needed_w
                wanted[position] = True
        need = SlotNeed(watts, wanted, frozenset(compress(self.rack_ids, wanted)))
        self._need = (slot, need)
        return need

    # ------------------------------------------------------------------
    # Bids
    # ------------------------------------------------------------------

    def bids(
        self,
        slot: int,
        tenants: Sequence[Tenant],
        predicted_price: float | None = None,
    ) -> list[TenantBid]:
        """Bundles of ``tenants`` (in their order) for this slot.

        Columnar tenants run their strategy for their racks with need
        only; any other tenant builds its bundle with ``make_bid``.
        """
        need = self.need(slot)
        needy = np.flatnonzero(need.wanted[self._bid_positions])
        watts = need.watts[self._bid_positions[needy]].tolist()
        # Tenants are keyed by identity: a tenant class need not hash.
        active = set(map(id, tenants))
        owned = [
            (self._bid_racks[k], needed_w)
            for k, needed_w in zip(needy.tolist(), watts)
            if id(self._bid_racks[k][1]) in active
        ]
        # The value curves the needy racks lack are built together, one
        # array pass per tenant class.
        by_class: dict[type, list] = {}
        for (rack, tenant), needed_w in owned:
            by_class.setdefault(type(tenant), []).append((tenant, rack, needed_w))
        contexts: dict[int, tuple[Tenant, list]] = {}
        for cls, entries in by_class.items():
            curves = cls.curves_for([(tenant, rack) for tenant, rack, _ in entries], slot)
            for (tenant, rack, needed_w), curve in zip(entries, curves):
                contexts.setdefault(id(tenant), (tenant, []))[1].append(
                    tenant.rack_context(rack, needed_w, curve, predicted_price)
                )
        # The default strategy is stateless, so one array pass serves every
        # tenant using it; any other strategy runs per rack, in tenant order.
        linear = [
            (key, ctxs)
            for key, (tenant, ctxs) in contexts.items()
            if type(tenant.strategy) is LinearElasticStrategy
        ]
        results = iter(
            LinearElasticStrategy.make_rack_bids([c for _, ctxs in linear for c in ctxs])
        )
        demands = {key: [next(results) for _ in ctxs] for key, ctxs in linear}
        bundles = []
        for tenant in tenants:
            key = id(tenant)
            found = contexts.get(key)
            if found is not None:
                bid = tenant.bundle(found[1], demands.get(key))
            elif key in self._columnar_bidders:
                continue
            else:
                bid = tenant.make_bid(slot, predicted_price=predicted_price)
            if bid is not None:
                bundles.append(bid)
        return bundles

    # ------------------------------------------------------------------
    # Execute
    # ------------------------------------------------------------------

    def execute(
        self, slot: int, budget_w: np.ndarray, slot_seconds: float
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Run every rack for one slot under the enforced budgets.

        Args:
            slot: Slot index (slots run in order, once each).
            budget_w: Enforced budget per rack, in layout order.
            slot_seconds: Slot duration.

        Returns:
            ``(power_w, value, slo_violated)`` rows in fleet order: the
            drawn power, the performance metric (tail latency in ms,
            processing rate, or the replayed draw) and the SLO flag.
        """
        if slot_seconds <= 0:
            raise WorkloadError("slot_seconds must be positive")
        budget = np.asarray(budget_w, dtype=float)
        if not self._in_layout_order:
            budget = budget[self.layout_index]
        n = len(self.rack_ids)
        power = np.empty(n)
        value = np.empty(n)
        slo = np.zeros(n, dtype=bool)
        for group in self._groups:
            at = group.positions
            power[at], value[at], slo[at] = group.execute(
                slot, budget[at], slot_seconds
            )
        for tenant, positions in self._hooked:
            ids = [self.rack_ids[p] for p in positions]
            outcomes = tenant.execute_slot(
                slot, dict(zip(ids, budget[positions].tolist())), slot_seconds
            )
            for position, rack_id in zip(positions, ids):
                perf = outcomes[rack_id]
                power[position] = perf.power_w
                value[position] = perf.value
                slo[position] = perf.slo_violated
        return power, value, slo
