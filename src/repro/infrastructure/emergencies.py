"""Capacity-emergency detection and logging.

Oversubscribed facilities occasionally exceed physical capacity; the
paper handles those through separate power-capping mechanisms [8] and
only requires that *spot capacity introduces no additional emergencies*
(Section V-B2), because spot capacity is offered only out of unused
headroom.  :class:`EmergencyLog` records every excursion so experiments
can verify that invariant: a run with SpotDC must log no more UPS/PDU
overload slots than the identical run under PowerCapped.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.infrastructure.topology import PowerTopology
from repro.power.elementwise import ordered_sum

__all__ = ["Emergency", "EmergencyLog"]


@dataclasses.dataclass(frozen=True)
class Emergency:
    """One capacity excursion at one level during one slot.

    Attributes:
        slot: Simulation slot index.
        level: ``"rack"``, ``"pdu"``, or ``"ups"``.
        unit_id: Identifier of the overloaded unit.
        capacity_w: The enforced capacity at that level.
        power_w: The measured aggregate draw.
    """

    slot: int
    level: str
    unit_id: str
    capacity_w: float
    power_w: float

    @property
    def overload_w(self) -> float:
        """Watts above capacity."""
        return self.power_w - self.capacity_w


class EmergencyLog:
    """Scans a topology each slot and accumulates capacity excursions."""

    def __init__(self, tolerance: float = 0.01) -> None:
        """
        Args:
            tolerance: Relative slack before a draw counts as an overload.
                Circuit breakers tolerate brief, small excursions well
                beyond their rating ("any unexpected short-term power
                spike can be handled by circuit breaker tolerance",
                paper Section III-C); the default counts only excursions
                above 1% of capacity, sustained for a whole slot, as
                emergencies.  Pass 0 for strict accounting.
        """
        self._tolerance = tolerance
        self._events: list[Emergency] = []

    @property
    def events(self) -> tuple[Emergency, ...]:
        """All recorded emergencies, in detection order."""
        return tuple(self._events)

    def scan(self, topology: PowerTopology, slot: int) -> list[Emergency]:
        """Detect and record every excursion for the current samples.

        Rack draws are compared against the *enforced budget* (guaranteed
        plus any granted spot capacity); PDU and UPS draws against their
        physical capacities.  The comparisons run over the topology's
        columnar layout; events are built only for violators, racks
        first, then PDUs, then the UPS, each in topology order.

        Returns:
            The emergencies detected in this scan (also appended to
            :attr:`events`).
        """
        layout = topology.layout
        factor = 1 + self._tolerance
        power = layout.power_row()
        budget = layout.guaranteed_w + layout.spot_row()
        found: list[Emergency] = []
        for i in np.flatnonzero(power > budget * factor).tolist():
            rack = layout.racks[i]
            found.append(
                Emergency(slot, "rack", rack.rack_id, rack.budget_w, rack.power_w)
            )
        pdu_power = layout.pdu_totals(power)
        capacity = layout.pdu_capacity_row()
        for j in np.flatnonzero(pdu_power > capacity * factor).tolist():
            found.append(
                Emergency(
                    slot, "pdu", layout.pdu_ids[j],
                    layout.pdus[j].capacity_w, float(pdu_power[j]),
                )
            )
        ups_power = ordered_sum(power)
        if ups_power > topology.ups.capacity_w * factor:
            found.append(
                Emergency(
                    slot, "ups", topology.ups.ups_id,
                    topology.ups.capacity_w, ups_power,
                )
            )
        self._events.extend(found)
        return found

    def count(self, level: str | None = None) -> int:
        """Number of recorded emergencies, optionally filtered by level."""
        if level is None:
            return len(self._events)
        return sum(1 for e in self._events if e.level == level)

    def overload_slots(self, level: str) -> set[int]:
        """Distinct slots in which the given level experienced an overload."""
        return {e.slot for e in self._events if e.level == level}

    def overload_slot_count(self, level: str) -> int:
        """Number of distinct overload slots at a level.

        The §V-B2 invariant is stated in these units: a SpotDC run must
        log no more UPS/PDU overload slots than the identical
        PowerCapped run.
        """
        return len(self.overload_slots(level))
