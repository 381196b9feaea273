"""Cluster-level power distribution unit (PDU).

A cluster PDU feeds 50-80 racks at 200-300 kW in a production facility
(paper Section II-A; our testbed-scale scenario uses ~715 W PDUs with one
server standing in for each rack).  The PDU is where oversubscription and
spot capacity live: the sum of guaranteed subscriptions of attached racks
may exceed the physical capacity, and at runtime the headroom between the
physical capacity and the aggregate draw is the PDU's spot capacity
``P_m(t)`` (Eq. 3).
"""

from __future__ import annotations

from repro.errors import TopologyError

__all__ = ["Pdu"]


class Pdu:
    """A shared cluster PDU with a fixed physical capacity.

    Args:
        pdu_id: Unique identifier within the facility.
        capacity_w: Physical IT power capacity in watts.
    """

    def __init__(self, pdu_id: str, capacity_w: float) -> None:
        if not pdu_id:
            raise TopologyError("pdu_id must be non-empty")
        if capacity_w <= 0:
            raise TopologyError(
                f"PDU {pdu_id}: capacity must be positive, got {capacity_w}"
            )
        self.pdu_id = pdu_id
        self.capacity_w = float(capacity_w)
        self._base_capacity_w = self.capacity_w
        self._derate_fraction = 0.0
        self._event_fraction = 0.0
        self._rack_ids: list[str] = []

    @property
    def base_capacity_w(self) -> float:
        """Designed physical capacity, unaffected by transient deratings."""
        return self._base_capacity_w

    @property
    def derated(self) -> bool:
        """Whether a derating or grid-event cut is currently in force."""
        return self.capacity_w < self._base_capacity_w

    def _recompute(self) -> None:
        # Fault deratings and grid-event cuts are independent layers;
        # the deeper one binds (they overlap, never stack — both state
        # "this much of the designed capacity is unusable").
        fraction = max(self._derate_fraction, self._event_fraction)
        self.capacity_w = self._base_capacity_w * (1.0 - fraction)

    def apply_derating(self, fraction: float) -> None:
        """Temporarily lose ``fraction`` of the designed capacity.

        Models a failed power module, thermal derating, or a maintenance
        bypass: the *live* capacity — what the emergency scan and the
        spot-capacity predictor see — drops until
        :meth:`restore_capacity` is called.
        """
        if not 0 < fraction < 1:
            raise TopologyError(
                f"PDU {self.pdu_id}: derating fraction must be in (0, 1), "
                f"got {fraction}"
            )
        self._derate_fraction = fraction
        self._recompute()

    def restore_capacity(self) -> None:
        """End any derating (grid-event cuts, if any, stay in force)."""
        self._derate_fraction = 0.0
        self._recompute()

    def apply_event_cut(self, fraction: float) -> None:
        """Lose ``fraction`` of the designed capacity to a grid event.

        Models an EDR dispatch or utility-side derating cascade: an
        exogenous cut in usable capacity, independent of equipment
        faults, held until :meth:`clear_event_cut`.
        """
        if not 0 < fraction < 1:
            raise TopologyError(
                f"PDU {self.pdu_id}: event cut fraction must be in (0, 1), "
                f"got {fraction}"
            )
        self._event_fraction = fraction
        self._recompute()

    def clear_event_cut(self) -> None:
        """End any grid-event cut (fault deratings stay in force)."""
        self._event_fraction = 0.0
        self._recompute()

    @property
    def rack_ids(self) -> tuple[str, ...]:
        """Identifiers of racks fed by this PDU, in attachment order."""
        return tuple(self._rack_ids)

    def attach_rack(self, rack_id: str) -> None:
        """Attach a rack to this PDU (called by the topology builder)."""
        if rack_id in self._rack_ids:
            raise TopologyError(
                f"rack {rack_id} already attached to PDU {self.pdu_id}"
            )
        self._rack_ids.append(rack_id)

    def headroom_w(self, aggregate_power_w: float) -> float:
        """Spot capacity available given the PDU's aggregate draw.

        This is the instantaneous ``capacity - usage`` headroom; the
        operator's *predictor* decides how much of it to offer (it uses
        guaranteed capacity, not current draw, as the reference for racks
        that request spot capacity — see
        :meth:`repro.forecast.signals.Signal.headroom`).
        """
        return max(0.0, self.capacity_w - aggregate_power_w)

    def utilization(self, aggregate_power_w: float) -> float:
        """Aggregate draw as a fraction of physical capacity (can be >1)."""
        return aggregate_power_w / self.capacity_w

    def __repr__(self) -> str:
        return (
            f"Pdu(pdu_id={self.pdu_id!r}, capacity_w={self.capacity_w}, "
            f"racks={len(self._rack_ids)})"
        )
