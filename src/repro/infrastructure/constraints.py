"""Generic capacity constraints: phase balance and heat density.

The paper's allocation model (Section III-A) names two further
constraint families beyond rack/PDU/UPS capacities, both "incorporated
following the model in [9]" (power routing):

* **phase balance** — three-phase PDUs/UPSes need similar per-phase
  draw, so the spot capacity granted to the racks on one phase of a PDU
  is bounded;
* **heat density** — the cooling system limits the total server power
  over an area, bounding the spot capacity granted within a heat zone.

Both reduce to the same form: *the grants to some set of racks must not
exceed a cap*.  :class:`CapacityConstraint` is that form, and the
clearing engine accepts any number of them alongside Eqs. (2)-(4).
"""

from __future__ import annotations

import dataclasses
from collections.abc import Iterable, Mapping

from repro.errors import ConfigurationError, TopologyError
from repro.infrastructure.topology import PowerTopology
from repro.power.elementwise import ordered_sum

__all__ = [
    "CapacityConstraint",
    "PhaseAssignment",
    "HeatZone",
]

#: The three phases of a three-phase power feed.
_PHASES = ("A", "B", "C")


@dataclasses.dataclass(frozen=True)
class CapacityConstraint:
    """An upper bound on the spot capacity granted to a set of racks.

    Attributes:
        name: Diagnostic label (e.g. ``"pdu:0/phase:A"``).
        rack_ids: The racks the constraint covers.
        cap_w: Maximum total spot watts grantable to those racks.
    """

    name: str
    rack_ids: frozenset[str]
    cap_w: float

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigurationError("constraint name must be non-empty")
        if not self.rack_ids:
            raise ConfigurationError(f"constraint {self.name}: empty rack set")
        if self.cap_w < 0:
            raise ConfigurationError(
                f"constraint {self.name}: cap must be >= 0, got {self.cap_w}"
            )


class PhaseAssignment:
    """Which phase of its PDU each rack is fed from.

    Args:
        topology: The facility.
        rack_phase: Rack id -> ``"A"``/``"B"``/``"C"``.  Racks omitted
            are assigned round-robin within their PDU (the balanced
            default an electrician would wire).
    """

    def __init__(
        self,
        topology: PowerTopology,
        rack_phase: Mapping[str, str] | None = None,
    ) -> None:
        rack_phase = dict(rack_phase or {})
        for rack_id, phase in rack_phase.items():
            if rack_id not in topology.racks:
                raise TopologyError(f"phase assignment for unknown rack {rack_id!r}")
            if phase not in _PHASES:
                raise ConfigurationError(
                    f"rack {rack_id}: phase must be one of {_PHASES}, got {phase!r}"
                )
        self._topology = topology
        self._phase_of: dict[str, str] = {}
        for pdu_id in topology.pdus:
            for i, rack in enumerate(topology.racks_of_pdu(pdu_id)):
                self._phase_of[rack.rack_id] = rack_phase.get(
                    rack.rack_id, _PHASES[i % len(_PHASES)]
                )

    def phase_of(self, rack_id: str) -> str:
        """The phase feeding a rack."""
        try:
            return self._phase_of[rack_id]
        except KeyError:
            raise TopologyError(f"unknown rack {rack_id!r}") from None

    def racks_on(self, pdu_id: str, phase: str) -> list[str]:
        """Racks on one phase of one PDU."""
        if phase not in _PHASES:
            raise ConfigurationError(f"unknown phase {phase!r}")
        return [
            rack.rack_id
            for rack in self._topology.racks_of_pdu(pdu_id)
            if self._phase_of[rack.rack_id] == phase
        ]

    def constraints(
        self, imbalance_tolerance: float = 0.2
    ) -> list[CapacityConstraint]:
        """Per-phase spot-capacity constraints for every PDU.

        Each phase of a PDU may carry at most its balanced share of the
        PDU capacity plus a tolerance:
        ``cap/3 * (1 + imbalance_tolerance)``.  The *spot* headroom of
        the phase is that bound minus the phase's current draw, computed
        at forecast time by :func:`phase_headroom`.

        This method returns the *static* bounds (draw-independent caps);
        use :meth:`phase_headroom` for runtime constraints.
        """
        if not 0 <= imbalance_tolerance <= 1:
            raise ConfigurationError("imbalance_tolerance must be in [0, 1]")
        constraints = []
        for pdu_id, pdu in self._topology.pdus.items():
            share = pdu.capacity_w / len(_PHASES) * (1 + imbalance_tolerance)
            for phase in _PHASES:
                racks = self.racks_on(pdu_id, phase)
                if racks:
                    constraints.append(
                        CapacityConstraint(
                            name=f"{pdu_id}/phase:{phase}",
                            rack_ids=frozenset(racks),
                            cap_w=share,
                        )
                    )
        return constraints

    def phase_headroom(
        self, imbalance_tolerance: float = 0.2, safety_margin: float = 0.0
    ) -> list[CapacityConstraint]:
        """Runtime per-phase *spot* headroom from current rack draws.

        Args:
            imbalance_tolerance: Allowed per-phase excess over the
                balanced share.
            safety_margin: Fraction of the phase bound held back.
        """
        if not 0 <= safety_margin < 1:
            raise ConfigurationError("safety_margin must be in [0, 1)")
        constraints = []
        for static in self.constraints(imbalance_tolerance):
            # Sorted: frozenset order follows the hash seed, and a float
            # sum follows its order.
            draw = ordered_sum(
                [
                    self._topology.rack(rack_id).power_w
                    for rack_id in sorted(static.rack_ids)
                ]
            )
            headroom = max(0.0, static.cap_w * (1 - safety_margin) - draw)
            constraints.append(
                CapacityConstraint(
                    name=static.name,
                    rack_ids=static.rack_ids,
                    cap_w=headroom,
                )
            )
        return constraints


@dataclasses.dataclass(frozen=True)
class HeatZone:
    """A cooling zone limiting total server power over an area.

    Attributes:
        name: Zone label (e.g. ``"aisle:3"``).
        rack_ids: Racks inside the zone (may span PDUs).
        max_power_w: The zone's cooling limit on total IT power.
    """

    name: str
    rack_ids: frozenset[str]
    max_power_w: float

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigurationError("zone name must be non-empty")
        if not self.rack_ids:
            raise ConfigurationError(f"zone {self.name}: empty rack set")
        if self.max_power_w <= 0:
            raise ConfigurationError(
                f"zone {self.name}: max_power_w must be positive"
            )

    def headroom(
        self,
        topology: PowerTopology,
        reference_power_w: Mapping[str, float] | None = None,
        safety_margin: float = 0.0,
    ) -> CapacityConstraint:
        """The zone's current spot headroom as a clearing constraint.

        Note that a heat zone bounds *total* power, which member racks
        can approach on guaranteed capacity alone — the market can only
        keep its *grants* within the forecast headroom.  As with the
        PDU-level predictor, a conservative per-rack reference (e.g. the
        rolling recent maximum) and/or a ``safety_margin`` absorb
        guaranteed-capacity ramps between slots; residual short
        excursions fall under the cooling system's thermal inertia, the
        thermal analogue of circuit-breaker tolerance.

        Args:
            topology: Facility with current rack power recorded.
            reference_power_w: Optional per-rack reference power
                overriding the instantaneous draw (clamped to the rack's
                guaranteed capacity).
            safety_margin: Fraction of the zone limit held back.
        """
        unknown = self.rack_ids - set(topology.racks)
        if unknown:
            raise TopologyError(
                f"zone {self.name}: unknown racks {sorted(unknown)[:5]}"
            )
        if not 0 <= safety_margin < 1:
            raise ConfigurationError("safety_margin must be in [0, 1)")
        reference_power_w = reference_power_w or {}
        draw = 0.0
        for rack_id in self.rack_ids:
            rack = topology.rack(rack_id)
            draw += min(
                reference_power_w.get(rack_id, rack.power_w),
                rack.guaranteed_w,
            )
        usable = self.max_power_w * (1 - safety_margin)
        return CapacityConstraint(
            name=f"heat:{self.name}",
            rack_ids=self.rack_ids,
            cap_w=max(0.0, usable - draw),
        )


def zone_constraints(
    zones: Iterable[HeatZone],
    topology: PowerTopology,
    reference_power_w: Mapping[str, float] | None = None,
    safety_margin: float = 0.0,
) -> list[CapacityConstraint]:
    """Runtime headroom constraints for a set of heat zones."""
    return [
        zone.headroom(topology, reference_power_w, safety_margin)
        for zone in zones
    ]
