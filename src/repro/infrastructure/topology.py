"""Validated tree topology: one UPS, its PDUs, and their racks.

Multi-tenant data centers employ a tree-type power hierarchy (paper
Fig. 1): grid/generator -> ATS -> UPS -> cluster PDUs -> rack PDUs ->
servers.  The market only needs the three metered levels (UPS, PDU,
rack), so :class:`PowerTopology` models exactly those and validates the
invariants the market relies on:

* every rack is attached to exactly one existing PDU;
* identifiers are unique per level;
* racks are never shared between tenants (one ``tenant_id`` per rack).
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping

from repro.errors import TopologyError
from repro.infrastructure.layout import RackLayout
from repro.infrastructure.pdu import Pdu
from repro.infrastructure.rack import Rack
from repro.infrastructure.ups import Ups
from repro.power.elementwise import ordered_sum

__all__ = ["PowerTopology"]


class PowerTopology:
    """The facility's power-delivery tree.

    Build one with :meth:`PowerTopology.build` (preferred) or assemble it
    incrementally with :meth:`add_pdu` / :meth:`add_rack` and call
    :meth:`validate` before use.
    """

    def __init__(self, ups: Ups) -> None:
        self.ups = ups
        self._pdus: dict[str, Pdu] = {}
        self._racks: dict[str, Rack] = {}
        self._layout: RackLayout | None = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def build(
        cls, ups: Ups, pdus: Iterable[Pdu], racks: Iterable[Rack]
    ) -> "PowerTopology":
        """Build and validate a topology in one call."""
        topology = cls(ups)
        for pdu in pdus:
            topology.add_pdu(pdu)
        for rack in racks:
            topology.add_rack(rack)
        topology.validate()
        return topology

    def add_pdu(self, pdu: Pdu) -> None:
        """Register a cluster PDU under the UPS."""
        if pdu.pdu_id in self._pdus:
            raise TopologyError(f"duplicate PDU id {pdu.pdu_id!r}")
        self._pdus[pdu.pdu_id] = pdu
        self._layout = None

    def add_rack(self, rack: Rack) -> None:
        """Register a rack and attach it to its PDU."""
        if rack.rack_id in self._racks:
            raise TopologyError(f"duplicate rack id {rack.rack_id!r}")
        pdu = self._pdus.get(rack.pdu_id)
        if pdu is None:
            raise TopologyError(
                f"rack {rack.rack_id!r} references unknown PDU {rack.pdu_id!r}"
            )
        pdu.attach_rack(rack.rack_id)
        self._racks[rack.rack_id] = rack
        self._layout = None

    def validate(self) -> None:
        """Check global invariants; raises :class:`TopologyError` on failure."""
        if not self._pdus:
            raise TopologyError("topology has no PDUs")
        if not self._racks:
            raise TopologyError("topology has no racks")
        for pdu in self._pdus.values():
            for rack_id in pdu.rack_ids:
                if rack_id not in self._racks:
                    raise TopologyError(
                        f"PDU {pdu.pdu_id!r} lists unknown rack {rack_id!r}"
                    )

    # ------------------------------------------------------------------
    # Lookups
    # ------------------------------------------------------------------

    @property
    def pdus(self) -> Mapping[str, Pdu]:
        """All PDUs keyed by id (read-only view by convention)."""
        return self._pdus

    @property
    def racks(self) -> Mapping[str, Rack]:
        """All racks keyed by id (read-only view by convention)."""
        return self._racks

    @property
    def layout(self) -> RackLayout:
        """The columnar rack order telemetry rows align to (built lazily)."""
        if self._layout is None:
            self._layout = RackLayout(self)
        return self._layout

    def pdu(self, pdu_id: str) -> Pdu:
        """Look up a PDU by id."""
        try:
            return self._pdus[pdu_id]
        except KeyError:
            raise TopologyError(f"unknown PDU {pdu_id!r}") from None

    def rack(self, rack_id: str) -> Rack:
        """Look up a rack by id."""
        try:
            return self._racks[rack_id]
        except KeyError:
            raise TopologyError(f"unknown rack {rack_id!r}") from None

    def racks_of_pdu(self, pdu_id: str) -> list[Rack]:
        """Racks fed by ``pdu_id``, in attachment order (the set R_m)."""
        return [self._racks[rid] for rid in self.pdu(pdu_id).rack_ids]

    def racks_of_tenant(self, tenant_id: str) -> list[Rack]:
        """All racks owned by a tenant (possibly spanning several PDUs)."""
        return [r for r in self._racks.values() if r.tenant_id == tenant_id]

    def tenant_ids(self) -> list[str]:
        """Distinct tenant ids, in first-rack order."""
        seen: dict[str, None] = {}
        for rack in self._racks.values():
            seen.setdefault(rack.tenant_id, None)
        return list(seen)

    # ------------------------------------------------------------------
    # Aggregate power
    # ------------------------------------------------------------------

    def pdu_power_w(self, pdu_id: str) -> float:
        """Current aggregate draw at a PDU (sum of its racks' last samples)."""
        return ordered_sum([r.power_w for r in self.racks_of_pdu(pdu_id)])

    def ups_power_w(self) -> float:
        """Current aggregate facility draw at the UPS."""
        return ordered_sum([r.power_w for r in self._racks.values()])

    def total_guaranteed_w(self) -> float:
        """Total guaranteed (subscribed) capacity across all racks."""
        return ordered_sum([r.guaranteed_w for r in self._racks.values()])

    def clear_all_spot_budgets(self) -> None:
        """Revoke every rack's spot grant (start-of-slot default state)."""
        for rack in self._racks.values():
            rack.clear_spot_budget()

    def restore_all_capacities(self) -> None:
        """End every transient derating and event cut (end-of-run cleanup)."""
        for pdu in self._pdus.values():
            pdu.restore_capacity()
            pdu.clear_event_cut()
        self.ups.restore_capacity()
        self.ups.clear_event_cut()

    def __repr__(self) -> str:
        return (
            f"PowerTopology(ups={self.ups.ups_id!r}, pdus={len(self._pdus)}, "
            f"racks={len(self._racks)})"
        )
