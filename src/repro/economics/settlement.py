"""Tenant settlement: itemised invoices over a simulation run.

Colocation bills have three line items under SpotDC: the guaranteed-
capacity subscription, the metered-energy charge, and the spot-capacity
payments.  :func:`build_invoice` turns a finished
:class:`~repro.sim.results.SimulationResult` into an auditable
per-tenant statement, and :func:`reconcile` cross-checks that the sum of
tenant spot payments equals the operator's recorded spot revenue — the
market's books must balance to the cent.
"""

from __future__ import annotations

import dataclasses
import typing

from repro.analysis.reporting import format_table
from repro.errors import SimulationError
from repro.power.elementwise import ordered_sum

if typing.TYPE_CHECKING:
    # Imported lazily to keep `repro.economics` importable on its own
    # (settlement sits above the sim layer in the dependency graph).
    from repro.sim.results import SimulationResult

__all__ = ["Invoice", "build_invoice", "build_all_invoices", "reconcile"]


@dataclasses.dataclass(frozen=True)
class Invoice:
    """One tenant's statement for a simulated period.

    Attributes:
        tenant_id: The billed tenant.
        period_hours: Billing-period length.
        subscription_w: Subscribed guaranteed capacity.
        subscription_charge: Guaranteed-capacity line item, dollars.
        energy_kwh: Metered energy consumed.
        energy_charge: Energy line item, dollars.
        spot_slots: Slots in which the tenant held spot capacity.
        spot_watt_hours: Integrated spot capacity held, watt-hours.
        spot_charge: Spot-market line item, dollars.
        spot_credit: Memo line, dollars: value of spot grants revoked
            before delivery (lost broadcasts, degradation control).
            Revoked grants are *rebilled out* at the slot, so the credit
            is already absent from :attr:`spot_charge` and is shown for
            audit only — it is not subtracted again from :attr:`total`.
        quarantined_bids: Memo line: bid bundles the admission front
            door rejected over the period.  A quarantined bundle is
            never cleared or billed (the tenant sat the slot out), so
            this too is audit-only — but a tenant disputing "why did I
            get no capacity" finds the answer on their statement.
    """

    tenant_id: str
    period_hours: float
    subscription_w: float
    subscription_charge: float
    energy_kwh: float
    energy_charge: float
    spot_slots: int
    spot_watt_hours: float
    spot_charge: float
    spot_credit: float = 0.0
    quarantined_bids: int = 0

    @property
    def total(self) -> float:
        """Total amount due, dollars."""
        return self.subscription_charge + self.energy_charge + self.spot_charge

    @property
    def effective_spot_rate(self) -> float:
        """Average realised spot price, $/kW/h (0 with no spot usage)."""
        if self.spot_watt_hours <= 0:
            return 0.0
        return self.spot_charge / (self.spot_watt_hours / 1000.0)


def build_invoice(result: SimulationResult, tenant_id: str) -> Invoice:
    """Assemble one tenant's invoice from a finished run."""
    if tenant_id not in result.tenants:
        raise SimulationError(f"unknown tenant {tenant_id!r}")
    info = result.tenants[tenant_id]
    energy_kwh = 0.0
    spot_slots = 0
    spot_watt_hours = 0.0
    for rack_id in info.rack_ids:
        power = result.collector.rack_power_array(rack_id)
        granted = result.collector.rack_granted_array(rack_id)
        energy_kwh += float(power.sum()) / 1000.0 * result.slot_hours
        spot_slots += int((granted > 0).sum())
        spot_watt_hours += float(granted.sum()) * result.slot_hours
    credits = [
        note.dollars
        for note in getattr(result, "credit_notes", ())
        if note.tenant_id == tenant_id
    ]
    # No credit notes invoice int 0, as builtin sum() did.
    spot_credit = ordered_sum(credits) if credits else 0
    return Invoice(
        tenant_id=tenant_id,
        period_hours=result.duration_hours,
        subscription_w=info.guaranteed_w,
        subscription_charge=result.tenant_subscription_cost(tenant_id),
        energy_kwh=energy_kwh,
        energy_charge=result.tenant_energy_cost(tenant_id),
        spot_slots=spot_slots,
        spot_watt_hours=spot_watt_hours,
        spot_charge=result.tenant_spot_payment(tenant_id),
        spot_credit=spot_credit,
        quarantined_bids=getattr(result, "quarantined_bids", {}).get(
            tenant_id, 0
        ),
    )


def build_all_invoices(result: SimulationResult) -> list[Invoice]:
    """Invoices for every tenant (participating or not), roster order."""
    return [build_invoice(result, t) for t in result.tenants]


def reconcile(result: SimulationResult, tolerance: float = 1e-6) -> None:
    """Check the market's books balance.

    The sum of all tenants' spot charges must equal the operator's
    recorded spot revenue (per-PDU prices make this non-trivial: every
    grant must have been billed at its own PDU's price).

    Raises:
        SimulationError: On any imbalance beyond ``tolerance`` dollars.
    """
    billed = ordered_sum(
        [result.tenant_spot_payment(tenant_id) for tenant_id in result.tenants]
    )
    earned = result.total_spot_revenue()
    if abs(billed - earned) > tolerance:
        raise SimulationError(
            f"settlement imbalance: tenants billed ${billed:.6f} but the "
            f"operator recorded ${earned:.6f} of spot revenue"
        )


def render_invoices(invoices: list[Invoice]) -> str:
    """A statement table across tenants."""
    rows = [
        [
            inv.tenant_id,
            inv.subscription_charge,
            inv.energy_charge,
            inv.spot_charge,
            inv.spot_credit,
            inv.quarantined_bids,
            inv.total,
            inv.effective_spot_rate,
        ]
        for inv in invoices
    ]
    return format_table(
        [
            "tenant", "subscription [$]", "energy [$]", "spot [$]",
            "credited [$]", "quarantined", "total [$]",
            "avg spot rate [$/kW/h]",
        ],
        rows,
        title="Tenant invoices",
    )
