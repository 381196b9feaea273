"""Simulation result containers and the paper's summary metrics.

:class:`SimulationResult` wraps a finished run's telemetry and computes
the evaluation quantities the paper reports: tenants' performance
improvement over slots where they needed spot capacity (Fig. 12b),
their total-cost increase (Fig. 12a), spot-capacity usage relative to
subscriptions (Fig. 12c), market-price and utilization CDFs (Fig. 13),
and the operator's profit increase (the +9.7% headline).
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.economics.profit import OperatorLedger
from repro.errors import SimulationError
from repro.infrastructure.emergencies import EmergencyLog
from repro.power.elementwise import ordered_sum
from repro.sim.metrics import MetricsCollector

__all__ = ["RackInfo", "TenantInfo", "SimulationResult"]


@dataclasses.dataclass(frozen=True)
class RackInfo:
    """Static facts about one rack, carried into results.

    Attributes:
        rack_id: Rack identifier.
        tenant_id: Owning tenant.
        pdu_id: Feeding PDU.
        guaranteed_w: Subscription.
        metric: ``"latency_ms"``, ``"throughput"``, or ``"power_w"``.
    """

    rack_id: str
    tenant_id: str
    pdu_id: str
    guaranteed_w: float
    metric: str


@dataclasses.dataclass(frozen=True)
class TenantInfo:
    """Static facts about one tenant."""

    tenant_id: str
    kind: str
    rack_ids: tuple[str, ...]
    guaranteed_w: float


class SimulationResult:
    """A finished run: telemetry plus derived evaluation metrics.

    Args:
        allocator_name: Which policy produced this run.
        slot_seconds: Slot duration.
        collector: The run's metrics.
        ledger: Operator accounting for the run.
        emergencies: Capacity-excursion log.
        racks: Static rack facts.
        tenants: Static tenant facts.
        energy_tariff_per_kwh: Tariff used for tenants' energy bills.
        guaranteed_rate_per_kw_hour: Rate used for subscription bills.
        ups_capacity_w: The facility's designed UPS capacity (for
            utilization normalisation); 0 if unknown.
        pdu_capacities_w: Physical capacity per PDU id.
        faults: The run's injected-fault log
            (:class:`repro.resilience.faults.FaultLog`), or ``None``
            when no fault model was active.
        control_actions: Degradation-control actions taken during the
            run (:class:`repro.resilience.degradation.ControlAction`).
        credit_notes: Settlement credits for revoked grants
            (:class:`repro.resilience.degradation.CreditNote`).
        quarantined_bids: Bundles rejected by the admission front door
            over the run, by tenant id (empty when admission never
            fired or was disabled).
    """

    def __init__(
        self,
        allocator_name: str,
        slot_seconds: float,
        collector: MetricsCollector,
        ledger: OperatorLedger,
        emergencies: EmergencyLog,
        racks: list[RackInfo],
        tenants: list[TenantInfo],
        energy_tariff_per_kwh: float,
        guaranteed_rate_per_kw_hour: float,
        ups_capacity_w: float = 0.0,
        pdu_capacities_w: dict[str, float] | None = None,
        faults=None,
        control_actions=(),
        credit_notes=(),
        quarantined_bids: dict[str, int] | None = None,
    ) -> None:
        self.allocator_name = allocator_name
        self.slot_seconds = slot_seconds
        self.collector = collector
        self.ledger = ledger
        self.emergencies = emergencies
        self.racks = {r.rack_id: r for r in racks}
        self.tenants = {t.tenant_id: t for t in tenants}
        self.energy_tariff_per_kwh = energy_tariff_per_kwh
        self.guaranteed_rate_per_kw_hour = guaranteed_rate_per_kw_hour
        self.ups_capacity_w = ups_capacity_w
        self.pdu_capacities_w = dict(pdu_capacities_w or {})
        self.faults = faults
        self.control_actions = tuple(control_actions)
        self.credit_notes = tuple(credit_notes)
        self.quarantined_bids = dict(quarantined_bids or {})
        #: The run's span/event trace (:class:`repro.telemetry.RunTrace`)
        #: when telemetry was enabled, else ``None``.  Set by the engine
        #: after construction — the trace closes after settlement events
        #: that themselves read this result.
        self.trace = None
        #: Paths of telemetry artifacts written for this run, in write
        #: order (empty when telemetry was disabled or kept in memory).
        self.telemetry_artifacts: list = []

    # ------------------------------------------------------------------
    # Basic dimensions
    # ------------------------------------------------------------------

    @property
    def slots(self) -> int:
        """Number of simulated slots."""
        return self.collector.slots

    @property
    def slot_hours(self) -> float:
        """Slot duration in hours."""
        return self.slot_seconds / 3600.0

    @property
    def duration_hours(self) -> float:
        """Total simulated duration in hours."""
        return self.slots * self.slot_hours

    def total_guaranteed_w(self) -> float:
        """Facility-wide subscribed capacity."""
        return ordered_sum([r.guaranteed_w for r in self.racks.values()])

    # ------------------------------------------------------------------
    # Tenant money
    # ------------------------------------------------------------------

    def tenant_subscription_cost(self, tenant_id: str) -> float:
        """Guaranteed-capacity charge over the run, dollars."""
        info = self._tenant(tenant_id)
        return (
            info.guaranteed_w / 1000.0
        ) * self.guaranteed_rate_per_kw_hour * self.duration_hours

    def tenant_energy_cost(self, tenant_id: str) -> float:
        """Metered-energy charge over the run, dollars."""
        info = self._tenant(tenant_id)
        total_kwh = 0.0
        for rack_id in info.rack_ids:
            watts = self.collector.rack_power_array(rack_id)
            total_kwh += watts.sum() / 1000.0 * self.slot_hours
        return total_kwh * self.energy_tariff_per_kwh

    def tenant_spot_payment(self, tenant_id: str) -> float:
        """Spot-market payments over the run, dollars."""
        self._tenant(tenant_id)
        return float(self.collector.tenant_payment_array(tenant_id).sum())

    def tenant_total_cost(self, tenant_id: str) -> float:
        """Subscription + energy + spot payments, dollars (Fig. 12a)."""
        return (
            self.tenant_subscription_cost(tenant_id)
            + self.tenant_energy_cost(tenant_id)
            + self.tenant_spot_payment(tenant_id)
        )

    def tenant_cost_increase_vs(self, baseline: "SimulationResult", tenant_id: str) -> float:
        """Fractional total-cost increase over a baseline run."""
        base = baseline.tenant_total_cost(tenant_id)
        if base <= 0:
            raise SimulationError(f"baseline cost for {tenant_id} must be positive")
        return (self.tenant_total_cost(tenant_id) - base) / base

    # ------------------------------------------------------------------
    # Tenant performance
    # ------------------------------------------------------------------

    def rack_wanted_mask(self, rack_id: str) -> np.ndarray:
        """Slots in which this rack wanted spot capacity, this run."""
        return self.collector.rack_wanted_array(rack_id)

    def rack_performance_score(
        self, rack_id: str, mask: np.ndarray | None = None
    ) -> float:
        """Scalar performance over selected slots (higher is better).

        For latency racks this is the mean of inverse tail latency; for
        throughput racks the mean processing rate — the paper's "inverse
        of tail latency / job completion time" convention.
        """
        info = self.racks[rack_id]
        values = self.collector.rack_perf_array(rack_id)
        if mask is None:
            mask = np.ones(values.size, dtype=bool)
        if mask.shape != values.shape:
            raise SimulationError("mask length must match slot count")
        selected = values[mask]
        if selected.size == 0:
            return float("nan")
        if info.metric == "latency_ms":
            return float(np.mean(1.0 / np.maximum(selected, 1e-9)))
        return float(np.mean(selected))

    def tenant_performance_improvement_vs(
        self, baseline: "SimulationResult", tenant_id: str
    ) -> float:
        """Performance ratio vs a baseline over need-spot slots (Fig. 12b).

        Each run is averaged over *its own* need-spot slots, matching the
        paper's "averaged over all the time slots whenever tenants need
        spot capacity".  For interactive racks the masks coincide (the
        need is trace-driven); for batch racks they differ because spot
        capacity drains backlogs faster, and each run's mask is the set
        of slots where that run's tenant was actually constrained.
        """
        info = self._tenant(tenant_id)
        ratios = []
        for rack_id in info.rack_ids:
            my_mask = self.rack_wanted_mask(rack_id)
            base_mask = baseline.rack_wanted_mask(rack_id)
            if not base_mask.any():
                continue
            # A run that eliminated the need entirely scores over the
            # baseline's needy slots (it cannot be penalised for having
            # no constrained slots left).
            if not my_mask.any():
                my_mask = base_mask
            mine = self.rack_performance_score(rack_id, my_mask)
            theirs = baseline.rack_performance_score(rack_id, base_mask)
            if theirs > 0 and np.isfinite(mine) and np.isfinite(theirs):
                ratios.append(mine / theirs)
        if not ratios:
            return 1.0
        return float(np.mean(ratios))

    def tenant_slo_violation_rate(self, tenant_id: str) -> float:
        """Fraction of slots with an SLO violation (sprinting tenants)."""
        info = self._tenant(tenant_id)
        flags = [
            self.collector.rack_slo_violation_array(rack_id)
            for rack_id in info.rack_ids
        ]
        stacked = np.concatenate(flags)
        return float(stacked.mean()) if stacked.size else 0.0

    def tenant_spot_usage_fraction(self, tenant_id: str) -> tuple[float, float]:
        """(max, mean-over-wanted-slots) spot grant as a fraction of the
        tenant's subscription (Fig. 12c)."""
        info = self._tenant(tenant_id)
        max_frac = 0.0
        means = []
        for rack_id in info.rack_ids:
            granted = self.collector.rack_granted_array(rack_id)
            guaranteed = self.racks[rack_id].guaranteed_w
            if granted.size == 0 or guaranteed <= 0:
                continue
            frac = granted / guaranteed
            max_frac = max(max_frac, float(frac.max()))
            wanted = self.rack_wanted_mask(rack_id)
            if wanted.any():
                means.append(float(frac[wanted].mean()))
        return max_frac, float(np.mean(means)) if means else 0.0

    # ------------------------------------------------------------------
    # Operator / facility
    # ------------------------------------------------------------------

    def operator_profit_increase_vs(self, baseline: "SimulationResult") -> float:
        """Net-profit increase over a baseline run (the +9.7% headline)."""
        return self.ledger.profit_increase_vs(baseline.ledger)

    def total_spot_revenue(self) -> float:
        """Spot revenue over the run, dollars."""
        return float(self.collector.spot_revenue_array().sum())

    def average_spot_fraction(self) -> float:
        """Mean forecast spot capacity / total subscription.

        This is the paper's x-axis for Figs. 14-15 ("average amount of
        available spot capacity in percentage of guaranteed capacity"),
        measured from the per-slot UPS-level forecasts.
        """
        forecast = self.collector.forecast_ups_array()
        guaranteed = self.total_guaranteed_w()
        if forecast.size == 0 or guaranteed <= 0:
            return 0.0
        return float(forecast.mean() / guaranteed)

    def ups_power_series(self) -> np.ndarray:
        """Facility draw per slot, raw watts."""
        return self.collector.ups_power_array()

    def ups_utilization_series(self) -> np.ndarray:
        """Facility draw normalised to the designed UPS capacity (Fig. 13b).

        Raises:
            SimulationError: If the result carries no UPS capacity.
        """
        if self.ups_capacity_w <= 0:
            raise SimulationError(
                "result carries no UPS capacity; use ups_power_series()"
            )
        return self.collector.ups_power_array() / self.ups_capacity_w

    def price_series(self) -> np.ndarray:
        """Clearing price per slot (Fig. 10 bottom / Fig. 13a)."""
        return self.collector.price_array()

    def participating_tenant_ids(self) -> list[str]:
        """Tenants of sprinting/opportunistic kind, in insertion order."""
        return [
            t.tenant_id
            for t in self.tenants.values()
            if t.kind in ("sprinting", "opportunistic")
        ]

    def _tenant(self, tenant_id: str) -> TenantInfo:
        try:
            return self.tenants[tenant_id]
        except KeyError:
            raise SimulationError(f"unknown tenant {tenant_id!r}") from None
