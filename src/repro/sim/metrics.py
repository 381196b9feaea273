"""Per-slot metrics collection for simulation runs.

The collector is append-only during a run and finalises into the numpy
arrays that :class:`repro.sim.results.SimulationResult` exposes.  It
records exactly the quantities the paper's evaluation plots: market
price and grants (Fig. 10), per-rack performance (Fig. 11), payments and
energy (Fig. 12), PDU/UPS power (Fig. 13), and forecast spot capacity
(Figs. 14-15).

Per-rack, per-PDU and per-tenant series are stored columnar
(:class:`~repro.infrastructure.layout.SlotRows`): one row per slot,
aligned to the collector's id order.  Column accessors return fresh,
C-contiguous arrays, so ``.sum()`` on them adds in the same order as on
an array built from a per-id list.
"""

from __future__ import annotations

from collections.abc import Mapping

import numpy as np

from repro.errors import SimulationError
from repro.infrastructure.layout import SlotRows
from repro.power.elementwise import ordered_sum

__all__ = ["MetricsCollector"]


class MetricsCollector:
    """Accumulates one simulation run's telemetry."""

    def __init__(
        self,
        rack_ids: list[str],
        pdu_ids: list[str],
        tenant_ids: list[str],
    ) -> None:
        if not rack_ids or not pdu_ids or not tenant_ids:
            raise SimulationError("collector needs racks, PDUs and tenants")
        self.rack_ids = list(rack_ids)
        self.pdu_ids = list(pdu_ids)
        self.tenant_ids = list(tenant_ids)
        self._price: list[float] = []
        self._spot_granted: list[float] = []
        self._spot_revenue: list[float] = []
        self._forecast_ups: list[float] = []
        self._forecast_pdu_total: list[float] = []
        self._ups_power: list[float] = []
        self._rack_column = {r: i for i, r in enumerate(self.rack_ids)}
        self._pdu_column = {p: j for j, p in enumerate(self.pdu_ids)}
        self._tenant_column = {t: k for k, t in enumerate(self.tenant_ids)}
        self._pdu_power = SlotRows(len(self.pdu_ids))
        self._pdu_price = SlotRows(len(self.pdu_ids))
        self._rack_power = SlotRows(len(self.rack_ids))
        self._rack_perf = SlotRows(len(self.rack_ids))
        self._rack_wanted = SlotRows(len(self.rack_ids), dtype=bool)
        self._rack_granted = SlotRows(len(self.rack_ids))
        self._rack_slo_violation = SlotRows(len(self.rack_ids), dtype=bool)
        self._tenant_payment = SlotRows(len(self.tenant_ids))
        self._slots = 0

    @property
    def slots(self) -> int:
        """Slots recorded so far."""
        return self._slots

    def record_slot(
        self,
        price: float,
        grants_w: Mapping[str, float],
        spot_revenue: float,
        forecast_ups_w: float,
        forecast_pdu_total_w: float,
        ups_power_w: float,
        pdu_power_w: Mapping[str, float],
        rack_power_w: np.ndarray,
        rack_value: np.ndarray,
        rack_slo_violated: np.ndarray,
        payments: Mapping[str, float],
        rack_wanted: np.ndarray | None = None,
        pdu_prices: Mapping[str, float] | None = None,
    ) -> None:
        """Record everything observable about one completed slot.

        ``rack_power_w``, ``rack_value`` and ``rack_slo_violated`` are
        rows in :attr:`rack_ids` order — the draw, the performance metric
        and the SLO flag of every rack, as
        :meth:`repro.tenants.fleet.RackFleet.execute` returns them.

        ``rack_wanted`` is the participation signal, in the same order —
        racks whose tenants requested spot capacity this slot,
        *independent of what they were granted* (a rack that received
        everything it asked for still "wanted" spot capacity; deriving
        the flag from the final budget would bias performance averages
        toward under-granted slots).  ``None`` means no rack did.
        """
        width = len(self.rack_ids)
        rows = (rack_power_w, rack_value, rack_slo_violated)
        if rack_wanted is not None:
            rows += (rack_wanted,)
        for row in rows:
            if np.shape(row) != (width,):
                raise SimulationError(
                    f"rack row has shape {np.shape(row)}, expected ({width},)"
                )
        self._price.append(price)
        # A slot without grants records int 0, as builtin sum() did.
        self._spot_granted.append(
            ordered_sum(list(grants_w.values())) if grants_w else 0
        )
        self._spot_revenue.append(spot_revenue)
        self._forecast_ups.append(forecast_ups_w)
        self._forecast_pdu_total.append(forecast_pdu_total_w)
        self._ups_power.append(ups_power_w)
        pdu_prices = pdu_prices or {}
        self._pdu_power.append([pdu_power_w.get(p, 0.0) for p in self.pdu_ids])
        # Under locational pricing each PDU has its own price; under a
        # facility-wide price every PDU shares the headline price.
        self._pdu_price.append([pdu_prices.get(p, price) for p in self.pdu_ids])
        self._rack_power.append(rack_power_w)
        self._rack_perf.append(rack_value)
        self._rack_slo_violation.append(rack_slo_violated)
        self._rack_wanted.append(False if rack_wanted is None else rack_wanted)
        self._rack_granted.append(
            self._scatter(self._rack_column, grants_w.items(), float)
        )
        self._tenant_payment.append(
            self._scatter(self._tenant_column, payments.items(), float)
        )
        self._slots += 1

    @staticmethod
    def _scatter(columns: Mapping[str, int], items, dtype) -> np.ndarray:
        """A row that is zero except at the ``(id, value)`` pairs given.

        Ids outside ``columns`` are ignored.
        """
        row = np.zeros(len(columns), dtype=dtype)
        for key, value in items:
            column = columns.get(key)
            if column is not None:
                row[column] = value
        return row

    # ------------------------------------------------------------------
    # Finalised arrays
    # ------------------------------------------------------------------

    def price_array(self) -> np.ndarray:
        """Clearing price per slot, $/kW/h."""
        return np.asarray(self._price)

    def spot_granted_array(self) -> np.ndarray:
        """Total spot capacity granted per slot, watts."""
        return np.asarray(self._spot_granted)

    def spot_revenue_array(self) -> np.ndarray:
        """Spot revenue per slot, dollars."""
        return np.asarray(self._spot_revenue)

    def forecast_ups_array(self) -> np.ndarray:
        """Forecast UPS spot capacity per slot, watts."""
        return np.asarray(self._forecast_ups)

    def forecast_pdu_total_array(self) -> np.ndarray:
        """Summed forecast PDU spot capacity per slot, watts."""
        return np.asarray(self._forecast_pdu_total)

    def ups_power_array(self) -> np.ndarray:
        """Facility draw per slot, watts."""
        return np.asarray(self._ups_power)

    def pdu_power_array(self, pdu_id: str) -> np.ndarray:
        """One PDU's draw per slot, watts."""
        return self._pdu_power.column(self._pdu_column[pdu_id])

    def pdu_price_array(self, pdu_id: str) -> np.ndarray:
        """One PDU's clearing price per slot, $/kW/h."""
        return self._pdu_price.column(self._pdu_column[pdu_id])

    def rack_power_array(self, rack_id: str) -> np.ndarray:
        """One rack's draw per slot, watts."""
        return self._rack_power.column(self._rack_column[rack_id])

    def rack_perf_array(self, rack_id: str) -> np.ndarray:
        """One rack's performance metric per slot."""
        return self._rack_perf.column(self._rack_column[rack_id])

    def rack_wanted_array(self, rack_id: str) -> np.ndarray:
        """Whether the rack wanted spot capacity, per slot."""
        return self._rack_wanted.column(self._rack_column[rack_id])

    def rack_granted_array(self, rack_id: str) -> np.ndarray:
        """Spot watts granted to the rack per slot."""
        return self._rack_granted.column(self._rack_column[rack_id])

    def rack_slo_violation_array(self, rack_id: str) -> np.ndarray:
        """SLO-violation flags per slot (interactive racks only)."""
        return self._rack_slo_violation.column(self._rack_column[rack_id])

    def tenant_payment_array(self, tenant_id: str) -> np.ndarray:
        """Spot payments per slot for one tenant, dollars."""
        return self._tenant_payment.column(self._tenant_column[tenant_id])
