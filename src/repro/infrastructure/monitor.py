"""Rack/PDU/UPS power monitoring with bounded history.

The operator "continuously monitors power usage at rack levels" (paper
Algorithm 1, line 1).  :class:`PowerMonitor` records one sample per rack
per slot and derives the PDU- and UPS-level series the spot-capacity
predictor and the evaluation figures need — notably the slot-to-slot
PDU power-variation statistics of Fig. 7(a).

Under meter-fault injection (:mod:`repro.resilience.faults`) the monitor
keeps two views: the *metered* series — what the operator's billing
meters reported, which is what the spot-capacity predictor and the
energy accounting consume — and the *true* series, the physical draws.
The true series models the hardened protection path (breaker-level
telemetry) that the degradation controller projects excursions from;
it is only materialised when a metered sample ever diverges, so
fault-free simulations pay nothing for it.

Storage is columnar (:mod:`repro.infrastructure.layout`): one float64
row per slot, aligned to the topology's rack order, for the metered
draws, the PDU totals and the UPS total (and, once materialised, the
true draws).  The per-slot readers — the forecast signals, the
degradation controller — take whole rows with :meth:`recent_max_w` and
:meth:`recent_rows`; the per-rack accessors are thin reads of the same
rows.
"""

from __future__ import annotations

from collections.abc import Mapping

import numpy as np

from repro.errors import CapacityError, SimulationError
from repro.infrastructure.layout import SlotRows
from repro.infrastructure.topology import PowerTopology
from repro.power.elementwise import ordered_sum

__all__ = ["PowerMonitor"]


def _recent_max(rows: np.ndarray) -> np.ndarray:
    """Per-column ``max()`` over rows, oldest first, with Python's tie rule."""
    best = rows[0]
    for row in rows[1:]:
        best = np.where(row > best, row, best)
    return best


class PowerMonitor:
    """Per-slot power telemetry for a facility.

    Args:
        topology: The facility to monitor; its rack order at construction
            is the column order of every rack row.
        history_slots: Number of most-recent slots retained per series.
            Year-long simulations keep memory bounded by default; pass a
            larger value when a full series is needed for CDF figures.
    """

    def __init__(self, topology: PowerTopology, history_slots: int = 100_000) -> None:
        if history_slots <= 0:
            raise SimulationError("history_slots must be positive")
        self._layout = topology.layout
        self._rack_rows = SlotRows(len(self._layout.rack_ids), history_slots)
        self._pdu_rows = SlotRows(len(self._layout.pdu_ids), history_slots)
        self._ups_rows = SlotRows(1, history_slots)
        self._pdu_column = {pdu_id: j for j, pdu_id in enumerate(self._layout.pdu_ids)}
        # True (physical) rack rows; materialised lazily on the first
        # slot whose metered samples diverge from the true draws.
        self._true_rack_rows: SlotRows | None = None
        self._slots_recorded = 0

    @property
    def rack_ids(self) -> tuple[str, ...]:
        """Column order of every rack row."""
        return self._layout.rack_ids

    @property
    def slots_recorded(self) -> int:
        """Total slots sampled since construction (not capped by history)."""
        return self._slots_recorded

    def record_slot(
        self,
        rack_power_w: Mapping[str, float] | np.ndarray,
        metered_power_w: Mapping[str, float] | np.ndarray | None = None,
        total_order: np.ndarray | None = None,
    ) -> None:
        """Record one slot of rack power samples.

        The whole sample is validated before anything is stored: a
        rejected sample leaves every series and every ``Rack.power_w``
        as it was.

        Args:
            rack_power_w: True physical power draw per rack: a mapping
                of rack id to watts, or a float row in :attr:`rack_ids`
                order.  Every rack in the topology must be present —
                partial telemetry would silently corrupt PDU aggregates.
            metered_power_w: Operator-visible meter readings, in the same
                form (defaults to the true draws).  Under meter-fault
                injection these diverge: the metered values feed the
                retained series (and hence the spot-capacity predictor
                and energy accounting), while the true draws stay on the
                topology and in the true-series shadow.
            total_order: For rows, the rack positions in the order the
                facility total adds them (default: row order).  A
                mapping's total adds in the mapping's own order.
        """
        layout = self._layout
        if isinstance(rack_power_w, Mapping):
            true_values, true_row, metered_row, ups_total = self._mapping_rows(
                rack_power_w, metered_power_w
            )
        else:
            true_row = np.asarray(rack_power_w, dtype=float)
            if true_row.shape != (len(layout.rack_ids),):
                raise SimulationError(
                    f"power row has shape {true_row.shape}, expected "
                    f"({len(layout.rack_ids)},)"
                )
            if (true_row < 0).any():
                first = int(np.flatnonzero(true_row < 0)[0])
                raise CapacityError(
                    f"rack {layout.rack_ids[first]}: negative power "
                    f"{true_row[first]} W"
                )
            metered_row = (
                true_row
                if metered_power_w is None
                else np.asarray(metered_power_w, dtype=float)
            )
            true_values = true_row.tolist()
            ups_total = ordered_sum(
                metered_row if total_order is None else metered_row[total_order]
            )

        if self._true_rack_rows is None and metered_row is not true_row:
            if (metered_row != true_row).any():
                # First divergence: shadow the (identical so far) history.
                self._true_rack_rows = self._rack_rows.copy()
        layout.record_powers(true_values)
        self._rack_rows.append(metered_row)
        if self._true_rack_rows is not None:
            self._true_rack_rows.append(true_row)
        self._pdu_rows.append(layout.pdu_totals(metered_row))
        self._ups_rows.append(ups_total)
        self._slots_recorded += 1

    def _mapping_rows(self, rack_power_w, metered_power_w):
        """Validated rows of a mapping sample, and its facility total."""
        layout = self._layout
        index = layout.index
        if rack_power_w.keys() != index.keys():
            missing = set(layout.rack_ids) - set(rack_power_w)
            if missing:
                raise SimulationError(
                    f"missing power samples for racks: {sorted(missing)[:5]}"
                )
            unknown = next(rack_id for rack_id in rack_power_w if rack_id not in index)
            raise SimulationError(f"sample for unknown rack {unknown!r}")
        metered = rack_power_w if metered_power_w is None else metered_power_w
        if metered is not rack_power_w and not index.keys() <= metered.keys():
            missing_meters = set(layout.rack_ids) - set(metered)
            raise SimulationError(
                f"missing meter readings for racks: {sorted(missing_meters)[:5]}"
            )
        true_values = [rack_power_w[rack_id] for rack_id in layout.rack_ids]
        true_row = np.array(true_values, dtype=float)
        if (true_row < 0).any():
            rack_id, watts = next(
                (rid, w) for rid, w in rack_power_w.items() if w < 0
            )
            raise CapacityError(f"rack {rack_id}: negative power {watts} W")
        if metered is rack_power_w:
            metered_row = true_row
        else:
            metered_row = np.array(
                [metered[rack_id] for rack_id in layout.rack_ids], dtype=float
            )
        ups_total = ordered_sum(np.fromiter(metered.values(), dtype=float))
        return true_values, true_row, metered_row, ups_total

    # ------------------------------------------------------------------
    # Row readers
    # ------------------------------------------------------------------

    def recent_max_w(self, window: int = 5, true: bool = False) -> np.ndarray:
        """Every rack's maximum over its last ``window`` samples (0 before any).

        Row-wise :meth:`rack_recent_max_w` (or, with ``true``,
        :meth:`rack_recent_true_max_w`) for all racks at once, in
        :attr:`rack_ids` order; reads only the last ``window`` rows.
        """
        if window <= 0:
            raise SimulationError("window must be positive")
        rows = self._rows(true)
        if not len(rows):
            return np.zeros(len(self._layout.rack_ids))
        return _recent_max(rows.tail(window))

    def recent_rows(self, window: int, level: str = "rack") -> np.ndarray:
        """The last ``window`` rows (fewer early on) as a fresh array.

        ``level`` is ``"rack"`` (metered, :attr:`rack_ids` order),
        ``"pdu"`` (topology PDU order) or ``"ups"`` (one column).
        """
        if window <= 0:
            raise SimulationError("window must be positive")
        rows = {"rack": self._rack_rows, "pdu": self._pdu_rows, "ups": self._ups_rows}
        try:
            return rows[level].tail(window)
        except KeyError:
            raise SimulationError(f"unknown telemetry level {level!r}") from None

    def latest_pdu_powers(self) -> dict[str, float]:
        """Most recent aggregate draw per PDU, topology order (0 before any)."""
        if not len(self._pdu_rows):
            return dict.fromkeys(self._layout.pdu_ids, 0.0)
        return dict(zip(self._layout.pdu_ids, self._pdu_rows.last().tolist()))

    def _rows(self, true: bool) -> SlotRows:
        if true and self._true_rack_rows is not None:
            return self._true_rack_rows
        return self._rack_rows

    # ------------------------------------------------------------------
    # Series accessors
    # ------------------------------------------------------------------

    def rack_series(self, rack_id: str) -> np.ndarray:
        """Retained power series for one rack, oldest first."""
        return self._rack_rows.column(self._layout.index[rack_id])

    def pdu_series(self, pdu_id: str) -> np.ndarray:
        """Retained aggregate power series for one PDU, oldest first."""
        return self._pdu_rows.column(self._pdu_column[pdu_id])

    def ups_series(self) -> np.ndarray:
        """Retained facility-level power series, oldest first."""
        return self._ups_rows.column(0)

    def rack_recent_max_w(self, rack_id: str, window: int = 5) -> float:
        """Maximum of a rack's last ``window`` samples (0 before any).

        Used by the conservative spot-capacity predictor: a rack that
        recently drew close to its budget may do so again next slot, so
        its recent peak is a safer reference than its instantaneous draw.
        """
        return self._rack_max(self._rack_rows, rack_id, window)

    def rack_recent_true_max_w(self, rack_id: str, window: int = 5) -> float:
        """Maximum of a rack's last ``window`` *true* samples.

        The hardened-path counterpart of :meth:`rack_recent_max_w`: the
        degradation controller projects excursions from physical draws,
        not from (possibly corrupted) meter readings.  Identical to
        :meth:`rack_recent_max_w` until a metered sample diverges.
        """
        return self._rack_max(self._rows(True), rack_id, window)

    def _rack_max(self, rows: SlotRows, rack_id: str, window: int) -> float:
        if window <= 0:
            raise SimulationError("window must be positive")
        column = self._layout.index[rack_id]
        if not len(rows):
            return 0.0
        return max(rows.column(column, window).tolist())

    def latest_pdu_power_w(self, pdu_id: str) -> float:
        """Most recent aggregate draw at a PDU (0 before any sample)."""
        column = self._pdu_column[pdu_id]
        return float(self._pdu_rows.last()[column]) if len(self._pdu_rows) else 0.0

    def latest_ups_power_w(self) -> float:
        """Most recent facility draw (0 before any sample)."""
        return float(self._ups_rows.last()[0]) if len(self._ups_rows) else 0.0

    # ------------------------------------------------------------------
    # Derived statistics (Fig. 7a)
    # ------------------------------------------------------------------

    def pdu_slot_variation(self, pdu_id: str) -> np.ndarray:
        """Relative slot-to-slot PDU power changes ``|ΔP| / P``.

        The paper observes PDU power changes of less than ±2.5% within one
        minute for 99% of slots (Section III-C); this series lets callers
        verify the generated traces reproduce that slow variation.
        """
        series = self.pdu_series(pdu_id)
        if series.size < 2:
            return np.empty(0)
        prev = series[:-1]
        delta = np.abs(np.diff(series))
        with np.errstate(divide="ignore", invalid="ignore"):
            rel = np.where(prev > 0, delta / prev, 0.0)
        return rel

    def pdu_variation_quantile(self, pdu_id: str, quantile: float = 0.99) -> float:
        """A quantile of the relative slot-to-slot PDU variation."""
        rel = self.pdu_slot_variation(pdu_id)
        if rel.size == 0:
            return 0.0
        return float(np.quantile(rel, quantile))
