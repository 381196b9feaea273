"""Spot-capacity prediction (paper Section III-C).

The operator predicts the spot capacity available for the next slot by
subtracting a *reference* power from each level's physical capacity:

* for racks that are **not** requesting (or currently using) spot
  capacity, the reference is their current metered draw — statistical
  multiplexing makes PDU-level power change only marginally over a few
  minutes (Fig. 7a), so the current draw is a good one-slot-ahead
  predictor;
* for racks that request spot capacity for the next slot (or hold a
  grant now), the reference is their full **guaranteed capacity** — the
  conservative choice, since those racks may legitimately ramp to their
  whole subscription independent of the spot market.

A configurable *under-prediction factor* scales the result down
(Fig. 17's sensitivity study): 15% under-prediction multiplies the
predicted headroom by 0.85.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Iterable, Mapping

import numpy as np

from repro.errors import ConfigurationError
from repro.infrastructure.topology import PowerTopology
from repro.power.elementwise import ordered_sum, py_max, py_min

__all__ = ["SpotCapacityForecast", "SpotCapacityPredictor"]


@dataclasses.dataclass(frozen=True)
class SpotCapacityForecast:
    """Predicted spot capacity for one upcoming slot.

    Attributes:
        pdu_spot_w: Predicted headroom per PDU (``P_m(t)``, Eq. 3).
        ups_spot_w: Predicted facility headroom (``P_o(t)``, Eq. 4).
    """

    pdu_spot_w: dict[str, float]
    ups_spot_w: float

    @property
    def total_pdu_spot_w(self) -> float:
        """Sum of per-PDU headrooms (bounded below by no constraint)."""
        return sum(self.pdu_spot_w.values())


@dataclasses.dataclass
class SpotCapacityPredictor:
    """Predicts next-slot spot capacity from current rack telemetry.

    Args:
        under_prediction_factor: Multiplier in (0, 1] applied to every
            predicted headroom; 1.0 (default) is the paper's base case,
            0.85 reproduces "15% under-prediction".
        safety_margin_fraction: Fraction of each level's physical
            capacity held back from the market.  Covers the residual
            slot-to-slot drift of non-requesting racks (the paper's
            ±2.5%/min, Fig. 7a) so that spot capacity introduces no
            additional power emergencies (Section V-B2); the circuit-
            breaker tolerance then only ever absorbs drift beyond that.
    """

    under_prediction_factor: float = 1.0
    safety_margin_fraction: float = 0.025

    def __post_init__(self) -> None:
        if not 0 < self.under_prediction_factor <= 1:
            raise ConfigurationError(
                "under_prediction_factor must be in (0, 1], got "
                f"{self.under_prediction_factor}"
            )
        if not 0 <= self.safety_margin_fraction < 1:
            raise ConfigurationError(
                "safety_margin_fraction must be in [0, 1), got "
                f"{self.safety_margin_fraction}"
            )

    def forecast(
        self,
        topology: PowerTopology,
        requesting_rack_ids: Iterable[str],
        reference_power_w: Mapping[str, float] | np.ndarray | None = None,
    ) -> SpotCapacityForecast:
        """Predict per-PDU and UPS spot capacity for the next slot.

        The arithmetic is columnar over ``topology.layout`` but adds
        exactly as the per-rack rule reads: each PDU's reference sums
        its racks in ``pdu.rack_ids`` order, the facility's sums the
        PDUs in topology order.

        Args:
            topology: Facility with current rack power samples recorded.
            requesting_rack_ids: Racks bidding for (or currently holding)
                spot capacity; their reference power is their guaranteed
                capacity rather than their current draw.
            reference_power_w: Optional per-rack reference overriding the
                instantaneous draw of non-requesting racks — e.g. a
                rolling recent maximum
                (:meth:`repro.infrastructure.monitor.PowerMonitor.recent_max_w`)
                that covers racks whose draw can ramp within one slot.
                Either a mapping (racks it omits fall back to their
                draw) or an array in ``topology.racks`` order.  Entries
                are clamped to the rack's guaranteed capacity (a
                non-requesting rack never exceeds its budget).
        """
        layout = topology.layout
        requesting = set(requesting_rack_ids)
        unknown = [rack_id for rack_id in requesting if rack_id not in layout.index]
        if unknown:
            raise ConfigurationError(
                f"requesting racks not in topology: {sorted(unknown)[:5]}"
            )
        if reference_power_w is None:
            reference = layout.power_row()
        elif isinstance(reference_power_w, np.ndarray):
            reference = reference_power_w
            if reference.shape != layout.guaranteed_w.shape:
                raise ConfigurationError(
                    f"reference row has shape {reference.shape}, topology has "
                    f"{len(layout.racks)} racks"
                )
        else:
            reference = np.array(
                [
                    reference_power_w.get(rack.rack_id, rack.power_w)
                    for rack in layout.racks
                ],
                dtype=float,
            )
        guaranteed = layout.guaranteed_w
        held = layout.mask(requesting) | (layout.spot_row() > 0)
        rack_reference = np.where(held, guaranteed, py_min(reference, guaranteed))
        pdu_reference = layout.pdu_totals(rack_reference)
        total_reference = ordered_sum(pdu_reference)
        usable = 1.0 - self.safety_margin_fraction
        headroom = py_max(0.0, layout.pdu_capacity_row() * usable - pdu_reference)
        pdu_spot = headroom * self.under_prediction_factor
        ups_headroom = max(0.0, topology.ups.capacity_w * usable - total_reference)
        return SpotCapacityForecast(
            pdu_spot_w=dict(zip(layout.pdu_ids, pdu_spot.tolist())),
            ups_spot_w=ups_headroom * self.under_prediction_factor,
        )
