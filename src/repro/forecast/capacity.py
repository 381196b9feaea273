"""The operator's spot-capacity forecast for one slot (paper Section III-C).

A leaf module: the market, the baselines, the shock absorber and the
release policy all consume a :class:`SpotCapacityForecast`, and none of
them may import the signals that produce one.
"""

from __future__ import annotations

import dataclasses

from repro.power.elementwise import ordered_sum

__all__ = ["SpotCapacityForecast"]


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
        """Sum of per-PDU headrooms, added left to right in PDU order."""
        return ordered_sum(list(self.pdu_spot_w.values()))
