"""Risk-aware capacity release.

The paper's operator releases its point forecast verbatim, with all
conservatism folded into the scalar under-prediction factor (Fig. 17).
:class:`RiskAwareReleasePolicy` replaces that scalar haircut with an
explicit risk choice: given a signal's banded forecast, release the
headroom at a chosen *overcommit quantile* ``q`` — the probability that
the released capacity exceeds the headroom that actually materialises.
``q = 0.05`` releases the conservative edge of the band, ``q = 0.5``
the median, ``q = 0.95`` the optimistic edge; released capacity is
monotone non-decreasing in ``q`` (a property test pins this).

Whatever the band says, a release is clamped to the usable fraction of
physical capacity (``1 - safety_margin_fraction``) at each level — no
signal can talk the operator into selling capacity the breakers cannot
carry.
"""

from __future__ import annotations

import dataclasses

from repro.errors import ConfigurationError
from repro.forecast.capacity import SpotCapacityForecast

__all__ = ["RiskAwareReleasePolicy"]


@dataclasses.dataclass
class RiskAwareReleasePolicy:
    """Chooses how much of a banded forecast to release to the market.

    Args:
        risk_quantile: Overcommit probability to release at, in (0, 1],
            or ``None`` (default) to release the signal's point forecast
            unchanged — the paper's behaviour, kept allocation-free on
            the default path so same-seed traces stay byte-identical.
    """

    risk_quantile: "float | None" = None

    def __post_init__(self) -> None:
        if self.risk_quantile is not None and not 0 < self.risk_quantile <= 1:
            raise ConfigurationError(
                f"risk_quantile must be in (0, 1], got {self.risk_quantile}"
            )

    def release(self, banded, topology) -> SpotCapacityForecast:
        """The forecast actually handed to the market for one slot."""
        if self.risk_quantile is None:
            return banded.point
        forecast = banded.at_quantile(self.risk_quantile)
        usable = banded.usable_fraction
        pdu_spot = {
            pdu_id: min(
                forecast.pdu_spot_w.get(pdu_id, 0.0), pdu.capacity_w * usable
            )
            for pdu_id, pdu in topology.pdus.items()
        }
        return SpotCapacityForecast(
            pdu_spot_w=pdu_spot,
            ups_spot_w=min(forecast.ups_spot_w, topology.ups.capacity_w * usable),
        )
