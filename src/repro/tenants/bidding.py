"""Tenant bidding strategies (paper Sections III-B3, V-C, V-D2).

A strategy turns a :class:`~repro.tenants.portfolio.RackBidContext` into
a demand function (or ``None`` to sit the slot out).  The implemented
strategies span the paper's comparisons:

* :class:`LinearElasticStrategy` — the SpotDC default: fit the paper's
  4-parameter piece-wise linear bid to the rack's true demand curve by
  evaluating the optimal demand at the tenant's two price anchors.
* :class:`SimpleNeededPowerStrategy` — the paper's "simple strategy":
  bid exactly the needed extra power with ``D_max = D_min`` and the
  amortised guaranteed-capacity rate as the maximum price.
* :class:`StepStrategy` — Amazon-style all-or-nothing (the StepBid
  comparison of Fig. 14).
* :class:`FullCurveStrategy` — submit the complete demand curve (the
  FullBid upper bound of Fig. 14).
* :class:`PricePredictionStrategy` — strategic re-bidding given a price
  forecast (Fig. 16): demand exactly the optimum for the predicted
  price.
"""

from __future__ import annotations

import abc
from collections.abc import Sequence

import numpy as np

from repro.core.demand import DemandFunction, FullBid, LinearBid, StepBid
from repro.economics.valuation import optimal_demands_w
from repro.errors import BidError
from repro.power.elementwise import py_max, py_min
from repro.tenants.portfolio import RackBidContext

__all__ = [
    "BiddingStrategy",
    "LinearElasticStrategy",
    "SimpleNeededPowerStrategy",
    "StepStrategy",
    "FullCurveStrategy",
    "PricePredictionStrategy",
]

#: Grants below this are not worth the bidding overhead.
_MIN_USEFUL_W = 0.5


class BiddingStrategy(abc.ABC):
    """Maps a rack's slot context to a demand function (or no bid)."""

    @abc.abstractmethod
    def make_rack_bid(self, ctx: RackBidContext) -> DemandFunction | None:
        """Build this slot's bid for one rack; ``None`` means no bid."""

    @staticmethod
    def _cap(ctx: RackBidContext, quantity_w: float) -> float:
        """Clip a quantity to the rack's physically grantable headroom."""
        return max(0.0, min(quantity_w, ctx.rack.max_spot_w))


class LinearElasticStrategy(BiddingStrategy):
    """SpotDC's default: a two-point secant fit of the true demand curve.

    ``D_max`` is the optimal demand at the tenant's low price anchor and
    ``D_min`` the optimal demand at its maximum acceptable price; joined
    linearly they approximate the concave true curve from below on the
    high-price side — conservative for the tenant.
    """

    def make_rack_bid(self, ctx: RackBidContext) -> DemandFunction | None:
        (demand,) = self.make_rack_bids([ctx])
        return demand

    @staticmethod
    def make_rack_bids(contexts: Sequence[RackBidContext]) -> list[DemandFunction | None]:
        """:meth:`make_rack_bid` for many racks in one array pass.

        The strategy is stateless, so the racks may belong to any
        tenants; each demand is the one its context alone would get.
        """
        bad = next((c for c in contexts if c.q_high < c.q_low), None)
        if bad is not None:
            raise BidError(f"q_high {bad.q_high} below q_low {bad.q_low}")
        cap = np.array([c.rack.max_spot_w for c in contexts], dtype=float)
        prices = [[c.q_low for c in contexts], [c.q_high for c in contexts]]
        optimal = optimal_demands_w([c.value_curve for c in contexts], prices)
        d_max, d_min = py_max(0.0, py_min(optimal, cap))
        d_min = py_min(d_min, d_max)
        return [
            None if hi < _MIN_USEFUL_W else LinearBid(hi, ctx.q_low, lo, ctx.q_high)
            for ctx, hi, lo in zip(contexts, d_max.tolist(), d_min.tolist())
        ]


class SimpleNeededPowerStrategy(BiddingStrategy):
    """The paper's no-profiling strategy: bid the needed power, flat.

    "Bid the needed extra power as spot capacity demand with
    ``D_max = D_min``, and set the amortized guaranteed capacity rate as
    maximum price" (Section III-B3).
    """

    def make_rack_bid(self, ctx: RackBidContext) -> DemandFunction | None:
        needed = self._cap(ctx, ctx.needed_w)
        if needed < _MIN_USEFUL_W:
            return None
        return LinearBid(needed, ctx.q_low, needed, ctx.q_high)


class StepStrategy(BiddingStrategy):
    """Amazon-style all-or-nothing: full quantity up to the price cap.

    The quantity is the same ``D_max`` the linear strategy would bid, so
    Fig. 14's comparison isolates the *shape* of the demand function.
    """

    def make_rack_bid(self, ctx: RackBidContext) -> DemandFunction | None:
        d_max = self._cap(ctx, ctx.value_curve.optimal_demand_w(ctx.q_low))
        if d_max < _MIN_USEFUL_W:
            return None
        return StepBid(d_max, ctx.q_high)


class FullCurveStrategy(BiddingStrategy):
    """Submit the rack's complete (true) demand curve.

    Rarely practical (Section III-B1) but the natural upper bound for
    the operator's profit under uniform pricing (Fig. 14's FullBid).
    """

    def __init__(self, grid_points: int = 120) -> None:
        if grid_points < 2:
            raise BidError("grid_points must be >= 2")
        self.grid_points = grid_points

    def make_rack_bid(self, ctx: RackBidContext) -> DemandFunction | None:
        max_d = self._cap(ctx, ctx.value_curve.max_spot_w)
        if max_d < _MIN_USEFUL_W:
            return None
        bid = FullBid.from_value_curve(
            ctx.value_curve.gain_per_hour,
            max_d,
            self.grid_points,
            price_cap=ctx.q_high,
        )
        if bid.demand_at(ctx.q_low) < _MIN_USEFUL_W:
            return None
        return bid


class PricePredictionStrategy(BiddingStrategy):
    """Strategic bidding with a market-price forecast (Fig. 16).

    With a forecast ``q_hat``, the tenant demands exactly its optimal
    quantity at that price, flat up to its acceptable maximum (raised to
    cover the forecast): it captures its optimum instead of the linear
    approximation's value.  Without a forecast it falls back to the
    wrapped default strategy.

    Args:
        fallback: Strategy used when no forecast is available yet.
    """

    def __init__(self, fallback: BiddingStrategy | None = None) -> None:
        self.fallback = fallback or LinearElasticStrategy()

    def make_rack_bid(self, ctx: RackBidContext) -> DemandFunction | None:
        q_hat = ctx.predicted_price
        if q_hat is None:
            return self.fallback.make_rack_bid(ctx)
        d_opt = self._cap(ctx, ctx.value_curve.optimal_demand_w(q_hat))
        if d_opt < _MIN_USEFUL_W:
            return self.fallback.make_rack_bid(ctx)
        q_cap = max(ctx.q_high, q_hat * 1.05)
        return LinearBid(d_opt, min(ctx.q_low, q_hat), d_opt, q_cap)
