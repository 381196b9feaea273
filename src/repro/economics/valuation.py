"""Spot-capacity value curves: performance gain in dollars (Fig. 9).

A tenant values spot capacity by the reduction in its performance cost:
``V(d) = c(no spot) - c(with d watts of spot)`` (paper Section IV-C).
This module builds those value curves from the power/performance models
and the cost models, producing the concave, saturating dollar-per-hour
curves of Fig. 9 — the raw material for both the bidding strategies and
the FullBid/MaxPerf comparisons.  Each curve's grid is tabulated in one
pass through the models' array forms, bit-identical to evaluating the
scalar models point by point.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.economics.cost import (
    OpportunisticCostModel,
    SprintingCostModel,
    sprinting_cost_rate,
)
from repro.errors import ConfigurationError
from repro.power.latency import LatencyColumns, LatencyModel
from repro.power.throughput import ThroughputColumns, ThroughputModel

__all__ = [
    "SpotValueCurve",
    "optimal_demands_w",
    "sprinting_value_curve",
    "sprinting_value_curves",
    "opportunistic_value_curve",
    "opportunistic_value_curves",
]


def _concavify(grid: np.ndarray, raw: np.ndarray) -> np.ndarray:
    """Non-negative, non-decreasing, concave gains along axis 0."""
    monotone = np.maximum.accumulate(np.maximum(raw, 0.0), axis=0)
    steps = np.diff(grid, axis=0)
    increments = np.diff(monotone, axis=0) / steps
    concave_inc = np.minimum.accumulate(increments, axis=0)
    return np.concatenate(
        [monotone[:1], monotone[0] + np.cumsum(concave_inc * steps, axis=0)]
    )


@dataclasses.dataclass(frozen=True)
class SpotValueCurve:
    """A tenant's dollar-per-hour gain from spot capacity on one rack.

    Attributes:
        base_power_w: The rack's budget without spot capacity (its
            guaranteed capacity, or its current capped operating point).
        max_spot_w: Largest meaningful spot allocation (rack headroom or
            the point where the workload saturates).
        _grid_w: Tabulation grid of spot quantities (0 .. max_spot_w).
        _gains: Gain in $/h at each grid point; non-decreasing and
            concave by construction.
    """

    base_power_w: float
    max_spot_w: float
    _grid_w: np.ndarray
    _gains: np.ndarray

    def gain_per_hour(self, spot_w: float) -> float:
        """Dollar-per-hour gain from ``spot_w`` watts of spot capacity."""
        if spot_w <= 0:
            return 0.0
        return float(np.interp(spot_w, self._grid_w, self._gains))

    def marginal_gain_per_hour(self, spot_w: float, delta_w: float = 1.0) -> float:
        """Finite-difference marginal gain in $/h per watt at ``spot_w``."""
        if delta_w <= 0:
            raise ConfigurationError("delta_w must be positive")
        lo = self.gain_per_hour(spot_w)
        hi = self.gain_per_hour(spot_w + delta_w)
        return (hi - lo) / delta_w

    def optimal_demand_w(self, price_per_kw_hour: float) -> float:
        """The rational demand at a price: largest quantity whose marginal
        value still covers the price (the "Reference" curve of Fig. 3a).
        """
        return float(optimal_demands_w([self], [price_per_kw_hour])[0])

    @classmethod
    def from_gain_samples(
        cls, base_power_w: float, grid_w: np.ndarray, gains: np.ndarray
    ) -> "SpotValueCurve":
        """Build a curve from raw gain samples, enforcing shape.

        Gains are clipped to be non-negative and non-decreasing, and then
        concavified (running minimum of marginal increments) so downstream
        demand curves are well-behaved even if the underlying performance
        model has numeric wobble.
        """
        grid = np.asarray(grid_w, dtype=float)
        raw = np.asarray(gains, dtype=float)
        if grid.ndim != 1 or grid.size < 2:
            raise ConfigurationError("grid_w needs at least two points")
        if grid[0] != 0.0:
            raise ConfigurationError("grid_w must start at 0")
        if np.any(np.diff(grid) <= 0):
            raise ConfigurationError("grid_w must be strictly increasing")
        if grid.shape != raw.shape:
            raise ConfigurationError("grid_w and gains must align")
        return cls(
            base_power_w=base_power_w,
            max_spot_w=float(grid[-1]),
            _grid_w=grid,
            _gains=_concavify(grid, raw),
        )


def optimal_demands_w(curves, prices_per_kw_hour) -> np.ndarray:
    """The optimal demand of each curve at its own price, in one pass.

    ``prices_per_kw_hour`` has one price per curve on its last axis (a
    leading axis evaluates several price sets); the curves share one
    grid length (curves built with the same ``grid_points`` do).  Each
    result is the largest grid quantity maximising the net benefit
    ``gain - price x quantity`` — the inverse-marginal solution up to
    grid resolution, concave gains — or 0 when no quantity has a
    positive net benefit.
    """
    curves = list(curves)
    prices = np.asarray(prices_per_kw_hour, dtype=float)
    if not curves:
        return np.zeros(prices.shape)
    grids = np.stack([c._grid_w for c in curves])
    gains = np.stack([c._gains for c in curves])
    # Net benefit at each grid point; the first argmax wins a tie.
    net = gains - (prices / 1000.0)[..., None] * grids
    best = np.argmax(net, axis=-1)[..., None]
    top = np.take_along_axis(net, best, axis=-1)[..., 0]
    at = np.take_along_axis(np.broadcast_to(grids, net.shape), best, axis=-1)[..., 0]
    return np.where(top <= 0, 0.0, at)


def sprinting_value_curve(
    latency_model: LatencyModel,
    cost_model: SprintingCostModel,
    base_power_w: float,
    arrival_rps: float,
    max_spot_w: float,
    grid_points: int = 100,
) -> SpotValueCurve:
    """Value curve for a sprinting (interactive) tenant's rack.

    The gain is the reduction of the latency-cost accrual rate when the
    rack budget rises from ``base_power_w`` to ``base_power_w + d``:
    dominated by avoided quadratic SLO penalties when the base budget
    forces latency above the SLO.

    Args:
        latency_model: The rack's tail-latency model.
        cost_model: The tenant's SLO cost model.
        base_power_w: Budget without spot capacity.
        arrival_rps: Anticipated request rate for the slot being bid on.
        max_spot_w: Rack spot headroom ``P_r^R``.
        grid_points: Tabulation resolution.
    """
    (curve,) = sprinting_value_curves(
        [latency_model], [cost_model], [base_power_w], [arrival_rps], [max_spot_w],
        grid_points,
    )
    return curve


def sprinting_value_curves(
    latency_models,
    cost_models,
    base_power_w,
    arrival_rps,
    max_spot_w,
    grid_points: int = 100,
) -> list[SpotValueCurve]:
    """:func:`sprinting_value_curve` for many racks in one array pass.

    Every argument but ``grid_points`` has one entry per rack; the
    curves come back in that order, each bit-identical to building it
    alone.  The tabulation is a ``(grid_points + 1) x racks`` block, one
    column per rack, evaluated with per-rack model columns.
    """
    base = np.asarray(base_power_w, dtype=float)
    rate = np.asarray(arrival_rps, dtype=float)
    stop = np.asarray(max_spot_w, dtype=float)
    if (stop <= 0).any():
        raise ConfigurationError("max_spot_w must be positive")
    if (rate < 0).any():
        raise ConfigurationError(f"arrival_rps must be >= 0, got {float(rate.min())}")
    latency = LatencyColumns(latency_models)
    a, b, slo = np.array(
        [(c.a, c.b, c.slo_ms) for c in cost_models], dtype=float
    ).reshape(-1, 3).T
    grid = np.linspace(0.0, stop, grid_points + 1)
    # Row 0 is the base budget, rows 1.. the grid: one pass for both.
    budgets = np.concatenate([base[None, :], base + grid])
    costs = sprinting_cost_rate(latency.latency_ms(budgets, rate), rate, a, b, slo)
    return _curves(base, stop, grid, _concavify(grid, costs[0] - costs[1:]))


def opportunistic_value_curve(
    throughput_model: ThroughputModel,
    cost_model: OpportunisticCostModel,
    base_power_w: float,
    backlog_units: float,
    max_spot_w: float,
    grid_points: int = 100,
) -> SpotValueCurve:
    """Value curve for an opportunistic (batch) tenant's rack.

    The gain is the completion-cost saving on the current backlog,
    normalised to a per-hour rate over the backlog's base completion
    time: ``V(d) = rho * (W/R0 - W/R(d)) / (W/R0 / 3600)``, which reduces
    to ``rho * 3600 * (1 - R0/R(d))`` — concave and saturating in ``d``.

    Args:
        throughput_model: The rack's processing-rate model.
        cost_model: The tenant's linear completion-time cost model.
        base_power_w: Budget without spot capacity.
        backlog_units: Outstanding work (only its positivity matters for
            the normalised gain; retained for API symmetry/documentation).
        max_spot_w: Rack spot headroom ``P_r^R``.
        grid_points: Tabulation resolution.
    """
    (curve,) = opportunistic_value_curves(
        [throughput_model], [cost_model], [base_power_w], backlog_units, [max_spot_w],
        grid_points,
    )
    return curve


def opportunistic_value_curves(
    throughput_models,
    cost_models,
    base_power_w,
    backlog_units: float,
    max_spot_w,
    grid_points: int = 100,
) -> list[SpotValueCurve]:
    """:func:`opportunistic_value_curve` for many racks in one array pass.

    Per-rack arguments have one entry per rack and ``backlog_units`` is
    shared; the curves come back in rack order, each bit-identical to
    building it alone.
    """
    if backlog_units < 0:
        raise ConfigurationError("backlog_units must be >= 0")
    base = np.asarray(base_power_w, dtype=float)
    stop = np.asarray(max_spot_w, dtype=float)
    if (stop <= 0).any():
        raise ConfigurationError("max_spot_w must be positive")
    model = ThroughputColumns(throughput_models)
    rho = np.array([c.rho for c in cost_models], dtype=float)
    grid = np.linspace(0.0, stop, grid_points + 1)
    # Row 0 is the base budget, rows 1.. the grid: one pass for both.
    rates = model.rate_at(np.concatenate([base[None, :], base + grid]))
    base_rate, rates = rates[0], rates[1:]
    gains = rho * 3600.0 * (1.0 - base_rate / np.maximum(rates, 1e-12))
    # No backlog (nothing to speed up) or base budget below idle (the
    # tenant needs guaranteed capacity, not spot, to make progress).
    idle = (base_rate <= 0) | (backlog_units == 0)
    gains = np.where(idle, 0.0, gains)
    return _curves(base, stop, grid, _concavify(grid, gains))


def _curves(base, stop, grid, gains) -> list[SpotValueCurve]:
    """One curve per column of a ``(grid point x rack)`` tabulation."""
    return [
        SpotValueCurve(
            base_power_w=float(base[k]),
            max_spot_w=float(stop[k]),
            _grid_w=grid[:, k].copy(),
            _gains=gains[:, k].copy(),
        )
        for k in range(len(stop))
    ]
