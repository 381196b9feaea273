"""Fig. 14: LinearBid vs StepBid vs FullBid across spot availability.

The paper compares the operator's profit under the three demand-function
families while varying the average available spot capacity (by adjusting
the shared PDU capacity, keeping workloads fixed).  Expected shape:

* SpotDC's LinearBid earns close to FullBid;
* both beat StepBid, with the gap largest when spot capacity is scarce
  (localised constraints bind and all-or-nothing demand can't be
  partially satisfied);
* the extra profit saturates once spot capacity is plentiful.
"""

from __future__ import annotations

import dataclasses

from repro.analysis.reporting import format_series
from repro.config import DEFAULT_SEED
from repro.experiments.common import DEFAULT_SLOTS, run_comparison
from repro.power.elementwise import ordered_sum
from repro.tenants.bidding import (
    FullCurveStrategy,
    LinearElasticStrategy,
    StepStrategy,
)

__all__ = ["DemandFunctionSweep", "run_fig14", "render_fig14"]

#: PDU oversubscription ratios swept to vary spot availability (higher
#: ratio -> smaller physical capacity -> scarcer spot capacity).
_DEFAULT_RATIOS = (1.12, 1.08, 1.05, 1.02, 1.0)

_STRATEGIES = {
    "LinearBid": LinearElasticStrategy,
    "StepBid": StepStrategy,
    "FullBid": FullCurveStrategy,
}


@dataclasses.dataclass
class DemandFunctionSweep:
    """Fig. 14's series.

    Attributes:
        spot_fractions: Measured average spot capacity (fraction of
            total subscription) per sweep point, under LinearBid.
        profit_increase: Strategy name -> operator profit increase vs
            PowerCapped at each sweep point.
        perf_improvement: Strategy name -> mean tenant performance
            improvement at each sweep point (the result the paper
            mentions but omits for space).
    """

    spot_fractions: list[float]
    profit_increase: dict[str, list[float]]
    perf_improvement: dict[str, list[float]]


def run_fig14(
    seed: int = DEFAULT_SEED,
    slots: int = DEFAULT_SLOTS,
    oversubscription_ratios=_DEFAULT_RATIOS,
) -> DemandFunctionSweep:
    """Sweep spot availability for the three demand-function families."""
    spot_fractions: list[float] = []
    profit: dict[str, list[float]] = {name: [] for name in _STRATEGIES}
    perf: dict[str, list[float]] = {name: [] for name in _STRATEGIES}
    for ratio in oversubscription_ratios:
        for name, strategy_cls in _STRATEGIES.items():
            runs = run_comparison(
                slots=slots,
                seed=seed,
                pdu_oversubscription=ratio,
                strategy_factory=lambda kind, cls=strategy_cls: cls(),
            )
            profit[name].append(runs.profit_increase())
            ratios = [
                runs.spotdc.tenant_performance_improvement_vs(
                    runs.powercapped, t
                )
                for t in runs.spotdc.participating_tenant_ids()
            ]
            perf[name].append(ordered_sum(ratios) / len(ratios))
            if name == "LinearBid":
                spot_fractions.append(runs.spotdc.average_spot_fraction())
    return DemandFunctionSweep(
        spot_fractions=spot_fractions,
        profit_increase=profit,
        perf_improvement=perf,
    )


def render_fig14(sweep: DemandFunctionSweep) -> str:
    """Paper-style text: profit per demand function vs spot availability."""
    xs = [round(100 * f, 1) for f in sweep.spot_fractions]
    series = {
        f"{name} profit +%": [round(100 * v, 2) for v in values]
        for name, values in sweep.profit_increase.items()
    }
    series.update(
        {
            f"{name} perf x": [round(v, 3) for v in values]
            for name, values in sweep.perf_improvement.items()
        }
    )
    return format_series(
        "avg spot [% of subscribed]", xs, series,
        title="Fig. 14: demand-function comparison across spot availability",
    )
