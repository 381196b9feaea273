"""Extension experiment: equilibrium of the bidding game.

The paper defers equilibrium analysis of the demand-function game to
future work (Section III-B3).  This experiment runs the computational
version on a representative stage game — value curves drawn from the
Table I tenant classes, one shared PDU — and reports:

* whether round-robin best responses converge (and how fast);
* how the equilibrium clearing price and operator revenue compare with
  the "guideline" (non-strategic) bidding profile;
* who captures the surplus when everyone is strategic.

The stable empirical finding: dynamics converge in a handful of rounds;
strategic play shades quantities and lowers the clearing price somewhat,
transferring part of the operator's profit to tenants — while total
traded capacity stays close to the guideline profile (the market does
not unravel).
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.analysis.reporting import format_kv, format_table
from repro.config import DEFAULT_SEED, make_rng
from repro.core.equilibrium import BestResponseSimulator, Bidder
from repro.economics.valuation import SpotValueCurve
from repro.power.elementwise import ordered_sum

__all__ = ["EquilibriumStudy", "run_equilibrium_study", "render_equilibrium_study"]


@dataclasses.dataclass
class EquilibriumStudy:
    """Results of the equilibrium extension experiment.

    Attributes:
        converged: Whether the dynamics reached a fixed point.
        rounds: Rounds to convergence (or the cap).
        guideline_price / equilibrium_price: Clearing price under
            non-strategic and equilibrium bids.
        guideline_revenue / equilibrium_revenue: Operator revenue rate.
        guideline_sold_w / equilibrium_sold_w: Capacity traded.
        guideline_surplus / equilibrium_surplus: Total tenant net
            benefit, $/h.
        strategies: Final per-bidder strategies.
    """

    converged: bool
    rounds: int
    guideline_price: float
    equilibrium_price: float
    guideline_revenue: float
    equilibrium_revenue: float
    guideline_sold_w: float
    equilibrium_sold_w: float
    guideline_surplus: float
    equilibrium_surplus: float
    strategies: dict[str, tuple[float, float, float]]


def _class_curve(scale: float, width: float, max_spot: float) -> SpotValueCurve:
    grid = np.linspace(0.0, max_spot, 101)
    gains = scale * (1.0 - np.exp(-grid / width))
    return SpotValueCurve.from_gain_samples(100.0, grid, gains)


def run_equilibrium_study(
    seed: int = DEFAULT_SEED,
    supply_w: float = 120.0,
    jitter: float = 0.15,
    max_rounds: int = 20,
) -> EquilibriumStudy:
    """Run the bidding-game study on a Table I-like bidder mix.

    Args:
        seed: Jitter seed for bidder diversity.
        supply_w: Spot capacity of the shared PDU.
        jitter: Relative diversity of bidder value scales.
        max_rounds: Best-response round cap.
    """
    rng = make_rng(seed)
    # Two sprinting-class and three opportunistic-class bidders (the
    # Table I PDU#2 mix), with jittered value scales.
    specs = [
        ("sprint-1", 0.030, 18.0),
        ("sprint-2", 0.026, 20.0),
        ("batch-1", 0.009, 30.0),
        ("batch-2", 0.008, 32.0),
        ("batch-3", 0.007, 35.0),
    ]
    bidders = [
        Bidder(
            rack_id=name,
            pdu_id="pdu",
            rack_cap_w=55.0,
            value_curve=_class_curve(
                scale * float(1 + rng.uniform(-jitter, jitter)), width, 55.0
            ),
        )
        for name, scale, width in specs
    ]
    simulator = BestResponseSimulator(
        bidders,
        {"pdu": supply_w},
        supply_w,
        price_anchors=(0.03, 0.06, 0.1, 0.15, 0.2, 0.3),
        shading_factors=(0.6, 0.8, 1.0),
    )
    anchors = sorted(
        {q for (q, _, _) in simulator.strategy_grid}
        | {q for (_, q, _) in simulator.strategy_grid}
    )
    guideline = {b.rack_id: (anchors[0], anchors[-1], 1.0) for b in bidders}
    guideline_benefits, guideline_price, guideline_sold = simulator.evaluate(
        guideline
    )
    guideline_result = simulator.engine.clear(
        simulator._rack_bids(guideline), {"pdu": supply_w}, supply_w
    )

    outcome = simulator.run(max_rounds=max_rounds)
    eq_result = simulator.engine.clear(
        simulator._rack_bids(outcome.strategies), {"pdu": supply_w}, supply_w
    )
    return EquilibriumStudy(
        converged=outcome.converged,
        rounds=outcome.rounds,
        guideline_price=guideline_price,
        equilibrium_price=outcome.prices[-1],
        guideline_revenue=guideline_result.revenue_rate,
        equilibrium_revenue=eq_result.revenue_rate,
        guideline_sold_w=guideline_sold,
        equilibrium_sold_w=outcome.total_granted_w[-1],
        guideline_surplus=ordered_sum(list(guideline_benefits.values())),
        equilibrium_surplus=ordered_sum(list(outcome.net_benefits.values())),
        strategies=outcome.strategies,
    )


def render_equilibrium_study(study: EquilibriumStudy) -> str:
    """Guideline vs equilibrium comparison table."""
    table = format_table(
        ["quantity", "guideline bids", "equilibrium bids"],
        [
            ["clearing price [$/kW/h]", study.guideline_price, study.equilibrium_price],
            ["operator revenue [$/h]", study.guideline_revenue, study.equilibrium_revenue],
            ["capacity sold [W]", study.guideline_sold_w, study.equilibrium_sold_w],
            ["tenant surplus [$/h]", study.guideline_surplus, study.equilibrium_surplus],
        ],
        title="Extension: bidding-game equilibrium vs guideline bidding",
    )
    summary = format_kv(
        {
            "converged": study.converged,
            "rounds": study.rounds,
        }
    )
    return table + "\n" + summary
