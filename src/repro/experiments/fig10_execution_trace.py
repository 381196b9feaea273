"""Fig. 10: a 20-minute execution of SpotDC — allocation and price traces.

The paper runs SpotDC on the testbed for 10 two-minute slots with a
deliberately volatile non-participating-tenant trace, and plots (for
PDU#1) the available spot capacity, the per-class allocations, and the
market price.  Key qualitative behaviours to reproduce:

* sprinting participation drives the price up;
* more available spot capacity drives the price down;
* allocation stays below availability (multi-level constraints).
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.analysis.reporting import format_series
from repro.config import DEFAULT_SEED
from repro.sim.engine import SimulationEngine
from repro.sim.results import SimulationResult
from repro.sim.scenario import testbed_scenario

__all__ = ["ExecutionTraceResult", "run_fig10", "render_fig10"]


@dataclasses.dataclass
class ExecutionTraceResult:
    """Per-slot traces of the 20-minute experiment (PDU#1 view).

    Attributes:
        result: The underlying simulation result.
        available_spot_w: Forecast spot capacity per slot (facility).
        sprint_alloc_w: Spot watts granted to PDU#1 sprinting racks.
        opportunistic_alloc_w: Spot watts granted to PDU#1 opportunistic
            racks.
        price: Clearing price per slot, $/kW/h.
    """

    result: SimulationResult
    available_spot_w: np.ndarray
    sprint_alloc_w: np.ndarray
    opportunistic_alloc_w: np.ndarray
    price: np.ndarray


#: PDU#1's participating racks, by tenant class (Table I).
_PDU1_SPRINT = ("rack:Search-1", "rack:Web")
_PDU1_OPPORTUNISTIC = ("rack:Count-1", "rack:Graph-1")


def run_fig10(
    seed: int = DEFAULT_SEED, slots: int = 10, search_slots: int = 600
) -> ExecutionTraceResult:
    """Run the 20-minute (10-slot) volatile-trace experiment.

    The paper's 20-minute window is curated: sprinting tenants
    participate partway through and spot availability visibly varies.
    We simulate ``search_slots`` slots and report the ``slots``-long
    window with the most market activity (sprinting and opportunistic
    participation plus availability variation).

    Args:
        seed: Scenario seed.
        slots: Window length (paper: 10 slots of 120 s).
        search_slots: Simulated horizon searched for the window.
    """
    scenario = testbed_scenario(seed=seed, volatile_other=True)
    engine = SimulationEngine(scenario)
    result = engine.run(max(search_slots, slots))
    collector = result.collector
    # Racks add left to right, slot by slot (as builtin sum() did).
    sprint = np.add.accumulate(
        [collector.rack_granted_array(r) for r in _PDU1_SPRINT], axis=0
    )[-1] + 0.0
    opportunistic = np.add.accumulate(
        [collector.rack_granted_array(r) for r in _PDU1_OPPORTUNISTIC], axis=0
    )[-1] + 0.0
    available = collector.forecast_ups_array()
    price = collector.price_array()

    best_start, best_score = 0, -1.0
    for start in range(0, available.size - slots + 1):
        window = slice(start, start + slots)
        sprint_active = float((sprint[window] > 0.5).mean())
        opp_active = float((opportunistic[window] > 0.5).mean())
        supply_active = float((available[window] > 20.0).mean())
        variation = min(
            1.0, float(available[window].std() / max(available[window].mean(), 1.0))
        )
        score = sprint_active + opp_active + supply_active + 0.5 * variation
        if score > best_score:
            best_start, best_score = start, score
    window = slice(best_start, best_start + slots)
    return ExecutionTraceResult(
        result=result,
        available_spot_w=available[window],
        sprint_alloc_w=sprint[window],
        opportunistic_alloc_w=opportunistic[window],
        price=price[window],
    )


def render_fig10(trace: ExecutionTraceResult) -> str:
    """Paper-style text: the Fig. 10 traces, one row per slot."""
    slots = np.arange(trace.price.size)
    seconds = (slots * trace.result.slot_seconds).astype(int)
    return format_series(
        "t [s]",
        seconds,
        {
            "avail spot [W]": trace.available_spot_w.round(0),
            "sprint alloc [W]": trace.sprint_alloc_w.round(1),
            "opport alloc [W]": trace.opportunistic_alloc_w.round(1),
            "price [$/kW/h]": trace.price.round(3),
        },
        title="Fig. 10: 20-minute SpotDC execution (PDU#1)",
    )
