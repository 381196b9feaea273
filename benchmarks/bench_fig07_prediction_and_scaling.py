"""Fig. 7: (a) PDU power variation; (b) clearing time at scale.

Besides the paper-style text archive, both panels emit machine-readable
summaries in the telemetry exporter's envelope format
(``results/fig07a_pdu_variation.json`` and ``results/BENCH_clearing.json``:
racks x price-step x wall-ms of the BidFrame clear) so the perf
trajectory stays trackable — see ``docs/observability.md``.
"""

import os
import pathlib

from repro.experiments import render_fig07, run_fig07a, run_fig07b
from repro.telemetry import write_summary_json

RESULTS_DIR = pathlib.Path(__file__).parent / "results"

#: Worker processes for the per-rack-count sweep cells.  Defaults to
#: serial (least timing noise); CI smoke runs can raise it to trade a
#: little noise for wall-clock.
JOBS = int(os.environ.get("BENCH_JOBS", "1"))


def test_fig07a_pdu_variation(benchmark, archive):
    result = benchmark.pedantic(
        run_fig07a, kwargs={"slots": 20_000}, rounds=1, iterations=1
    )
    # Paper: PDU power changes < ±2.5% within one minute for 99% of slots.
    assert result.p99 < 0.025
    archive("fig07a_pdu_variation", f"p50={result.p50:.4f} p90={result.p90:.4f} "
            f"p99={result.p99:.4f} max={result.max:.4f}")
    write_summary_json(
        RESULTS_DIR / "fig07a_pdu_variation.json",
        bench="fig07a_pdu_variation",
        data={"p50": result.p50, "p90": result.p90,
              "p99": result.p99, "max": result.max},
    )


def test_fig07b_clearing_time(benchmark, archive):
    result = benchmark.pedantic(
        run_fig07b,
        kwargs={
            "rack_counts": (100, 1000, 5000, 15000),
            "price_steps": (0.001, 0.01),
            "repeats": 2,
            "jobs": JOBS,
        },
        rounds=1,
        iterations=1,
    )
    variation = run_fig07a(slots=5000, pdus=2)
    archive("fig07b_clearing_time", render_fig07(variation, result))
    _write_clearing_json(result)
    # Paper: < 1 s at 15,000 racks with a 0.1 cent/kW step; < 100 ms-ish
    # with a 1 cent/kW step (we allow slack for slower machines).
    fine = result.mean_seconds[0.001][-1]
    coarse = result.mean_seconds[0.01][-1]
    assert fine < 2.0
    assert coarse <= 1.2 * fine  # coarse grids never meaningfully slower
    # Clearing time grows with the number of racks (150x more racks).
    assert result.mean_seconds[0.001][0] < result.mean_seconds[0.001][-1]


def _write_clearing_json(result) -> None:
    """Persist racks x step x wall-ms (perf trajectory)."""
    cells = []
    for i, racks in enumerate(result.rack_counts):
        for step in result.price_steps:
            cells.append(
                {
                    "racks": racks,
                    "price_step": step,
                    "frame_ms": result.mean_seconds[step][i] * 1e3,
                    "frame_build_ms": result.frame_build_seconds[i] * 1e3,
                }
            )
    write_summary_json(
        RESULTS_DIR / "BENCH_clearing.json",
        bench="clearing",
        data={"cells": cells},
    )
