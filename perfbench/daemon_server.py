"""The market daemon process of the ``daemon_ingest`` workload.

    python3 perfbench/daemon_server.py --groups 50 --seed 0 --slots 122 \\
        --state DIR --socket PATH [--trace 1] [--max-pending N] [--rss-slot N]

Serves a manual-tick :class:`~repro.daemon.server.DaemonServer` over a
:class:`~repro.daemon.server.MarketDaemon` on ``scaled_scenario(groups,
seed)`` until a client sends ``shutdown``.  Besides the daemon's own
files (``bids.jsonl``, ``market.jsonl``, ``checkpoints/``) it writes
``server-stats.json`` into ``--state`` on exit: its peak resident set
(sampled after slot ``--rss-slot`` when given), set-up timings, each
cleared slot's released capacities and per-PDU prices (which the journal
does not carry, and the client needs to check Eqs. 2-4), and with
``--trace 1`` the per-slot span snapshots and engine phase times.
"""

from __future__ import annotations

import argparse
import asyncio
import contextlib
import json
import os
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--groups", type=int, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--slots", type=int, required=True)
    parser.add_argument("--state", required=True)
    parser.add_argument("--socket", required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--max-pending", type=int, default=None)
    parser.add_argument(
        "--rss-slot", type=int, default=None, help="sample the peak RSS after this slot"
    )
    return parser.parse_args(argv)


async def serve(server, parent: int) -> None:
    """Serve until shutdown, or until the ``parent`` process is gone."""

    async def watch_parent():
        while os.getppid() == parent:
            await asyncio.sleep(1.0)
        server.stop()

    watchdog = asyncio.create_task(watch_parent())
    try:
        await server.run()
    finally:
        watchdog.cancel()
        with contextlib.suppress(asyncio.CancelledError):
            await watchdog


def main(argv=None) -> int:
    parent = os.getppid()
    args = parse_args(argv)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import common, layers
    from repro.daemon.server import DEFAULT_MAX_PENDING, DaemonServer, MarketDaemon
    from repro.sim.scenario import scaled_scenario
    from repro.telemetry import TelemetryConfig

    patches = layers.Patches()
    recorder = layers.Recorder()
    cleared: dict = {}
    side: list = []
    snapshots: dict = {}
    peak = {}

    def after_slot(original):
        def process_next_slot(self):
            journal_record = original(self)
            slot = journal_record["slot"]
            side.append((slot, *cleared.pop(slot, (None, None))))
            if slot == args.rss_slot:
                peak["rss"] = common.peak_rss_mb()
            if args.trace:
                snapshots[slot] = recorder.snapshot()
            return journal_record

        return process_next_slot

    layers.capture_clears(patches, cleared)
    patches.on_class(MarketDaemon, "process_next_slot", after_slot)
    telemetry = None
    if args.trace:
        layers.install_market_layers(recorder, patches)
        layers.install_daemon_layers(recorder, patches)
        telemetry = TelemetryConfig(enabled=True)

    started = time.perf_counter()
    scenario = scaled_scenario(groups=args.groups, seed=args.seed)
    built = time.perf_counter()
    daemon = MarketDaemon(
        scenario,
        args.slots,
        args.state,
        telemetry=telemetry,
        max_pending=args.max_pending or DEFAULT_MAX_PENDING,
    )
    ready = time.perf_counter()
    asyncio.run(serve(DaemonServer(daemon, args.socket, tick_seconds=None), parent))
    stats = {
        "peak_rss_mb": peak.get("rss", common.peak_rss_mb()),
        "build_s": built - started,
        "init_s": ready - built,
        "slots": [
            {
                "slot": slot,
                "pdu_spot_w": dict(forecast.pdu_spot_w) if forecast else {},
                "ups_spot_w": forecast.ups_spot_w if forecast else 0.0,
                "pdu_prices": dict(result.pdu_prices) if result else {},
            }
            for slot, forecast, result in side
        ],
    }
    if args.trace:
        trace = daemon.engine.telemetry.tracer.finish()
        stats["snapshots"] = snapshots
        stats["phases"] = {
            slot: layers.phase_totals(trace, {slot}) for slot in snapshots
        }
    patches.restore()
    Path(args.state, "server-stats.json").write_text(json.dumps(stats))
    return 0


if __name__ == "__main__":
    sys.exit(main())
