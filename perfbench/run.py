"""Whole-slot SpotDC market benchmark: one command per workload.

    python3 perfbench/run.py --workload fleet_batch --seed 0 --seconds 20 --trace 0

Runs the named workload against the market in ``src/`` of this
checkout, checks its outputs (reference digests, per-slot invariants,
settlement balance) and prints, as the last line of standard output,
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``.  The line before it carries the details:
the machine record, sample counts and, when traced, the span table.
Workloads and metrics are described in ``perfbench/WORKLOADS.md``.

Exit status: 0 when the run completed, 1 when it completed with an
incorrect output or crashed (no result line then), 2 when it could not
run at all (no ``src/repro``).
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("fleet_batch", "daemon_ingest", "grid_stress")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Sizing and fault knobs for the benchmark's own tests.
    parser.add_argument("--groups", type=int, default=None, help=argparse.SUPPRESS)
    parser.add_argument("--min-slots", type=int, default=None, help=argparse.SUPPRESS)
    parser.add_argument("--references", default=None, help=argparse.SUPPRESS)
    parser.add_argument("--max-pending", type=int, default=None, help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def import_program() -> None:
    """Put this checkout's ``src`` first and insist the market comes from it."""
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(ROOT))
    try:
        import repro
    except ImportError as exc:
        problem = f"cannot import the market from {ROOT / 'src'}: {exc}"
    else:
        if Path(repro.__file__).resolve().parent.parent == ROOT / "src":
            return
        problem = f"repro resolved outside this checkout: {repro.__file__}"
    print(f"perfbench: {problem}", file=sys.stderr)
    raise SystemExit(2)


def main(argv=None) -> int:
    args = parse_args(argv)
    # Unwind on SIGTERM too, so the daemon children are stopped and reaped.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    import_program()
    from perfbench import batch, common, daemon

    if args.min_slots is None:
        args.min_slots = common.MIN_TIMED_SLOTS
    if args.references is None:
        args.references = common.REFERENCES
    outcome = common.Outcome()
    record = common.machine(args.workload, args.seed)
    runner = daemon if args.workload == "daemon_ingest" else batch
    try:
        metrics, details = runner.run(args, outcome)
    except Exception:
        # A crashed run prints no result line: its numbers do not exist.
        traceback.print_exc()
        print(json.dumps({"machine": common.close_machine(record)}), file=sys.stderr)
        return 1
    details["machine"] = common.close_machine(record)
    details["problems"] = outcome.problems
    common.emit(outcome, metrics, details)
    return 0 if outcome.correct else 1


if __name__ == "__main__":
    sys.exit(main())
