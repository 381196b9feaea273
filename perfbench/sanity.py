"""Check from traced runs that each workload loads the layers it was chosen for.

    python3 perfbench/sanity.py [--seed 0] [--seconds 20]

Runs every workload once with ``--trace 1`` and checks:

* ``fleet_batch`` spends at least 30% of its slot in ``Tenant.make_bid``,
  ``daemon_ingest`` less than 5% (its bids arrive pre-built);
* only ``daemon_ingest`` saves checkpoints;
* only ``grid_stress`` runs the degradation controller;
* the six engine phases account for ``step_slot`` (``phase.other_ms``
  is under 10% of the slot) on every workload.

Prints one line per check and exits 1 if any fails.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("fleet_batch", "daemon_ingest", "grid_stress")
PHASES = ("predict", "bid_collect", "clear", "grant", "enforce", "settle", "other")


def traced(workload: str, seed: int, seconds: float) -> dict:
    proc = subprocess.run(
        [
            sys.executable,
            str(HERE / "run.py"),
            f"--workload={workload}",
            f"--seed={seed}",
            f"--seconds={seconds}",
            "--trace=1",
        ],
        capture_output=True,
        text=True,
        check=True,
    )
    metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
    return {name: metric["value"] for name, metric in metrics.items()}


def checks(values: dict) -> list[tuple[str, bool]]:
    """(description, passed) for every sanity condition."""

    def slot(w):
        return sum(values[w][f"phase.{p}_ms"] for p in PHASES)

    def share(w, name):
        return values[w][name] / slot(w)

    fleet = share("fleet_batch", "tenants.make_bid_ms")
    daemon = share("daemon_ingest", "tenants.make_bid_ms")
    out = [
        (f"fleet_batch make_bid share {fleet:.1%} >= 30%", fleet >= 0.30),
        (f"daemon_ingest make_bid share {daemon:.1%} < 5%", daemon < 0.05),
    ]
    for w in WORKLOADS:
        save = values[w]["recovery.checkpoint.save_ms"]
        enforce = values[w]["resilience.degradation.enforce_ms"]
        out.append(
            (
                f"{w} checkpoint.save_ms {save:.3f} non-zero only on daemon_ingest",
                (save > 0) == (w == "daemon_ingest"),
            )
        )
        out.append(
            (
                f"{w} degradation.enforce_ms {enforce:.3f} non-zero only on grid_stress",
                (enforce > 0) == (w == "grid_stress"),
            )
        )
        other = share(w, "phase.other_ms")
        out.append((f"{w} phase.other share {other:.1%} < 10% of {slot(w):.1f} ms", other < 0.10))
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    args = parser.parse_args(argv)
    values = {w: traced(w, args.seed, args.seconds) for w in WORKLOADS}
    results = checks(values)
    for description, passed in results:
        print(f"{'ok  ' if passed else 'FAIL'} {description}")
    return 0 if all(passed for _, passed in results) else 1


if __name__ == "__main__":
    sys.exit(main())
