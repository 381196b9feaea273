"""The ``daemon_ingest`` workload: one closed-loop client, one daemon.

The benchmark starts :mod:`perfbench.daemon_server` as a child process
and drives it through :class:`repro.daemon.client.DaemonClient` over a
unix socket.  One connection, one outstanding request: each slot the
client submits every tenant's bundle for the next slot (built by
:func:`repro.daemon.chaos.synthetic_bundle`) and then sends ``tick``.
Submit and tick round trips are what the client measures.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time
import types
from pathlib import Path

from perfbench import common, layers

#: Table I replicas: 500 racks, 100 PDUs, 500 tenants (every one bids).
GROUPS = 50
SERVER = Path(__file__).resolve().parent / "daemon_server.py"


class Server:
    """One daemon child process and its state directory."""

    def __init__(self, tag, groups, seed, slots, trace=0, max_pending=None, rss_slot=None):
        self.dir = common.STATE_DIR / f"daemon-{os.getpid()}-{tag}"
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        socket_path = self.dir / "market.sock"
        # Unix socket paths are short; a relative one keeps deep checkouts
        # usable (the child shares our working directory).
        relative = os.path.relpath(socket_path)
        self.socket = relative if len(relative) < len(str(socket_path)) else str(socket_path)
        command = [
            sys.executable,
            str(SERVER),
            f"--groups={groups}",
            f"--seed={seed}",
            f"--slots={slots}",
            f"--state={self.dir}",
            f"--socket={self.socket}",
            f"--trace={trace}",
        ]
        if max_pending is not None:
            command.append(f"--max-pending={max_pending}")
        if rss_slot is not None:
            command.append(f"--rss-slot={rss_slot}")
        self._log = open(self.dir / "server.log", "wb")
        self.proc = subprocess.Popen(
            command, stdout=self._log, stderr=subprocess.STDOUT, cwd=os.getcwd()
        )
        self.client = None

    def connect(self, budget: float = 120.0):
        from repro.daemon.client import DaemonClient

        deadline = time.monotonic() + budget
        while not os.path.exists(self.socket):
            if self.proc.poll() is not None:
                raise RuntimeError(f"daemon exited early: {self.log_tail()}")
            if time.monotonic() > deadline:
                raise RuntimeError("daemon did not bind its socket in time")
            time.sleep(0.005)
        self.client = DaemonClient(self.socket, timeout=60.0)
        return self.client

    def log_tail(self) -> str:
        self._log.flush()
        return (self.dir / "server.log").read_text(errors="replace")[-2000:]

    def stop(self) -> dict:
        """Shut the daemon down cleanly and return its stats."""
        self.client.shutdown()
        if self.proc.wait(timeout=120) != 0:
            raise RuntimeError(f"daemon failed: {self.log_tail()}")
        return json.loads((self.dir / "server-stats.json").read_text())

    def close(self) -> None:
        if self.client is not None:
            self.client.close()
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self._log.close()
        shutil.rmtree(self.dir, ignore_errors=True)

    def __enter__(self) -> "Server":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class ClosedLoop:
    """Submit every tenant's next-slot bundle, then tick; timing both."""

    def __init__(self, client, seed, horizon, outcome, calibration) -> None:
        from repro.daemon.chaos import synthetic_bundle

        self.bundle = synthetic_bundle
        self.calibration = calibration
        self.client = client
        self.seed = seed
        self.horizon = horizon
        self.outcome = outcome
        self.acks: list[float] = []
        self.ticks: list[float] = []
        self.scaled_ticks: list[float] = []
        tenants = client.describe()["tenants"]
        self.racks = {
            tenant: [
                {"rack_id": r["rack_id"], "max_spot_w": r["max_spot_w"]}
                for r in entry["racks"]
            ]
            for tenant, entry in tenants.items()
        }
        self.directory = {
            tenant: {
                r["rack_id"]: types.SimpleNamespace(
                    pdu_id=r["pdu_id"], max_spot_w=r["max_spot_w"]
                )
                for r in entry["racks"]
            }
            for tenant, entry in tenants.items()
        }
        self.owner = {
            r["rack_id"]: tenant for tenant, rs in self.racks.items() for r in rs
        }

    def slot(self, slot: int, timed: bool) -> None:
        client, outcome, clock = self.client, self.outcome, time.perf_counter
        target = slot + 1
        if target < self.horizon:
            for tenant, racks in self.racks.items():
                bundle = self.bundle(self.seed, tenant, target, racks)
                before = clock()
                response = client.submit(tenant, target, bundle)
                after = clock()
                outcome.attempt()
                if not response.get("ok"):
                    outcome.fail(f"submit {tenant}@{target}: {response.get('error')}")
                if timed:
                    self.acks.append(after - before)
        if timed:
            self.calibration.begin()
        before = clock()
        response = client.tick()
        after = clock()
        if timed:
            self.ticks.append(after - before)
            self.scaled_ticks.append(self.calibration.end(after - before))
        outcome.attempt()
        if not response.get("ok") or response.get("slot") != slot:
            outcome.fail(f"tick {slot}: {response}")

    def run_timed(self, seconds: float, min_slots: int) -> int:
        """Timed slots from the first warm one; returns the last slot run."""
        slot = common.WARMUP_SLOTS
        started = time.perf_counter()
        while slot < self.horizon:
            self.slot(slot, timed=True)
            elapsed = time.perf_counter() - started
            if elapsed >= seconds * common.MAX_STRETCH:
                break
            if elapsed >= seconds and len(self.ticks) >= min_slots:
                break
            slot += 1
        return min(slot, self.horizon - 1)

    def verify(self, journal: list, cleared: list) -> None:
        """Check every published slot: sheds, Eqs. 2-4, grant <= demand."""
        from repro.core.allocation import AllocationResult, verify_allocation
        from repro.daemon.protocol import stored_tenant_bid
        from repro.errors import CapacityError

        released = {entry["slot"]: entry for entry in cleared}
        for record in journal:
            if record["kind"] != "slot":
                continue
            slot = record["slot"]
            for shed in record["shed"]:
                self.outcome.fail(f"slot {slot}: bundle {shed['key']} shed")
            for tenant, rack, reason in record["quarantined"]:
                self.outcome.fail(f"slot {slot}: {tenant}/{rack} quarantined ({reason})")
            grants = record["grants"]
            if not grants:
                continue
            entry = released.get(slot)
            if entry is None:
                self.outcome.fail(f"slot {slot}: grants without a released forecast")
                continue
            bids = []
            for tenant in sorted({self.owner[rack] for rack in grants}):
                stored = {
                    "tenant_id": tenant,
                    "racks": self.bundle(self.seed, tenant, slot, self.racks[tenant]),
                }
                bids.extend(stored_tenant_bid(stored, self.directory).rack_bids)
            result = AllocationResult(
                price=record["price"],
                grants_w=grants,
                revenue_rate=0.0,
                pdu_prices=entry["pdu_prices"],
            )
            try:
                verify_allocation(result, bids, entry["pdu_spot_w"], entry["ups_spot_w"])
            except CapacityError as exc:
                self.outcome.fail(f"slot {slot}: {exc}")


def start(tag, args, groups, horizon, outcome, calibration, trace=0):
    """Spawn, connect and warm a daemon; returns it with its set-up times.

    The daemon samples its peak resident set after the ``min_slots``-th
    timed slot, so a machine that fits more slots into the run does not
    report a larger peak.
    """
    rss_slot = common.WARMUP_SLOTS + args.min_slots - 1
    calibration.begin()
    started = time.perf_counter()
    server = Server(tag, groups, args.seed, horizon, trace, args.max_pending, rss_slot)
    try:
        client = server.connect()
        client.hello()
        loop = ClosedLoop(client, args.seed, horizon, outcome, calibration)
        for slot in range(common.WARMUP_SLOTS):
            loop.slot(slot, timed=False)
        wall = time.perf_counter() - started
        scaled = calibration.end(wall)
    except BaseException:
        server.close()
        raise
    return server, loop, (scaled, wall)


def journal_of(server: Server) -> tuple[bytes, list]:
    from repro.daemon.journal import read_records

    path = server.dir / "market.jsonl"
    return path.read_bytes(), read_records(path)


def check_run(args, groups, outcome, calibration) -> str:
    """A full fixed-horizon daemon run: digest, invariants, settlement."""
    server, loop, _ = start("check", args, groups, common.CHECK_SLOTS, outcome, calibration)
    with server:
        for slot in range(common.WARMUP_SLOTS, common.CHECK_SLOTS):
            loop.slot(slot, timed=False)
        invoices = loop.client.invoices()
        if not invoices.get("ok"):
            outcome.fail(f"invoices: {invoices}")
        stats = server.stop()
        raw, journal = journal_of(server)
    loop.verify(journal, stats["slots"])
    payments = sum(
        sum(r["payments"].values()) for r in journal if r["kind"] == "slot"
    )
    billed = sum(i["spot"] for i in invoices.get("invoices", {}).values())
    credited = sum(i["credited"] for i in invoices.get("invoices", {}).values())
    # No degradation runs without faults, so no credit notes are issued.
    if abs(billed - payments) > 1e-6 or credited != 0:
        outcome.fail(
            f"settlement: invoices ${billed:.6f} (credited ${credited:.6f}) "
            f"vs slot payments ${payments:.6f}"
        )
    return common.digest(
        {
            "journal": common.digest(raw.decode("utf-8")),
            "pdu_prices": [
                [entry["slot"], sorted(entry["pdu_prices"].items())]
                for entry in stats["slots"]
            ],
        }
    )


def timed_segment(tag, args, groups, seconds, min_slots, outcome, calibration, trace=0):
    """One daemon through warm-up and a timed closed loop; returns its data."""
    server, loop, setup = start(
        tag, args, groups, common.MAIN_SLOTS, outcome, calibration, trace
    )
    with server:
        last = loop.run_timed(seconds, min_slots)
        stats = server.stop()
        _, journal = journal_of(server)
    loop.verify(journal, stats["slots"])
    return loop, stats, setup, last


def run(args, outcome: common.Outcome) -> tuple[dict, dict]:
    groups = args.groups or GROUPS
    references = common.load_references(args.references)
    calibration = common.Calibration()
    details: dict = {"racks": groups * 10, "groups": groups, "clients": 1}
    check = check_run(args, groups, outcome, calibration)
    key = common.reference_key(args.workload, groups, args.seed)
    details["check_digest"] = check
    details["reference_key"] = key
    details["reference"] = common.check_digest(outcome, references, key, check)
    if args.trace:
        return traced(args, groups, outcome, details, calibration), details
    setups = []
    for rep in range(common.SETUP_REPEATS - 1):
        server, _, setup = start(
            f"setup{rep}", args, groups, common.MAIN_SLOTS, outcome, calibration
        )
        with server:
            server.stop()
        setups.append(setup)
    loop, stats, setup, _ = timed_segment(
        "main", args, groups, args.seconds, args.min_slots, outcome, calibration
    )
    setups.append(setup)
    ticks = [t * 1000.0 for t in loop.scaled_ticks]
    wall = [t * 1000.0 for t in loop.ticks]
    details.update(
        timed_slots=len(ticks),
        setup_samples_s=[scaled for scaled, _ in setups],
        setup_wall_samples_s=[wall for _, wall in setups],
        slot_wall_ms_p50=common.median(wall),
        slot_wall_ms_p90=common.percentile(wall, 90),
        calibration_ms_p50=common.median(calibration.samples) * 1000.0,
        acks=len(loop.acks),
        submit_ack_us_p50=common.median(loop.acks) * 1e6,
        submit_ack_us_p99=common.percentile(loop.acks, 99) * 1e6,
        slot_wall_ms=wall,
        calibration_ms=[t * 1000.0 for t in calibration.samples],
    )
    return {
        "setup_s": (common.median([scaled for scaled, _ in setups]), "s"),
        "slot_ms_p50": (common.median(ticks), "ms"),
        "slot_ms_p90": (common.percentile(ticks, 90), "ms"),
        "peak_rss_mb": (stats["peak_rss_mb"], "MB"),
    }, details


def traced(args, groups, outcome, details, calibration) -> dict:
    """An untraced daemon, then a traced one, each for half the time."""
    half = args.seconds / 2.0
    plain, _, _, _ = timed_segment("plain", args, groups, half, 1, outcome, calibration)
    loop, stats, _, last = timed_segment(
        "traced", args, groups, half, 1, outcome, calibration, trace=1
    )
    first = common.WARMUP_SLOTS - 1
    snapshots = {int(k): v for k, v in stats["snapshots"].items()}
    d = layers.delta(snapshots[last], snapshots[first])
    n = last - first
    phases = dict.fromkeys(layers.PHASES, 0.0)
    for slot, totals in stats["phases"].items():
        if first < int(slot) <= last:
            for phase, seconds in totals.items():
                phases[phase] += seconds
    values = layers.layer_values(d, n, phases)
    values.update(
        {
            "scenarios.build_s": stats["build_s"],
            "sim.engine.init_s": stats["init_s"],
            "core.sharding.cold_build_ms": layers.seconds_in(
                layers.delta(snapshots[first], snapshots[0]), "core.sharding.build"
            )
            * 1000.0,
            "trace.overhead_frac": common.median(loop.scaled_ticks)
            / common.median(plain.scaled_ticks)
            - 1.0,
            "submit_ack_us_p50": common.median(plain.acks) * 1e6,
            "submit_ack_us_p99": common.percentile(plain.acks, 99) * 1e6,
            "failed_frac": outcome.failed_frac,
        }
    )
    details.update(
        untraced_slots=len(plain.ticks),
        traced_slots=n,
        spans=layers.span_table(d, n),
    )
    return {name: (values[name], unit) for name, unit in layers.PER_LAYER}
