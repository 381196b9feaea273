"""Per-layer tracing for the traced run: wrappers, spans and metrics.

The benchmark never edits the program.  It wraps the public functions
and methods of each layer by patching the class or module attribute
that callers resolve, and records, per wrapped name, the call count and
the inclusive and self wall time (self = duration minus the time of
nested wrapped calls).  Spans are folded into these totals as they
close and kept in memory; the run writes them out when it ends.
"""

from __future__ import annotations

import functools
import os
import time

#: Per-layer metrics in report order, with their units.  Values are per
#: timed (warm) slot unless the unit or name says otherwise: ``*_us``
#: daemon metrics are per call, ``recovery.checkpoint.bytes`` is per
#: checkpoint, ``*_frac`` are ratios and ``*_s`` are one-off set-up times.
PER_LAYER = (
    ("scenarios.build_s", "s"),
    ("sim.engine.init_s", "s"),
    ("core.sharding.cold_build_ms", "ms"),
    ("phase.predict_ms", "ms"),
    ("phase.bid_collect_ms", "ms"),
    ("phase.clear_ms", "ms"),
    ("phase.grant_ms", "ms"),
    ("phase.enforce_ms", "ms"),
    ("phase.settle_ms", "ms"),
    ("phase.other_ms", "ms"),
    ("forecast.forecast_slot_ms", "ms"),
    ("forecast.release_ms", "ms"),
    ("tenants.make_bid_ms", "ms"),
    ("tenants.make_bid_calls", "count"),
    ("power.latency_calls", "count"),
    ("power.rate_at_calls", "count"),
    ("recovery.admission_ms", "ms"),
    ("core.bids.racks_bid", "count"),
    ("core.sharding.build_ms", "ms"),
    ("core.sharding.rebuilt_pdu_frac", "ratio"),
    ("core.clearing.clear_per_pdu_ms", "ms"),
    ("core.clearing.prices_scanned", "count"),
    ("core.clearing.feasible_frac", "ratio"),
    ("core.allocation.verify_ms", "ms"),
    ("core.frame.to_bids_ms", "ms"),
    ("core.frame.settle_ms", "ms"),
    ("resilience.revoke_and_rebill_ms", "ms"),
    ("resilience.degradation.enforce_ms", "ms"),
    ("resilience.revocations", "count"),
    ("infrastructure.monitor.true_max_calls", "count"),
    ("infrastructure.monitor.record_slot_ms", "ms"),
    ("infrastructure.emergency_scan_ms", "ms"),
    ("events.absorber_ms", "ms"),
    ("tenants.execute_slot_ms", "ms"),
    ("economics.ledger_record_ms", "ms"),
    ("sim.metrics.record_slot_ms", "ms"),
    ("daemon.handle_submit_us", "us"),
    ("daemon.protocol.parse_submission_us", "us"),
    ("daemon.journal.bid_accept_us", "us"),
    ("daemon.protocol.stored_tenant_bid_ms", "ms"),
    ("daemon.journal.append_ms", "ms"),
    ("recovery.checkpoint.save_ms", "ms"),
    ("recovery.checkpoint.bytes", "bytes"),
    ("trace.overhead_frac", "ratio"),
    ("submit_ack_us_p50", "us"),
    ("submit_ack_us_p99", "us"),
    ("failed_frac", "ratio"),
)

PHASES = ("predict", "bid_collect", "clear", "grant", "enforce", "settle")


class _Stat:
    __slots__ = ("calls", "total", "self_time", "value", "open")

    def __init__(self) -> None:
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0
        self.value = 0.0
        self.open = False


class Recorder:
    """Spans of wrapped calls, folded per name as they close."""

    def __init__(self) -> None:
        self.stats: dict[str, _Stat] = {}
        # One child-time accumulator per open span.
        self._stack: list[list[float]] = []
        self._cursors: dict[int, int] = {}

    def stat(self, name: str) -> _Stat:
        stat = self.stats.get(name)
        if stat is None:
            stat = self.stats[name] = _Stat()
        return stat

    def timed(self, name: str, on_result=None):
        """Wrapper factory: one span per outermost call of ``name``."""
        stat = self.stat(name)
        stack = self._stack
        clock = time.perf_counter

        def make(original):
            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                if stat.open:
                    # A nested call of the same layer (super(), a second
                    # patched alias) belongs to the outer span.
                    return original(*args, **kwargs)
                stat.open = True
                children = [0.0]
                stack.append(children)
                started = clock()
                try:
                    result = original(*args, **kwargs)
                finally:
                    elapsed = clock() - started
                    stack.pop()
                    stat.open = False
                    stat.calls += 1
                    stat.total += elapsed
                    stat.self_time += elapsed - children[0]
                    if stack:
                        stack[-1][0] += elapsed
                if on_result is not None:
                    on_result(self, result, args)
                return result

            return wrapper

        return make

    def counted(self, name: str):
        """Wrapper factory that only counts calls (for hot inner layers)."""
        stat = self.stat(name)

        def make(original):
            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                stat.calls += 1
                return original(*args, **kwargs)

            return wrapper

        return make

    def add(self, name: str, value: float) -> None:
        self.stat(name).value += value

    def new_items(self, owner, items) -> list:
        """Items appended to ``items`` since the last call for ``owner``."""
        seen = self._cursors.get(id(owner), 0)
        self._cursors[id(owner)] = len(items)
        return list(items[seen:])

    def snapshot(self) -> dict:
        return {
            name: (s.calls, s.total, s.self_time, s.value)
            for name, s in self.stats.items()
        }


def seconds_in(snapshot: dict, name: str) -> float:
    """Inclusive seconds recorded for ``name`` in a snapshot (or delta)."""
    return snapshot.get(name, (0, 0.0, 0.0, 0.0))[1]


def delta(end: dict, start: dict) -> dict:
    """Per-name (calls, total, self, value) accumulated between snapshots."""
    zero = (0, 0.0, 0.0, 0.0)
    return {
        name: tuple(a - b for a, b in zip(values, start.get(name, zero)))
        for name, values in end.items()
    }


class Patches:
    """Attribute patches, undone in reverse order by :meth:`restore`."""

    def __init__(self) -> None:
        self._undo: list = []

    def on_module(self, module, name: str, make) -> None:
        original = getattr(module, name)
        setattr(module, name, make(original))
        self._undo.append((module, name, original, True))

    def on_class(self, cls, name: str, make) -> None:
        """Patch ``cls.name`` on ``cls``, shadowing an inherited one until restored."""
        had = name in cls.__dict__
        original = cls.__dict__[name] if had else getattr(cls, name)
        setattr(cls, name, make(original))
        self._undo.append((cls, name, original, had))

    def on_family(self, base, name: str, make) -> None:
        """Patch every loaded class under ``base`` that defines ``name``."""
        family, todo = [], [base]
        while todo:
            cls = todo.pop()
            if cls not in family:
                family.append(cls)
                todo.extend(cls.__subclasses__())
        for cls in family:
            if name in cls.__dict__:
                self.on_class(cls, name, make)

    def restore(self) -> None:
        while self._undo:
            target, name, original, had = self._undo.pop()
            if had:
                setattr(target, name, original)
            else:
                delattr(target, name)


def capture_clears(patches: Patches, sink: dict) -> None:
    """Keep each cleared slot's released forecast and clearing result.

    The benchmark checks every slot's grants against the capacity the
    forecast released (Eqs. 2-4), which the slot record does not carry.
    """
    from repro.core.market import SpotDCAllocator

    def make(original):
        def allocate(self, slot, tenants, forecast, *rest, **kwargs):
            record = original(self, slot, tenants, forecast, *rest, **kwargs)
            sink[slot] = (forecast, record.result)
            return record

        return allocate

    patches.on_class(SpotDCAllocator, "allocate", make)


def _count_prices(recorder: Recorder, result, args) -> None:
    recorder.add("core.clearing.candidates", result.candidate_prices)
    recorder.add("core.clearing.feasible", result.feasible_prices)


def _count_racks(recorder: Recorder, result, args) -> None:
    recorder.add("core.bids.racks", len(result))


def _builder_counters(recorder: Recorder, result, args) -> None:
    builder = args[0]
    recorder.stat("core.sharding.rebuilt").value = builder.rebuilt_pdus
    recorder.stat("core.sharding.reused").value = builder.reused_pdus


def _count_revocations(recorder: Recorder, result, args) -> None:
    controller = args[0]
    new = recorder.new_items(controller, controller.actions)
    recorder.add("resilience.revoke", sum(1 for a in new if a.kind == "revoke"))


def _checkpoint_bytes(recorder: Recorder, result, args) -> None:
    recorder.add("recovery.checkpoint.size", os.path.getsize(result))


def install_market_layers(recorder: Recorder, patches: Patches) -> None:
    """Wrap every layer a market slot runs through (batch and daemon)."""
    from repro.core import market
    from repro.core.clearing import MarketClearing
    from repro.core.frame import BidFrame
    from repro.core.sharding import IncrementalFrameBuilder
    from repro.economics.profit import OperatorLedger
    from repro.events.absorber import ShockAbsorber
    from repro.forecast.release import RiskAwareReleasePolicy
    from repro.forecast.signals import Signal
    from repro.infrastructure.emergencies import EmergencyLog
    from repro.infrastructure.monitor import PowerMonitor
    from repro.power.latency import LatencyModel
    from repro.power.throughput import ThroughputModel
    from repro.resilience import degradation
    from repro.sim import engine
    from repro.sim.metrics import MetricsCollector
    from repro.tenants.tenant import Tenant

    timed, counted = recorder.timed, recorder.counted
    patches.on_class(engine.SimulationEngine, "step_slot", timed("sim.engine.step_slot"))
    patches.on_family(Signal, "forecast_slot", timed("forecast.forecast_slot"))
    patches.on_class(RiskAwareReleasePolicy, "release", timed("forecast.release"))
    patches.on_family(Tenant, "make_bid", timed("tenants.make_bid"))
    patches.on_family(Tenant, "execute_slot", timed("tenants.execute_slot"))
    patches.on_class(LatencyModel, "latency_ms", counted("power.latency"))
    patches.on_class(LatencyModel, "frequency", counted("power.latency"))
    patches.on_class(ThroughputModel, "rate_at", counted("power.rate_at"))
    patches.on_module(market, "dedupe_bundles", timed("recovery.dedupe"))
    patches.on_module(market, "screen_bids", timed("recovery.screen"))
    patches.on_module(market, "flatten_bids", timed("core.bids.flatten", _count_racks))
    patches.on_class(
        IncrementalFrameBuilder, "build", timed("core.sharding.build", _builder_counters)
    )
    patches.on_class(
        MarketClearing, "clear_per_pdu", timed("core.clearing.clear_per_pdu", _count_prices)
    )
    patches.on_module(market, "verify_allocation", timed("core.allocation.verify"))
    patches.on_class(BidFrame, "to_bids", timed("core.frame.to_bids"))
    patches.on_class(BidFrame, "settle", timed("core.frame.settle"))
    rebill = timed("resilience.revoke_and_rebill")
    patches.on_module(engine, "revoke_and_rebill", rebill)
    patches.on_module(degradation, "revoke_and_rebill", rebill)
    patches.on_class(
        degradation.DegradationController,
        "enforce",
        timed("resilience.degradation.enforce", _count_revocations),
    )
    patches.on_class(
        PowerMonitor, "rack_recent_true_max_w", counted("infrastructure.monitor.true_max")
    )
    patches.on_class(PowerMonitor, "record_slot", timed("infrastructure.monitor.record_slot"))
    patches.on_class(EmergencyLog, "scan", timed("infrastructure.emergency_scan"))
    absorber = timed("events.absorber")
    for hook in (
        "on_slot_start",
        "effective_release_policy",
        "adjust_release",
        "note_control_actions",
        "observe_draw",
    ):
        patches.on_class(ShockAbsorber, hook, absorber)
    patches.on_class(OperatorLedger, "record_slot", timed("economics.ledger_record"))
    patches.on_class(MetricsCollector, "record_slot", timed("sim.metrics.record_slot"))


def install_daemon_layers(recorder: Recorder, patches: Patches) -> None:
    """Wrap the daemon's ingestion and write path (server process only)."""
    from repro.daemon import server
    from repro.daemon.journal import BidLog, MarketJournal

    timed = recorder.timed
    patches.on_class(server.MarketDaemon, "handle_submit", timed("daemon.handle_submit"))
    patches.on_module(server, "parse_submission", timed("daemon.protocol.parse_submission"))
    patches.on_class(BidLog, "accept", timed("daemon.journal.bid_accept"))
    patches.on_module(server, "stored_tenant_bid", timed("daemon.protocol.stored_tenant_bid"))
    patches.on_class(MarketJournal, "append", timed("daemon.journal.append"))
    patches.on_module(
        server, "save_checkpoint", timed("recovery.checkpoint.save", _checkpoint_bytes)
    )


def phase_totals(trace, slots) -> dict:
    """Seconds per engine phase summed over ``slots`` (a set of indices)."""
    totals = dict.fromkeys(PHASES, 0.0)
    for span in trace.spans:
        if span.name in totals and span.slot in slots:
            totals[span.name] += span.duration_s
    return totals


def layer_values(d: dict, slots: int, phases: dict) -> dict:
    """Per-layer metric values from a snapshot delta over ``slots`` slots.

    ``phases`` holds the engine phase seconds over the same slots.
    Set-up, overhead, submit-ack and failure metrics are filled in by
    the workload that measures them.
    """

    def calls(name):
        return d.get(name, (0, 0.0, 0.0, 0.0))[0]

    def seconds(name):
        return seconds_in(d, name)

    def value(name):
        return d.get(name, (0, 0.0, 0.0, 0.0))[3]

    def per_slot_ms(*names):
        return sum(seconds(n) for n in names) * 1000.0 / slots

    def per_call_us(name):
        return seconds(name) * 1e6 / calls(name) if calls(name) else 0.0

    def ratio(num, den):
        return num / den if den else 0.0

    rebuilt = value("core.sharding.rebuilt")
    reused = value("core.sharding.reused")
    candidates = value("core.clearing.candidates")
    out = {f"phase.{p}_ms": phases[p] * 1000.0 / slots for p in PHASES}
    out["phase.other_ms"] = per_slot_ms("sim.engine.step_slot") - sum(
        out[f"phase.{p}_ms"] for p in PHASES
    )
    out.update(
        {
            "forecast.forecast_slot_ms": per_slot_ms("forecast.forecast_slot"),
            "forecast.release_ms": per_slot_ms("forecast.release"),
            "tenants.make_bid_ms": per_slot_ms("tenants.make_bid"),
            "tenants.make_bid_calls": calls("tenants.make_bid") / slots,
            "power.latency_calls": calls("power.latency") / slots,
            "power.rate_at_calls": calls("power.rate_at") / slots,
            "recovery.admission_ms": per_slot_ms("recovery.dedupe", "recovery.screen"),
            "core.bids.racks_bid": value("core.bids.racks") / slots,
            "core.sharding.build_ms": per_slot_ms("core.sharding.build"),
            "core.sharding.rebuilt_pdu_frac": ratio(rebuilt, rebuilt + reused),
            "core.clearing.clear_per_pdu_ms": per_slot_ms("core.clearing.clear_per_pdu"),
            "core.clearing.prices_scanned": candidates / slots,
            "core.clearing.feasible_frac": ratio(
                value("core.clearing.feasible"), candidates
            ),
            "core.allocation.verify_ms": per_slot_ms("core.allocation.verify"),
            "core.frame.to_bids_ms": per_slot_ms("core.frame.to_bids"),
            "core.frame.settle_ms": per_slot_ms("core.frame.settle"),
            "resilience.revoke_and_rebill_ms": per_slot_ms("resilience.revoke_and_rebill"),
            "resilience.degradation.enforce_ms": per_slot_ms(
                "resilience.degradation.enforce"
            ),
            "resilience.revocations": value("resilience.revoke") / slots,
            "infrastructure.monitor.true_max_calls": calls(
                "infrastructure.monitor.true_max"
            )
            / slots,
            "infrastructure.monitor.record_slot_ms": per_slot_ms(
                "infrastructure.monitor.record_slot"
            ),
            "infrastructure.emergency_scan_ms": per_slot_ms(
                "infrastructure.emergency_scan"
            ),
            "events.absorber_ms": per_slot_ms("events.absorber"),
            "tenants.execute_slot_ms": per_slot_ms("tenants.execute_slot"),
            "economics.ledger_record_ms": per_slot_ms("economics.ledger_record"),
            "sim.metrics.record_slot_ms": per_slot_ms("sim.metrics.record_slot"),
            "daemon.handle_submit_us": per_call_us("daemon.handle_submit"),
            "daemon.protocol.parse_submission_us": per_call_us(
                "daemon.protocol.parse_submission"
            ),
            "daemon.journal.bid_accept_us": per_call_us("daemon.journal.bid_accept"),
            "daemon.protocol.stored_tenant_bid_ms": per_slot_ms(
                "daemon.protocol.stored_tenant_bid"
            ),
            "daemon.journal.append_ms": per_slot_ms("daemon.journal.append"),
            "recovery.checkpoint.save_ms": per_slot_ms("recovery.checkpoint.save"),
            "recovery.checkpoint.bytes": ratio(
                value("recovery.checkpoint.size"), calls("recovery.checkpoint.save")
            ),
        }
    )
    return out


def span_table(d: dict, slots: int) -> dict:
    """Per wrapped name: calls, inclusive and self ms per slot (the dump)."""
    return {
        name: {
            "calls": calls,
            "total_ms_per_slot": total * 1000.0 / slots,
            "self_ms_per_slot": self_time * 1000.0 / slots,
            "value": value,
        }
        for name, (calls, total, self_time, value) in sorted(d.items())
    }
