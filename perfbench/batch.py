"""The batch workloads: ``fleet_batch`` and ``grid_stress``.

Both drive :class:`repro.sim.engine.SimulationEngine` slot by slot
through ``begin_run`` / ``step_slot`` / ``finish_run`` on a
``scaled_scenario`` facility whose tenants generate their own bids.
``grid_stress`` adds the chaos fault class and a seeded EDR-shock
arrival process to the same facility.
"""

from __future__ import annotations

import gc
import time

from perfbench import common, layers

#: Table I replicas: 2,000 racks, 400 PDUs, 2,000 tenants.
GROUPS = 200


def build(workload: str, groups: int, seed: int):
    """The workload's facility, assembled through the public builders."""
    from repro.scenarios import build_scenario, scaled_spec
    from repro.sim.scenario import scaled_scenario

    if workload == "fleet_batch":
        return scaled_scenario(groups=groups, seed=seed)
    spec = scaled_spec(groups, seed=seed)
    spec["faults"] = {"class": "chaos", "intensity": 0.1}
    spec["events"] = {"rate": 0.05}
    return build_scenario(spec)


def check_slot(outcome: common.Outcome, slot: int, record, sink: dict) -> None:
    """Eqs. 2-4 and grant <= demand at the paid price, on the final record."""
    from repro.core.allocation import verify_allocation
    from repro.errors import CapacityError

    forecast, _ = sink.pop(slot, (None, None))
    if forecast is None:
        if any(g > 0 for g in record.result.grants_w.values()):
            outcome.fail(f"slot {slot}: grants without a released forecast")
        return
    try:
        verify_allocation(
            record.result, record.bids, forecast.pdu_spot_w, forecast.ups_spot_w
        )
    except CapacityError as exc:
        outcome.fail(f"slot {slot}: {exc}")


def check_settlement(outcome: common.Outcome, result) -> list:
    """Books balance; returns the invoices for the digest.

    Revoked grants are rebilled out of their slot, so tenants' spot
    charges must equal the ledger's spot revenue (already net of every
    credit note), and the invoices' credit memo lines must add up to
    the credit notes issued.
    """
    from repro.economics.settlement import build_all_invoices, reconcile
    from repro.errors import SimulationError

    invoices = build_all_invoices(result)
    try:
        reconcile(result)
    except SimulationError as exc:
        outcome.fail(str(exc))
    credited = sum(i.spot_credit for i in invoices)
    notes = sum(note.dollars for note in result.credit_notes)
    if abs(credited - notes) > 1e-6:
        outcome.fail(f"invoice credits ${credited:.6f} != credit notes ${notes:.6f}")
    return invoices


def count_fallbacks(outcome: common.Outcome, engine) -> None:
    guard = engine.deadline_guard
    hits = sum(guard.hits.values()) if guard is not None else 0
    if hits:
        outcome.fail(f"{hits} deadline fallback(s)", hits)


def setup(workload, groups, seed, horizon, outcome, sink, calibration, telemetry=None):
    """Build, construct, begin and warm one engine; returns its timings."""
    from repro.sim.engine import SimulationEngine

    calibration.begin()
    started = time.perf_counter()
    scenario = build(workload, groups, seed)
    built = time.perf_counter()
    engine = SimulationEngine(scenario, telemetry=telemetry)
    engine.begin_run(horizon)
    ready = time.perf_counter()
    records = [engine.step_slot(slot) for slot in range(common.WARMUP_SLOTS)]
    warm = time.perf_counter()
    scaled = calibration.end(warm - started)
    outcome.attempt(len(records))
    for slot, record in enumerate(records):
        check_slot(outcome, slot, record, sink)
    return engine, {
        "setup_s": scaled,
        "setup_wall_s": warm - started,
        "build_s": built - started,
        "init_s": ready - built,
    }


def check_run(engine, outcome, sink) -> str:
    """Run a warm engine to ``CHECK_SLOTS`` and digest every slot and invoice.

    The engine was begun with the timed run's horizon, so the digest
    covers exactly the slots every timed run starts with.
    """
    slots = []
    for slot in range(common.WARMUP_SLOTS, common.CHECK_SLOTS):
        record = engine.step_slot(slot)
        outcome.attempt()
        check_slot(outcome, slot, record, sink)
        slots.append(record)
    invoices = check_settlement(outcome, finish(engine, outcome))
    return common.digest(
        {
            "slots": [
                [
                    float(r.result.price),
                    sorted((k, float(v)) for k, v in r.result.pdu_prices.items()),
                    sorted((k, float(v)) for k, v in r.result.grants_w.items()),
                ]
                for r in slots
            ],
            "invoices": [
                [
                    i.tenant_id,
                    i.subscription_charge,
                    i.energy_charge,
                    i.spot_charge,
                    i.spot_credit,
                    i.total,
                ]
                for i in invoices
            ],
        }
    )


def timed_loop(engine, seconds, min_slots, outcome, sink, calibration):
    """Step warm slots until ``seconds`` and ``min_slots`` are both met.

    Returns the raw and calibrated slot times and the peak resident set
    sampled right after the ``min_slots``-th timed slot, so a faster
    machine that fits more slots into the run does not report a larger
    peak.
    """
    times, scaled = [], []
    rss = None
    slot = common.WARMUP_SLOTS
    started = time.perf_counter()
    calibration.begin()
    while slot < common.MAIN_SLOTS:
        before = time.perf_counter()
        record = engine.step_slot(slot)
        times.append(time.perf_counter() - before)
        scaled.append(calibration.end(times[-1]))
        outcome.attempt()
        check_slot(outcome, slot, record, sink)
        slot += 1
        if len(times) == min_slots:
            rss = common.peak_rss_mb()
        elapsed = time.perf_counter() - started
        if elapsed >= seconds * common.MAX_STRETCH:
            break
        if elapsed >= seconds and len(times) >= min_slots:
            break
    return times, scaled, rss if rss is not None else common.peak_rss_mb()


def finish(engine, outcome):
    result = engine.finish_run()
    count_fallbacks(outcome, engine)
    return result


def run(args, outcome: common.Outcome) -> tuple[dict, dict]:
    groups = args.groups or GROUPS
    references = common.load_references(args.references)
    sink: dict = {}
    calibration = common.Calibration()
    patches = layers.Patches()
    layers.capture_clears(patches, sink)
    details: dict = {"racks": groups * 10, "groups": groups}
    try:
        # The first set-up doubles as the correctness run.
        engine, timing = setup(
            args.workload, groups, args.seed, common.MAIN_SLOTS, outcome, sink, calibration
        )
        check = check_run(engine, outcome, sink)
        engine = None
        key = common.reference_key(args.workload, groups, args.seed)
        details["check_digest"] = check
        details["reference_key"] = key
        details["reference"] = common.check_digest(outcome, references, key, check)
        if args.trace:
            metrics = traced(args, groups, outcome, sink, patches, details, calibration)
        else:
            metrics = untraced(args, groups, outcome, sink, details, calibration, timing)
    finally:
        patches.restore()
    return metrics, details


def untraced(args, groups, outcome, sink, details, calibration, first) -> dict:
    timings = [first]
    for _ in range(common.SETUP_REPEATS - 1):
        engine = None
        gc.collect()
        engine, timing = setup(
            args.workload, groups, args.seed, common.MAIN_SLOTS, outcome, sink, calibration
        )
        timings.append(timing)
    times, scaled, rss = timed_loop(
        engine, args.seconds, args.min_slots, outcome, sink, calibration
    )
    check_settlement(outcome, finish(engine, outcome))
    ms = [t * 1000.0 for t in scaled]
    wall = [t * 1000.0 for t in times]
    details.update(
        timed_slots=len(ms),
        setup_samples_s=[t["setup_s"] for t in timings],
        setup_wall_samples_s=[t["setup_wall_s"] for t in timings],
        slot_wall_ms_p50=common.median(wall),
        slot_wall_ms_p90=common.percentile(wall, 90),
        calibration_ms_p50=common.median(calibration.samples) * 1000.0,
        slot_wall_ms=wall,
        calibration_ms=[t * 1000.0 for t in calibration.samples],
    )
    return {
        "setup_s": (common.median([t["setup_s"] for t in timings]), "s"),
        "slot_ms_p50": (common.median(ms), "ms"),
        "slot_ms_p90": (common.percentile(ms, 90), "ms"),
        "peak_rss_mb": (rss, "MB"),
    }


def traced(args, groups, outcome, sink, patches, details, calibration) -> dict:
    """An untraced segment, then a traced one, each for half the time."""
    from repro.telemetry import TelemetryConfig

    half = args.seconds / 2.0
    engine, _ = setup(
        args.workload, groups, args.seed, common.MAIN_SLOTS, outcome, sink, calibration
    )
    _, plain, _ = timed_loop(engine, half, 1, outcome, sink, calibration)
    check_settlement(outcome, finish(engine, outcome))
    engine = None
    gc.collect()

    recorder = layers.Recorder()
    layers.install_market_layers(recorder, patches)
    engine, timing = setup(
        args.workload,
        groups,
        args.seed,
        common.MAIN_SLOTS,
        outcome,
        sink,
        calibration,
        telemetry=TelemetryConfig(enabled=True),
    )
    start = recorder.snapshot()
    _, scaled, _ = timed_loop(engine, half, 1, outcome, sink, calibration)
    d = layers.delta(recorder.snapshot(), start)
    result = finish(engine, outcome)
    check_settlement(outcome, result)
    n = len(scaled)
    timed_slots = set(range(common.WARMUP_SLOTS, common.WARMUP_SLOTS + n))
    values = layers.layer_values(d, n, layers.phase_totals(result.trace, timed_slots))
    values.update(
        {
            "scenarios.build_s": timing["build_s"],
            "sim.engine.init_s": timing["init_s"],
            # Slot 1 is the only slot of the set-up that builds a frame.
            "core.sharding.cold_build_ms": layers.seconds_in(start, "core.sharding.build")
            * 1000.0,
            "trace.overhead_frac": common.median(scaled) / common.median(plain) - 1.0,
            "submit_ack_us_p50": 0.0,
            "submit_ack_us_p99": 0.0,
            "failed_frac": outcome.failed_frac,
        }
    )
    details.update(
        untraced_slots=len(plain),
        traced_slots=n,
        spans=layers.span_table(d, n),
    )
    return {name: (values[name], unit) for name, unit in layers.PER_LAYER}
