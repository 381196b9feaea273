"""Wall-clock deadline guard on the clear phase, with graceful fallback.

The paper's market must clear well inside a slot (<1 s at 15,000 racks,
Fig. 18).  A clearing pass that blows its budget — a pathological bid
set, a cold interpreter, an overloaded host — must not stall the slot
loop: the operator falls back down a ladder that is always safe:

1. **reuse_price** — re-grant at the *previous* slot's clearing price:
   each rack gets its (rack-clipped) demand at that price, rescaled
   within every PDU to the forecast headroom, then rescaled to the UPS
   headroom and any extra constraint caps.  Every step only shrinks
   grants, so the result satisfies Eqs. 2-4 by construction.
2. **no_spot** — the paper's §III-C default: an empty allocation.
   Used when there is no previous price (the first market slot).

The guard measures the allocator call *post hoc* — Python offers no
safe preemption — so an overrunning pass still completes once, but its
outcome is discarded in favour of the deterministic fallback, the hit
is counted (``clearing_deadline_hits_total{fallback=...}``), and a
``deadline.exceeded`` trace event is emitted.  The event deliberately
excludes the measured elapsed time: traces must stay byte-deterministic
across same-seed runs.

Disabled by default (``Scenario.clearing_deadline_s = None``): wall
time is inherently nondeterministic, so runs that pin byte-identical
traces leave the guard off.
"""

from __future__ import annotations

import time

import numpy as np

from repro.core.allocation import AllocationResult
from repro.errors import ConfigurationError

__all__ = [
    "ClearingDeadlineGuard",
    "ManualClock",
    "build_fallback_record",
    "default_budget_s",
]

#: Default clearing budget as a fraction of the slot length: clearing
#: that eats more than a tenth of the slot leaves too little margin for
#: grant distribution and enforcement (Fig. 6 timing).
DEFAULT_BUDGET_FRACTION = 0.1


def default_budget_s(slot_seconds: float) -> float:
    """The default clearing budget derived from the slot length."""
    return float(slot_seconds) * DEFAULT_BUDGET_FRACTION


class ManualClock:
    """Deterministic test clock: each reading advances by ``step_s``.

    The slow-clearing test hook: install it on a guard with a budget
    below ``step_s`` and every clear phase measures as over budget —
    no sleeping, no flaky thresholds.
    """

    def __init__(self, step_s: float = 0.0) -> None:
        self.now = 0.0
        self.step_s = float(step_s)

    def __call__(self) -> float:
        reading = self.now
        self.now += self.step_s
        return reading


class ClearingDeadlineGuard:
    """Wall-clock budget for the clear phase.

    Args:
        budget_s: Budget in seconds; the clear phase exceeding it
            triggers the fallback ladder.
        clock: Monotonic time source in seconds (injectable for
            deterministic tests; defaults to
            :func:`time.perf_counter`).  Must be picklable — the guard
            is part of the engine's checkpointed state.
    """

    def __init__(self, budget_s: float, clock=None) -> None:
        if budget_s <= 0:
            raise ConfigurationError(
                f"clearing deadline budget must be positive, got {budget_s}"
            )
        self.budget_s = float(budget_s)
        self.clock = clock if clock is not None else time.perf_counter
        #: Deadline hits so far, by fallback kind.
        self.hits: dict[str, int] = {}

    def start(self) -> float:
        """A clock reading taken just before the allocator runs."""
        return self.clock()

    def elapsed(self, started: float) -> float:
        """Seconds since ``started``."""
        return self.clock() - started

    def over_budget(self, elapsed_s: float) -> bool:
        """Whether a measured clear phase blew the budget."""
        return elapsed_s > self.budget_s

    def record_hit(self, fallback: str) -> None:
        """Count one deadline hit by fallback kind."""
        self.hits[fallback] = self.hits.get(fallback, 0) + 1


def build_fallback_record(
    record,
    last_price: float | None,
    forecast,
    slot_seconds: float,
    extra_constraints=(),
):
    """The fallback outcome replacing an over-deadline clearing result.

    Args:
        record: The (discarded) outcome of the overrunning clear; its
            frame carries the slot's admitted bids.
        last_price: Previous slot's clearing price, or ``None`` on the
            first market slot.
        forecast: This slot's
            :class:`~repro.forecast.capacity.SpotCapacityForecast`.
        slot_seconds: Slot length (billing).
        extra_constraints: This slot's extra capacity constraints.

    Returns:
        ``(fallback_record, kind)`` with ``kind`` one of
        ``"reuse_price"`` / ``"no_spot"``.
    """
    # Imported here: repro.core.market itself imports the admission
    # front door from this package, so a module-level import would be
    # circular.
    from repro.core.market import SlotMarketRecord

    frame = record.frame
    if last_price is None or frame is None or len(frame) == 0:
        empty = SlotMarketRecord(
            result=AllocationResult.empty(),
            bids=record.bids,
            payments={},
            frame=frame,
            quarantined=record.quarantined,
        )
        return empty, "no_spot"

    price = float(last_price)
    grants = frame.demand_at(price)
    # Scale down within each PDU to the forecast headroom (Eq. 3) ...
    pdu_totals = frame.pdu_demand(grants[:, None])[:, 0]
    pdu_caps = np.fromiter(
        (forecast.pdu_spot_w.get(p, 0.0) for p in frame.pdu_ids),
        dtype=float,
        count=len(frame.pdu_ids),
    )
    with np.errstate(divide="ignore", invalid="ignore"):
        pdu_scale = np.where(
            pdu_totals > pdu_caps,
            np.where(pdu_totals > 0, pdu_caps / np.maximum(pdu_totals, 1e-300), 0.0),
            1.0,
        )
    grants = grants * pdu_scale[frame.pdu_code]
    # ... then within each extra constraint group (phase/heat caps) ...
    for constraint in extra_constraints:
        rows = frame.rows_for(constraint.rack_ids)
        if rows.size == 0:
            continue
        group_total = float(grants[rows].sum())
        if group_total > constraint.cap_w and group_total > 0:
            grants[rows] *= max(constraint.cap_w, 0.0) / group_total
    # ... then globally to the UPS headroom (Eq. 4).  Every step only
    # shrinks grants, so no earlier bound is re-violated.
    total = float(grants.sum())
    ups_cap = float(forecast.ups_spot_w)
    if total > ups_cap:
        grants = grants * (max(ups_cap, 0.0) / total) if total > 0 else grants
    grants = np.maximum(grants, 0.0)

    grants_map = {rid: float(g) for rid, g in zip(frame.rack_ids, grants)}
    revenue_rate, payments = frame.settle(grants, {}, price, slot_seconds)
    result = AllocationResult(
        price=price,
        grants_w=grants_map,
        revenue_rate=revenue_rate,
        candidate_prices=0,
        feasible_prices=0,
        pdu_prices={},
    )
    fallback = SlotMarketRecord(
        result=result,
        bids=record.bids,
        payments=payments,
        frame=frame,
        quarantined=record.quarantined,
    )
    return fallback, "reuse_price"
