"""Brute-force reference market: paper Eqs. 1-4, one bid at a time.

The parity oracle for :class:`repro.core.clearing.MarketClearing`.  It
reads :class:`RackBid` objects directly — no frame, no demand kernel —
and evaluates every candidate price by summing each bid's own
``demand_at`` clipped to its rack cap (Eq. 2).  A price is feasible
when every PDU total (Eq. 3), the facility total (Eq. 4), and every
extra rack-set bound hold; the clearing price is the lowest one that
maximises ``price x total demand`` (Eq. 1).  The operator policies the
engine layers on top — breakpoint-augmented grids with tolerance
dedupe, bid admission, per-PDU apportioning of the UPS headroom and of
heat zones, settlement — are transcribed here the same plain way.

The second half holds the per-rack telemetry code the columnar rack
store (:mod:`repro.infrastructure.layout`) replaced.
"""

import collections
import math

import numpy as np

from repro.core.allocation import AllocationResult
from repro.infrastructure.constraints import CapacityConstraint

#: Feasibility slack for float comparisons against capacity bounds.
TOL = 1e-9


def clipped(bid, price):
    """Eq. 2: a rack's demand at ``price``, clipped to its headroom."""
    return min(bid.demand.demand_at(price), bid.rack_cap_w)


def candidate_grid(bids, params, include_breakpoints=True):
    """Fixed-step grid over [reserve, highest acceptable price] + kinks."""
    lo, hi, step = params.reserve_price, params.max_price, params.price_step
    if bids:
        hi = min(hi, max(b.demand.max_price for b in bids))
    if hi < lo:
        return [lo]
    n = int(math.floor((hi - lo) / step * (1.0 + 1e-12) + 1e-9)) + 1
    grid = [lo + step * float(k) for k in range(n)]
    if not include_breakpoints:
        return grid
    points = [
        float(getattr(b.demand, attr))
        for b in bids
        for attr in ("q_min", "q_max", "price_cap")
        if getattr(b.demand, attr, None) is not None
    ]
    points = [p for p in points if lo <= p <= hi]
    if not points:
        return grid
    merged = sorted(set(grid) | set(points))
    # Values within step * 1e-9 of their predecessor collapse onto it.
    return [merged[0]] + [
        b for a, b in zip(merged, merged[1:]) if b - a > step * 1e-9
    ]


def clear(bids, pdu_spot_w, ups_spot_w, params, extra=(), include_breakpoints=True):
    """One facility-wide uniform price (the paper's Section III-B2 scan)."""
    if not bids:
        return AllocationResult.empty()
    grid = candidate_grid(bids, params, include_breakpoints)
    step = params.price_step
    admitted, rejected = [], []
    for b in bids:
        # Admission: a bid whose demand at its own highest acceptable
        # price already exceeds every bound on its grant can never clear.
        ceiling = min(b.rack_cap_w, pdu_spot_w.get(b.pdu_id, 0.0), ups_spot_w)
        for c in extra:
            if b.rack_id in c.rack_ids:
                ceiling = min(ceiling, c.cap_w)
        floor = min(b.demand.demand_at(b.demand.max_price), b.rack_cap_w)
        (rejected if floor > ceiling + TOL else admitted).append(b)
    if not admitted:
        return AllocationResult(
            price=grid[-1] + step,
            grants_w={b.rack_id: 0.0 for b in rejected},
            revenue_rate=0.0,
            candidate_prices=len(grid),
            feasible_prices=0,
        )
    pdus = {b.pdu_id for b in admitted}
    best, best_revenue, n_feasible = None, -math.inf, 0
    for price in grid:
        demand = {b.rack_id: clipped(b, price) for b in admitted}
        ok = sum(demand.values()) <= ups_spot_w + TOL
        for p in pdus:
            total = sum(demand[b.rack_id] for b in admitted if b.pdu_id == p)
            ok = ok and total <= pdu_spot_w.get(p, 0.0) + TOL
        for c in extra:
            total = sum(v for r, v in demand.items() if r in c.rack_ids)
            ok = ok and total <= c.cap_w + TOL
        if not ok:
            continue
        n_feasible += 1
        revenue = price * sum(demand.values()) / 1000.0
        if revenue > best_revenue:  # strict: the lowest price wins ties
            best, best_revenue = price, revenue
    if best is None:
        return AllocationResult.empty(price=grid[-1] + step)
    grants = {b.rack_id: clipped(b, best) for b in admitted}
    grants.update({b.rack_id: 0.0 for b in rejected})
    return AllocationResult(
        price=best,
        grants_w=grants,
        revenue_rate=max(best_revenue, 0.0),
        candidate_prices=len(grid),
        feasible_prices=n_feasible,
    )


def in_order(values):
    """Sequential float sum in the given order."""
    total = 0.0
    for v in values:
        total += v
    return total


def localize(extra, local_ids, servable, row_order):
    """Restrict rack-set bounds to one PDU; split zones by servable share.

    Shares sum over ``row_order`` (the frame's rows: PDU-sorted,
    submission order within a PDU), never over a set, whose order
    follows the hash seed.
    """
    localized = []
    for c in extra:
        here = c.rack_ids & local_ids
        if not here:
            continue
        total = in_order(servable[r] for r in row_order if r in c.rack_ids)
        share = in_order(servable[r] for r in row_order if r in here)
        cap = c.cap_w if c.rack_ids <= local_ids or total <= 0 else c.cap_w * share / total
        localized.append(CapacityConstraint(c.name, frozenset(here), cap))
    return localized


def clear_per_pdu(bids, pdu_spot_w, ups_spot_w, params, extra=()):
    """Locational pricing: one uniform scan per PDU on apportioned caps."""
    if not bids:
        return AllocationResult.empty()
    by_pdu = {}
    for b in bids:
        by_pdu.setdefault(b.pdu_id, []).append(b)
    servable = {b.rack_id: min(b.demand.max_demand_w, b.rack_cap_w) for b in bids}
    interest = {
        p: min(pdu_spot_w.get(p, 0.0), sum(servable[b.rack_id] for b in by_pdu[p]))
        for p in sorted(by_pdu)
    }
    total_interest = sum(interest.values())
    row_order = [b.rack_id for p in sorted(by_pdu) for b in by_pdu[p]]
    grants, pdu_prices = {}, {}
    revenue, candidates, feasible = 0.0, 0, 0
    for p in sorted(by_pdu):
        cap = pdu_spot_w.get(p, 0.0)
        if total_interest > ups_spot_w and total_interest > 0:
            # Eq. 4 by construction: apportioned caps sum to <= P_o.
            cap = min(cap, ups_spot_w * interest[p] / total_interest)
        local_ids = {b.rack_id for b in by_pdu[p]}
        local = clear(
            by_pdu[p], {p: cap}, cap, params,
            localize(extra, local_ids, servable, row_order),
        )
        grants.update(local.grants_w)
        pdu_prices[p] = local.price
        revenue += local.revenue_rate
        candidates += local.candidate_prices
        feasible += local.feasible_prices
    total = sum(grants.values())
    weighted = sum(pdu_prices[b.pdu_id] * grants.get(b.rack_id, 0.0) for b in bids)
    return AllocationResult(
        price=weighted / total if total > 0 else 0.0,
        grants_w=grants,
        revenue_rate=revenue,
        candidate_prices=candidates,
        feasible_prices=feasible,
        pdu_prices=pdu_prices,
    )


def settle(result, bids, slot_seconds):
    """Dollars owed per tenant: grant x the price its PDU cleared at."""
    bid_of = {b.rack_id: b for b in bids}
    payments = {}
    for rack_id, grant in result.grants_w.items():
        b = bid_of[rack_id]
        dollars = grant / 1000.0 * result.price_for_pdu(b.pdu_id) * (slot_seconds / 3600.0)
        payments[b.tenant_id] = payments.get(b.tenant_id, 0.0) + dollars
    return payments


# ----------------------------------------------------------------------
# Rack telemetry, one rack at a time
#
# Per-rack deques and lists with every total added by ``in_order``: the
# parity oracles for the columnar monitor, predictor, emergency scan and
# metrics collector.  ``sum()`` is avoided on purpose — Python 3.12 sums
# floats with compensation.
# ----------------------------------------------------------------------


class ScalarMonitor:
    """Per-rack history deques and per-PDU / UPS totals."""

    def __init__(self, topology, history_slots):
        self.topology = topology
        self.history_slots = history_slots
        self.rack = {r: collections.deque(maxlen=history_slots) for r in topology.racks}
        self.pdu = {p: collections.deque(maxlen=history_slots) for p in topology.pdus}
        self.ups = collections.deque(maxlen=history_slots)
        self.true = None

    def record(self, rack_power_w, metered_power_w=None):
        metered = rack_power_w if metered_power_w is None else metered_power_w
        if self.true is None and any(metered[r] != rack_power_w[r] for r in rack_power_w):
            self.true = {
                r: collections.deque(series, maxlen=self.history_slots)
                for r, series in self.rack.items()
            }
        for rack_id, watts in rack_power_w.items():
            self.rack[rack_id].append(float(metered[rack_id]))
            if self.true is not None:
                self.true[rack_id].append(float(watts))
        for pdu_id, pdu in self.topology.pdus.items():
            self.pdu[pdu_id].append(in_order(float(metered[r]) for r in pdu.rack_ids))
        self.ups.append(in_order(float(w) for w in metered.values()))

    def recent_max(self, rack_id, window, true=False):
        series = (self.true if true and self.true is not None else self.rack)[rack_id]
        return max(list(series)[-window:]) if series else 0.0


def spot_forecast(topology, requesting, reference_power_w, factor, margin):
    """Section III-C per rack: ``(pdu_spot_w, ups_spot_w)``."""
    requesting = set(requesting)
    reference_power_w = reference_power_w or {}
    usable = 1.0 - margin
    pdu_spot = {}
    total_reference = 0.0
    for pdu_id, pdu in topology.pdus.items():
        reference = 0.0
        for rack_id in pdu.rack_ids:
            rack = topology.racks[rack_id]
            if rack_id in requesting or rack.spot_budget_w > 0:
                reference += rack.guaranteed_w
            else:
                reference += min(
                    reference_power_w.get(rack_id, rack.power_w), rack.guaranteed_w
                )
        total_reference += reference
        pdu_spot[pdu_id] = max(0.0, pdu.capacity_w * usable - reference) * factor
    ups = max(0.0, topology.ups.capacity_w * usable - total_reference) * factor
    return pdu_spot, ups


def emergencies(topology, slot, tolerance):
    """Every excursion as ``(slot, level, unit_id, capacity_w, power_w)``."""
    found = []
    for rack in topology.racks.values():
        if rack.power_w > rack.budget_w * (1 + tolerance):
            found.append((slot, "rack", rack.rack_id, rack.budget_w, rack.power_w))
    for pdu_id, pdu in topology.pdus.items():
        power = in_order(topology.racks[r].power_w for r in pdu.rack_ids)
        if power > pdu.capacity_w * (1 + tolerance):
            found.append((slot, "pdu", pdu_id, pdu.capacity_w, power))
    ups = in_order(r.power_w for r in topology.racks.values())
    if ups > topology.ups.capacity_w * (1 + tolerance):
        found.append((slot, "ups", topology.ups.ups_id, topology.ups.capacity_w, ups))
    return found


class ScalarCollector:
    """Per-id lists, read back as ``np.asarray`` like the original collector."""

    def __init__(self, rack_ids, pdu_ids, tenant_ids):
        self.rack_ids, self.pdu_ids, self.tenant_ids = rack_ids, pdu_ids, tenant_ids
        self.series = collections.defaultdict(list)

    def record(self, price, grants_w, ups_power_w, pdu_power_w, rack_outcomes,
               payments, wanted_rack_ids, pdu_prices):
        s = self.series
        s["price"].append(price)
        s["ups"].append(ups_power_w)
        for p in self.pdu_ids:
            s["pdu_power", p].append(pdu_power_w.get(p, 0.0))
            s["pdu_price", p].append((pdu_prices or {}).get(p, price))
        for r in self.rack_ids:
            power_w, value, slo_violated = rack_outcomes[r]
            s["rack_power", r].append(power_w)
            s["rack_perf", r].append(value)
            s["rack_wanted", r].append(r in wanted_rack_ids)
            s["rack_granted", r].append(grants_w.get(r, 0.0))
            s["rack_slo_violation", r].append(slo_violated)
        for t in self.tenant_ids:
            s["tenant_payment", t].append(payments.get(t, 0.0))

    def array(self, name, key):
        dtype = bool if name in ("rack_wanted", "rack_slo_violation") else None
        return np.asarray(self.series[name, key], dtype=dtype)


# ----------------------------------------------------------------------
# Tenant side: the per-rack need and slot run the columnar fleet
# (:mod:`repro.tenants.fleet`) replaced, one rack and one Python float
# at a time.  The batch backlog is passed in and returned, not stored.
# ----------------------------------------------------------------------


def interactive_run(workload, slot, budget_w):
    """``InteractiveWorkload.execute``: ``(power, latency, slo_violated)``."""
    rate = float(workload.rates[slot])
    desired = float(workload.desired_powers[slot])
    power = min(desired, budget_w)
    latency = workload.latency_model.latency_ms(power, rate)
    return power, latency, latency > workload.slo_ms


def batch_desired(workload, slot, backlog):
    """``BatchWorkload.desired_power_w`` at a given backlog."""
    model = workload.throughput_model
    if backlog > workload.sprint_backlog_s * model.rate_max:
        return model.power_model.peak_w
    rate_needed = float(workload.arrivals[slot])
    if backlog > 0:
        rate_needed = min(model.rate_max, rate_needed + backlog / 60.0)
    return model.power_for_rate(rate_needed)


def batch_run(workload, slot, budget_w, slot_seconds, backlog):
    """``BatchWorkload.execute``: ``(power, achieved_rate, new_backlog)``."""
    model = workload.throughput_model
    desired = batch_desired(workload, slot, backlog)
    power = min(desired, budget_w)
    rate = model.rate_at(power)
    available = backlog + float(workload.arrivals[slot]) * slot_seconds
    processed = min(available, rate * slot_seconds)
    achieved = processed / slot_seconds
    idle = model.power_model.idle_w
    drawn = model.power_for_rate(achieved) if processed > 0 else idle
    drawn = max(idle, min(drawn, max(budget_w, idle)))
    return drawn, achieved, available - processed


def trace_run(workload, slot, budget_w):
    """``TracePowerWorkload.execute``: the capped replayed draw."""
    power = min(float(workload.powers[slot]), budget_w)
    return power, power, False


def rack_need(tenant, rack, slot, backlog):
    """Watts one rack wants (``None`` for none): ``needed_spot_w``, per rack."""
    if not tenant.participates or rack.useful_spot_w <= 0:
        return None
    workload = rack.workload
    if tenant.kind == "sprinting":
        extra = float(workload.desired_powers[slot]) - rack.guaranteed_w
        return min(extra, rack.max_spot_w) if extra > 0 else None
    threshold = workload.sprint_backlog_s * workload.throughput_model.rate_max
    return rack.useful_spot_w if backlog > threshold else None
