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
"""

import math

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
