"""Uniform-price market clearing by feasible-price scan.

The operator maximises ``q(t) * Σ_r D_r(q(t))`` (paper Eq. 1) subject to
the rack / PDU / UPS capacity constraints (Eqs. 2-4) by scanning a grid
of candidate prices — "a simple search over the feasible price range"
(Section III-B2).  Because every demand function is non-increasing in
price, the feasible price set is upward-closed: once a price satisfies
every constraint, all higher prices do too.  The scan therefore walks the
grid once, records the profit at each feasible price, and returns the
*lowest* price attaining the maximum profit (ties break in tenants'
favour).

Implementation notes:

* The pipeline is **columnar**: bids are viewed through a
  :class:`~repro.core.frame.BidFrame` (built once per slot; a
  ``RackBid`` sequence is encoded into one at entry).  Uniform and
  locational (per-PDU) pricing run **one segmented scan kernel**: a
  *market* is a run of frame rows sharing one price grid — the whole
  frame, or one PDU segment — and every market of a frame clears in a
  fixed number of ndarray passes whatever the PDU count: the grids of
  all markets are built in one merge, demand totals are one breakpoint
  sweep over a ``(aggregates x prices)`` block, feasibility and the
  revenue argmax run row-wise, and grants are one demand evaluation at
  every row's market price.  Blocks are swept in chunks of whole
  markets, so scratch memory stays bounded at any fleet size.  Clearing
  cost stays in ndarray time, which is what makes 15,000-rack scans
  fast (Fig. 7b).  The parity oracle — a brute-force transcription of
  Eqs. 1-4 — lives in ``tests/oracle.py``.
* Grid resolution is the operator knob ``price_step`` (the paper reports
  clearing times at 0.1 and 1 cent/kW steps).  The scan optionally
  augments the grid with each bid's breakpoints (``q_min``/``q_max``) so
  coarse grids do not miss profit kinks; the grid is built overshoot-free
  and breakpoints within float epsilon of a grid point are deduplicated
  with a tolerance.
"""

from __future__ import annotations

import dataclasses
import itertools
import typing
from collections.abc import Mapping, Sequence

import numpy as np

from repro.config import MarketParameters
from repro.core.allocation import AllocationResult
from repro.core.bids import RackBid
from repro.core.frame import BidFrame, padded_grids
from repro.errors import ClearingError
from repro.power.elementwise import ordered_sum

if typing.TYPE_CHECKING:
    from repro.infrastructure.constraints import CapacityConstraint

__all__ = ["MarketClearing", "clear_market", "reconcile_allocation"]

#: Feasibility slack for float comparisons against capacity bounds.
_TOL = 1e-9

#: Scratch budget of one scan chunk, in (aggregate x price) cells.
_CHUNK_CELLS = 1 << 13


@dataclasses.dataclass
class MarketClearing:
    """Reusable clearing engine configured with operator market knobs.

    Args:
        params: Operator market parameters (price grid, reserve price).
        include_breakpoints: Add every bid's demand-curve breakpoints to
            the candidate grid.  Improves profit at coarse steps for a
            small cost; disabled when reproducing the paper's pure
            fixed-step scan timings.
    """

    params: MarketParameters = dataclasses.field(default_factory=MarketParameters)
    include_breakpoints: bool = True

    def candidate_prices(
        self, bids: "Sequence[RackBid] | BidFrame"
    ) -> np.ndarray:
        """The ascending price grid the uniform scan will evaluate."""
        frame = bids if isinstance(bids, BidFrame) else BidFrame.from_bids(bids)
        return self._grid(frame, per_pdu=False)[0]

    def _grid(self, frame: BidFrame, per_pdu: bool) -> tuple[np.ndarray, np.ndarray]:
        return frame.market_grid(
            per_pdu,
            self.params.reserve_price,
            self.params.max_price,
            self.params.price_step,
            self.include_breakpoints,
        )

    # ------------------------------------------------------------------
    # Facility-wide uniform price
    # ------------------------------------------------------------------

    def clear(
        self,
        bids: "Sequence[RackBid] | BidFrame",
        pdu_spot_w: Mapping[str, float],
        ups_spot_w: float,
        extra_constraints: Sequence["CapacityConstraint"] = (),
    ) -> AllocationResult:
        """Clear one slot's market.

        Args:
            bids: Flattened per-rack bids for this slot — either a
                :class:`BidFrame` (preferred on hot paths; built once
                per slot) or a sequence of :class:`RackBid`.
            pdu_spot_w: Predicted spot capacity per PDU, watts (``P_m``).
                PDUs hosting bidding racks but absent from this mapping
                are treated as offering zero spot capacity.
            ups_spot_w: Predicted facility-level spot capacity (``P_o``).
            extra_constraints: Additional rack-set capacity bounds —
                phase balance, heat density (paper Section III-A) — each
                limiting the total grant to its rack set.

        Returns:
            The profit-maximising feasible allocation; the empty
            allocation if no bids were submitted.

        Raises:
            ClearingError: On negative capacities (inconsistent inputs).
        """
        self._validate_capacities(pdu_spot_w, ups_spot_w, extra_constraints)
        if not len(bids):
            return AllocationResult.empty()
        frame = bids if isinstance(bids, BidFrame) else BidFrame.from_bids(bids)
        _, seg_codes = frame.segments()
        pdu_caps = np.array(
            [pdu_spot_w.get(frame.pdu_ids[int(s)], 0.0) for s in seg_codes]
        )
        groups = [(0, frame.rows_for(c.rack_ids), c.cap_w) for c in extra_constraints]
        scan = self._scan(frame, False, pdu_caps, np.array([ups_spot_w]), groups)
        return AllocationResult(
            price=float(scan.price[0]),
            grants_w=scan.grants,
            revenue_rate=float(scan.revenue[0]),
            candidate_prices=int(scan.candidates[0]),
            feasible_prices=int(scan.feasible[0]),
        )

    @staticmethod
    def _validate_capacities(
        pdu_spot_w: Mapping[str, float],
        ups_spot_w: float,
        extra_constraints: Sequence["CapacityConstraint"],
    ) -> None:
        if ups_spot_w < 0:
            raise ClearingError(f"negative UPS spot capacity {ups_spot_w}")
        for pdu_id, cap in pdu_spot_w.items():
            if cap < 0:
                raise ClearingError(f"negative spot capacity for PDU {pdu_id}: {cap}")
        for constraint in extra_constraints:
            if constraint.cap_w < 0:
                raise ClearingError(
                    f"negative capacity for constraint {constraint.name}"
                )

    def _scan(
        self,
        frame: BidFrame,
        per_pdu: bool,
        pdu_caps: np.ndarray,
        market_caps: np.ndarray,
        groups: "Sequence[tuple[int, np.ndarray, float]]",
    ) -> "_Scan":
        """Clear every market of ``frame`` in one segmented scan.

        Markets are the PDU segments (``per_pdu``) or the whole frame.
        ``pdu_caps`` bounds each segment's total (Eq. 3), ``market_caps``
        each market's total (Eq. 4: the UPS, or one PDU's apportioned
        share), and each ``(market, rows, cap)`` group the total of its
        member rows.  Per market: bid admission, the demand sweep over
        the market's grid, feasibility, and the lowest price attaining
        the maximum revenue; then one grant evaluation at every row's
        market price.  Markets are swept in chunks so no scratch block
        exceeds ``_CHUNK_CELLS``.
        """
        prices, grid_starts = self._grid(frame, per_pdu)
        seg = frame.segment_of_row()
        n_seg, n_markets = pdu_caps.size, market_caps.size
        market = seg if per_pdu else np.zeros(len(frame), dtype=np.intp)

        # Bid admission: a bid whose demand exceeds the per-grant ceiling
        # min(rack headroom, PDU spot, market spot, group caps) at EVERY
        # acceptable price can never be satisfied; reject it up front so
        # one hopeless bid does not blank its whole market.
        ceiling = np.minimum(frame.rack_cap_w, pdu_caps[seg])
        np.minimum(ceiling, market_caps[market], out=ceiling)
        group_rows = [rows for _, rows, _ in groups]
        if groups:
            np.minimum.at(
                ceiling,
                np.concatenate(group_rows),
                np.repeat([cap for *_, cap in groups], [r.size for r in group_rows]),
            )
        rejected = frame.floor_w > ceiling + _TOL

        # Aggregates ordered by market, each market's PDUs before its
        # groups: a per-PDU market holds one PDU, the uniform one all.
        owner = np.concatenate(
            [
                np.arange(n_seg) if per_pdu else np.zeros(n_seg, dtype=np.intp),
                np.array([m for m, *_ in groups], dtype=np.intp),
            ]
        )
        order = np.argsort(2 * owner + (np.arange(owner.size) >= n_seg), kind="stable")
        rank = np.empty_like(order)
        rank[order] = np.arange(order.size)
        agg_market = owner[order]
        agg_cap = np.concatenate([pdu_caps, [cap for *_, cap in groups]])[order]
        agg_starts = np.searchsorted(agg_market, np.arange(n_markets + 1))
        # Memberships of admitted rows, frame row order within each.
        admitted = np.flatnonzero(~rejected)
        members = [rows[~rejected[rows]] for rows in group_rows]
        entry_row = np.concatenate([admitted, *members])
        entry_agg = np.concatenate(
            [rank[seg[admitted]]]
            + [np.full(r.size, rank[n_seg + k]) for k, r in enumerate(members)]
        )
        order = np.argsort(entry_agg, kind="stable")
        entry_row, entry_agg = entry_row[order], entry_agg[order]

        best_price = np.empty(n_markets)
        best_revenue = np.empty(n_markets)
        n_feasible = np.empty(n_markets, dtype=np.intp)
        for m0, m1 in _chunks(np.diff(agg_starts), np.diff(grid_starts)):
            a0, a1 = agg_starts[m0], agg_starts[m1]
            e0, e1 = np.searchsorted(entry_agg, [a0, a1])
            starts = grid_starts[m0 : m1 + 1] - grid_starts[m0]
            local = prices[grid_starts[m0] : grid_starts[m1]]
            demand = frame.market_demand(
                local, starts, agg_market[a0:a1] - m0,
                entry_agg[e0:e1] - a0, entry_row[e0:e1],
            )
            grid = padded_grids(local, starts)
            first = agg_starts[m0:m1] - a0
            ok = np.logical_and.reduceat(
                demand <= agg_cap[a0:a1, None] + _TOL, first, axis=0
            )
            # Market totals: a per-PDU market's one PDU row, or the
            # uniform market's PDU rows summed in PDU order.
            total = (
                demand[first]
                if per_pdu
                else demand[:n_seg].sum(axis=0, keepdims=True)
            )
            feasible = (
                ok
                & (total <= market_caps[m0:m1, None] + _TOL)
                & (np.arange(grid.shape[1]) < np.diff(starts)[:, None])
            )
            revenue = np.where(feasible, grid * total / 1000.0, -np.inf)  # $/h
            best = revenue.argmax(axis=1)  # lowest index wins ties
            pick = np.arange(m1 - m0)
            best_price[m0:m1] = grid[pick, best]
            best_revenue[m0:m1] = revenue[pick, best]
            n_feasible[m0:m1] = feasible.sum(axis=1)

        # A market with every bid rejected is priced out, not silent:
        # its racks appear with zero grants.  A market with no feasible
        # price clears nothing; the scan ends at the highest acceptable
        # price, and one step above it demand is zero (always feasible,
        # zero profit).
        all_rejected = np.logical_and.reduceat(
            rejected, frame.market_starts(per_pdu)[:-1]
        )
        cleared = (n_feasible > 0) & ~all_rejected
        listed = cleared | all_rejected
        sizes = np.diff(grid_starts)
        price = np.where(
            cleared, best_price, prices[grid_starts[1:] - 1] + self.params.price_step
        )
        granted = np.where(
            cleared[market] & ~rejected, frame.demand_at(price[market]), 0.0
        )
        # Per market: admitted racks in row order, then rejected ones.
        rows = listed[market]
        if rejected.any():
            rows = np.flatnonzero(rows)
            rows = rows[np.lexsort((rows, rejected[rows], market[rows]))]
            racks = [frame.rack_ids[i] for i in rows.tolist()]
        else:
            racks = itertools.compress(frame.rack_ids, rows.tolist())
        return _Scan(
            price=price,
            revenue=np.where(cleared & ~(best_revenue < 0.0), best_revenue, 0.0),
            candidates=np.where(listed, sizes, 0),
            feasible=np.where(cleared, n_feasible, 0),
            granted=granted,
            grants=dict(zip(racks, granted[rows].tolist())),
        )

    # ------------------------------------------------------------------
    # Locational (per-PDU) pricing
    # ------------------------------------------------------------------

    def clear_per_pdu(
        self,
        bids: "Sequence[RackBid] | BidFrame",
        pdu_spot_w: Mapping[str, float],
        ups_spot_w: float,
        extra_constraints: Sequence["CapacityConstraint"] = (),
    ) -> AllocationResult:
        """Clear with a *locational* uniform price per PDU.

        A single facility-wide price does not scale: in a large facility
        with many PDUs, at almost every slot *some* PDU's near-inelastic
        demand exceeds its local headroom, which forces the one global
        price above that demand's acceptable cap — pricing everyone out
        everywhere, including on PDUs with plenty of spare capacity.
        Locational pricing fixes this while keeping each PDU's clearing
        the paper's simple feasible-price scan (and keeping prices
        uniform across the racks that actually share a constraint).

        The facility-level (UPS) headroom is apportioned across PDUs in
        proportion to each PDU's servable interest
        ``min(P_m, local max demand)`` — demand-adaptive, and the sum of
        apportioned caps never exceeds ``P_o`` (Eq. 4 holds by
        construction).

        Each PDU's market is a contiguous *frame slice*; no per-slot
        object regrouping happens.  The combined allocation passes the
        shrink-only :func:`reconcile_allocation` guard on the way out.

        Returns:
            A combined allocation whose ``pdu_prices`` carries each
            PDU's clearing price; the headline ``price`` is the
            grant-weighted mean.
        """
        if ups_spot_w < 0:
            raise ClearingError(f"negative UPS spot capacity {ups_spot_w}")
        if not len(bids):
            return AllocationResult.empty()
        frame = bids if isinstance(bids, BidFrame) else BidFrame.from_bids(bids)
        caps, servable = self._apportion_pdu_caps(frame, pdu_spot_w, ups_spot_w)
        scan = self._scan(
            frame,
            True,
            caps,
            caps,
            _localize_constraints(frame, extra_constraints, servable),
        )
        _, seg_codes = frame.segments()
        revenue_rate = 0.0
        for rate in scan.revenue.tolist():  # sequential, in PDU order
            revenue_rate += rate
        granted = scan.granted
        total = float(granted.sum())
        headline = (
            float((scan.price[frame.segment_of_row()] * granted).sum()) / total
            if total > 0
            else 0.0
        )
        combined = AllocationResult(
            price=headline,
            grants_w=scan.grants,
            revenue_rate=revenue_rate,
            candidate_prices=int(scan.candidates.sum()),
            feasible_prices=int(scan.feasible.sum()),
            pdu_prices=dict(
                zip(
                    (frame.pdu_ids[s] for s in seg_codes.tolist()),
                    scan.price.tolist(),
                )
            ),
        )
        return reconcile_allocation(
            combined, frame, pdu_spot_w, ups_spot_w, granted=granted
        )

    def _apportion_pdu_caps(
        self,
        frame: BidFrame,
        pdu_spot_w: Mapping[str, float],
        ups_spot_w: float,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Per-segment spot caps after apportioning the UPS headroom.

        Returns the caps in :meth:`BidFrame.segments` order, plus each
        row's servable demand ``min(max demand, rack cap)`` shared with
        :func:`_localize_constraints`.  Apportioning by servable
        interest guarantees the caps sum to at most ``ups_spot_w``
        whenever total interest exceeds it (Eq. 4 by construction) —
        why :func:`reconcile_allocation` is a no-op on this path.
        """
        servable = np.minimum(frame.max_demand_w, frame.rack_cap_w)
        starts, seg_codes = frame.segments()
        local_interest = np.add.reduceat(servable, starts)
        interest = {
            frame.pdu_ids[int(seg)]: min(
                pdu_spot_w.get(frame.pdu_ids[int(seg)], 0.0), float(total)
            )
            for seg, total in zip(seg_codes, local_interest)
        }
        total_interest = ordered_sum(list(interest.values()))
        caps: list[float] = []
        for seg in seg_codes:
            pdu_id = frame.pdu_ids[int(seg)]
            local_cap = pdu_spot_w.get(pdu_id, 0.0)
            if total_interest > ups_spot_w and total_interest > 0:
                local_cap = min(
                    local_cap, ups_spot_w * interest[pdu_id] / total_interest
                )
            caps.append(local_cap)
        return np.array(caps), servable

class _Scan(typing.NamedTuple):
    """Per-market outcomes of one segmented scan, plus the row grants."""

    price: np.ndarray
    revenue: np.ndarray
    candidates: np.ndarray
    feasible: np.ndarray
    granted: np.ndarray
    grants: dict[str, float]


def _chunks(aggregates: np.ndarray, sizes: np.ndarray):
    """Runs of whole markets whose sweep block fits ``_CHUNK_CELLS``.

    A chunk's block is (its aggregates) x (its longest grid); a market
    larger than the budget on its own is swept alone.
    """
    start, rows, width = 0, 0, 0
    for m, (count, size) in enumerate(zip(aggregates.tolist(), sizes.tolist())):
        if m > start and (rows + count) * max(width, size) > _CHUNK_CELLS:
            yield start, m
            start, rows, width = m, 0, 0
        rows += count
        width = max(width, size)
    yield start, len(sizes)


def _row_order_sum(values: np.ndarray) -> float:
    """Sequential float sum in array order (no pairwise reordering)."""
    return float(np.add.accumulate(values)[-1])


def _localize_constraints(
    frame: BidFrame,
    extra_constraints: Sequence["CapacityConstraint"],
    servable: np.ndarray,
) -> list[tuple[int, np.ndarray, float]]:
    """Restrict rack-set constraints to the per-PDU markets they touch.

    Returns one ``(segment, rows, cap)`` group per constraint and PDU
    segment holding its racks.  Phase-balance constraints live within a
    single PDU, so they localize exactly.  A heat zone spanning several
    PDUs is apportioned by servable-demand share — a conservative
    decomposition (the per-PDU shares always sum to at most the zone
    cap).  Shares sum in frame row order, so the caps do not depend on
    set iteration order (and hence not on the hash seed).
    """
    seg = frame.segment_of_row()
    groups = []
    for constraint in extra_constraints:
        rows = frame.rows_for(constraint.rack_ids)
        if not rows.size:
            continue
        runs = np.split(rows, np.flatnonzero(np.diff(seg[rows])) + 1)
        whole = len(runs) == 1 and rows.size == len(constraint.rack_ids)
        total = _row_order_sum(servable[rows])
        for run in runs:
            if whole or total <= 0:
                cap = constraint.cap_w
            else:
                cap = constraint.cap_w * _row_order_sum(servable[run]) / total
            groups.append((int(seg[run[0]]), run, cap))
    return groups


def reconcile_allocation(
    result: AllocationResult,
    frame: BidFrame,
    pdu_spot_w: Mapping[str, float],
    ups_spot_w: float,
    tolerance_w: float = 1e-6,
    *,
    granted: np.ndarray | None = None,
) -> AllocationResult:
    """Shrink-only fix-up of a merged allocation against Eqs. 3-4.

    Closes every per-PDU clear.  When the allocation already satisfies
    every PDU cap and the UPS cap — which the apportioning guarantees
    (proof sketch in ``docs/sharding.md``) — the *same* result object
    is returned, floats untouched.  On a genuine violation (a future
    non-conservative apportioning, an external result), grants scale
    down per over-cap PDU and then globally against the UPS headroom; revenue
    and the grant-weighted headline price are recomputed from the
    surviving grants.  Grants only ever shrink, so rack caps (Eq. 2)
    stay satisfied and the clamps enforce Eqs. 3-4 directly.
    """
    if granted is None:
        granted = np.fromiter(
            (result.grants_w.get(rid, 0.0) for rid in frame.rack_ids),
            dtype=float,
            count=len(frame),
        )
    starts, seg_codes = frame.segments()
    totals = np.add.reduceat(granted, starts)
    caps = np.fromiter(
        (pdu_spot_w.get(frame.pdu_ids[int(s)], 0.0) for s in seg_codes),
        dtype=float,
        count=len(starts),
    )
    total = float(granted.sum())
    over_pdu = totals > caps + tolerance_w
    if not over_pdu.any() and total <= ups_spot_w + tolerance_w:
        return result

    scale = np.ones(len(starts))
    np.divide(caps, totals, out=scale, where=over_pdu)
    lengths = np.diff(np.concatenate([starts, [len(frame)]]))
    granted = granted * np.repeat(scale, lengths)
    total = float(granted.sum())
    if total > ups_spot_w + tolerance_w and total > 0:
        granted *= ups_spot_w / total
        total = float(granted.sum())

    grants = dict(zip(frame.rack_ids, granted.tolist()))
    # Preserve explicit zero entries for racks the clear priced out.
    for rid, g in result.grants_w.items():
        if rid not in grants:
            grants[rid] = g
    pdu_totals = np.add.reduceat(granted, starts) if len(frame) else totals
    revenue = 0.0
    row_prices = np.fromiter(
        (result.pdu_prices.get(p, result.price) for p in frame.pdu_ids),
        dtype=float,
        count=len(frame.pdu_ids),
    )
    for seg, sub_total in zip(seg_codes, pdu_totals):
        revenue += float(row_prices[int(seg)]) * float(sub_total) / 1000.0
    headline = (
        float((row_prices[frame.pdu_code] * granted).sum()) / total
        if total > 0
        else 0.0
    )
    return dataclasses.replace(
        result,
        price=headline,
        grants_w=grants,
        revenue_rate=revenue,
    )


def clear_market(
    bids: "Sequence[RackBid] | BidFrame",
    pdu_spot_w: Mapping[str, float],
    ups_spot_w: float,
    params: MarketParameters | None = None,
    per_pdu: bool = False,
    extra_constraints: Sequence["CapacityConstraint"] = (),
) -> AllocationResult:
    """Convenience one-shot clearing with default engine settings.

    Args:
        bids: Flattened per-rack bids (sequence or :class:`BidFrame`).
        pdu_spot_w: Predicted spot capacity per PDU.
        ups_spot_w: Predicted facility spot capacity.
        params: Market knobs.
        per_pdu: Use locational per-PDU pricing instead of one
            facility-wide price.
        extra_constraints: Phase-balance / heat-density bounds.
    """
    engine = MarketClearing(params=params or MarketParameters())
    if per_pdu:
        return engine.clear_per_pdu(
            bids, pdu_spot_w, ups_spot_w, extra_constraints
        )
    return engine.clear(bids, pdu_spot_w, ups_spot_w, extra_constraints)
