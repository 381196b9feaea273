"""Columnar bid representation: the ``BidFrame`` struct-of-arrays.

The clearing engine's hot path used to walk Python :class:`RackBid`
objects one at a time — admission, PDU grouping, demand accumulation,
and grant extraction all scaled with rack count in *interpreter* time.
A :class:`BidFrame` stores one slot's bids as flat, aligned ndarrays
(struct-of-arrays) so every stage of the pipeline — candidate-grid
construction, admission masking, the ``(n_bids, n_prices)`` demand
kernel, per-PDU segment sums, and grant extraction — runs in ndarray
time instead (paper Fig. 7b: 15,000 racks cleared in well under a
second at a 0.1 ¢/kW price step).

Design points:

* **Rows are sorted by PDU** (stably, preserving submission order within
  a PDU), so each PDU is a contiguous row segment: per-PDU sums are
  ``np.add.reduceat`` calls, and per-PDU locational clearing treats each
  segment as one *market* of the segmented scan
  (:meth:`BidFrame.market_grid`, :meth:`BidFrame.market_demand`) instead
  of regrouping objects.
* **The object API stays**: :meth:`BidFrame.from_bids` /
  :meth:`BidFrame.to_bids` form a thin adapter, so tenants, enforcement,
  faults, and settlement keep speaking :class:`RackBid`.
* ``LinearBid`` and ``StepBid`` rows evaluate through the exact
  closed-form kernel (:func:`repro.core.demand.demand_matrix`);
  ``FullBid`` and custom demand functions are *sampled* onto the price
  grid through their own ``demand_grid``.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

import numpy as np

from repro.core.bids import RackBid
from repro.core.demand import (
    DemandFunction,
    LinearBid,
    StepBid,
    demand_matrix,
)

__all__ = ["BidFrame", "PduBlock", "group_by_pdu"]


def _validate_columns(d_max, q_min, d_min, q_max, caps) -> None:
    """Vectorised admission checks for array-built frames.

    Mirrors :func:`repro.recovery.admission.inspect_rack_bid` check by
    check (same reasons, same order) so columnar and object callers
    reject the same inputs for the same stated reason.
    """
    from repro.errors import BidValidationError

    def first_bad(mask, reason, message):
        rows = np.flatnonzero(mask)
        if rows.size:
            raise BidValidationError(
                f"row {int(rows[0])}: {message}", reason=reason
            )

    finite = (
        np.isfinite(d_max)
        & np.isfinite(q_min)
        & np.isfinite(d_min)
        & np.isfinite(q_max)
        & np.isfinite(caps)
    )
    first_bad(~finite, "non_finite", "non-finite bid parameter")
    first_bad(q_max < q_min, "inverted_prices", "q_max below q_min")
    first_bad(d_min > d_max, "inverted_quantities", "D_min above D_max")
    negative = (d_max < 0) | (q_min < 0) | (d_min < 0) | (q_max < 0) | (caps < 0)
    first_bad(negative, "negative_value", "negative bid parameter")
    first_bad(
        d_max > caps * (1.0 + 1e-9) + 1e-9,
        "exceeds_rack_cap",
        "demand exceeds rack headroom",
    )

#: Row kinds: closed-form rows evaluate through the vectorised kernel;
#: sampled rows go through their demand object's ``demand_grid``.
KIND_CLOSED = 0
KIND_SAMPLED = 1


def _pairs(market: np.ndarray, price: np.ndarray) -> np.ndarray:
    """``(market, price)`` keys as complex numbers, which numpy orders
    lexicographically — one ``searchsorted`` spans every market.

    Built component-wise: ``market + 1j * price`` turns an infinite
    price into ``nan + inf j``.
    """
    keys = np.empty(np.shape(price), dtype=complex)
    keys.real = market
    keys.imag = price
    return keys


def padded_grids(prices: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """Concatenated market grids as a ``(markets, longest)`` matrix.

    Cells past a market's own grid repeat its last price; callers mask
    or ignore them.
    """
    sizes = np.diff(starts)
    cols = np.arange(int(sizes.max()) if sizes.size else 0)
    return prices[starts[:-1, None] + np.minimum(cols, sizes[:, None] - 1)]


def _merge_points(prices, starts, longest, point_market, points, step):
    """Merge breakpoints into per-market grids (see ``market_grid``).

    Every market's plain grid is a prefix of ``longest``, so one
    ``searchsorted`` places all points, and ``np.insert`` keeps points
    bound for the same slot in ascending order.  Exact duplicates go
    first (as ``np.unique`` would), then the tolerance dedupe — both
    only in markets that received points.
    """
    order = np.lexsort((points, point_market))
    point_market, points = point_market[order], points[order]
    size = np.diff(starts)
    at = starts[point_market] + np.minimum(
        np.searchsorted(longest, points), size[point_market]
    )
    prices = np.insert(prices, at, points)
    added = np.bincount(point_market, minlength=size.size)
    size = size + added
    plain = np.repeat(added == 0, size)
    for tolerance in (0.0, step * 1e-9):
        starts = np.concatenate([[0], np.cumsum(size)])
        keep = np.ones(prices.size, dtype=bool)
        np.greater(np.diff(prices), tolerance, out=keep[1:])
        keep[starts[:-1]] = True
        keep |= plain
        prices, plain = prices[keep], plain[keep]
        size = np.add.reduceat(keep, starts[:-1], dtype=np.intp)
    return prices, np.concatenate([[0], np.cumsum(size)])


def group_by_pdu(bids: Iterable[RackBid]) -> dict[str, list[RackBid]]:
    """Bids grouped by PDU id, submission order kept within each PDU."""
    groups: dict[str, list[RackBid]] = {}
    for b in bids:
        groups.setdefault(b.pdu_id, []).append(b)
    return groups


class PduBlock:
    """One PDU's bids encoded as frame columns — the only row encoder.

    :meth:`BidFrame.from_bids` and the incremental builder
    (:mod:`repro.core.sharding`) both encode rows here and concatenate
    blocks with :meth:`BidFrame.from_blocks`.  The tenant table is
    *local* (first appearance within this PDU's rows).
    """

    __slots__ = (
        "pdu_id",
        "bids",
        "rack_ids",
        "tenant_table",
        "tenant_code_local",
        "kind",
        "d_max_w",
        "q_min",
        "d_min_w",
        "q_max",
        "rack_cap_w",
        "max_demand_w",
        "floor_w",
        "demands",
    )

    def __init__(self, pdu_id: str, bids: tuple[RackBid, ...]) -> None:
        n = len(bids)
        tenant_index: dict[str, int] = {}
        tenant_code = np.fromiter(
            (
                tenant_index.setdefault(b.tenant_id, len(tenant_index))
                for b in bids
            ),
            dtype=np.intp,
            count=n,
        )
        kind = np.empty(n, dtype=np.uint8)
        d_max = np.empty(n)
        q_min = np.empty(n)
        d_min = np.empty(n)
        q_max = np.empty(n)
        caps = np.empty(n)
        max_demand = np.empty(n)
        floor = np.empty(n)
        demands: list[DemandFunction | None] = []
        for i, b in enumerate(bids):
            fn = b.demand
            caps[i] = b.rack_cap_w
            # The type checks are deliberately exact: subclasses may
            # override demand_at/demand_grid, so they must be sampled.
            if type(fn) is LinearBid:
                kind[i] = KIND_CLOSED
                d_max[i] = fn.d_max_w
                q_min[i] = fn.q_min
                d_min[i] = fn.d_min_w
                q_max[i] = fn.q_max
                max_demand[i] = fn.d_max_w
                demands.append(None)
            elif type(fn) is StepBid:
                kind[i] = KIND_CLOSED
                d_max[i] = fn.demand_w
                d_min[i] = fn.demand_w
                q_min[i] = fn.price_cap
                q_max[i] = fn.price_cap
                max_demand[i] = fn.demand_w
                demands.append(None)
            else:
                kind[i] = KIND_SAMPLED
                d_max[i] = 0.0
                d_min[i] = 0.0
                q_min[i] = 0.0
                q_max[i] = fn.max_price
                max_demand[i] = fn.max_demand_w
                demands.append(fn)
        # Rack-clipped demand at each row's own max acceptable price,
        # with the same float arithmetic as demand_at(max_price).
        for i, b in enumerate(bids):
            if kind[i] == KIND_CLOSED:
                at_cap = (
                    d_max[i]
                    if q_max[i] <= q_min[i]
                    else d_max[i] + (d_min[i] - d_max[i])
                )
            else:
                at_cap = b.demand.demand_at(b.demand.max_price)
            floor[i] = min(at_cap, caps[i])
        self.pdu_id = pdu_id
        self.bids = bids
        self.rack_ids = tuple(b.rack_id for b in bids)
        self.tenant_table = tuple(tenant_index)
        self.tenant_code_local = tenant_code
        self.kind = kind
        self.d_max_w = d_max
        self.q_min = q_min
        self.d_min_w = d_min
        self.q_max = q_max
        self.rack_cap_w = caps
        self.max_demand_w = max_demand
        self.floor_w = floor
        self.demands = tuple(demands)

    def __len__(self) -> int:
        return len(self.rack_ids)

    def __repr__(self) -> str:
        return f"PduBlock(pdu={self.pdu_id!r}, bids={len(self)})"


class BidFrame:
    """One slot's rack bids as aligned columns, sorted by PDU.

    Build with :meth:`from_bids` (adapter from the object API) or
    :meth:`from_arrays` (directly columnar, e.g. synthetic benchmark
    fleets).  All columns share row order; rows are grouped by PDU.

    Attributes:
        rack_ids: Rack id per row.
        pdu_ids: Unique PDU ids (sorted); ``pdu_code`` indexes into it.
        pdu_code: Per-row index into ``pdu_ids``.
        tenant_ids: Unique tenant ids; ``tenant_code`` indexes into it.
        tenant_code: Per-row index into ``tenant_ids``.
        kind: Per-row evaluation kind (closed-form vs sampled).
        d_max_w / q_min / d_min_w / q_max: Piece-wise linear bid columns
            (StepBid encoded as the degenerate ``q_min == q_max`` curve;
            for sampled rows only ``q_max`` — the max acceptable price —
            is meaningful).
        rack_cap_w: Physical rack spot headroom per row (Eq. 2 clip).
        max_demand_w: Demand at zero price per row.
        floor_w: Rack-clipped demand at the row's own maximum acceptable
            price — the least capacity the bid must receive at *any*
            acceptable price (drives admission).
    """

    __slots__ = (
        "rack_ids",
        "pdu_ids",
        "pdu_code",
        "tenant_ids",
        "tenant_code",
        "kind",
        "d_max_w",
        "q_min",
        "d_min_w",
        "q_max",
        "rack_cap_w",
        "max_demand_w",
        "floor_w",
        "_demands",
        "_bids",
        "_row_of",
        "_segments",
        "_sampled_rows",
        "_grid_cache",
    )

    def __init__(
        self,
        rack_ids: tuple[str, ...],
        pdu_ids: tuple[str, ...],
        pdu_code: np.ndarray,
        tenant_ids: tuple[str, ...],
        tenant_code: np.ndarray,
        kind: np.ndarray,
        d_max_w: np.ndarray,
        q_min: np.ndarray,
        d_min_w: np.ndarray,
        q_max: np.ndarray,
        rack_cap_w: np.ndarray,
        max_demand_w: np.ndarray,
        floor_w: np.ndarray,
        demands: tuple[DemandFunction | None, ...],
        bids: tuple[RackBid, ...] | None,
    ) -> None:
        self.rack_ids = rack_ids
        self.pdu_ids = pdu_ids
        self.pdu_code = pdu_code
        self.tenant_ids = tenant_ids
        self.tenant_code = tenant_code
        self.kind = kind
        self.d_max_w = d_max_w
        self.q_min = q_min
        self.d_min_w = d_min_w
        self.q_max = q_max
        self.rack_cap_w = rack_cap_w
        self.max_demand_w = max_demand_w
        self.floor_w = floor_w
        self._demands = demands
        self._bids = bids
        self._row_of: dict[str, int] | None = None
        self._segments: tuple[np.ndarray, np.ndarray] | None = None
        self._sampled_rows: np.ndarray | None = None
        self._grid_cache: dict | None = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def from_bids(cls, bids: Sequence[RackBid]) -> "BidFrame":
        """Build the columnar frame from object bids (the slot adapter).

        Bids are grouped by PDU (submission order kept within each PDU),
        encoded one :class:`PduBlock` per PDU, and assembled through
        :meth:`from_blocks` — the same route the incremental builder
        takes, so every row is encoded by one function.
        """
        groups = group_by_pdu(bids)
        return cls.from_blocks(
            [PduBlock(p, tuple(groups[p])) for p in sorted(groups)]
        )

    @classmethod
    def from_arrays(
        cls,
        rack_ids: Sequence[str],
        pdu_ids: Sequence[str],
        tenant_ids: Sequence[str],
        d_max_w: Iterable[float],
        q_min: Iterable[float],
        d_min_w: Iterable[float],
        q_max: Iterable[float],
        rack_cap_w: Iterable[float],
        validate: bool = False,
    ) -> "BidFrame":
        """Build a frame of LinearBid rows directly from columns.

        ``pdu_ids`` / ``tenant_ids`` here are *per-row* (parallel to
        ``rack_ids``); the frame deduplicates them into its code tables.
        No :class:`RackBid` objects are materialised — :meth:`to_bids`
        creates them lazily if ever asked.

        With ``validate`` the columns pass the admission checks of
        :mod:`repro.recovery.admission` in one vectorised sweep —
        columnar callers (benchmark fleets, replayed bid logs) bypass
        the per-object front door, so this is their equivalent guard.
        Raises :class:`repro.errors.BidValidationError` on the first
        violated check.
        """
        if validate:
            _validate_columns(
                np.asarray(d_max_w, dtype=float),
                np.asarray(q_min, dtype=float),
                np.asarray(d_min_w, dtype=float),
                np.asarray(q_max, dtype=float),
                np.asarray(rack_cap_w, dtype=float),
            )
        d_max = np.ascontiguousarray(d_max_w, dtype=float)
        n = d_max.shape[0]
        unique_pdus = tuple(sorted(set(pdu_ids)))
        pdu_index = {p: i for i, p in enumerate(unique_pdus)}
        raw_code = np.fromiter(
            (pdu_index[p] for p in pdu_ids), dtype=np.intp, count=n
        )
        order = np.argsort(raw_code, kind="stable")
        rack_col = tuple(rack_ids[int(i)] for i in order)
        tenant_col = [tenant_ids[int(i)] for i in order]
        unique_tenants = tuple(dict.fromkeys(tenant_col))
        tenant_index = {t: i for i, t in enumerate(unique_tenants)}
        d_max = d_max[order]
        q_lo = np.ascontiguousarray(q_min, dtype=float)[order]
        d_min = np.ascontiguousarray(d_min_w, dtype=float)[order]
        q_hi = np.ascontiguousarray(q_max, dtype=float)[order]
        caps = np.ascontiguousarray(rack_cap_w, dtype=float)[order]
        floor = np.minimum(
            np.where(q_hi <= q_lo, d_max, d_max + (d_min - d_max)), caps
        )
        return cls(
            rack_ids=rack_col,
            pdu_ids=unique_pdus,
            pdu_code=raw_code[order],
            tenant_ids=unique_tenants,
            tenant_code=np.fromiter(
                (tenant_index[t] for t in tenant_col), dtype=np.intp, count=n
            ),
            kind=np.zeros(n, dtype=np.uint8),
            d_max_w=d_max,
            q_min=q_lo,
            d_min_w=d_min,
            q_max=q_hi,
            rack_cap_w=caps,
            max_demand_w=d_max,
            floor_w=floor,
            demands=(None,) * n,
            bids=None,
        )

    @classmethod
    def from_blocks(cls, blocks: Sequence) -> "BidFrame":
        """Assemble a frame from per-PDU column blocks (sorted by PDU).

        Blocks are :class:`PduBlock` objects: one PDU's rows, already
        columnar, with a *local* tenant table.  Rows concatenate in
        block (= PDU-sorted, submission-stable) order, and the merged
        tenant table preserves first appearance over rows — within a
        block the local table is first-appearance ordered, and blocks
        merge in row order, so ``dict.setdefault`` over block tables
        yields first-appearance order over the whole frame.
        """
        blocks = [b for b in blocks if len(b.rack_ids)]
        if not blocks:
            codes = np.empty(0, dtype=np.intp)
            empty = np.empty(0)
            return cls(
                rack_ids=(),
                pdu_ids=(),
                pdu_code=codes,
                tenant_ids=(),
                tenant_code=codes,
                kind=np.empty(0, dtype=np.uint8),
                d_max_w=empty,
                q_min=empty,
                d_min_w=empty,
                q_max=empty,
                rack_cap_w=empty,
                max_demand_w=empty,
                floor_w=empty,
                demands=(),
                bids=(),
            )
        tenant_index: dict[str, int] = {}
        tenant_cols = []
        pdu_cols = []
        for i, b in enumerate(blocks):
            remap = np.fromiter(
                (
                    tenant_index.setdefault(t, len(tenant_index))
                    for t in b.tenant_table
                ),
                dtype=np.intp,
                count=len(b.tenant_table),
            )
            tenant_cols.append(remap[b.tenant_code_local])
            pdu_cols.append(np.full(len(b.rack_ids), i, dtype=np.intp))
        return cls(
            rack_ids=tuple(r for b in blocks for r in b.rack_ids),
            pdu_ids=tuple(b.pdu_id for b in blocks),
            pdu_code=np.concatenate(pdu_cols),
            tenant_ids=tuple(tenant_index),
            tenant_code=np.concatenate(tenant_cols),
            kind=np.concatenate([b.kind for b in blocks]),
            d_max_w=np.concatenate([b.d_max_w for b in blocks]),
            q_min=np.concatenate([b.q_min for b in blocks]),
            d_min_w=np.concatenate([b.d_min_w for b in blocks]),
            q_max=np.concatenate([b.q_max for b in blocks]),
            rack_cap_w=np.concatenate([b.rack_cap_w for b in blocks]),
            max_demand_w=np.concatenate([b.max_demand_w for b in blocks]),
            floor_w=np.concatenate([b.floor_w for b in blocks]),
            demands=tuple(d for b in blocks for d in b.demands),
            bids=tuple(bid for b in blocks for bid in b.bids),
        )

    # ------------------------------------------------------------------
    # Adapter back to the object API
    # ------------------------------------------------------------------

    def to_bids(self) -> tuple[RackBid, ...]:
        """The frame's rows as :class:`RackBid` objects (frame row order).

        Frames built by :meth:`from_bids` return the original objects;
        array-built frames materialise equivalent ``LinearBid`` rows.
        """
        if self._bids is None:
            self._bids = tuple(
                RackBid(
                    rack_id=self.rack_ids[i],
                    pdu_id=self.pdu_ids[int(self.pdu_code[i])],
                    tenant_id=self.tenant_ids[int(self.tenant_code[i])],
                    demand=(
                        self._demands[i]
                        if self._demands[i] is not None
                        else LinearBid(
                            float(self.d_max_w[i]),
                            float(self.q_min[i]),
                            float(self.d_min_w[i]),
                            float(self.q_max[i]),
                        )
                    ),
                    rack_cap_w=float(self.rack_cap_w[i]),
                )
                for i in range(len(self))
            )
        return self._bids

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.rack_ids)

    def __repr__(self) -> str:
        return (
            f"BidFrame(bids={len(self)}, pdus={len(self.pdu_ids)}, "
            f"tenants={len(self.tenant_ids)})"
        )

    @property
    def row_of(self) -> dict[str, int]:
        """Rack id → row index (built lazily, cached)."""
        if self._row_of is None:
            self._row_of = {rid: i for i, rid in enumerate(self.rack_ids)}
        return self._row_of

    def rows_for(self, rack_ids: Iterable[str]) -> np.ndarray:
        """Sorted row indices of the racks present in this frame."""
        row_of = self.row_of
        rows = [row_of[r] for r in rack_ids if r in row_of]
        rows.sort()
        return np.asarray(rows, dtype=np.intp)

    def segments(self) -> tuple[np.ndarray, np.ndarray]:
        """Contiguous per-PDU row segments: ``(starts, segment_codes)``.

        ``starts`` are the first-row indices of each non-empty PDU run
        (suitable for ``np.add.reduceat``); ``segment_codes`` maps each
        run back to its index in :attr:`pdu_ids`.
        """
        if self._segments is None:
            boundaries = np.flatnonzero(np.diff(self.pdu_code)) + 1
            starts = np.concatenate([[0], boundaries]) if len(self) else boundaries
            self._segments = (starts, self.pdu_code[starts])
        return self._segments

    @property
    def sampled_rows(self) -> np.ndarray:
        """Row indices that must be sampled through their demand object."""
        if self._sampled_rows is None:
            self._sampled_rows = np.flatnonzero(self.kind == KIND_SAMPLED)
        return self._sampled_rows

    def segment_of_row(self) -> np.ndarray:
        """Per-row index into :meth:`segments`."""
        starts, _ = self.segments()
        return np.repeat(
            np.arange(starts.size), np.diff(np.append(starts, len(self)))
        )

    def market_starts(self, per_pdu: bool) -> np.ndarray:
        """Row offsets of the frame's markets, ``(n_markets + 1,)``.

        A *market* is a run of rows sharing one price grid: each PDU
        segment (``per_pdu``) or the whole frame.
        """
        starts = self.segments()[0] if per_pdu else np.zeros(1, dtype=np.intp)
        return np.append(starts, len(self))

    # ------------------------------------------------------------------
    # Price grids
    # ------------------------------------------------------------------

    def market_grid(
        self,
        per_pdu: bool,
        lo: float,
        max_price: float,
        step: float,
        include_breakpoints: bool,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Every market's ascending scan grid, concatenated.

        Returns ``(prices, starts)``: market ``m`` scans
        ``prices[starts[m]:starts[m + 1]]``.  Each grid is the fixed-step
        grid over ``[lo, hi]`` with ``hi`` the lower of ``max_price`` and
        the market's highest acceptable bid price (no bid demands
        anything above it), or just ``[lo]`` when ``hi < lo``.  It is
        built overshoot-free — ``np.arange(lo, hi + step, step)`` can
        overshoot ``hi`` by a whole element under float error, so the
        steps are counted explicitly.

        With ``include_breakpoints`` every bid's curve breakpoints
        (``q_min`` / ``q_max`` / ``price_cap``) inside ``[lo, hi]`` join
        its market's grid, so coarse steps do not miss profit kinks.
        Merged values within ``step * 1e-9`` of their predecessor
        collapse onto the *smaller* one, which at a ``q_max`` kink is the
        breakpoint itself; markets that received no breakpoint keep the
        plain grid.  All markets merge in one pass (each plain grid is
        a prefix of the longest, so one ``searchsorted`` places every
        breakpoint).

        Frames are immutable once built, so the grids are cached per
        frame: the incremental builder hands the engine the *same frame
        object* on unchanged-bid slots, turning the rebuild into a dict
        hit.
        """
        key = (per_pdu, lo, max_price, step, include_breakpoints)
        if self._grid_cache is None:
            self._grid_cache = {}
        cached = self._grid_cache.get(key)
        if cached is not None:
            return cached
        rows = self.market_starts(per_pdu)
        if len(self):
            hi = np.minimum(max_price, np.maximum.reduceat(self.q_max, rows[:-1]))
        else:
            hi = np.full(rows.size - 1, float(max_price))
        with np.errstate(invalid="ignore"):
            count = np.floor((hi - lo) / step * (1.0 + 1e-12) + 1e-9)
        count = np.where(hi < lo, 1, count.astype(np.intp) + 1)
        # Every market's plain grid is a prefix of the longest one.
        longest = lo + step * np.arange(int(count.max()) if count.size else 0)
        prices = np.concatenate([longest[:0], *(longest[:n] for n in count.tolist())])
        starts = np.concatenate([[0], np.cumsum(count)])
        if include_breakpoints and len(self):
            row_market = np.repeat(np.arange(count.size), np.diff(rows))
            closed = self.kind == KIND_CLOSED
            point_market = [row_market[closed], row_market[closed]]
            points = [self.q_min[closed], self.q_max[closed]]
            for row in self.sampled_rows:
                fn = self._demands[int(row)]
                for attr in ("q_min", "q_max", "price_cap"):
                    value = getattr(fn, attr, None)
                    if value is not None:
                        point_market.append(row_market[[row]])
                        points.append(np.array([float(value)]))
            point_market = np.concatenate(point_market)
            points = np.concatenate(points)
            inside = (points >= lo) & (points <= hi[point_market])
            if inside.any():
                prices, starts = _merge_points(
                    prices, starts, longest, point_market[inside], points[inside], step
                )
        grid = (prices, starts)
        self._grid_cache[key] = grid
        return grid

    # ------------------------------------------------------------------
    # Demand evaluation
    # ------------------------------------------------------------------

    def demand_matrix(
        self, prices: np.ndarray, out: np.ndarray | None = None
    ) -> np.ndarray:
        """Rack-clipped ``(n_bids, n_prices)`` demand over a price grid."""
        rows = self.sampled_rows
        return demand_matrix(
            self.d_max_w,
            self.q_min,
            self.d_min_w,
            self.q_max,
            self.rack_cap_w,
            prices,
            sampled_rows=rows,
            sampled_demands=tuple(self._demands[int(r)] for r in rows),
            out=out,
        )

    def demand_at(self, price: "float | np.ndarray") -> np.ndarray:
        """Rack-clipped demand vector at one price, or at one price per
        row (grant extraction)."""
        price = np.asarray(price, dtype=float)
        column = price.reshape(-1, 1) if price.ndim else price[None]
        return self.demand_matrix(column)[:, 0]

    def pdu_demand(
        self, demand: np.ndarray, out: np.ndarray | None = None
    ) -> np.ndarray:
        """Per-PDU totals of a ``(n_bids, n_prices)`` demand block.

        Rows are PDU-sorted, so this is a contiguous segment sum.
        """
        if out is None:
            out = np.zeros((len(self.pdu_ids), demand.shape[1]))
        starts, seg_codes = self.segments()
        out[seg_codes] = np.add.reduceat(demand, starts, axis=0)
        return out

    def demand_totals(
        self,
        prices: np.ndarray,
        group_rows: "Sequence[np.ndarray]" = (),
    ) -> tuple[np.ndarray, np.ndarray]:
        """Per-PDU and per-group demand totals over one price grid.

        The one-market case of :meth:`market_demand`: returns
        ``(pdu_demand, group_demand)`` with shapes ``(n_pdus, P)`` and
        ``(len(group_rows), P)``; ``group_rows`` holds the frame row
        indices of each extra constraint group's member racks.
        """
        prices = np.asarray(prices, dtype=float)
        n_pdu = len(self.pdu_ids)
        agg = [self.pdu_code] + [
            np.full(len(rows), n_pdu + k, dtype=np.intp)
            for k, rows in enumerate(group_rows)
        ]
        rows = [np.arange(len(self))] + [
            np.asarray(r, dtype=np.intp) for r in group_rows
        ]
        agg = np.concatenate(agg)
        order = np.argsort(agg, kind="stable")
        totals = self.market_demand(
            prices,
            np.array([0, prices.size]),
            np.zeros(n_pdu + len(group_rows), dtype=np.intp),
            agg[order],
            np.concatenate(rows)[order],
        )
        return totals[:n_pdu], totals[n_pdu:]

    def market_demand(
        self,
        prices: np.ndarray,
        starts: np.ndarray,
        agg_market: np.ndarray,
        entry_agg: np.ndarray,
        entry_row: np.ndarray,
    ) -> np.ndarray:
        """Rack-clipped demand totals of many aggregates at once.

        This is the clearing scan's workhorse.  Markets are given as
        concatenated ascending grids (``prices[starts[m]:starts[m+1]]``,
        as :meth:`market_grid` builds them).  An *aggregate* sums the
        demand of its member rows over its market's grid: a PDU, or an
        extra constraint group.  ``agg_market`` maps aggregates to
        markets; ``(entry_agg, entry_row)`` lists memberships, sorted by
        aggregate and, within one, in frame row order.

        Materialising the full ``(n_bids, n_prices)`` demand matrix and
        summing it is O(n x P) in time and memory traffic; but each
        closed-form row is piece-wise *linear* in price — flat at
        ``min(d_max, cap)``, one descending segment, then zero — so its
        contribution to a total is three breakpoints.  The totals are
        built as difference arrays (slope/intercept increments at each
        row's breakpoint indices, found for all markets by one
        ``searchsorted`` over ``(market, price)`` keys), scattered into
        one ``(aggregates x P)`` block and integrated by one row-wise
        ``cumsum``: O(n log P + aggregates x P) with ``P`` the longest
        grid.  Cells past a market's own grid are padding.

        An exact integer count of active rows per cell pins totals to
        exactly 0.0 where no row demands anything — float cancellation
        noise there could otherwise masquerade as revenue.  Sampled rows
        (``FullBid`` and custom curves) are evaluated through their own
        ``demand_grid`` and added in.
        """
        grid = padded_grids(prices, starts)
        n_agg, n_prices = agg_market.size, grid.shape[1]
        width = n_prices + 1
        d_const = np.zeros((n_agg, width))
        d_slope = np.zeros((n_agg, width))
        d_count = np.zeros((n_agg, width), dtype=np.int64)
        closed = self.kind[entry_row] == KIND_CLOSED
        rows = entry_row[closed]
        agg = entry_agg[closed]
        market = agg_market[agg]
        first = starts[market]
        size = starts[market + 1] - first
        one_market = starts.size == 2
        keys = (
            prices
            if one_market
            else _pairs(np.repeat(np.arange(starts.size - 1), np.diff(starts)), prices)
        )

        def index(values, side="right"):
            """Each row's insertion index into its own market's grid."""
            query = values if one_market else _pairs(market, values)
            return np.searchsorted(keys, query, side=side) - first

        d_max = self.d_max_w[rows]
        d_min = self.d_min_w[rows]
        q_lo = self.q_min[rows]
        q_hi = self.q_max[rows]
        cap = self.rack_cap_w[rows]

        flat_w = np.minimum(d_max, cap)
        # Demand is zero strictly above q_max: first grid index past it.
        j_end = index(q_hi)
        span = q_hi - q_lo
        safe_span = np.where(span > 0, span, 1.0)
        slope = np.where(span > 0, (d_min - d_max) / safe_span, 0.0)
        # A descending segment exists only when the curve actually
        # falls and the rack cap does not flatten it entirely.
        sloped = (slope < 0) & (cap > d_min)
        intercept = d_max - slope * q_lo
        # Where the rack cap cuts the descending segment, the row
        # stays flat (at the cap) until the line drops below it.
        safe_slope = np.where(slope < 0, slope, -1.0)
        # Near-flat curves make this quotient overflow to +/-inf;
        # searchsorted and the clamp below absorb either extreme.
        with np.errstate(over="ignore"):
            crossing = np.where(
                sloped & (cap < d_max),
                (cap - intercept) / safe_slope,
                q_lo,
            )
        j_start = np.minimum(index(np.maximum(q_lo, crossing)), j_end)
        # For cap-clipped rows the division can land the crossing a
        # float-ulp on the wrong side of a grid point; classify the
        # boundary point by value (j_start must be the first index
        # where the line is below the cap) so flat cells are exactly
        # `cap`, matching min(demand_grid, cap) bit for bit.
        # Unclipped rows break at q_lo, which searchsorted gets exact.
        clipped = sloped & (cap < d_max)
        at_prev = intercept + slope * prices[first + np.maximum(j_start - 1, 0)]
        j_start = np.where(
            clipped & (j_start > 0) & (at_prev < cap), j_start - 1, j_start
        )
        at_here = intercept + slope * prices[first + np.minimum(j_start, size - 1)]
        j_start = np.where(
            clipped & (j_start < j_end) & (at_here >= cap), j_start + 1, j_start
        )
        j_start = np.minimum(j_start, j_end)
        j_start = np.where(sloped, j_start, j_end)
        # The active count pins totals to exactly 0.0 where *no row
        # can demand anything* — so it must exclude zero-size rows
        # and, for curves falling to d_min == 0, the q_max grid
        # point itself (demand there is exactly zero).  Otherwise
        # cumsum cancellation residue (~1e-16) from other rows'
        # add/remove pairs survives the mask and masquerades as
        # revenue in empty regions of the scan.
        counted = flat_w > 0
        j_count = np.where(sloped & (d_min == 0.0), index(q_hi, "left"), j_end)

        # One scatter per difference term, rows in frame order within
        # each aggregate (np.add.at applies indices in order), so every
        # cell sums exactly as a one-market sweep would.
        cells = agg * width
        base = np.zeros(n_agg)
        np.add.at(base, agg, flat_w)
        d_const[:, 0] += base
        np.add.at(d_const.ravel(), cells + j_start, -flat_w)
        counts = np.zeros(n_agg, dtype=np.int64)
        np.add.at(counts, agg[counted], 1)
        d_count[:, 0] += counts
        np.add.at(d_count.ravel(), (cells + j_count)[counted], -1)
        lin = np.flatnonzero(sloped)
        if lin.size:
            np.add.at(d_const.ravel(), cells[lin] + j_start[lin], intercept[lin])
            np.add.at(d_const.ravel(), cells[lin] + j_end[lin], -intercept[lin])
            np.add.at(d_slope.ravel(), cells[lin] + j_start[lin], slope[lin])
            np.add.at(d_slope.ravel(), cells[lin] + j_end[lin], -slope[lin])
        if not one_market:
            grid = grid[agg_market]
        total = (
            np.cumsum(d_const[:, :n_prices], axis=1)
            + np.cumsum(d_slope[:, :n_prices], axis=1) * grid
        )
        np.maximum(total, 0.0, out=total)
        total[np.cumsum(d_count[:, :n_prices], axis=1) == 0] = 0.0

        for k in np.flatnonzero(~closed):
            row, a = int(entry_row[k]), int(entry_agg[k])
            m = int(agg_market[a])
            fn = self._demands[row]
            demand = np.minimum(
                fn.demand_grid(prices[starts[m] : starts[m + 1]]),
                self.rack_cap_w[row],
            )
            total[a, : demand.size] += demand
        return total

    # ------------------------------------------------------------------
    # Settlement
    # ------------------------------------------------------------------

    def settle(
        self,
        grants_w: "Sequence[float] | np.ndarray | dict[str, float]",
        pdu_prices: "dict[str, float]",
        headline_price: float,
        slot_seconds: float,
        positive_only: bool = False,
    ) -> tuple[float, dict[str, float]]:
        """Bill a set of grants: ``(revenue_rate $/h, payments by tenant)``.

        Accepts either a per-row grant vector (frame row order) or a
        rack-id keyed mapping; racks absent from the mapping pay nothing
        and do not surface their tenant in the payment dict.  With
        ``positive_only`` (the revocation path), only strictly positive
        grants create a tenant entry.
        """
        if isinstance(grants_w, dict):
            grants = np.fromiter(
                (grants_w.get(rid, 0.0) for rid in self.rack_ids),
                dtype=float,
                count=len(self),
            )
            billed = np.fromiter(
                (rid in grants_w for rid in self.rack_ids),
                dtype=bool,
                count=len(self),
            )
        else:
            grants = np.asarray(grants_w, dtype=float)
            billed = np.ones(len(self), dtype=bool)
        if positive_only:
            billed = billed & (grants > 0)
        prices = np.fromiter(
            (pdu_prices.get(p, headline_price) for p in self.pdu_ids),
            dtype=float,
            count=len(self.pdu_ids),
        )[self.pdu_code]
        rates = np.where(billed, prices * grants / 1000.0, 0.0)
        per_tenant = np.zeros(len(self.tenant_ids))
        np.add.at(per_tenant, self.tenant_code, rates * (slot_seconds / 3600.0))
        has_entry = np.zeros(len(self.tenant_ids), dtype=bool)
        has_entry[self.tenant_code[billed]] = True
        payments = {
            tid: float(per_tenant[i])
            for i, tid in enumerate(self.tenant_ids)
            if has_entry[i]
        }
        return float(rates.sum()), payments
