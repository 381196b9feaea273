"""Incremental frame building: persistent per-PDU blocks across slots.

At 15k racks the clear itself runs in ~11 ms, but rebuilding the
:class:`~repro.core.frame.BidFrame` struct-of-arrays from scratch costs
~32 ms *every slot*, even when no bid changed.
:class:`IncrementalFrameBuilder` keeps the per-PDU column blocks
(:class:`~repro.core.frame.PduBlock`) alive across slots and re-encodes
only the PDUs whose bids actually changed since the previous slot; an
unchanged slot returns the previous frame *object* (which also keeps its
cached price grid and PDU slices alive downstream).

The per-PDU decomposition of the clear itself, and the shrink-only
reconcile guard that closes it, live in :mod:`repro.core.clearing`
(see ``docs/sharding.md``).
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.core.bids import RackBid
from repro.core.demand import LinearBid, StepBid
from repro.core.frame import BidFrame, PduBlock, group_by_pdu

__all__ = ["IncrementalFrameBuilder"]


def _same_bid(old: RackBid, new: RackBid) -> bool:
    """Value equality for one bid, demand curves compared by parameters.

    Demand functions are plain classes without ``__eq__``, and tenants
    construct fresh bid objects every slot — identity alone would mark
    every block dirty.  Closed-form curves compare by their defining
    floats; anything else (FullBid, custom subclasses) is conservatively
    treated as changed, which costs a rebuild but never staleness.
    """
    if old is new:
        return True
    if (
        old.rack_id != new.rack_id
        or old.pdu_id != new.pdu_id
        or old.tenant_id != new.tenant_id
        or old.rack_cap_w != new.rack_cap_w
    ):
        return False
    fo, fn = old.demand, new.demand
    if fo is fn:
        return True
    kind = type(fo)
    if kind is not type(fn):
        return False
    if kind is LinearBid:
        return (
            fo.d_max_w == fn.d_max_w
            and fo.q_min == fn.q_min
            and fo.d_min_w == fn.d_min_w
            and fo.q_max == fn.q_max
        )
    if kind is StepBid:
        return fo.demand_w == fn.demand_w and fo.price_cap == fn.price_cap
    return False


def _same_bids(old: Sequence[RackBid], new: Sequence[RackBid]) -> bool:
    return len(old) == len(new) and all(
        _same_bid(o, n) for o, n in zip(old, new)
    )


class IncrementalFrameBuilder:
    """Build each slot's :class:`BidFrame` from persistent PDU blocks.

    ``build(bids)`` groups the slot's bids by PDU exactly as
    :meth:`BidFrame.from_bids` does, reuses every block whose bids are
    value-unchanged since the previous slot, rebuilds only the dirty
    ones, and assembles the frame through :meth:`BidFrame.from_blocks`.
    A slot with *no* dirty or removed PDUs returns the previous frame
    object itself, so downstream per-frame caches (price grid, PDU
    slices) survive across slots too.

    The builder is plain state on the allocator: checkpointing pickles
    it with the engine, and because its output is value-identical to
    ``from_bids`` regardless of cache contents, crash/resume stays
    byte-identical whether the cache was warm or cold.

    Attributes:
        last_dirty: PDU ids rebuilt (or removed) by the latest build,
            sorted — the invalidation set tests assert on.
        builds / rebuilt_pdus / reused_pdus: Monotone counters for
            benchmarks and telemetry.
    """

    def __init__(self) -> None:
        self._blocks: dict[str, PduBlock] = {}
        self._frame: BidFrame | None = None
        self.last_dirty: tuple[str, ...] = ()
        self.builds = 0
        self.rebuilt_pdus = 0
        self.reused_pdus = 0

    def build(self, bids: Sequence[RackBid]) -> BidFrame:
        """The slot's frame, value-identical to ``BidFrame.from_bids``."""
        self.builds += 1
        groups = group_by_pdu(bids)
        removed = [p for p in self._blocks if p not in groups]
        dirty: list[str] = []
        blocks: dict[str, PduBlock] = {}
        for pdu_id, group in groups.items():
            old = self._blocks.get(pdu_id)
            if old is not None and _same_bids(old.bids, group):
                blocks[pdu_id] = old
                self.reused_pdus += 1
            else:
                blocks[pdu_id] = PduBlock(pdu_id, tuple(group))
                dirty.append(pdu_id)
                self.rebuilt_pdus += 1
        self.last_dirty = tuple(sorted(set(dirty) | set(removed)))
        self._blocks = blocks
        if not self.last_dirty and self._frame is not None:
            return self._frame
        frame = BidFrame.from_blocks([blocks[p] for p in sorted(blocks)])
        self._frame = frame
        return frame
