"""Bid containers: per-rack bids and bundled multi-rack tenant bids.

A tenant submits at most one demand function per rack that needs spot
capacity (racks that need nothing submit nothing — that is what keeps the
market lightweight, paper Section III-C "Scalability").  Because the
power budgets of a tenant's racks jointly determine application
performance, tenants bundle their per-rack bids into one
:class:`TenantBid` with shared price parameters (Section III-B3).
"""

from __future__ import annotations

import dataclasses
from collections.abc import Iterable, Sequence

from repro.core.demand import DemandFunction, LinearBid
from repro.errors import BidError
from repro.power.elementwise import ordered_sum

__all__ = ["RackBid", "TenantBid", "bundle_linear_bid", "flatten_bids"]


@dataclasses.dataclass(frozen=True)
class RackBid:
    """One rack's spot-capacity bid, as seen by the clearing engine.

    Attributes:
        rack_id: Rack the demand applies to.
        pdu_id: PDU feeding the rack (denormalised here so clearing does
            not need the topology object).
        tenant_id: Owner, used for billing the cleared allocation.
        demand: The rack's demand function.
        rack_cap_w: Physical spot headroom ``P_r^R`` of the rack; the
            clearing engine clips demand to this (Eq. 2).
    """

    rack_id: str
    pdu_id: str
    tenant_id: str
    demand: DemandFunction
    rack_cap_w: float

    def __post_init__(self) -> None:
        if self.rack_cap_w < 0:
            raise BidError(
                f"rack {self.rack_id}: rack_cap_w must be >= 0, got {self.rack_cap_w}"
            )

    def clipped_demand_at(self, price: float) -> float:
        """Demand at ``price``, clipped to the rack's physical headroom."""
        return min(self.demand.demand_at(price), self.rack_cap_w)


@dataclasses.dataclass(frozen=True)
class TenantBid:
    """A bundled bid covering all of one tenant's racks that need capacity.

    The paper's bundled bid shares the two price parameters across racks
    while each rack gets its own quantity pair; this container does not
    enforce that (tenants "can bid freely", Section III-B3) but
    :func:`bundle_linear_bid` builds the shared-price form.
    """

    tenant_id: str
    rack_bids: tuple[RackBid, ...]

    def __post_init__(self) -> None:
        if not self.rack_bids:
            raise BidError(f"tenant {self.tenant_id}: empty bid bundle")
        for bid in self.rack_bids:
            if bid.tenant_id != self.tenant_id:
                raise BidError(
                    f"tenant {self.tenant_id}: bundled bid for rack "
                    f"{bid.rack_id} carries tenant {bid.tenant_id}"
                )
        rack_ids = [b.rack_id for b in self.rack_bids]
        if len(set(rack_ids)) != len(rack_ids):
            raise BidError(
                f"tenant {self.tenant_id}: duplicate rack in bundle: {rack_ids}"
            )

    @property
    def parameter_count(self) -> int:
        """Number of solicited parameters (4 per rack for LinearBid)."""
        return 4 * len(self.rack_bids)

    def total_demand_at(self, price: float) -> float:
        """Bundle-wide demand at a price, rack-clipped."""
        return ordered_sum([b.clipped_demand_at(price) for b in self.rack_bids])


def bundle_linear_bid(
    tenant_id: str,
    racks: Sequence[tuple[str, str, float]],
    d_max_w: Sequence[float],
    d_min_w: Sequence[float],
    q_min: float,
    q_max: float,
) -> TenantBid:
    """Build the paper's shared-price bundled linear bid.

    The tenant decides maximum and minimum demand *vectors* for its K
    racks, joined affinely between the two shared prices (Section
    III-B3, Fig. 4).

    Args:
        tenant_id: Bidding tenant.
        racks: ``(rack_id, pdu_id, rack_cap_w)`` per participating rack.
        d_max_w: Maximum demand vector (one entry per rack).
        d_min_w: Minimum demand vector.
        q_min: Shared price up to which the maximum vector is demanded.
        q_max: Shared maximum acceptable price.
    """
    if not (len(racks) == len(d_max_w) == len(d_min_w)):
        raise BidError("racks, d_max_w and d_min_w must have equal length")
    rack_bids = []
    for (rack_id, pdu_id, cap_w), dmax, dmin in zip(racks, d_max_w, d_min_w):
        rack_bids.append(
            RackBid(
                rack_id=rack_id,
                pdu_id=pdu_id,
                tenant_id=tenant_id,
                demand=LinearBid(dmax, q_min, dmin, q_max),
                rack_cap_w=cap_w,
            )
        )
    return TenantBid(tenant_id=tenant_id, rack_bids=tuple(rack_bids))


def flatten_bids(tenant_bids: Iterable[TenantBid]) -> list[RackBid]:
    """Flatten tenant bundles into the rack-bid list clearing consumes."""
    rack_bids: list[RackBid] = []
    seen: set[str] = set()
    for tenant_bid in tenant_bids:
        for bid in tenant_bid.rack_bids:
            if bid.rack_id in seen:
                raise BidError(f"rack {bid.rack_id} appears in multiple bundles")
            seen.add(bid.rack_id)
            rack_bids.append(bid)
    return rack_bids
