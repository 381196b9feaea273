"""Tenant behaviour: portfolios, bidding strategies, cost calibration,
and the sprinting / opportunistic / non-participating tenant models.
"""

from repro.tenants.bundled import BundledSprintingTenant, TierWorkload
from repro.tenants.composite import CompositeTenant
from repro.tenants.fleet import RackFleet, SlotNeed
from repro.tenants.misbehaving import MalformedBidTenant, OverdrawingTenant
from repro.tenants.bidding import (
    BiddingStrategy,
    FullCurveStrategy,
    LinearElasticStrategy,
    PricePredictionStrategy,
    SimpleNeededPowerStrategy,
    StepStrategy,
)
from repro.tenants.calibration import (
    calibrate_opportunistic_cost,
    calibrate_sprinting_cost,
)
from repro.tenants.portfolio import RackBidContext, TenantRack
from repro.tenants.tenant import (
    NonParticipatingTenant,
    OpportunisticTenant,
    SprintingTenant,
    Tenant,
)

__all__ = [
    "BiddingStrategy",
    "BundledSprintingTenant",
    "CompositeTenant",
    "FullCurveStrategy",
    "LinearElasticStrategy",
    "MalformedBidTenant",
    "NonParticipatingTenant",
    "OpportunisticTenant",
    "OverdrawingTenant",
    "PricePredictionStrategy",
    "RackBidContext",
    "RackFleet",
    "SimpleNeededPowerStrategy",
    "SlotNeed",
    "SprintingTenant",
    "StepStrategy",
    "Tenant",
    "TenantRack",
    "TierWorkload",
    "calibrate_opportunistic_cost",
    "calibrate_sprinting_cost",
]
