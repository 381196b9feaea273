"""Property-based tests for the shock-absorption ladder.

Two laws the grid-event subsystem must satisfy for *every* input, not
just the curated schedules:

* **Monotone absorption** — a deeper capacity cut never releases more
  spot capacity to the market, at any unit, and released capacity is
  always within ``[0, uncut release]``.
* **Balanced settlement** — revoking any subset of grants removes
  exactly the revoked racks' bills from the slot's payments; the
  credited dollars equal the revenue the operator gave up.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.allocation import AllocationResult
from repro.core.bids import RackBid
from repro.core.demand import LinearBid
from repro.core.market import SlotMarketRecord
from repro.events import EventProfile, ShockAbsorber
from repro.forecast.release import RiskAwareReleasePolicy
from repro.forecast.capacity import SpotCapacityForecast
from repro.resilience.degradation import revoke_and_rebill

_FRACTIONS = st.floats(
    min_value=0.0, max_value=0.95, allow_nan=False, allow_infinity=False
)
_WATTS = st.floats(
    min_value=0.0, max_value=5000.0, allow_nan=False, allow_infinity=False
)


def _absorber(cuts: dict, capped=()) -> ShockAbsorber:
    absorber = ShockAbsorber(EventProfile())
    absorber._cuts_in_force = {k: v for k, v in cuts.items() if v > 0.0}
    absorber._capped = set(capped)
    return absorber


@st.composite
def forecasts(draw):
    n_pdus = draw(st.integers(min_value=1, max_value=4))
    return SpotCapacityForecast(
        pdu_spot_w={f"p{i}": draw(_WATTS) for i in range(n_pdus)},
        ups_spot_w=draw(_WATTS),
    )


class TestMonotoneAbsorption:
    @given(
        forecast=forecasts(),
        shallow=_FRACTIONS,
        extra=st.floats(min_value=0.0, max_value=0.04, allow_nan=False),
        target_pdu=st.booleans(),
    )
    @settings(max_examples=200, deadline=None)
    def test_deeper_cuts_never_release_more(
        self, forecast, shallow, extra, target_pdu
    ):
        key = "p0" if target_pdu else None
        a = _absorber({key: shallow}).adjust_release(forecast)
        b = _absorber({key: shallow + extra}).adjust_release(forecast)
        assert b.ups_spot_w <= a.ups_spot_w <= forecast.ups_spot_w
        for pdu_id in forecast.pdu_spot_w:
            assert (
                b.pdu_spot_w[pdu_id]
                <= a.pdu_spot_w[pdu_id]
                <= forecast.pdu_spot_w[pdu_id]
            )
            assert b.pdu_spot_w[pdu_id] >= 0.0
        assert b.ups_spot_w >= 0.0

    @given(forecast=forecasts(), fraction=_FRACTIONS)
    @settings(max_examples=100, deadline=None)
    def test_capped_unit_releases_zero(self, forecast, fraction):
        pdu_capped = _absorber({"p0": max(fraction, 0.01)}, capped=("p0",))
        released = pdu_capped.adjust_release(forecast)
        assert released.pdu_spot_w["p0"] == 0.0
        ups_capped = _absorber({None: max(fraction, 0.01)}, capped=(None,))
        released = ups_capped.adjust_release(forecast)
        assert released.ups_spot_w == 0.0
        assert all(w == 0.0 for w in released.pdu_spot_w.values())

    @given(
        quantile=st.floats(min_value=0.01, max_value=1.0, allow_nan=False),
        shallow=_FRACTIONS,
        extra=st.floats(min_value=0.0, max_value=0.04, allow_nan=False),
    )
    @settings(max_examples=200, deadline=None)
    def test_quantile_tightening_is_monotone(self, quantile, shallow, extra):
        policy = RiskAwareReleasePolicy(risk_quantile=quantile)
        a = _absorber({None: shallow}).effective_release_policy(policy)
        b = _absorber({None: shallow + extra}).effective_release_policy(policy)
        assert b.risk_quantile <= a.risk_quantile <= quantile
        assert b.risk_quantile >= 0.01

    @given(forecast=forecasts())
    @settings(max_examples=50, deadline=None)
    def test_calm_absorber_is_identity(self, forecast):
        absorber = _absorber({})
        assert absorber.adjust_release(forecast) is forecast
        policy = RiskAwareReleasePolicy(risk_quantile=0.2)
        assert absorber.effective_release_policy(policy) is policy


@st.composite
def cleared_slots(draw):
    n_racks = draw(st.integers(min_value=1, max_value=8))
    n_pdus = draw(st.integers(min_value=1, max_value=3))
    price = draw(st.floats(min_value=0.0, max_value=0.5, allow_nan=False))
    pdu_prices = {}
    if draw(st.booleans()):
        pdu_prices = {
            f"p{j}": draw(
                st.floats(min_value=0.0, max_value=0.5, allow_nan=False)
            )
            for j in range(n_pdus)
        }
    bids = []
    grants = {}
    for i in range(n_racks):
        rack_id = f"r{i}"
        grant = draw(st.floats(min_value=0.0, max_value=300.0, allow_nan=False))
        grants[rack_id] = grant
        bids.append(
            RackBid(
                rack_id=rack_id,
                pdu_id=f"p{i % n_pdus}",
                tenant_id=f"t{i % 3}",
                demand=LinearBid(max(grant, 1.0), 0.01, 0.0, 0.6),
                rack_cap_w=500.0,
            )
        )
    result = AllocationResult(
        price=price,
        grants_w=grants,
        revenue_rate=0.0,
        pdu_prices=pdu_prices,
    )
    slot_seconds = draw(st.floats(min_value=30.0, max_value=600.0))
    # Self-consistent original payments: what the clearing billed.
    payments = {}
    for bid in bids:
        grant = grants[bid.rack_id]
        if grant <= 0:
            continue
        bill = (grant / 1000.0) * result.price_for_pdu(bid.pdu_id) * (
            slot_seconds / 3600.0
        )
        payments[bid.tenant_id] = payments.get(bid.tenant_id, 0.0) + bill
    record = SlotMarketRecord(
        result=result, bids=tuple(bids), payments=payments
    )
    revoked = {
        bid.rack_id for bid in bids if draw(st.booleans())
    }
    return record, revoked, slot_seconds


class TestBalancedSettlement:
    @given(case=cleared_slots())
    @settings(max_examples=200, deadline=None)
    def test_revocation_removes_exactly_the_revoked_bills(self, case):
        record, revoked, slot_seconds = case
        slot_hours = slot_seconds / 3600.0
        rebilled = revoke_and_rebill(record, revoked, slot_seconds)

        def bill(bid):
            grant = record.result.grants_w[bid.rack_id]
            price = record.result.price_for_pdu(bid.pdu_id)
            return (grant / 1000.0) * price * slot_hours

        surviving = sum(
            bill(bid)
            for bid in record.bids
            if bid.rack_id not in revoked
            and record.result.grants_w[bid.rack_id] > 0
        )
        assert sum(rebilled.payments.values()) == pytest.approx(
            surviving, abs=1e-9
        )
        for rack_id in revoked:
            assert rebilled.result.grants_w[rack_id] == 0.0

    @given(case=cleared_slots())
    @settings(max_examples=200, deadline=None)
    def test_credits_equal_forgone_revenue(self, case):
        # The engine's credit notes bill exactly what revocation takes
        # away: original payments - rebilled payments.
        record, revoked, slot_seconds = case
        slot_hours = slot_seconds / 3600.0
        rebilled = revoke_and_rebill(record, revoked, slot_seconds)
        forgone = sum(
            (record.result.grants_w[bid.rack_id] / 1000.0)
            * record.result.price_for_pdu(bid.pdu_id)
            * slot_hours
            for bid in record.bids
            if bid.rack_id in revoked
            and record.result.grants_w[bid.rack_id] > 0
        )
        full = sum(
            (record.result.grants_w[bid.rack_id] / 1000.0)
            * record.result.price_for_pdu(bid.pdu_id)
            * slot_hours
            for bid in record.bids
            if record.result.grants_w[bid.rack_id] > 0
        )
        assert full - sum(rebilled.payments.values()) == pytest.approx(
            forgone, abs=1e-9
        )
