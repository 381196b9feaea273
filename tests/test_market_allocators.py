"""Allocators: SpotDC market orchestration, PowerCapped, MaxPerf."""

import pytest

from repro.core.baselines import MaxPerfAllocator, PowerCappedAllocator
from repro.core.market import SpotDCAllocator
from repro.errors import ConfigurationError
from repro.forecast.capacity import SpotCapacityForecast
from repro.sim.scenario import testbed_scenario as build_testbed


@pytest.fixture(scope="module")
def prepared_scenario():
    scenario = build_testbed(seed=3)
    scenario.prepare(800)
    return scenario


def find_active_slot(scenario, min_racks=2):
    for slot in range(1, 800):
        requesting = [
            rid
            for tenant in scenario.participating_tenants()
            for rid in tenant.needed_spot_w(slot)
        ]
        if len(requesting) >= min_racks:
            return slot, requesting
    pytest.fail("no active slot found")


def forecast_for(scenario, watts_per_pdu=120.0):
    pdu_spot = {pdu_id: watts_per_pdu for pdu_id in scenario.topology.pdus}
    return SpotCapacityForecast(pdu_spot_w=pdu_spot, ups_spot_w=1.5 * watts_per_pdu)


class TestSpotDCAllocator:
    def test_allocates_to_requesting_racks(self, prepared_scenario):
        slot, requesting = find_active_slot(prepared_scenario)
        allocator = SpotDCAllocator()
        record = allocator.allocate(
            slot,
            prepared_scenario.participating_tenants(),
            forecast_for(prepared_scenario),
            slot_seconds=120.0,
        )
        assert record.result.total_granted_w > 0
        assert set(record.result.grants_w) <= set(requesting)

    def test_payments_match_grants(self, prepared_scenario):
        slot, _ = find_active_slot(prepared_scenario)
        allocator = SpotDCAllocator()
        record = allocator.allocate(
            slot,
            prepared_scenario.participating_tenants(),
            forecast_for(prepared_scenario),
            slot_seconds=120.0,
        )
        expected_total = (
            record.result.total_granted_w / 1000.0
        ) * record.result.price * (120.0 / 3600.0)
        assert sum(record.payments.values()) == pytest.approx(expected_total)

    def test_zero_forecast_grants_nothing(self, prepared_scenario):
        slot, _ = find_active_slot(prepared_scenario)
        allocator = SpotDCAllocator()
        empty = SpotCapacityForecast(
            pdu_spot_w={p: 0.0 for p in prepared_scenario.topology.pdus},
            ups_spot_w=0.0,
        )
        record = allocator.allocate(
            slot, prepared_scenario.participating_tenants(), empty, 120.0
        )
        assert record.result.total_granted_w == 0.0

    def test_oracle_rebid_runs_two_passes(self, prepared_scenario):
        slot, _ = find_active_slot(prepared_scenario)
        allocator = SpotDCAllocator(oracle_rebid=True)
        record = allocator.allocate(
            slot,
            prepared_scenario.participating_tenants(),
            forecast_for(prepared_scenario),
            120.0,
        )
        # The oracle pass must still produce a valid, payment-consistent
        # outcome (content equality with single-pass is not required).
        assert sum(record.payments.values()) == pytest.approx(
            record.result.revenue_for_slot(120.0)
        )

    def test_quiet_slot_empty_outcome(self, prepared_scenario):
        # Find a slot where nobody wants spot capacity.
        for slot in range(1, 800):
            if not any(
                t.needed_spot_w(slot)
                for t in prepared_scenario.participating_tenants()
            ):
                record = SpotDCAllocator().allocate(
                    slot,
                    prepared_scenario.participating_tenants(),
                    forecast_for(prepared_scenario),
                    120.0,
                )
                assert record.result.total_granted_w == 0.0
                return
        pytest.fail("no quiet slot found")


class TestPowerCapped:
    def test_never_allocates(self, prepared_scenario):
        slot, _ = find_active_slot(prepared_scenario)
        record = PowerCappedAllocator().allocate(
            slot,
            prepared_scenario.participating_tenants(),
            forecast_for(prepared_scenario),
            120.0,
        )
        assert record.result.total_granted_w == 0.0
        assert record.payments == {}

    def test_flags(self):
        allocator = PowerCappedAllocator()
        assert not allocator.charges_tenants
        assert not allocator.provisions_spot


class TestMaxPerf:
    def test_respects_constraints(self, prepared_scenario):
        slot, _ = find_active_slot(prepared_scenario)
        forecast = forecast_for(prepared_scenario, watts_per_pdu=60.0)
        record = MaxPerfAllocator().allocate(
            slot, prepared_scenario.participating_tenants(), forecast, 120.0
        )
        total = record.result.total_granted_w
        assert total <= forecast.ups_spot_w + 1e-6
        by_pdu: dict[str, float] = {}
        racks = {
            r.rack_id: r
            for t in prepared_scenario.participating_tenants()
            for r in t.racks
        }
        for rack_id, grant in record.result.grants_w.items():
            rack = racks[rack_id]
            assert grant <= rack.max_spot_w + 1e-6
            by_pdu[rack.pdu_id] = by_pdu.get(rack.pdu_id, 0.0) + grant
        for pdu_id, granted in by_pdu.items():
            assert granted <= forecast.pdu_spot_w[pdu_id] + 1e-6

    def test_no_payments(self, prepared_scenario):
        slot, _ = find_active_slot(prepared_scenario)
        record = MaxPerfAllocator().allocate(
            slot,
            prepared_scenario.participating_tenants(),
            forecast_for(prepared_scenario),
            120.0,
        )
        assert record.payments == {}
        assert record.result.price == 0.0
        assert record.result.revenue_rate == 0.0

    def test_allocates_at_least_as_much_as_market(self, prepared_scenario):
        # With no payments and positive marginal value everywhere, the
        # welfare allocator should hand out at least as much capacity as
        # the profit-maximising market.
        slot, _ = find_active_slot(prepared_scenario)
        forecast = forecast_for(prepared_scenario)
        market = SpotDCAllocator().allocate(
            slot, prepared_scenario.participating_tenants(), forecast, 120.0
        )
        welfare = MaxPerfAllocator().allocate(
            slot, prepared_scenario.participating_tenants(), forecast, 120.0
        )
        assert (
            welfare.result.total_granted_w
            >= market.result.total_granted_w - 1e-6
        )

    def test_increment_validation(self):
        with pytest.raises(ConfigurationError):
            MaxPerfAllocator(increment_w=0.0)
        with pytest.raises(ConfigurationError):
            MaxPerfAllocator(max_steps=0)

    def test_greedy_prefers_higher_marginal_value(self, prepared_scenario):
        # Under a tiny supply, the watts must flow to the rack with the
        # highest marginal gain.
        slot, requesting = find_active_slot(prepared_scenario, min_racks=2)
        tenants = prepared_scenario.participating_tenants()
        tiny = SpotCapacityForecast(
            pdu_spot_w={p: 8.0 for p in prepared_scenario.topology.pdus},
            ups_spot_w=8.0,
        )
        record = MaxPerfAllocator(increment_w=1.0).allocate(
            slot, tenants, tiny, 120.0
        )
        assert 0 < record.result.total_granted_w <= 8.0 + 1e-9
        # The chosen racks' initial marginal value must be at least that
        # of every unserved rack (greedy optimality spot check).
        curves = {}
        for tenant in tenants:
            needed = tenant.needed_spot_w(slot)
            if needed:
                for rid, curve in tenant.value_curves(slot).items():
                    if rid in needed:
                        curves[rid] = curve
        served = {r for r, g in record.result.grants_w.items() if g > 0}
        unserved = set(curves) - served
        if served and unserved:
            min_served = min(
                curves[r].marginal_gain_per_hour(0.0) for r in served
            )
            max_unserved = max(
                curves[r].marginal_gain_per_hour(0.0) for r in unserved
            )
            assert min_served >= max_unserved - 1e-9
