"""Phase-balance and heat-density constraints (paper Section III-A)."""

import pytest

from repro.core.allocation import verify_allocation
from repro.core.bids import RackBid
from repro.core.clearing import clear_market
from repro.core.demand import LinearBid, StepBid
from repro.errors import CapacityError, ClearingError, ConfigurationError, TopologyError
from repro.infrastructure.constraints import (
    CapacityConstraint,
    HeatZone,
    PhaseAssignment,
    zone_constraints,
)
from repro.infrastructure.pdu import Pdu
from repro.infrastructure.rack import Rack
from repro.infrastructure.topology import PowerTopology
from repro.infrastructure.ups import Ups


@pytest.fixture
def topology():
    racks = [
        Rack(f"r{i}", f"t{i}", "p1" if i < 6 else "p2", 80.0, 120.0)
        for i in range(9)
    ]
    return PowerTopology.build(
        Ups("u", 1200.0), [Pdu("p1", 600.0), Pdu("p2", 400.0)], racks
    )


class TestCapacityConstraint:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            CapacityConstraint("", frozenset({"r"}), 1.0)
        with pytest.raises(ConfigurationError):
            CapacityConstraint("c", frozenset(), 1.0)
        with pytest.raises(ConfigurationError):
            CapacityConstraint("c", frozenset({"r"}), -1.0)


class TestPhaseAssignment:
    def test_round_robin_default(self, topology):
        phases = PhaseAssignment(topology)
        assert phases.phase_of("r0") == "A"
        assert phases.phase_of("r1") == "B"
        assert phases.phase_of("r2") == "C"
        assert phases.phase_of("r3") == "A"

    def test_explicit_assignment(self, topology):
        phases = PhaseAssignment(topology, {"r0": "C"})
        assert phases.phase_of("r0") == "C"

    def test_racks_on(self, topology):
        phases = PhaseAssignment(topology)
        assert phases.racks_on("p1", "A") == ["r0", "r3"]

    def test_static_constraints_share_capacity(self, topology):
        phases = PhaseAssignment(topology)
        constraints = phases.constraints(imbalance_tolerance=0.2)
        p1a = next(c for c in constraints if c.name == "p1/phase:A")
        assert p1a.cap_w == pytest.approx(600.0 / 3 * 1.2)
        assert p1a.rack_ids == frozenset({"r0", "r3"})

    def test_phase_headroom_subtracts_draw(self, topology):
        topology.rack("r0").record_power(100.0)
        topology.rack("r3").record_power(50.0)
        phases = PhaseAssignment(topology)
        headroom = phases.phase_headroom(imbalance_tolerance=0.2)
        p1a = next(c for c in headroom if c.name == "p1/phase:A")
        assert p1a.cap_w == pytest.approx(600.0 / 3 * 1.2 - 150.0)

    def test_headroom_never_negative(self, topology):
        for rack_id in ("r0", "r3"):
            topology.rack(rack_id).record_power(80.0)
        phases = PhaseAssignment(topology)
        headroom = phases.phase_headroom(imbalance_tolerance=0.0)
        p1a = next(c for c in headroom if c.name == "p1/phase:A")
        assert p1a.cap_w >= 0.0

    def test_validation(self, topology):
        with pytest.raises(TopologyError):
            PhaseAssignment(topology, {"ghost": "A"})
        with pytest.raises(ConfigurationError):
            PhaseAssignment(topology, {"r0": "D"})
        with pytest.raises(ConfigurationError):
            PhaseAssignment(topology).constraints(imbalance_tolerance=2.0)


class TestHeatZone:
    def test_headroom(self, topology):
        topology.rack("r0").record_power(60.0)
        topology.rack("r6").record_power(70.0)
        zone = HeatZone("aisle", frozenset({"r0", "r6"}), 200.0)
        constraint = zone.headroom(topology)
        assert constraint.cap_w == pytest.approx(70.0)
        assert constraint.name == "heat:aisle"

    def test_zone_can_span_pdus(self, topology):
        zone = HeatZone("cross", frozenset({"r0", "r8"}), 300.0)
        assert zone.headroom(topology).cap_w == pytest.approx(300.0)

    def test_unknown_rack_rejected(self, topology):
        zone = HeatZone("bad", frozenset({"ghost"}), 100.0)
        with pytest.raises(TopologyError):
            zone.headroom(topology)

    def test_zone_constraints_helper(self, topology):
        zones = [
            HeatZone("a", frozenset({"r0"}), 100.0),
            HeatZone("b", frozenset({"r1"}), 100.0),
        ]
        assert len(zone_constraints(zones, topology)) == 2

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            HeatZone("", frozenset({"r"}), 1.0)
        with pytest.raises(ConfigurationError):
            HeatZone("z", frozenset({"r"}), 0.0)


def bid(rack, pdu="p1", demand=None, cap=100.0):
    return RackBid(
        rack_id=rack,
        pdu_id=pdu,
        tenant_id=f"tenant-{rack}",
        demand=demand or LinearBid(60.0, 0.05, 10.0, 0.3),
        rack_cap_w=cap,
    )


class TestClearingWithConstraints:
    def test_constraint_binds(self):
        bids = [bid("r0"), bid("r1")]
        constraint = CapacityConstraint("phase", frozenset({"r0", "r1"}), 40.0)
        unconstrained = clear_market(bids, {"p1": 500.0}, 500.0)
        constrained = clear_market(
            bids, {"p1": 500.0}, 500.0, extra_constraints=[constraint]
        )
        assert unconstrained.total_granted_w > 40.0
        assert constrained.total_granted_w <= 40.0 + 1e-9
        assert constrained.price >= unconstrained.price

    def test_constraint_only_affects_members(self):
        bids = [bid("r0"), bid("r5")]
        constraint = CapacityConstraint("phase", frozenset({"r0"}), 5.0)
        result = clear_market(
            bids, {"p1": 500.0}, 500.0, extra_constraints=[constraint]
        )
        assert result.grants_w["r0"] <= 5.0 + 1e-9
        # Uniform price still rations both, but the non-member keeps its
        # demand at the (higher) clearing price.
        assert result.grants_w["r5"] > result.grants_w["r0"]

    def test_admission_respects_constraint_ceiling(self):
        # Inelastic bid larger than its phase headroom is rejected.
        bids = [bid("r0", demand=StepBid(50.0, 0.3)), bid("r1")]
        constraint = CapacityConstraint("phase", frozenset({"r0"}), 20.0)
        result = clear_market(
            bids, {"p1": 500.0}, 500.0, extra_constraints=[constraint]
        )
        assert result.grants_w["r0"] == 0.0
        assert result.grants_w["r1"] > 0.0

    def test_verify_allocation_checks_constraints(self):
        from repro.core.allocation import AllocationResult

        bids = [bid("r0")]
        constraint = CapacityConstraint("phase", frozenset({"r0"}), 10.0)
        bad = AllocationResult(price=0.05, grants_w={"r0": 30.0}, revenue_rate=0.0015)
        with pytest.raises(CapacityError):
            verify_allocation(
                bad, bids, {"p1": 500.0}, 500.0, extra_constraints=[constraint]
            )

    def test_negative_constraint_cap_rejected(self):
        constraint = CapacityConstraint.__new__(CapacityConstraint)
        object.__setattr__(constraint, "name", "x")
        object.__setattr__(constraint, "rack_ids", frozenset({"r0"}))
        object.__setattr__(constraint, "cap_w", -1.0)
        with pytest.raises(ClearingError):
            clear_market(
                [bid("r0")], {"p1": 100.0}, 100.0, extra_constraints=[constraint]
            )

    def test_per_pdu_clearing_localizes_phase_constraints(self):
        bids = [bid("r0"), bid("r1"), bid("r6", pdu="p2")]
        constraints = [
            CapacityConstraint("p1/phase:A", frozenset({"r0", "r1"}), 30.0),
            CapacityConstraint("p2/phase:A", frozenset({"r6"}), 15.0),
        ]
        result = clear_market(
            bids, {"p1": 500.0, "p2": 500.0}, 1000.0,
            per_pdu=True, extra_constraints=constraints,
        )
        verify_allocation(
            result, bids, {"p1": 500.0, "p2": 500.0}, 1000.0,
            extra_constraints=constraints,
        )
        assert result.grants_w["r0"] + result.grants_w["r1"] <= 30.0 + 1e-9
        assert result.grants_w["r6"] <= 15.0 + 1e-9

    def test_per_pdu_apportions_cross_pdu_zone(self):
        bids = [bid("r0"), bid("r6", pdu="p2")]
        zone = CapacityConstraint("heat:z", frozenset({"r0", "r6"}), 40.0)
        result = clear_market(
            bids, {"p1": 500.0, "p2": 500.0}, 1000.0,
            per_pdu=True, extra_constraints=[zone],
        )
        total = result.grants_w["r0"] + result.grants_w["r6"]
        assert total <= 40.0 + 1e-9

    def test_maxperf_honours_constraints(self):
        from repro.core.baselines import MaxPerfAllocator
        from repro.forecast.capacity import SpotCapacityForecast
        from repro.sim.scenario import testbed_scenario as build_testbed

        scenario = build_testbed(seed=13)
        scenario.prepare(400)
        slot = next(
            s for s in range(1, 400)
            if sum(
                len(t.needed_spot_w(s))
                for t in scenario.participating_tenants()
            ) >= 2
        )
        requesting = [
            rid
            for t in scenario.participating_tenants()
            for rid in t.needed_spot_w(slot)
        ]
        tight = CapacityConstraint("zone", frozenset(requesting), 10.0)
        forecast = SpotCapacityForecast(
            pdu_spot_w={p: 200.0 for p in scenario.topology.pdus},
            ups_spot_w=400.0,
        )
        record = MaxPerfAllocator().allocate(
            slot,
            scenario.participating_tenants(),
            forecast,
            120.0,
            extra_constraints=[tight],
        )
        zone_total = sum(
            record.result.grants_w.get(r, 0.0) for r in requesting
        )
        assert zone_total <= 10.0 + 1e-9
