"""The columnar tenant fleet against the per-rack scalar code.

Three layers of parity, all bit for bit:

* need and execute rows of :class:`repro.tenants.fleet.RackFleet` on
  generated facilities, against the scalar oracle in ``tests/oracle.py``
  over 50+ slot trajectories (batch backlogs carried from slot to slot);
* bid bundles against each tenant's own ``make_bid``, inside engine runs
  with bid-loss and duplicate-delivery faults and with ``oracle_rebid``;
* whole engine runs against the same scenario with every tenant forced
  onto its per-tenant hook path.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.market import SpotDCAllocator
from repro.economics.cost import OpportunisticCostModel, SprintingCostModel
from repro.economics.settlement import build_all_invoices
from repro.errors import SimulationError
from repro.infrastructure.pdu import Pdu
from repro.infrastructure.rack import Rack
from repro.infrastructure.topology import PowerTopology
from repro.infrastructure.ups import Ups
from repro.power.latency import LatencyModel
from repro.power.server import ServerPowerModel
from repro.power.throughput import ThroughputModel
from repro.resilience import FaultProfile
from repro.sim.engine import SimulationEngine
from repro.sim.scenario import testbed_scenario as build_testbed
from repro.tenants.fleet import RackFleet
from repro.tenants.portfolio import TenantRack
from repro.tenants.tenant import (
    NonParticipatingTenant,
    OpportunisticTenant,
    SprintingTenant,
)
from repro.workloads.base import BatchWorkload, InteractiveWorkload, TracePowerWorkload

from tests import oracle

SLOT_SECONDS = 60.0


def same_bits(actual, expected):
    actual = np.asarray(actual, dtype=float)
    expected = np.asarray(expected, dtype=float)
    assert actual.shape == expected.shape
    assert np.array_equal(actual.view(np.int64), expected.view(np.int64)), (
        actual,
        expected,
    )


class FixedTrace:
    """A trace that replays given values (the rng is ignored)."""

    def __init__(self, values):
        self.values = np.asarray(values, dtype=float)

    def generate(self, slots, rng):
        return self.values[:slots].copy()


def _values(rng, slots, high, zero_frac=0.2, big_frac=0.1):
    """Non-negative samples with exact zeros and values past ``high``."""
    values = rng.uniform(0.0, high, slots)
    values[rng.random(slots) < zero_frac] = 0.0
    big = rng.random(slots) < big_frac
    values[big] = high * rng.uniform(1.0, 3.0, int(big.sum()))
    return values


def _rack(rng, rack_id, workload, power_model, zero_spot):
    guaranteed = float(rng.uniform(0.3, 1.1) * power_model.peak_w)
    max_spot = 0.0 if zero_spot else float(rng.uniform(0.0, 0.6) * power_model.peak_w)
    return TenantRack(rack_id, "p", guaranteed, max_spot, power_model, workload)


@st.composite
def facilities(draw):
    """Tenants of every columnar kind over random models and traces."""
    slots = draw(st.integers(50, 70))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kinds = draw(
        st.lists(
            st.sampled_from(["sprinting", "opportunistic", "trace", "idle-interactive"]),
            min_size=1,
            max_size=6,
        )
    )
    tenants = []
    for t, kind in enumerate(kinds):
        racks = []
        for r in range(int(rng.integers(1, 4))):
            rack_id = f"t{t}r{r}"
            power = ServerPowerModel(
                float(rng.uniform(20, 80)), float(rng.uniform(100, 260))
            )
            zero_spot = bool(rng.random() < 0.2)
            if kind in ("sprinting", "idle-interactive"):
                model = LatencyModel(
                    power,
                    mu_max_rps=float(rng.uniform(50, 2000)),
                    d_min_ms=float(rng.uniform(1, 40)),
                    alpha=float(rng.uniform(1.0, 3.0)),
                    tail_const_ms_rps=float(rng.uniform(100, 5000)),
                    min_frequency=float(rng.uniform(0.1, 1.0)),
                    saturated_latency_ms=float(rng.uniform(100, 2000)),
                )
                slo = float(rng.uniform(50, 300))
                workload = InteractiveWorkload(
                    rack_id,
                    model,
                    FixedTrace(_values(rng, slots, model.mu_max_rps * 1.2)),
                    slo_ms=slo,
                )
            elif kind == "opportunistic":
                model = ThroughputModel(
                    power,
                    rate_max=float(rng.uniform(1, 100)),
                    scaling_exponent=float(rng.choice([1.0, rng.uniform(0.3, 1.5)])),
                )
                workload = BatchWorkload(
                    rack_id,
                    model,
                    FixedTrace(_values(rng, slots, model.rate_max * 1.2, zero_frac=0.4)),
                    sprint_backlog_s=float(rng.choice([0.0, rng.uniform(0, 60)])),
                )
            else:
                workload = TracePowerWorkload(
                    rack_id, FixedTrace(_values(rng, slots, power.peak_w))
                )
            racks.append(_rack(rng, rack_id, workload, power, zero_spot))
        if kind == "sprinting":
            costs = {r.rack_id: SprintingCostModel(0.001, 0.0001) for r in racks}
            tenant = SprintingTenant(f"T{t}", racks, costs, 0.05, 0.3)
        elif kind == "opportunistic":
            costs = {r.rack_id: OpportunisticCostModel(0.01) for r in racks}
            tenant = OpportunisticTenant(f"T{t}", racks, costs, 0.05, 0.2)
        else:
            tenant = NonParticipatingTenant(f"T{t}", racks)
        tenant.prepare(slots, np.random.default_rng(0))
        tenants.append(tenant)
    # The topology lists its racks in another order than the tenants do.
    racks = [rack for tenant in tenants for rack in tenant.racks]
    order = rng.permutation(len(racks))
    topology = PowerTopology.build(
        Ups("u", 1e9),
        [Pdu("p", 1e9)],
        [
            Rack(racks[i].rack_id, "t", "p", racks[i].guaranteed_w,
                 racks[i].guaranteed_w + racks[i].max_spot_w)
            for i in order
        ],
    )
    return tenants, topology, slots, rng


def _budget(rng, tenant, rack, slot, backlog):
    """A budget at one of the execute edges, or anywhere up to the peak."""
    workload = rack.workload
    if isinstance(workload, InteractiveWorkload):
        desired = float(workload.desired_powers[slot])
    elif isinstance(workload, BatchWorkload):
        desired = oracle.batch_desired(workload, slot, backlog)
    else:
        desired = float(workload.powers[slot])
    choice = rng.integers(5)
    if choice == 0:
        return desired
    if choice == 1:
        return float(rack.power_model.idle_w)
    if choice == 2:
        return 0.0
    return float(rng.uniform(0.0, 1.3) * rack.power_model.peak_w)


class TestNeedAndExecuteParity:
    @settings(max_examples=40, deadline=None)
    @given(facilities())
    def test_rows_match_scalar_code(self, facility):
        tenants, topology, slots, rng = facility
        layout = topology.layout
        fleet = RackFleet(tenants, layout)
        owned = [(t, r) for t in tenants for r in t.racks]
        assert fleet.rack_ids == tuple(r.rack_id for _, r in owned)
        backlog = {r.rack_id: 0.0 for _, r in owned}
        for slot in range(slots):
            need = fleet.need(slot)
            expected = [oracle.rack_need(t, r, slot, backlog[r.rack_id]) for t, r in owned]
            assert need.wanted.tolist() == [w is not None for w in expected]
            same_bits(need.watts, [0.0 if w is None else w for w in expected])
            assert need.rack_ids == {
                r.rack_id for (_, r), w in zip(owned, expected) if w is not None
            }

            budgets = {
                r.rack_id: _budget(rng, t, r, slot, backlog[r.rack_id]) for t, r in owned
            }
            row = np.array([budgets[rack_id] for rack_id in layout.rack_ids])
            power, value, slo = fleet.execute(slot, row, SLOT_SECONDS)
            want_power, want_value, want_slo = [], [], []
            for _, rack in owned:
                workload, budget = rack.workload, budgets[rack.rack_id]
                if isinstance(workload, InteractiveWorkload):
                    out = oracle.interactive_run(workload, slot, budget)
                elif isinstance(workload, BatchWorkload):
                    p, v, backlog[rack.rack_id] = oracle.batch_run(
                        workload, slot, budget, SLOT_SECONDS, backlog[rack.rack_id]
                    )
                    out = (p, v, False)
                else:
                    out = oracle.trace_run(workload, slot, budget)
                want_power.append(out[0])
                want_value.append(out[1])
                want_slo.append(out[2])
            same_bits(power, want_power)
            same_bits(value, want_value)
            assert slo.tolist() == want_slo
            for _, rack in owned:
                if isinstance(rack.workload, BatchWorkload):
                    # The workload reads the fleet's backlog column.
                    same_bits(rack.workload.backlog_units, backlog[rack.rack_id])

    @settings(max_examples=10, deadline=None)
    @given(facilities())
    def test_layout_rows_round_trip(self, facility):
        tenants, topology, _, _ = facility
        fleet = RackFleet(tenants, topology.layout)
        row = np.arange(len(fleet.rack_ids), dtype=float)
        in_layout = fleet.to_layout(row)
        assert [in_layout[topology.layout.index[r]] for r in fleet.rack_ids] == row.tolist()

    @settings(max_examples=10, deadline=None)
    @given(facilities())
    def test_unowned_rack_rejected(self, facility):
        tenants, topology, _, _ = facility
        with pytest.raises(SimulationError, match="do not match"):
            RackFleet(tenants[:-1], topology.layout)


def _swap_to_hooks(scenario):
    """Move every tenant onto the per-tenant path (a subclass is hooked)."""
    for tenant in scenario.tenants:
        base = type(tenant)
        tenant.__class__ = type(f"Hooked{base.__name__}", (base,), {})
    return scenario


def _run(scenario, slots, **engine_kwargs):
    engine = SimulationEngine(scenario, **engine_kwargs)
    return engine.run(slots)


class TestEngineParity:
    @pytest.mark.parametrize("profile", [None, "comm", "duplicate", "meter"])
    def test_run_matches_per_tenant_path(self, profile):
        def scenario():
            built = build_testbed(seed=4)
            if profile is not None:
                built = dataclasses.replace(
                    built, fault_profile=FaultProfile.named(profile, intensity=0.3)
                )
            return built

        columnar = _run(scenario(), 120)
        hooked = _run(_swap_to_hooks(scenario()), 120)
        same_bits(columnar.price_series(), hooked.price_series())
        same_bits(columnar.ups_power_series(), hooked.ups_power_series())
        for rack in columnar.racks:
            for name in ("rack_power_array", "rack_perf_array", "rack_granted_array"):
                same_bits(
                    getattr(columnar.collector, name)(rack),
                    getattr(hooked.collector, name)(rack),
                )
            for name in ("rack_wanted_array", "rack_slo_violation_array"):
                assert (
                    getattr(columnar.collector, name)(rack).tolist()
                    == getattr(hooked.collector, name)(rack).tolist()
                )
        assert [
            (i.tenant_id, i.spot_charge, i.energy_charge, i.total)
            for i in build_all_invoices(columnar)
        ] == [
            (i.tenant_id, i.spot_charge, i.energy_charge, i.total)
            for i in build_all_invoices(hooked)
        ]


def _bid_rows(bundles):
    return [
        (
            b.tenant_id,
            [
                (r.rack_id, r.pdu_id, r.tenant_id, r.rack_cap_w, type(r.demand).__name__,
                 repr(vars(r.demand)))
                for r in b.rack_bids
            ],
        )
        for b in bundles
    ]


class CheckingAllocator(SpotDCAllocator):
    """Asserts, on every solicitation, fleet bundles == per-tenant make_bid."""

    checked = 0

    def _collect_bids(self, slot, tenants, predicted_price, submitted_bids=None,
                      duplicated=None, fleet=None):
        if submitted_bids is None and fleet is not None:
            expected = [
                bid
                for tenant in tenants
                if (bid := tenant.make_bid(slot, predicted_price=predicted_price))
                is not None
            ]
            assert _bid_rows(fleet.bids(slot, tenants, predicted_price)) == _bid_rows(
                expected
            )
            CheckingAllocator.checked += 1
        return super()._collect_bids(
            slot, tenants, predicted_price, submitted_bids, duplicated, fleet
        )


class TestBidParity:
    @pytest.mark.parametrize(
        "profile, rebid",
        [(None, False), ("comm", False), ("duplicate", False), (None, True)],
    )
    def test_bundles_match_make_bid(self, profile, rebid):
        scenario = build_testbed(seed=6)
        if profile is not None:
            scenario = dataclasses.replace(
                scenario, fault_profile=FaultProfile.named(profile, intensity=0.4)
            )
        CheckingAllocator.checked = 0
        allocator = CheckingAllocator(oracle_rebid=rebid)
        result = SimulationEngine(scenario, allocator=allocator).run(80)
        assert CheckingAllocator.checked >= 79
        assert result.total_spot_revenue() > 0

    def test_plain_run_matches_checked_run(self):
        # The checking allocator only observes: the run is unchanged.
        plain = _run(build_testbed(seed=6), 60)
        checked = SimulationEngine(
            build_testbed(seed=6), allocator=CheckingAllocator()
        ).run(60)
        same_bits(plain.price_series(), checked.price_series())


class TestBatchedCurves:
    """Curves built together equal the scalar models point by point."""

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 6))
    def test_sprinting_curves_match_scalar_tabulation(self, seed, count):
        from repro.economics.valuation import SpotValueCurve, sprinting_value_curves

        rng = np.random.default_rng(seed)
        scenario = build_testbed(seed=1)
        racks = [
            (t, r) for t in scenario.tenants if t.kind == "sprinting" for r in t.racks
        ]
        picks = [racks[i] for i in rng.integers(len(racks), size=count)]
        rates = rng.uniform(0.0, 1.5, count) * np.array(
            [r.workload.latency_model.mu_max_rps for _, r in picks]
        )
        curves = sprinting_value_curves(
            [r.workload.latency_model for _, r in picks],
            [t.cost_models[r.rack_id] for t, r in picks],
            [r.guaranteed_w for _, r in picks],
            rates,
            [r.useful_spot_w for _, r in picks],
        )
        for (tenant, rack), rate, curve in zip(picks, rates.tolist(), curves):
            model, cost = rack.workload.latency_model, tenant.cost_models[rack.rack_id]
            grid = np.linspace(0.0, rack.useful_spot_w, 101)

            def cost_at(budget, model=model, cost=cost, rate=rate):
                return cost.cost_rate_per_hour(model.latency_ms(budget, rate), rate)

            base = cost_at(rack.guaranteed_w)
            gains = [base - cost_at(rack.guaranteed_w + g) for g in grid.tolist()]
            expected = SpotValueCurve.from_gain_samples(rack.guaranteed_w, grid, gains)
            same_bits(curve._grid_w, expected._grid_w)
            same_bits(curve._gains, expected._gains)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 6))
    def test_opportunistic_curves_match_scalar_tabulation(self, seed, count):
        from repro.economics.valuation import SpotValueCurve, opportunistic_value_curves

        rng = np.random.default_rng(seed)
        scenario = build_testbed(seed=1)
        racks = [
            (t, r) for t in scenario.tenants if t.kind == "opportunistic" for r in t.racks
        ]
        picks = [racks[i] for i in rng.integers(len(racks), size=count)]
        # Some base budgets at or below idle: those curves are flat zero.
        bases = [
            float(r.guaranteed_w if rng.random() < 0.7 else rng.uniform(0.5, 1.0)
                  * r.workload.throughput_model.power_model.idle_w)
            for _, r in picks
        ]
        curves = opportunistic_value_curves(
            [r.workload.throughput_model for _, r in picks],
            [t.cost_models[r.rack_id] for t, r in picks],
            bases,
            1.0,
            [r.useful_spot_w for _, r in picks],
        )
        for (tenant, rack), base, curve in zip(picks, bases, curves):
            model, rho = rack.workload.throughput_model, tenant.cost_models[rack.rack_id].rho
            grid = np.linspace(0.0, rack.useful_spot_w, 101)
            base_rate = model.rate_at(base)
            gains = [
                0.0 if base_rate <= 0
                else rho * 3600.0 * (1.0 - base_rate / max(model.rate_at(base + g), 1e-12))
                for g in grid.tolist()
            ]
            expected = SpotValueCurve.from_gain_samples(base, grid, gains)
            same_bits(curve._gains, expected._gains)
