"""Per-PDU decomposition: oracle parity, the reconcile guard, recovery.

Locational clearing splits the market along the PDU hierarchy: the UPS
headroom is apportioned across PDUs, each PDU's slice clears on its
own, and the shrink-only reconcile guard closes every per-PDU slot.
These tests pin the decomposition against the brute-force oracle
(``tests/oracle.py``), prove the guard a no-op on honest results and a
shrink-only fix on broken ones, and check that the sharding knobs the
decomposition once carried are refused rather than ignored.
"""

import dataclasses
import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.config import MarketParameters
from repro.core.bids import RackBid
from repro.core.clearing import MarketClearing, reconcile_allocation
from repro.core.demand import FullBid, LinearBid, StepBid
from repro.core.frame import BidFrame
from repro.core.market import SpotDCAllocator
from repro.errors import ClearingError, ConfigurationError
from repro.experiments.fig07_prediction_and_scaling import make_synthetic_bids
from repro.infrastructure.constraints import CapacityConstraint
from repro.recovery import latest_checkpoint
from repro.resilience import FaultProfile
from repro.scenarios import build_scenario, presets
from repro.sim.engine import run_simulation
from repro.sim.scenario import testbed_scenario as build_testbed
from tests import oracle
from tests.test_bidframe_parity import _watts

PARAMS = MarketParameters(price_step=0.01)
SLOTS = 12


def _market(racks=300, seed=0, racks_per_pdu=40):
    rng = np.random.default_rng(seed)
    bids, pdu_spot_w, ups_spot_w = make_synthetic_bids(
        racks, rng, racks_per_pdu=racks_per_pdu
    )
    return bids, pdu_spot_w, ups_spot_w


def _assert_matches_oracle(result, expected):
    assert result.pdu_prices == expected.pdu_prices
    assert result.candidate_prices == expected.candidate_prices
    assert result.feasible_prices == expected.feasible_prices
    assert result.price == pytest.approx(expected.price, abs=1e-9)
    assert result.revenue_rate == pytest.approx(expected.revenue_rate, abs=1e-9)
    assert set(result.grants_w) == set(expected.grants_w)
    for rack_id, grant in expected.grants_w.items():
        assert result.grants_w[rack_id] == pytest.approx(grant, abs=1e-9)


class TestShardedParity:
    """The per-PDU decomposed clear against the brute-force oracle."""

    @pytest.mark.parametrize("racks_per_pdu", [8, 40])
    def test_per_pdu_matches_oracle(self, racks_per_pdu):
        bids, pdu_spot_w, ups_spot_w = _market(
            racks=120, racks_per_pdu=racks_per_pdu
        )
        engine = MarketClearing(params=PARAMS)
        _assert_matches_oracle(
            engine.clear_per_pdu(BidFrame.from_bids(bids), pdu_spot_w, ups_spot_w),
            oracle.clear_per_pdu(bids, pdu_spot_w, ups_spot_w, PARAMS),
        )

    @pytest.mark.parametrize("zones", [1, 2])
    def test_extra_constraints_preserved(self, zones):
        # Zones straddle PDUs, so each is apportioned across the slices.
        bids, pdu_spot_w, ups_spot_w = _market(racks=120, racks_per_pdu=8)
        rack_ids = [b.rack_id for b in bids]
        constraints = [
            CapacityConstraint(f"zone{k}", frozenset(rack_ids[k::zones][:25]), 300.0)
            for k in range(zones)
        ]
        engine = MarketClearing(params=PARAMS)
        _assert_matches_oracle(
            engine.clear_per_pdu(bids, pdu_spot_w, ups_spot_w, constraints),
            oracle.clear_per_pdu(bids, pdu_spot_w, ups_spot_w, PARAMS, constraints),
        )

    def test_empty_frame(self):
        engine = MarketClearing(params=PARAMS)
        result = engine.clear_per_pdu(BidFrame.from_bids([]), {}, 100.0)
        assert result.grants_w == {}
        assert result.price == 0.0

    def test_negative_ups_rejected(self):
        bids, pdu_spot_w, _ = _market(racks=40)
        engine = MarketClearing(params=PARAMS)
        with pytest.raises(ClearingError):
            engine.clear_per_pdu(BidFrame.from_bids(bids), pdu_spot_w, -1.0)


#: A reserve price above zero lets a market's grid collapse to one point.
EDGE_PARAMS = MarketParameters(price_step=0.01, reserve_price=0.05)


@st.composite
def edge_markets(draw):
    """Multi-PDU markets mixing every per-market outcome in one clear.

    ``p-rejected`` bids all exceed their PDU's spot (every bid
    rejected); ``p-crowded`` bids fit alone but never together (no
    feasible price); ``p-zero`` offers no spot capacity; ``p-reserve``
    bids stop below the reserve price (a one-point grid); ``p0`` and
    ``p1`` mix LinearBid, StepBid and FullBid rows under a phase
    constraint on ``p0`` and a heat zone spanning PDUs.  Bids arrive
    interleaved across PDUs.  Watt values follow the parity suite's
    domain (``_watts``: exactly zero or at least 0.01 W) — the
    difference-array sweep cannot resolve demands below float noise
    next to watt-sized ones, while the oracle sums them exactly.
    """
    price = st.floats(min_value=0.06, max_value=0.5)
    watts = _watts(150.0)
    rows = []
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        demand = StepBid(draw(st.floats(30.0, 60.0)), draw(price))
        rows.append(("p-rejected", demand, 100.0))
    crowd_w, crowd_q = draw(st.floats(20.0, 40.0)), draw(price)
    rows += [("p-crowded", StepBid(crowd_w, crowd_q), 100.0)] * 2
    zero = LinearBid(draw(st.floats(10.0, 50.0)), 0.06, 0.0, draw(price))
    rows.append(("p-zero", zero, 80.0))
    below = StepBid(draw(st.floats(5.0, 30.0)), draw(st.floats(0.0, 0.04)))
    rows.append(("p-reserve", below, 50.0))
    for i in range(draw(st.integers(min_value=2, max_value=8))):
        kind = draw(st.sampled_from(["linear", "step", "full"]))
        if kind == "linear":
            d_min = draw(_watts(30.0))
            q_min = draw(st.floats(0.0, 0.3))
            demand = LinearBid(
                d_min + draw(_watts(60.0)),
                q_min,
                d_min,
                q_min + draw(st.floats(0.001, 0.4)),
            )
        elif kind == "step":
            demand = StepBid(draw(st.floats(5.0, 60.0)), draw(price))
        else:
            top = draw(st.floats(0.0001, 0.0005))  # marginal $/W/h
            demand = FullBid(
                [10.0, 30.0],
                [top, top * draw(st.floats(0.2, 1.0))],
                draw(st.one_of(st.none(), price)),
            )
        rows.append((f"p{i % 2}", demand, draw(st.floats(20.0, 120.0))))
    rows = draw(st.permutations(rows))
    bids = [
        RackBid(f"r{k}", pdu, f"t{k % 3}", demand, cap)
        for k, (pdu, demand, cap) in enumerate(rows)
    ]
    pdu_spot = {
        "p-rejected": draw(st.floats(0.0, 20.0)),
        "p-crowded": draw(st.floats(crowd_w, 1.9 * crowd_w)),
        "p-zero": 0.0,
        "p-reserve": draw(watts),
        "p0": draw(watts),
        "p1": draw(watts),
    }
    ups_spot = draw(st.one_of(st.just(1e6), _watts(400.0)))
    on = {p: [b.rack_id for b in bids if b.pdu_id == p] for p in pdu_spot}
    extra = [
        CapacityConstraint(
            "zone", frozenset(on["p0"][1::2] + on["p1"] + on["p-zero"]), draw(watts)
        )
    ]
    if on["p0"][::2]:
        extra.append(
            CapacityConstraint("p0/phase:A", frozenset(on["p0"][::2]), draw(watts))
        )
    return bids, pdu_spot, ups_spot, extra


def _assert_same_outcome(result, expected):
    """Outcome parity with the oracle, grant order included."""
    assert result.pdu_prices == expected.pdu_prices
    assert list(result.pdu_prices) == list(expected.pdu_prices)
    assert result.price == pytest.approx(expected.price, abs=1e-9)
    assert result.candidate_prices == expected.candidate_prices
    assert result.feasible_prices == expected.feasible_prices
    assert result.revenue_rate == pytest.approx(expected.revenue_rate, abs=1e-9)
    assert list(result.grants_w) == list(expected.grants_w)
    for rack_id, grant in expected.grants_w.items():
        assert result.grants_w[rack_id] == pytest.approx(grant, abs=1e-9)


class TestSegmentedScanEdges:
    """Every per-market outcome, side by side in one segmented scan."""

    @given(data=edge_markets())
    @settings(max_examples=150, deadline=None)
    def test_per_pdu_matches_oracle(self, data):
        bids, pdu_spot, ups_spot, extra = data
        _assert_same_outcome(
            MarketClearing(params=EDGE_PARAMS).clear_per_pdu(
                bids, pdu_spot, ups_spot, extra
            ),
            oracle.clear_per_pdu(bids, pdu_spot, ups_spot, EDGE_PARAMS, extra),
        )

    @given(data=edge_markets())
    @settings(max_examples=150, deadline=None)
    def test_uniform_matches_oracle(self, data):
        bids, pdu_spot, ups_spot, extra = data
        # The uniform market lists grants in frame row order (PDU-sorted,
        # submission order within a PDU); the oracle follows its input.
        rows = sorted(bids, key=lambda b: b.pdu_id)
        _assert_same_outcome(
            MarketClearing(params=EDGE_PARAMS).clear(bids, pdu_spot, ups_spot, extra),
            oracle.clear(rows, pdu_spot, ups_spot, EDGE_PARAMS, extra),
        )


_SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
_HASH_SEED_PROBE = textwrap.dedent(
    """
    import numpy as np
    from repro.core import clearing
    from repro.core.bids import RackBid
    from repro.core.demand import StepBid
    from repro.core.frame import BidFrame
    from repro.infrastructure.constraints import CapacityConstraint, PhaseAssignment
    from repro.infrastructure.pdu import Pdu
    from repro.infrastructure.rack import Rack
    from repro.infrastructure.topology import PowerTopology
    from repro.infrastructure.ups import Ups

    watts = [(k + 1) / 7.0 + 1.0 / (k + 3) ** 3 for k in range(12)]
    bids = [
        RackBid(f"rack-{k}", f"p{k % 3}", "t", StepBid(w, 0.2), 10.0)
        for k, w in enumerate(watts)
    ]
    frame = BidFrame.from_bids(bids)
    zone = CapacityConstraint("zone", frozenset(b.rack_id for b in bids), 1.0)
    servable = np.minimum(frame.max_demand_w, frame.rack_cap_w)
    print([cap for *_, cap in clearing._localize_constraints(frame, [zone], servable)])
    racks = [Rack(f"rack-{k}", "t", "p", 1.0, 2.0) for k in range(12)]
    topology = PowerTopology.build(Ups("u", 100.0), [Pdu("p", 30.0)], racks)
    for rack, w in zip(racks, watts):
        rack.record_power(w)
    phases = PhaseAssignment(topology, {r.rack_id: "A" for r in racks})
    print([c.cap_w for c in phases.phase_headroom()])
    """
)


def test_localized_caps_independent_of_hash_seed():
    # Zone shares and phase draws once summed over frozensets, whose
    # iteration order follows PYTHONHASHSEED.
    outputs = set()
    for seed in ("0", "1", "2", "3"):
        env = dict(os.environ, PYTHONHASHSEED=seed)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (_SRC, env.get("PYTHONPATH")) if p
        )
        outputs.add(
            subprocess.run(
                [sys.executable, "-c", _HASH_SEED_PROBE],
                env=env, check=True, capture_output=True, text=True,
            ).stdout
        )
    assert len(outputs) == 1


class TestReconciliation:
    def test_noop_returns_same_object(self):
        bids, pdu_spot_w, ups_spot_w = _market(racks=120)
        frame = BidFrame.from_bids(bids)
        engine = MarketClearing(params=PARAMS)
        result = engine.clear_per_pdu(frame, pdu_spot_w, ups_spot_w)
        assert reconcile_allocation(result, frame, pdu_spot_w, ups_spot_w) is result

    def test_every_per_pdu_clear_passes_the_guard(self, monkeypatch):
        from repro.core import clearing

        seen = []

        def spy(result, frame, pdu_spot_w, ups_spot_w, **kwargs):
            fixed = reconcile_allocation(
                result, frame, pdu_spot_w, ups_spot_w, **kwargs
            )
            seen.append(fixed is result)
            return fixed

        monkeypatch.setattr(clearing, "reconcile_allocation", spy)
        bids, pdu_spot_w, ups_spot_w = _market(racks=120)
        MarketClearing(params=PARAMS).clear_per_pdu(bids, pdu_spot_w, ups_spot_w)
        assert seen == [True]

    def test_shrink_only_fixup_respects_caps(self):
        bids, pdu_spot_w, ups_spot_w = _market(racks=120)
        frame = BidFrame.from_bids(bids)
        engine = MarketClearing(params=PARAMS)
        honest = engine.clear_per_pdu(frame, pdu_spot_w, ups_spot_w)
        # Inflate every grant past the PDU caps to force the guard.
        inflated = dataclasses.replace(
            honest,
            grants_w={r: g * 50.0 + 10.0 for r, g in honest.grants_w.items()},
        )
        fixed = reconcile_allocation(inflated, frame, pdu_spot_w, ups_spot_w)
        assert fixed is not inflated
        # Shrink-only (Eq. 2): no rack's grant grew.
        for rack_id, grant in fixed.grants_w.items():
            assert grant <= inflated.grants_w[rack_id] + 1e-9
        # Eq. 3: per-PDU totals within the PDU budgets.
        per_pdu: dict[str, float] = {}
        pdu_of = dict(zip(frame.rack_ids, np.asarray(frame.pdu_code)))
        for rack_id, grant in fixed.grants_w.items():
            pdu = frame.pdu_ids[pdu_of[rack_id]]
            per_pdu[pdu] = per_pdu.get(pdu, 0.0) + grant
        for pdu_id, total in per_pdu.items():
            assert total <= pdu_spot_w[pdu_id] + 1e-6
        # Eq. 4: the facility total within the UPS budget.
        assert sum(fixed.grants_w.values()) <= ups_spot_w + 1e-6


class TestAllocatorConfig:
    """Shard counts are refused loudly everywhere, never ignored."""

    @pytest.mark.parametrize("bad", [0, -1, 1.5, True, "2"])
    def test_invalid_shards_rejected(self, bad):
        spec = dict(presets.testbed_spec(), market={"shards": bad})
        with pytest.raises(ConfigurationError, match="/market"):
            build_scenario(spec)

    def test_scenario_shards_validated(self):
        with pytest.raises(TypeError):
            dataclasses.replace(build_testbed(seed=1), shards=1)
        with pytest.raises(TypeError):
            SpotDCAllocator(params=PARAMS, shards=1)


def _assert_results_equal(a, b):
    assert np.array_equal(a.price_series(), b.price_series())
    assert np.array_equal(a.ups_power_series(), b.ups_power_series())
    assert a.total_spot_revenue() == b.total_spot_revenue()
    assert a.ledger.net_profit == b.ledger.net_profit
    for tenant_id in a.tenants:
        assert a.tenant_spot_payment(tenant_id) == b.tenant_spot_payment(
            tenant_id
        )


@pytest.mark.recovery
class TestShardedRecovery:
    """Crash/resume stays byte-identical on the per-PDU path."""

    def test_resume_matches_straight_run(self, tmp_path):
        crashing = dataclasses.replace(
            FaultProfile(name="crash-only"), crash_at_slot=8
        )
        ckpt_dir = tmp_path / "ckpt"
        from repro.errors import OperatorCrash

        with pytest.raises(OperatorCrash):
            run_simulation(
                build_testbed(seed=11), SLOTS, fault_profile=crashing,
                checkpoint_every=3, checkpoint_dir=ckpt_dir,
            )
        checkpoint = latest_checkpoint(ckpt_dir)
        assert checkpoint is not None
        resumed = run_simulation(
            build_testbed(seed=11), SLOTS, fault_profile=crashing,
            resume_from=checkpoint,
        )
        _assert_results_equal(resumed, run_simulation(build_testbed(seed=11), SLOTS))
