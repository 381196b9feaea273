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

import numpy as np
import pytest

from repro.config import MarketParameters
from repro.core.clearing import MarketClearing, reconcile_allocation
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

        def spy(result, frame, pdu_spot_w, ups_spot_w):
            fixed = reconcile_allocation(result, frame, pdu_spot_w, ups_spot_w)
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
        pdu_ids = [pdu_id for pdu_id, _ in frame.pdu_slices()]
        for rack_id, grant in fixed.grants_w.items():
            pdu = pdu_ids[pdu_of[rack_id]]
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
