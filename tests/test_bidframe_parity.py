"""Property-based parity: the BidFrame clear vs the brute-force oracle.

The columnar pipeline (`BidFrame` + breakpoint-sweep demand totals) is
checked against ``tests/oracle.py``, a bid-at-a-time transcription of
Eqs. 1-4.  Across random facilities — all three bid kinds, uniform and
per-PDU pricing, extra phase/heat constraints — the two must produce
identical prices and (to float-summation noise) identical grants and
profit.  Grant extraction is bit-identical by construction (both sides
evaluate each bid's own demand at the clearing price), so grants are
compared with a tight absolute tolerance only to absorb the demand-total
reordering that may, in principle, shift the scan's feasibility edge.

Watt-scale draws are bounded away from float epsilon (a value is either
exactly zero or >= 0.01 W): at ~1e-16 W caps *every* candidate revenue
is pure rounding noise (~1e-20 $/h), and which grid price "wins" such a
degenerate all-tie landscape is not a meaningful parity property.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import MarketParameters
from repro.core.allocation import AllocationResult
from repro.core.bids import RackBid
from repro.core.clearing import MarketClearing
from repro.core.demand import FullBid, LinearBid, StepBid
from repro.core.frame import KIND_CLOSED, KIND_SAMPLED, BidFrame
from repro.infrastructure.constraints import CapacityConstraint
from tests import oracle

PARAMS = MarketParameters(price_step=0.01)


def _watts(upper):
    """A watt value: exactly zero, or bounded away from float noise."""
    return st.one_of(
        st.just(0.0), st.floats(min_value=0.01, max_value=upper)
    )


def _engine():
    return MarketClearing(params=PARAMS)


@st.composite
def full_bid(draw):
    n_pts = draw(st.integers(min_value=1, max_value=4))
    increments = [
        draw(st.floats(min_value=0.5, max_value=30.0)) for _ in range(n_pts)
    ]
    demands = np.cumsum(increments)
    marginals = sorted(
        (
            draw(st.floats(min_value=0.0, max_value=0.0005))
            for _ in range(n_pts)
        ),
        reverse=True,
    )
    cap = draw(
        st.one_of(st.none(), st.floats(min_value=0.01, max_value=0.45))
    )
    return FullBid(demands, marginals, price_cap=cap)


@st.composite
def market_instances(draw, constraints=False):
    n_racks = draw(st.integers(min_value=1, max_value=10))
    n_pdus = draw(st.integers(min_value=1, max_value=3))
    bids = []
    for i in range(n_racks):
        kind = draw(st.sampled_from(["linear", "step", "full"]))
        if kind == "full":
            demand = draw(full_bid())
        else:
            d_min = draw(_watts(40.0))
            d_max = d_min + draw(_watts(80.0))
            q_min = draw(st.floats(min_value=0.0, max_value=0.3))
            q_max = q_min + draw(st.floats(min_value=0.001, max_value=0.4))
            demand = (
                StepBid(d_max, q_max)
                if kind == "step"
                else LinearBid(d_max, q_min, d_min, q_max)
            )
        bids.append(
            RackBid(
                rack_id=f"r{i}",
                pdu_id=f"p{i % n_pdus}",
                tenant_id=f"t{i % max(1, n_racks // 2)}",
                demand=demand,
                rack_cap_w=draw(_watts(150.0)),
            )
        )
    pdu_spot = {f"p{j}": draw(_watts(200.0)) for j in range(n_pdus)}
    ups_spot = draw(_watts(400.0))
    extra = []
    if constraints:
        for k in range(draw(st.integers(min_value=0, max_value=2))):
            members = draw(
                st.sets(
                    st.sampled_from([b.rack_id for b in bids]), min_size=1
                )
            )
            extra.append(
                CapacityConstraint(
                    name=f"zone{k}",
                    rack_ids=frozenset(members),
                    cap_w=draw(_watts(120.0)),
                )
            )
    return bids, pdu_spot, ups_spot, tuple(extra)


def _assert_results_match(frame_result, oracle_result):
    assert frame_result.price == oracle_result.price
    assert frame_result.candidate_prices == oracle_result.candidate_prices
    assert frame_result.revenue_rate == pytest.approx(
        oracle_result.revenue_rate, abs=1e-9
    )
    assert set(frame_result.grants_w) == set(oracle_result.grants_w)
    for rack_id, grant in oracle_result.grants_w.items():
        assert frame_result.grants_w[rack_id] == pytest.approx(
            grant, abs=1e-9
        )


class TestUniformPricingParity:
    @given(data=market_instances())
    @settings(max_examples=150, deadline=None)
    def test_paths_identical(self, data):
        bids, pdu_spot, ups_spot, _ = data
        _assert_results_match(
            _engine().clear(bids, pdu_spot, ups_spot),
            oracle.clear(bids, pdu_spot, ups_spot, PARAMS),
        )

    @given(data=market_instances(constraints=True))
    @settings(max_examples=100, deadline=None)
    def test_paths_identical_with_constraints(self, data):
        bids, pdu_spot, ups_spot, extra = data
        _assert_results_match(
            _engine().clear(bids, pdu_spot, ups_spot, extra),
            oracle.clear(bids, pdu_spot, ups_spot, PARAMS, extra),
        )

    @given(data=market_instances())
    @settings(max_examples=100, deadline=None)
    def test_candidate_grid_matches_oracle(self, data):
        # Breakpoint augmentation and tolerance dedupe, both grid modes.
        bids = data[0]
        for breakpoints in (True, False):
            engine = MarketClearing(
                params=PARAMS, include_breakpoints=breakpoints
            )
            np.testing.assert_array_equal(
                engine.candidate_prices(bids),
                oracle.candidate_grid(bids, PARAMS, breakpoints),
            )

    @given(data=market_instances())
    @settings(max_examples=60, deadline=None)
    def test_prebuilt_frame_equals_adapter(self, data):
        # Clearing a prebuilt frame and letting clear() adapt the object
        # list must be the same computation.
        bids, pdu_spot, ups_spot, _ = data
        frame_engine = _engine()
        via_objects = frame_engine.clear(bids, pdu_spot, ups_spot)
        via_frame = frame_engine.clear(
            BidFrame.from_bids(bids), pdu_spot, ups_spot
        )
        assert via_frame.price == via_objects.price
        assert via_frame.grants_w == via_objects.grants_w
        assert via_frame.revenue_rate == via_objects.revenue_rate


class TestPerPduPricingParity:
    @given(data=market_instances())
    @settings(max_examples=100, deadline=None)
    def test_paths_identical(self, data):
        bids, pdu_spot, ups_spot, _ = data
        frame_result = _engine().clear_per_pdu(bids, pdu_spot, ups_spot)
        oracle_result = oracle.clear_per_pdu(bids, pdu_spot, ups_spot, PARAMS)
        assert frame_result.pdu_prices == oracle_result.pdu_prices
        assert frame_result.price == pytest.approx(
            oracle_result.price, abs=1e-9
        )
        assert frame_result.revenue_rate == pytest.approx(
            oracle_result.revenue_rate, abs=1e-9
        )
        for rack_id, grant in oracle_result.grants_w.items():
            assert frame_result.grants_w[rack_id] == pytest.approx(
                grant, abs=1e-9
            )

    @given(data=market_instances(constraints=True))
    @settings(max_examples=80, deadline=None)
    def test_paths_identical_with_constraints(self, data):
        bids, pdu_spot, ups_spot, extra = data
        frame_result = _engine().clear_per_pdu(
            bids, pdu_spot, ups_spot, extra
        )
        oracle_result = oracle.clear_per_pdu(
            bids, pdu_spot, ups_spot, PARAMS, extra
        )
        assert frame_result.pdu_prices == oracle_result.pdu_prices
        for rack_id, grant in oracle_result.grants_w.items():
            assert frame_result.grants_w[rack_id] == pytest.approx(
                grant, abs=1e-9
            )


class TestDemandKernelParity:
    @given(data=market_instances())
    @settings(max_examples=80, deadline=None)
    def test_demand_matrix_matches_per_bid_grids(self, data):
        bids, _, _, _ = data
        frame = BidFrame.from_bids(bids)
        prices = MarketClearing(params=PARAMS).candidate_prices(frame)
        matrix = frame.demand_matrix(prices)
        for row, bid in enumerate(frame.to_bids()):
            expected = np.minimum(
                bid.demand.demand_grid(prices), bid.rack_cap_w
            )
            np.testing.assert_array_equal(matrix[row], expected)

    @given(data=market_instances(constraints=True))
    @settings(max_examples=80, deadline=None)
    def test_demand_totals_match_matrix_sums(self, data):
        bids, _, _, extra = data
        frame = BidFrame.from_bids(bids)
        prices = MarketClearing(params=PARAMS).candidate_prices(frame)
        group_rows = [frame.rows_for(c.rack_ids) for c in extra]
        totals, group_totals = frame.demand_totals(prices, group_rows)
        matrix = frame.demand_matrix(prices)
        expected = frame.pdu_demand(matrix)
        np.testing.assert_allclose(totals, expected, atol=1e-8)
        for k, rows in enumerate(group_rows):
            np.testing.assert_allclose(
                group_totals[k], matrix[rows].sum(axis=0), atol=1e-8
            )

    def test_demand_totals_exactly_zero_past_all_caps(self):
        # Float cancellation in the sweep must not leave phantom demand
        # above every bid's acceptable price.
        bids = [
            RackBid(
                rack_id=f"r{i}",
                pdu_id="p0",
                tenant_id="t0",
                demand=LinearBid(50.0 + i, 0.05, 10.0 + i, 0.2),
                rack_cap_w=100.0,
            )
            for i in range(5)
        ]
        frame = BidFrame.from_bids(bids)
        prices = np.array([0.1, 0.2, 0.25, 0.9])
        totals, _ = frame.demand_totals(prices)
        assert totals[0, 2] == 0.0
        assert totals[0, 3] == 0.0


class TestSettlementParity:
    @given(data=market_instances())
    @settings(max_examples=80, deadline=None)
    def test_settle_matches_object_billing(self, data):
        bids, pdu_spot, ups_spot, _ = data
        frame = BidFrame.from_bids(bids)
        result = _engine().clear_per_pdu(frame, pdu_spot, ups_spot)
        expected = oracle.settle(result, bids, 120.0)
        _, payments = frame.settle(
            result.grants_w, result.pdu_prices, result.price, 120.0
        )
        assert set(payments) == set(expected)
        for tenant_id, dollars in expected.items():
            assert payments[tenant_id] == pytest.approx(dollars, abs=1e-12)


class TestFrameAdapter:
    def _bids(self):
        return [
            RackBid(
                rack_id=f"r{i}",
                pdu_id=f"p{i % 2}",
                tenant_id=f"t{i % 3}",
                demand=LinearBid(40.0 + i, 0.05, 10.0, 0.3),
                rack_cap_w=60.0,
            )
            for i in range(6)
        ]

    def test_round_trip_preserves_bid_objects(self):
        bids = self._bids()
        frame = BidFrame.from_bids(bids)
        returned = frame.to_bids()
        assert sorted(b.rack_id for b in returned) == sorted(
            b.rack_id for b in bids
        )
        originals = {b.rack_id: b for b in bids}
        for b in returned:
            assert b is originals[b.rack_id]

    def test_rows_sorted_by_pdu(self):
        frame = BidFrame.from_bids(self._bids())
        assert list(frame.pdu_code) == sorted(frame.pdu_code)

    def test_from_arrays_equals_object_bids(self):
        bids = self._bids()
        frame = BidFrame.from_arrays(
            rack_ids=[b.rack_id for b in bids],
            pdu_ids=[b.pdu_id for b in bids],
            tenant_ids=[b.tenant_id for b in bids],
            d_max_w=[b.demand.d_max_w for b in bids],
            q_min=[b.demand.q_min for b in bids],
            d_min_w=[b.demand.d_min_w for b in bids],
            q_max=[b.demand.q_max for b in bids],
            rack_cap_w=[b.rack_cap_w for b in bids],
        )
        pdu_spot = {"p0": 90.0, "p1": 70.0}
        engine = _engine()
        from_arrays = engine.clear(frame, pdu_spot, 140.0)
        from_objects = engine.clear(bids, pdu_spot, 140.0)
        assert from_arrays.price == from_objects.price
        assert from_arrays.grants_w == from_objects.grants_w

    def test_empty_frames_are_well_formed(self):
        engine = _engine()
        for frame in (BidFrame.from_bids([]), BidFrame.from_blocks([])):
            assert len(frame) == 0
            assert frame.rack_ids == frame.pdu_ids == frame.tenant_ids == ()
            assert frame.to_bids() == ()
            assert frame.market_starts(per_pdu=True).tolist() == [0]
            prices, starts = frame.market_grid(True, 0.0, 1.0, 0.01, True)
            assert prices.size == 0 and starts.tolist() == [0]
            assert frame.pdu_code.dtype == frame.tenant_code.dtype == np.intp
            assert frame.kind.dtype == np.uint8
            for column in ("d_max_w", "q_min", "d_min_w", "q_max", "rack_cap_w",
                           "max_demand_w", "floor_w"):
                assert getattr(frame, column).shape == (0,)
            totals, groups = frame.demand_totals(np.array([0.1, 0.2]))
            assert totals.shape == (0, 2) and groups.shape == (0, 2)
            empty = AllocationResult.empty()
            assert engine.clear(frame, {}, 100.0) == empty
            assert engine.clear_per_pdu(frame, {}, 100.0) == empty

    def test_interleaved_pdus_keep_submission_order(self):
        bids = [
            RackBid(f"r{i}", pdu, f"t{i % 3}", LinearBid(30.0 + i, 0.05, 5.0, 0.3), 80.0)
            for i, pdu in enumerate(["p1", "p0", "p2", "p1", "p0", "p2", "p0"])
        ]
        frame = BidFrame.from_bids(bids)
        expected = sorted(bids, key=lambda b: b.pdu_id)  # stable sort
        assert frame.pdu_ids == ("p0", "p1", "p2")
        assert frame.rack_ids == tuple(b.rack_id for b in expected)
        assert all(a is b for a, b in zip(frame.to_bids(), expected))
        assert frame.tenant_ids == tuple(dict.fromkeys(b.tenant_id for b in expected))
        pdu_spot = {"p0": 60.0, "p1": 50.0, "p2": 40.0}
        _assert_results_match(
            _engine().clear(frame, pdu_spot, 120.0),
            oracle.clear(bids, pdu_spot, 120.0, PARAMS),
        )

    def test_mixed_kinds_encode_per_row(self):
        bids = [
            RackBid("r0", "p0", "t0", LinearBid(60.0, 0.05, 10.0, 0.3), 50.0),
            RackBid("r1", "p1", "t1", StepBid(35.0, 0.2), 100.0),
            RackBid("r2", "p0", "t0", FullBid([10.0, 30.0], [0.0004, 0.0002]), 25.0),
            RackBid("r3", "p1", "t2", FullBid([8.0, 20.0], [0.0003, 0.0001], 0.15), 90.0),
        ]
        frame = BidFrame.from_bids(bids)
        for row, bid in enumerate(frame.to_bids()):
            fn = bid.demand
            sampled = isinstance(fn, FullBid)
            assert frame.kind[row] == (KIND_SAMPLED if sampled else KIND_CLOSED)
            assert frame.q_max[row] == fn.max_price
            assert frame.max_demand_w[row] == fn.max_demand_w
            assert frame.floor_w[row] == min(fn.demand_at(fn.max_price), bid.rack_cap_w)
        pdu_spot = {"p0": 45.0, "p1": 60.0}
        _assert_results_match(
            _engine().clear(frame, pdu_spot, 90.0),
            oracle.clear(bids, pdu_spot, 90.0, PARAMS),
        )

    def test_market_grid_partitions_frame(self):
        frame = BidFrame.from_bids(self._bids())
        starts, seg_codes = frame.segments()
        assert [frame.pdu_ids[c] for c in seg_codes] == list(frame.pdu_ids)
        rows = frame.market_starts(per_pdu=True)
        assert rows.tolist() == starts.tolist() + [len(frame)]
        assert frame.market_starts(per_pdu=False).tolist() == [0, len(frame)]
        engine = _engine()
        prices, grid_starts = frame.market_grid(
            True, PARAMS.reserve_price, PARAMS.max_price, PARAMS.price_step, True
        )
        for m in range(len(frame.pdu_ids)):
            alone = BidFrame.from_bids(frame.to_bids()[rows[m] : rows[m + 1]])
            assert alone.pdu_ids == (frame.pdu_ids[m],)
            assert np.array_equal(
                prices[grid_starts[m] : grid_starts[m + 1]],
                engine.candidate_prices(alone),
            )
