"""Columnar rack telemetry against the per-rack scalar oracles.

The monitor, the spot-capacity predictor, the emergency scan and the
metrics collector store and read one row per slot; every value must
match, bit for bit, the per-rack code in ``tests/oracle.py``.  PDUs are
uneven (1 to 12 racks) and rack order interleaves PDUs, because a PDU
of 8 or more racks is where a pairwise sum would differ from an
in-order one.
"""

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.allocation import AllocationResult
from repro.errors import ConfigurationError, SimulationError
from repro.forecast.capacity import SpotCapacityForecast
from repro.forecast.signals import CurrentDrawSignal
from repro.infrastructure.emergencies import EmergencyLog
from repro.infrastructure.layout import SlotRows
from repro.infrastructure.monitor import PowerMonitor
from repro.infrastructure.pdu import Pdu
from repro.infrastructure.rack import Rack
from repro.infrastructure.topology import PowerTopology
from repro.infrastructure.ups import Ups
from repro.power.elementwise import ordered_sum, segment_sums
from repro.sim.metrics import MetricsCollector

from tests import oracle

# Draws spanning many orders of magnitude, so summation order shows.
watts = st.floats(min_value=0.0, max_value=1e7, allow_nan=False, allow_infinity=False)
# Metered draws may be -0.0, where a max's tie rule decides the sign.
samples = st.one_of(watts, st.just(-0.0))


def same_bits(actual, expected):
    actual = np.asarray(actual, dtype=float)
    expected = np.asarray(expected, dtype=float)
    assert actual.shape == expected.shape
    assert np.array_equal(actual.view(np.int64), expected.view(np.int64)), (
        actual,
        expected,
    )


@st.composite
def topologies(draw):
    """Uneven PDUs of 1-12 racks, racks added in a shuffled order.

    Up to 10 PDUs, so a facility total over PDUs can also be long
    enough for a pairwise sum to differ.
    """
    sizes = draw(st.lists(st.integers(1, 12), min_size=1, max_size=10))
    racks = [
        Rack(
            f"r{p}.{k}",
            f"t{(p + k) % 3}",
            f"p{p}",
            draw(st.floats(1.0, 5e4)),
            draw(st.floats(5e4, 1e5)),
        )
        for p, size in enumerate(sizes)
        for k in range(size)
    ]
    order = draw(st.permutations(range(len(racks))))
    pdus = [Pdu(f"p{p}", draw(st.floats(1e3, 1e6))) for p in range(len(sizes))]
    return PowerTopology.build(
        Ups("ups", draw(st.floats(1e3, 4e6))), pdus, [racks[i] for i in order]
    )


def sample(draw, topology, values):
    """One slot's draws, keyed in a drawn order (the caller's mapping order)."""
    ids = draw(st.permutations(list(topology.racks)))
    return {rack_id: draw(values) for rack_id in ids}


class TestOrderedSums:
    @settings(max_examples=150, deadline=None)
    @given(st.lists(watts, max_size=40))
    def test_ordered_sum_adds_left_to_right(self, values):
        same_bits(ordered_sum(np.array(values, dtype=float)), oracle.in_order(values))

    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.lists(watts, max_size=12), min_size=1, max_size=4))
    def test_segment_sums_one_column_per_segment(self, segments):
        values = [v for segment in segments for v in segment]
        widest = max([len(s) for s in segments] + [1])
        gather = np.full((widest, len(segments)), len(values), dtype=np.intp)
        at = 0
        for j, segment in enumerate(segments):
            gather[: len(segment), j] = np.arange(at, at + len(segment))
            at += len(segment)
        same_bits(
            segment_sums(np.array(values, dtype=float), gather),
            [oracle.in_order(s) for s in segments],
        )

    def test_float_totals_add_left_to_right(self):
        # Left to right these total 1.0; the compensated builtin sum()
        # of Python 3.12+ totals them to 1.0000000000000002.
        ids, values = ["a", "b", "c"], [1.0, 1e-16, 1e-16]
        by_id = dict(zip(ids, values))
        assert SpotCapacityForecast(by_id, 0.0).total_pdu_spot_w == 1.0
        assert AllocationResult(0.0, by_id, 0.0).total_granted_w == 1.0
        topology = PowerTopology.build(
            Ups("u", 10.0),
            [Pdu("p", 10.0)],
            [Rack(rack_id, "t", "p", value, 2.0) for rack_id, value in by_id.items()],
        )
        for rack_id, value in by_id.items():
            topology.rack(rack_id).record_power(value)
        assert topology.pdu_power_w("p") == 1.0
        assert topology.ups_power_w() == 1.0
        assert topology.total_guaranteed_w() == 1.0
        collector = MetricsCollector(ids, ["p"], ["t"])
        collector.record_slot(
            0.0,
            by_id,
            0.0,
            0.0,
            0.0,
            0.0,
            {"p": 0.0},
            np.zeros(3),
            np.zeros(3),
            np.zeros(3, dtype=bool),
            {},
        )
        assert collector.spot_granted_array().tolist() == [1.0]

    def test_single_long_segment_is_not_pairwise(self):
        # A one-column block is where np.add.reduce would go pairwise.
        values = np.array([1e16, 1.0, -1e16] + [1.0] * 9)
        gather = np.arange(len(values), dtype=np.intp).reshape(-1, 1)
        same_bits(segment_sums(values, gather), [oracle.in_order(values)])


class TestMonitorParity:
    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_series_and_recent_max_match_per_rack_history(self, data):
        topology = data.draw(topologies())
        history = data.draw(st.integers(1, 6))
        slots = data.draw(st.integers(1, 10))
        diverge_at = data.draw(st.one_of(st.none(), st.integers(0, slots - 1)))
        monitor = PowerMonitor(topology, history_slots=history)
        scalar = oracle.ScalarMonitor(topology, history)
        for slot in range(slots):
            true = sample(data.draw, topology, samples)
            metered = None
            if diverge_at is not None and slot >= diverge_at:
                metered = {r: w * data.draw(st.sampled_from([1.0, 0.5, 2.0])) for r, w in true.items()}
            monitor.record_slot(true, metered)
            scalar.record(true, metered)
            if data.draw(st.booleans()):
                # A checkpoint restore mid-run (the copy keeps the ids).
                monitor = pickle.loads(pickle.dumps(monitor))
            for rack_id in topology.racks:
                same_bits(monitor.rack_series(rack_id), scalar.rack[rack_id])
            for pdu_id in topology.pdus:
                same_bits(monitor.pdu_series(pdu_id), scalar.pdu[pdu_id])
                same_bits(monitor.latest_pdu_power_w(pdu_id), scalar.pdu[pdu_id][-1])
            same_bits(monitor.ups_series(), scalar.ups)
            same_bits(list(monitor.latest_pdu_powers().values()),
                      [scalar.pdu[p][-1] for p in topology.pdus])
            for window in (1, 2, history, history + 3):
                for true_path in (False, True):
                    expected = [
                        scalar.recent_max(r, window, true_path) for r in topology.racks
                    ]
                    same_bits(monitor.recent_max_w(window, true=true_path), expected)
                    getter = (
                        monitor.rack_recent_true_max_w
                        if true_path
                        else monitor.rack_recent_max_w
                    )
                    same_bits([getter(r, window) for r in topology.racks], expected)
        assert monitor.slots_recorded == slots

    def test_recent_max_before_any_sample_is_zero(self):
        topology = PowerTopology.build(
            Ups("u", 10.0), [Pdu("p", 10.0)], [Rack("r", "t", "p", 1.0, 2.0)]
        )
        monitor = PowerMonitor(topology)
        assert monitor.recent_max_w(5).tolist() == [0.0]
        assert monitor.recent_rows(5, "pdu").shape == (0, 1)
        with pytest.raises(SimulationError):
            monitor.recent_max_w(0)
        with pytest.raises(SimulationError):
            monitor.recent_rows(3, "rack-pdu")


class TestPredictorParity:
    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_forecast_matches_per_rack_rule(self, data):
        topology = data.draw(topologies())
        ids = list(topology.racks)
        for rack in topology.racks.values():
            rack.record_power(data.draw(watts))
            if data.draw(st.booleans()):
                rack.set_spot_budget(data.draw(st.floats(0.0, rack.max_spot_w)))
        requesting = data.draw(st.lists(st.sampled_from(ids), unique=True))
        pdu = data.draw(st.sampled_from(list(topology.pdus.values())))
        if data.draw(st.booleans()):
            pdu.apply_derating(data.draw(st.floats(0.01, 0.9)))
        # References: some missing (fall back to the draw), some above
        # the guaranteed capacity (clamped).
        refs = {
            rack_id: data.draw(st.floats(0.0, 2e5))
            for rack_id in ids
            if data.draw(st.booleans())
        }
        factor = data.draw(st.floats(0.5, 1.0))
        margin = data.draw(st.floats(0.0, 0.2))
        signal = CurrentDrawSignal(factor, margin)
        full = {rack_id: refs.get(rack_id, data.draw(watts)) for rack_id in ids}
        for reference, expected_refs in (
            (None, None),
            (refs, refs),
            (np.array([full[r] for r in ids]), full),
        ):
            got = signal.headroom(topology, requesting, reference)
            pdu_spot, ups = oracle.spot_forecast(
                topology, requesting, expected_refs, factor, margin
            )
            assert list(got.pdu_spot_w) == list(pdu_spot)
            same_bits(list(got.pdu_spot_w.values()), list(pdu_spot.values()))
            same_bits(got.ups_spot_w, ups)
            assert all(type(v) is float for v in got.pdu_spot_w.values())

    def test_reference_row_must_match_the_racks(self):
        topology = PowerTopology.build(
            Ups("u", 10.0), [Pdu("p", 10.0)], [Rack("r", "t", "p", 1.0, 2.0)]
        )
        with pytest.raises(ConfigurationError, match="shape"):
            CurrentDrawSignal().headroom(topology, [], np.zeros(2))


class TestEmergencyParity:
    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_events_match_per_rack_scan(self, data):
        topology = data.draw(topologies())
        tolerance = data.draw(st.sampled_from([0.0, 0.01, 0.05]))
        racks = list(topology.racks.values())
        for rack in racks:
            if data.draw(st.booleans()):
                rack.set_spot_budget(data.draw(st.floats(0.0, rack.max_spot_w)))
            rack.record_power(data.draw(st.floats(0.0, 1.2 * rack.physical_w)))
        # One draw exactly at the threshold (no event), one just above.
        edge = data.draw(st.sampled_from(racks))
        edge.record_power(edge.budget_w * (1 + tolerance))
        above = data.draw(st.sampled_from(racks))
        if above is not edge:
            above.record_power(np.nextafter(above.budget_w * (1 + tolerance), np.inf))
        log = EmergencyLog(tolerance)
        slot = data.draw(st.integers(0, 100))
        got = [
            (e.slot, e.level, e.unit_id, e.capacity_w, e.power_w)
            for e in log.scan(topology, slot)
        ]
        expected = oracle.emergencies(topology, slot, tolerance)
        assert [g[:3] for g in got] == [e[:3] for e in expected]
        same_bits([g[3:] for g in got] or np.empty((0, 2)),
                  [e[3:] for e in expected] or np.empty((0, 2)))
        assert edge.rack_id not in {g[2] for g in got if g[1] == "rack"}


class TestCollectorParity:
    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_columns_match_per_id_lists(self, data):
        rack_ids = [f"r{i}" for i in range(data.draw(st.integers(1, 9)))]
        pdu_ids = [f"p{i}" for i in range(data.draw(st.integers(1, 4)))]
        tenant_ids = [f"t{i}" for i in range(data.draw(st.integers(1, 5)))]
        collector = MetricsCollector(rack_ids, pdu_ids, tenant_ids)
        scalar = oracle.ScalarCollector(rack_ids, pdu_ids, tenant_ids)
        slots = data.draw(st.integers(0, 6))
        some = lambda ids: data.draw(st.lists(st.sampled_from(ids), unique=True))  # noqa: E731
        for _ in range(slots):
            price = data.draw(watts)
            # Ids the collector does not know are ignored.
            grants = {r: data.draw(watts) for r in some(rack_ids + ["ghost"])}
            payments = {t: data.draw(watts) for t in some(tenant_ids + ["ghost"])}
            pdu_power = {p: data.draw(watts) for p in some(pdu_ids)}
            pdu_prices = {p: data.draw(watts) for p in some(pdu_ids)} or None
            wanted = frozenset(some(rack_ids))
            outcomes = {
                r: (data.draw(watts), data.draw(watts), data.draw(st.booleans()))
                for r in rack_ids
            }
            collector.record_slot(
                price=price, grants_w=grants, spot_revenue=0.0, forecast_ups_w=0.0,
                forecast_pdu_total_w=0.0, ups_power_w=data.draw(watts),
                pdu_power_w=pdu_power,
                rack_power_w=np.array([outcomes[r][0] for r in rack_ids]),
                rack_value=np.array([outcomes[r][1] for r in rack_ids]),
                rack_slo_violated=np.array([outcomes[r][2] for r in rack_ids]),
                payments=payments,
                rack_wanted=np.array([r in wanted for r in rack_ids]),
                pdu_prices=pdu_prices,
            )
            scalar.record(
                price, grants, collector._ups_power[-1], pdu_power, outcomes,
                payments, wanted, pdu_prices,
            )
        columns = [
            ("pdu_power", pdu_ids), ("pdu_price", pdu_ids),
            ("rack_power", rack_ids), ("rack_perf", rack_ids),
            ("rack_wanted", rack_ids), ("rack_granted", rack_ids),
            ("rack_slo_violation", rack_ids), ("tenant_payment", tenant_ids),
        ]
        for name, ids in columns:
            accessor = getattr(collector, f"{name}_array")
            for key in ids:
                got = accessor(key)
                expected = scalar.array(name, key)
                assert got.dtype == (bool if name in ("rack_wanted", "rack_slo_violation") else np.float64)
                assert got.shape == (slots,)
                assert got.flags.c_contiguous
                assert not np.shares_memory(got, accessor(key))
                if got.dtype == bool:
                    assert got.tolist() == expected.tolist()
                else:
                    same_bits(got, expected)
                    same_bits(got.sum(), expected.sum())
        same_bits(collector.price_array(), scalar.series["price"])


class TestSlotRows:
    def test_bounded_rows_keep_the_last_limit(self):
        rows = SlotRows(2, limit=3)
        for k in range(100):
            rows.append([k, -k])
            assert len(rows) == min(k + 1, 3)
            assert rows.column(0).tolist() == list(range(max(0, k - 2), k + 1))
        assert rows.tail(2).tolist() == [[98, -98], [99, -99]]
        assert rows.tail(10).shape == (3, 2)
        assert rows.last().tolist() == [99, -99]

    def test_pickle_keeps_only_live_rows(self):
        rows = SlotRows(1000, limit=4)
        for k in range(50):
            rows.append(float(k))
        restored = pickle.loads(pickle.dumps(rows))
        assert restored.column(7).tolist() == [46.0, 47.0, 48.0, 49.0]
        assert len(pickle.dumps(rows)) < 4 * 1000 * 8 + 1000
        restored.append(50.0)
        assert restored.column(0).tolist() == [47.0, 48.0, 49.0, 50.0]
        assert rows.column(0).tolist() == [46.0, 47.0, 48.0, 49.0]

    def test_unbounded_rows_grow(self):
        rows = SlotRows(1, dtype=bool)
        for k in range(40):
            rows.append(k % 2 == 0)
        assert rows.column(0).dtype == bool
        assert rows.column(0).tolist() == [k % 2 == 0 for k in range(40)]
