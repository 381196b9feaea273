"""Power monitoring and PDU variation statistics."""

import numpy as np
import pytest

from repro.errors import CapacityError, SimulationError
from repro.infrastructure.monitor import PowerMonitor
from repro.infrastructure.pdu import Pdu
from repro.infrastructure.rack import Rack
from repro.infrastructure.topology import PowerTopology
from repro.infrastructure.ups import Ups
from repro.sim.scenario import scaled_scenario


@pytest.fixture
def topology():
    return PowerTopology.build(
        Ups("u", 1000.0),
        [Pdu("p1", 500.0), Pdu("p2", 500.0)],
        [
            Rack("r1", "t1", "p1", 100.0, 150.0),
            Rack("r2", "t2", "p1", 100.0, 150.0),
            Rack("r3", "t3", "p2", 100.0, 150.0),
        ],
    )


def full_sample(a=10.0, b=20.0, c=30.0):
    return {"r1": a, "r2": b, "r3": c}


class TestRecording:
    def test_records_and_aggregates(self, topology):
        monitor = PowerMonitor(topology)
        monitor.record_slot(full_sample())
        assert monitor.slots_recorded == 1
        assert monitor.latest_pdu_power_w("p1") == pytest.approx(30.0)
        assert monitor.latest_ups_power_w() == pytest.approx(60.0)

    def test_updates_rack_state(self, topology):
        monitor = PowerMonitor(topology)
        monitor.record_slot(full_sample())
        assert topology.rack("r2").power_w == pytest.approx(20.0)

    def test_missing_rack_rejected(self, topology):
        monitor = PowerMonitor(topology)
        with pytest.raises(SimulationError):
            monitor.record_slot({"r1": 10.0})

    def test_unknown_rack_rejected(self, topology):
        monitor = PowerMonitor(topology)
        sample = full_sample()
        sample["ghost"] = 5.0
        with pytest.raises(SimulationError):
            monitor.record_slot(sample)

    def test_series_order(self, topology):
        monitor = PowerMonitor(topology)
        monitor.record_slot(full_sample(a=1.0))
        monitor.record_slot(full_sample(a=2.0))
        assert np.array_equal(monitor.rack_series("r1"), [1.0, 2.0])

    def test_history_bounded(self, topology):
        monitor = PowerMonitor(topology, history_slots=2)
        for i in range(5):
            monitor.record_slot(full_sample(a=float(i)))
        assert monitor.slots_recorded == 5
        assert np.array_equal(monitor.rack_series("r1"), [3.0, 4.0])

    def test_empty_latest_is_zero(self, topology):
        monitor = PowerMonitor(topology)
        assert monitor.latest_ups_power_w() == 0.0
        assert monitor.latest_pdu_power_w("p1") == 0.0


class TestRejectedSampleLeavesNoTrace:
    """A sample that fails validation must not touch any state."""

    @staticmethod
    def snapshot(monitor, topology):
        return (
            monitor.slots_recorded,
            {r: monitor.rack_series(r).tolist() for r in topology.racks},
            {p: monitor.pdu_series(p).tolist() for p in topology.pdus},
            monitor.ups_series().tolist(),
            {r: rack.power_w for r, rack in topology.racks.items()},
        )

    @pytest.mark.parametrize(
        "corrupt, error",
        [
            # An unknown id after every known rack: the known racks come
            # first in the mapping, so an append-as-you-go monitor would
            # already have stored them.
            (lambda sample: {**sample, "ghost": 5.0}, SimulationError),
            (lambda sample: {**sample, list(sample)[-1]: -1.0}, CapacityError),
        ],
        ids=["unknown-rack", "negative-draw"],
    )
    def test_bad_sample_changes_nothing(self, corrupt, error):
        topology = scaled_scenario(groups=1).topology
        monitor = PowerMonitor(topology)
        monitor.record_slot({r: 100.0 for r in topology.racks})
        before = self.snapshot(monitor, topology)
        with pytest.raises(error):
            monitor.record_slot(corrupt({r: 250.0 for r in topology.racks}))
        assert self.snapshot(monitor, topology) == before

    def test_missing_meter_changes_nothing(self):
        topology = scaled_scenario(groups=1).topology
        monitor = PowerMonitor(topology)
        before = self.snapshot(monitor, topology)
        sample = {r: 250.0 for r in topology.racks}
        with pytest.raises(SimulationError, match="meter"):
            monitor.record_slot(sample, dict(list(sample.items())[1:]))
        assert self.snapshot(monitor, topology) == before


class TestRecentMax:
    def test_window(self, topology):
        monitor = PowerMonitor(topology)
        for value in (5.0, 50.0, 10.0):
            monitor.record_slot(full_sample(a=value))
        assert monitor.rack_recent_max_w("r1", window=2) == pytest.approx(50.0)
        assert monitor.rack_recent_max_w("r1", window=1) == pytest.approx(10.0)

    def test_before_any_sample(self, topology):
        assert PowerMonitor(topology).rack_recent_max_w("r1") == 0.0

    def test_rejects_bad_window(self, topology):
        with pytest.raises(SimulationError):
            PowerMonitor(topology).rack_recent_max_w("r1", window=0)


class TestVariationStats:
    def test_variation_of_constant_series_is_zero(self, topology):
        monitor = PowerMonitor(topology)
        for _ in range(10):
            monitor.record_slot(full_sample())
        assert monitor.pdu_variation_quantile("p1", 0.99) == 0.0

    def test_variation_detects_step(self, topology):
        monitor = PowerMonitor(topology)
        monitor.record_slot(full_sample(a=100.0, b=100.0))
        monitor.record_slot(full_sample(a=110.0, b=100.0))
        rel = monitor.pdu_slot_variation("p1")
        assert rel.shape == (1,)
        assert rel[0] == pytest.approx(10.0 / 200.0)

    def test_variation_needs_two_slots(self, topology):
        monitor = PowerMonitor(topology)
        monitor.record_slot(full_sample())
        assert monitor.pdu_slot_variation("p1").size == 0

    def test_rejects_nonpositive_history(self, topology):
        with pytest.raises(SimulationError):
            PowerMonitor(topology, history_slots=0)
