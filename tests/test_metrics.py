"""MetricsCollector unit tests."""

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.sim.metrics import MetricsCollector


@pytest.fixture
def collector():
    return MetricsCollector(
        rack_ids=["r1", "r2"], pdu_ids=["p1"], tenant_ids=["t1", "t2"]
    )


def record(collector, slot=0, price=0.1, grants=None, wanted=frozenset(),
           pdu_prices=None, payments=None):
    grants = grants if grants is not None else {}
    collector.record_slot(
        price=price,
        grants_w=grants,
        spot_revenue=0.01,
        forecast_ups_w=100.0,
        forecast_pdu_total_w=120.0,
        ups_power_w=90.0,
        pdu_power_w={"p1": 90.0},
        rack_power_w=np.array([50.0, 50.0]),
        rack_value=np.array([80.0, 30.0]),
        rack_slo_violated=np.array([False, False]),
        payments=payments or {},
        rack_wanted=np.array([r in wanted for r in collector.rack_ids]),
        pdu_prices=pdu_prices,
    )


class TestRecording:
    def test_slot_count(self, collector):
        record(collector)
        record(collector, slot=1)
        assert collector.slots == 2

    def test_missing_rack_outcome_rejected(self, collector):
        with pytest.raises(SimulationError):
            collector.record_slot(
                price=0.1, grants_w={}, spot_revenue=0.0,
                forecast_ups_w=0.0, forecast_pdu_total_w=0.0,
                ups_power_w=0.0, pdu_power_w={},
                rack_power_w=np.array([50.0]), rack_value=np.array([80.0]),
                rack_slo_violated=np.array([False]), payments={},
            )

    def test_empty_constructor_rejected(self):
        with pytest.raises(SimulationError):
            MetricsCollector([], ["p"], ["t"])

    def test_grants_default_zero(self, collector):
        record(collector, grants={"r1": 12.0})
        assert collector.rack_granted_array("r1")[0] == 12.0
        assert collector.rack_granted_array("r2")[0] == 0.0

    def test_wanted_mask_from_set(self, collector):
        record(collector, wanted=frozenset({"r2"}))
        assert not collector.rack_wanted_array("r1")[0]
        assert collector.rack_wanted_array("r2")[0]

    def test_payments_default_zero(self, collector):
        record(collector, payments={"t1": 0.5})
        assert collector.tenant_payment_array("t1")[0] == 0.5
        assert collector.tenant_payment_array("t2")[0] == 0.0


class TestPduPrices:
    def test_defaults_to_headline_price(self, collector):
        record(collector, price=0.17)
        assert collector.pdu_price_array("p1")[0] == pytest.approx(0.17)

    def test_locational_price_recorded(self, collector):
        record(collector, price=0.17, pdu_prices={"p1": 0.09})
        assert collector.pdu_price_array("p1")[0] == pytest.approx(0.09)
        assert collector.price_array()[0] == pytest.approx(0.17)


class TestArrays:
    def test_series_align(self, collector):
        for slot in range(5):
            record(collector, slot=slot)
        assert collector.price_array().shape == (5,)
        assert collector.ups_power_array().shape == (5,)
        assert collector.rack_perf_array("r2").shape == (5,)
        assert np.all(collector.rack_perf_array("r2") == 30.0)

    def test_forecast_arrays(self, collector):
        record(collector)
        assert collector.forecast_ups_array()[0] == 100.0
        assert collector.forecast_pdu_total_array()[0] == 120.0
