"""Spot-capacity prediction (Signal.headroom) and market-price prediction."""

import pytest

from repro.errors import ConfigurationError
from repro.forecast import CurrentDrawSignal, EwmaPricePredictor
from repro.infrastructure.pdu import Pdu
from repro.infrastructure.rack import Rack
from repro.infrastructure.topology import PowerTopology
from repro.infrastructure.ups import Ups


def topology():
    topo = PowerTopology.build(
        Ups("u", 260.0),
        [Pdu("p1", 150.0), Pdu("p2", 150.0)],
        [
            Rack("r1", "t1", "p1", 80.0, 120.0),
            Rack("r2", "t2", "p1", 60.0, 90.0),
            Rack("r3", "t3", "p2", 80.0, 120.0),
        ],
    )
    topo.rack("r1").record_power(50.0)
    topo.rack("r2").record_power(40.0)
    topo.rack("r3").record_power(30.0)
    return topo


class TestSpotCapacityPredictor:
    """The paper's Eq. 3-4 headroom rule, shared by every signal."""

    def test_non_requesting_uses_current_draw(self):
        signal = CurrentDrawSignal(safety_margin_fraction=0.0)
        forecast = signal.headroom(topology(), [])
        assert forecast.pdu_spot_w["p1"] == pytest.approx(150.0 - 90.0)
        assert forecast.pdu_spot_w["p2"] == pytest.approx(150.0 - 30.0)
        assert forecast.ups_spot_w == pytest.approx(260.0 - 120.0)

    def test_requesting_rack_referenced_at_guaranteed(self):
        signal = CurrentDrawSignal(safety_margin_fraction=0.0)
        forecast = signal.headroom(topology(), ["r1"])
        # r1 counts at 80 W instead of its 50 W draw.
        assert forecast.pdu_spot_w["p1"] == pytest.approx(150.0 - 120.0)

    def test_rack_holding_spot_referenced_at_guaranteed(self):
        topo = topology()
        topo.rack("r2").set_spot_budget(10.0)
        signal = CurrentDrawSignal(safety_margin_fraction=0.0)
        forecast = signal.headroom(topo, [])
        # r2 counts at its 60 W guarantee instead of 40 W draw.
        assert forecast.pdu_spot_w["p1"] == pytest.approx(150.0 - 110.0)

    def test_under_prediction_scales(self):
        exact = CurrentDrawSignal(safety_margin_fraction=0.0)
        under = CurrentDrawSignal(
            under_prediction_factor=0.85, safety_margin_fraction=0.0
        )
        topo = topology()
        f_exact = exact.headroom(topo, [])
        f_under = under.headroom(topo, [])
        assert f_under.ups_spot_w == pytest.approx(0.85 * f_exact.ups_spot_w)
        for pdu_id in f_exact.pdu_spot_w:
            assert f_under.pdu_spot_w[pdu_id] == pytest.approx(
                0.85 * f_exact.pdu_spot_w[pdu_id]
            )

    def test_safety_margin_reserves_capacity(self):
        margin = CurrentDrawSignal(safety_margin_fraction=0.1)
        forecast = margin.headroom(topology(), [])
        assert forecast.pdu_spot_w["p1"] == pytest.approx(150.0 * 0.9 - 90.0)

    def test_reference_override_clamped_at_guaranteed(self):
        signal = CurrentDrawSignal(safety_margin_fraction=0.0)
        forecast = signal.headroom(
            topology(), [], reference_power_w={"r1": 1000.0, "r2": 45.0}
        )
        # r1 clamps to its 80 W guarantee; r2 uses the 45 W override.
        assert forecast.pdu_spot_w["p1"] == pytest.approx(150.0 - 125.0)

    def test_never_negative(self):
        topo = topology()
        signal = CurrentDrawSignal()
        forecast = signal.headroom(topo, ["r1", "r2", "r3"])
        assert forecast.ups_spot_w >= 0.0
        assert all(v >= 0.0 for v in forecast.pdu_spot_w.values())

    def test_unknown_requesting_rack_rejected(self):
        with pytest.raises(ConfigurationError):
            CurrentDrawSignal().headroom(topology(), ["ghost"])

    def test_parameter_validation(self):
        with pytest.raises(ConfigurationError):
            CurrentDrawSignal(under_prediction_factor=0.0)
        with pytest.raises(ConfigurationError):
            CurrentDrawSignal(safety_margin_fraction=1.0)
        with pytest.raises(ConfigurationError):
            CurrentDrawSignal(window=0)


class TestEwmaPricePredictor:
    def test_none_before_observation(self):
        assert EwmaPricePredictor().predict() is None

    def test_first_observation_sets_estimate(self):
        predictor = EwmaPricePredictor(alpha=0.5)
        predictor.observe(0.2)
        assert predictor.predict() == pytest.approx(0.2)

    def test_ewma_blend(self):
        predictor = EwmaPricePredictor(alpha=0.5, skip_zero=False)
        predictor.observe(0.2)
        predictor.observe(0.4)
        assert predictor.predict() == pytest.approx(0.3)

    def test_skips_zero_prices_by_default(self):
        predictor = EwmaPricePredictor(alpha=1.0)
        predictor.observe(0.3)
        predictor.observe(0.0)
        assert predictor.predict() == pytest.approx(0.3)

    def test_alpha_one_tracks_last(self):
        predictor = EwmaPricePredictor(alpha=1.0)
        for price in (0.1, 0.25, 0.18):
            predictor.observe(price)
        assert predictor.predict() == pytest.approx(0.18)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            EwmaPricePredictor(alpha=0.0)
        with pytest.raises(ConfigurationError):
            EwmaPricePredictor().observe(-0.1)
