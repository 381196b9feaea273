"""Property-based tests: value curves and cost models."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.economics.cost import OpportunisticCostModel, SprintingCostModel
from repro.economics.valuation import (
    SpotValueCurve,
    opportunistic_value_curve,
    sprinting_value_curve,
)
from repro.errors import ConfigurationError
from repro.power.latency import LatencyModel
from repro.power.server import ServerPowerModel
from repro.power.throughput import ThroughputModel


@st.composite
def gain_curves(draw):
    """Random raw gain samples -> a SpotValueCurve."""
    n = draw(st.integers(min_value=3, max_value=30))
    max_spot = draw(st.floats(min_value=10.0, max_value=200.0))
    grid = np.linspace(0.0, max_spot, n)
    gains = np.cumsum(
        [draw(st.floats(min_value=-0.5, max_value=2.0)) for _ in range(n)]
    )
    return SpotValueCurve.from_gain_samples(100.0, grid, gains)


class TestValueCurveProperties:
    @given(curve=gain_curves(), d1=st.floats(0, 250), d2=st.floats(0, 250))
    @settings(max_examples=150)
    def test_gain_monotone_non_decreasing(self, curve, d1, d2):
        lo, hi = min(d1, d2), max(d1, d2)
        assert curve.gain_per_hour(hi) >= curve.gain_per_hour(lo) - 1e-9

    @given(curve=gain_curves())
    @settings(max_examples=100)
    def test_gain_concave(self, curve):
        ds = np.linspace(0, curve.max_spot_w, 20)
        gains = np.array([curve.gain_per_hour(float(d)) for d in ds])
        increments = np.diff(gains)
        assert np.all(np.diff(increments) <= 1e-6)

    @given(
        curve=gain_curves(),
        q1=st.floats(min_value=0.0, max_value=5.0),
        q2=st.floats(min_value=0.0, max_value=5.0),
    )
    @settings(max_examples=150)
    def test_optimal_demand_monotone_in_price(self, curve, q1, q2):
        lo, hi = min(q1, q2), max(q1, q2)
        assert curve.optimal_demand_w(lo) >= curve.optimal_demand_w(hi) - 1e-9

    @given(curve=gain_curves(), q=st.floats(min_value=0.0, max_value=5.0))
    @settings(max_examples=100)
    def test_optimal_demand_has_non_negative_net_benefit(self, curve, q):
        demand = curve.optimal_demand_w(q)
        net = curve.gain_per_hour(demand) - (q / 1000.0) * demand
        assert net >= -1e-9


class TestCostModelProperties:
    @given(
        a=st.floats(min_value=0.0, max_value=1.0),
        b=st.floats(min_value=0.0, max_value=1.0),
        d1=st.floats(min_value=0.0, max_value=500.0),
        d2=st.floats(min_value=0.0, max_value=500.0),
    )
    def test_sprinting_cost_monotone_in_latency(self, a, b, d1, d2):
        model = SprintingCostModel(a=a, b=b, slo_ms=100.0)
        lo, hi = min(d1, d2), max(d1, d2)
        assert model.cost_per_job(hi) >= model.cost_per_job(lo) - 1e-12

    @given(
        rho=st.floats(min_value=0.0, max_value=10.0),
        t=st.floats(min_value=0.0, max_value=1e4),
    )
    def test_opportunistic_cost_linear(self, rho, t):
        model = OpportunisticCostModel(rho=rho)
        assert model.cost_per_job(2 * t) == pytest.approx(
            2 * model.cost_per_job(t), rel=1e-9, abs=1e-12
        )


@st.composite
def latency_setups(draw):
    idle = draw(st.floats(min_value=20.0, max_value=80.0))
    span = draw(st.floats(min_value=50.0, max_value=200.0))
    power = ServerPowerModel(idle, idle + span)
    model = LatencyModel(power_model=power, mu_max_rps=span * 1.2)
    base = draw(st.floats(min_value=0.5, max_value=0.9)) * (idle + span)
    rate = draw(st.floats(min_value=0.3, max_value=0.9)) * model.mu_max_rps
    headroom = (idle + span) - base
    return model, base, rate, max(headroom, 1.0)


class TestDerivedValueCurves:
    @given(setup=latency_setups())
    @settings(max_examples=60, deadline=None)
    def test_sprinting_curve_valid_shape(self, setup):
        model, base, rate, headroom = setup
        cost = SprintingCostModel(a=1e-6, b=1e-6, slo_ms=100.0)
        curve = sprinting_value_curve(model, cost, base, rate, headroom)
        ds = np.linspace(0, headroom, 15)
        gains = [curve.gain_per_hour(float(d)) for d in ds]
        assert gains[0] == 0.0
        assert all(g >= 0 for g in gains)
        assert all(b2 >= a2 - 1e-9 for a2, b2 in zip(gains, gains[1:]))

    @given(
        idle=st.floats(min_value=20.0, max_value=80.0),
        span=st.floats(min_value=50.0, max_value=200.0),
        base_frac=st.floats(min_value=0.4, max_value=0.9),
        rho=st.floats(min_value=1e-5, max_value=1e-2),
    )
    @settings(max_examples=60, deadline=None)
    def test_opportunistic_curve_valid_shape(self, idle, span, base_frac, rho):
        power = ServerPowerModel(idle, idle + span)
        model = ThroughputModel(power_model=power, rate_max=span * 0.5)
        base = idle + base_frac * span
        headroom = (idle + span) - base
        curve = opportunistic_value_curve(
            model, OpportunisticCostModel(rho=rho), base, 100.0, max(headroom, 1.0)
        )
        ds = np.linspace(0, curve.max_spot_w, 15)
        gains = [curve.gain_per_hour(float(d)) for d in ds]
        assert gains[0] == 0.0
        assert all(b2 >= a2 - 1e-9 for a2, b2 in zip(gains, gains[1:]))


def bits(values) -> np.ndarray:
    """IEEE bit patterns, so parity checks see signed zeros and last-place drift."""
    return np.asarray(values, dtype=float).view(np.int64)


class TestArrayParity:
    """Array cost rates and one-pass curves match the scalar models' bits."""

    @given(
        a=st.floats(min_value=0.0, max_value=1.0),
        b=st.floats(min_value=0.0, max_value=1.0),
        slo=st.floats(min_value=1.0, max_value=500.0),
        latencies=st.lists(st.floats(min_value=0.0, max_value=2000.0), max_size=40),
        rate=st.floats(min_value=0.0, max_value=1e4),
    )
    @settings(max_examples=200)
    def test_sprinting_cost_rate_matches_scalar(self, a, b, slo, latencies, rate):
        model = SprintingCostModel(a=a, b=b, slo_ms=slo)
        # Exactly at the SLO (no penalty) and just either side of it.
        lat = np.array(latencies + [0.0, slo, np.nextafter(slo, 0), np.nextafter(slo, 1e9)])
        scalar = [model.cost_rate_per_hour(float(d), rate) for d in lat]
        assert np.array_equal(bits(model.cost_rate_per_hour_array(lat, rate)), bits(scalar))

    def test_cost_rate_validation(self):
        model = SprintingCostModel(a=1e-6, b=1e-6)
        with pytest.raises(ConfigurationError):
            model.cost_rate_per_hour_array(np.array([50.0, -1.0]), 10.0)
        with pytest.raises(ConfigurationError):
            model.cost_rate_per_hour_array(np.array([50.0]), -1.0)

    @given(setup=latency_setups(), slo=st.floats(min_value=20.0, max_value=300.0))
    @settings(max_examples=60, deadline=None)
    def test_sprinting_curve_matches_point_by_point(self, setup, slo):
        model, base, rate, headroom = setup
        cost = SprintingCostModel(a=1e-6, b=1e-6, slo_ms=slo)
        curve = sprinting_value_curve(model, cost, base, rate, headroom)
        grid = np.linspace(0.0, headroom, 101)
        base_cost = cost.cost_rate_per_hour(model.latency_ms(base, rate), rate)
        gains = [
            base_cost - cost.cost_rate_per_hour(model.latency_ms(base + float(d), rate), rate)
            for d in grid
        ]
        oracle = SpotValueCurve.from_gain_samples(base, grid, np.array(gains))
        assert np.array_equal(bits(curve._gains), bits(oracle._gains))

    @given(
        idle=st.floats(min_value=20.0, max_value=80.0),
        span=st.floats(min_value=50.0, max_value=200.0),
        # Above idle: a base at or below idle takes the all-zero branch.
        base_frac=st.floats(min_value=0.01, max_value=0.9),
        exponent=st.floats(min_value=0.2, max_value=1.5),
    )
    @settings(max_examples=60, deadline=None)
    def test_opportunistic_curve_matches_point_by_point(self, idle, span, base_frac, exponent):
        power = ServerPowerModel(idle, idle + span)
        model = ThroughputModel(power, rate_max=span * 0.5, scaling_exponent=exponent)
        cost = OpportunisticCostModel(rho=1e-3)
        base = idle + base_frac * span
        headroom = max((idle + span) - base, 1.0)
        curve = opportunistic_value_curve(model, cost, base, 100.0, headroom)
        grid = np.linspace(0.0, headroom, 101)
        rates = np.array([model.rate_at(base + float(d)) for d in grid])
        gains = cost.rho * 3600.0 * (1.0 - model.rate_at(base) / np.maximum(rates, 1e-12))
        oracle = SpotValueCurve.from_gain_samples(base, grid, gains)
        assert np.array_equal(bits(curve._gains), bits(oracle._gains))
