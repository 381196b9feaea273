"""Server power, capping, latency, and throughput models."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import CapacityError, ConfigurationError
from repro.power.capping import apply_cap
from repro.power.latency import LatencyModel
from repro.power.server import ServerPowerModel
from repro.power.throughput import ThroughputModel


@pytest.fixture
def power_model():
    return ServerPowerModel(idle_w=60.0, peak_w=180.0)


class TestServerPowerModel:
    def test_endpoints(self, power_model):
        assert power_model.power_at(0.0) == 60.0
        assert power_model.power_at(1.0) == 180.0

    def test_affine_midpoint(self, power_model):
        assert power_model.power_at(0.5) == pytest.approx(120.0)

    def test_clamps_utilization(self, power_model):
        assert power_model.power_at(-0.5) == 60.0
        assert power_model.power_at(1.5) == 180.0

    def test_inverse(self, power_model):
        for u in (0.0, 0.25, 0.5, 1.0):
            power = power_model.power_at(u)
            assert power_model.utilization_at(power) == pytest.approx(u)

    def test_inverse_clamps(self, power_model):
        assert power_model.utilization_at(10.0) == 0.0
        assert power_model.utilization_at(500.0) == 1.0

    def test_scaled(self, power_model):
        scaled = power_model.scaled(2.0)
        assert scaled.idle_w == 120.0
        assert scaled.peak_w == 360.0

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            ServerPowerModel(idle_w=-1.0, peak_w=100.0)
        with pytest.raises(ConfigurationError):
            ServerPowerModel(idle_w=100.0, peak_w=100.0)
        with pytest.raises(ConfigurationError):
            ServerPowerModel(60.0, 180.0).scaled(0.0)


class TestApplyCap:
    def test_no_cap_needed(self):
        decision = apply_cap(80.0, 100.0, idle_w=50.0)
        assert decision.actual_w == 80.0
        assert not decision.capped
        assert decision.shortfall_w == 0.0

    def test_cap_enforced(self):
        decision = apply_cap(120.0, 100.0, idle_w=50.0)
        assert decision.actual_w == 100.0
        assert decision.capped
        assert decision.shortfall_w == pytest.approx(20.0)

    def test_budget_below_idle_draws_idle(self):
        decision = apply_cap(120.0, 30.0, idle_w=50.0)
        assert decision.actual_w == 50.0
        assert decision.capped

    def test_desired_below_idle_draws_desired(self):
        decision = apply_cap(20.0, 100.0, idle_w=50.0)
        assert decision.actual_w == 20.0

    def test_negative_inputs_rejected(self):
        with pytest.raises(CapacityError):
            apply_cap(-1.0, 10.0)
        with pytest.raises(CapacityError):
            apply_cap(1.0, -10.0)


class TestLatencyModel:
    @pytest.fixture
    def model(self, power_model):
        return LatencyModel(
            power_model=power_model, mu_max_rps=120.0, d_min_ms=20.0,
            tail_const_ms_rps=4000.0,
        )

    def test_latency_decreases_with_power(self, model):
        rate = 60.0
        latencies = [model.latency_ms(p, rate) for p in (100.0, 140.0, 180.0)]
        assert latencies[0] > latencies[1] > latencies[2]

    def test_latency_increases_with_load(self, model):
        power = 160.0
        latencies = [model.latency_ms(power, r) for r in (20.0, 60.0, 100.0)]
        assert latencies[0] < latencies[1] < latencies[2]

    def test_saturation_at_overload(self, model):
        assert model.latency_ms(180.0, 500.0) == model.saturated_latency_ms

    def test_zero_load_floor(self, model):
        assert model.latency_ms(180.0, 0.0) == pytest.approx(model.d_min_ms)

    def test_frequency_range(self, model):
        assert model.frequency(60.0) == model.min_frequency
        assert model.frequency(180.0) == 1.0
        assert model.min_frequency < model.frequency(120.0) < 1.0

    def test_frequency_power_law(self, model):
        # alpha = 2: half the dynamic range -> sqrt(0.5) frequency.
        assert model.frequency(120.0) == pytest.approx(math.sqrt(0.5))

    def test_power_for_latency_meets_target(self, model):
        rate = 60.0
        target = 80.0
        power = model.power_for_latency(target, rate)
        assert model.latency_ms(power, rate) <= target + 0.5

    def test_power_for_latency_is_minimal(self, model):
        rate = 60.0
        target = 80.0
        power = model.power_for_latency(target, rate, tolerance_w=0.01)
        assert model.latency_ms(power - 1.0, rate) > target

    def test_unreachable_target_returns_peak(self, model):
        assert model.power_for_latency(5.0, 110.0) == model.power_model.peak_w

    def test_validation(self, power_model):
        with pytest.raises(ConfigurationError):
            LatencyModel(power_model, mu_max_rps=0.0)
        with pytest.raises(ConfigurationError):
            LatencyModel(power_model, mu_max_rps=10.0, d_min_ms=0.0)
        model = LatencyModel(power_model, mu_max_rps=10.0)
        with pytest.raises(ConfigurationError):
            model.latency_ms(100.0, -1.0)


class TestThroughputModel:
    @pytest.fixture
    def model(self, power_model):
        return ThroughputModel(power_model=power_model, rate_max=60.0)

    def test_rate_linear_in_dynamic_power(self, model):
        assert model.rate_at(60.0) == 0.0
        assert model.rate_at(120.0) == pytest.approx(30.0)
        assert model.rate_at(180.0) == pytest.approx(60.0)

    def test_rate_clamps(self, model):
        assert model.rate_at(10.0) == 0.0
        assert model.rate_at(400.0) == pytest.approx(60.0)

    def test_sublinear_exponent(self, power_model):
        model = ThroughputModel(power_model, rate_max=60.0, scaling_exponent=0.5)
        assert model.rate_at(120.0) == pytest.approx(60.0 * math.sqrt(0.5))

    def test_completion_time(self, model):
        assert model.completion_time_s(300.0, 120.0) == pytest.approx(10.0)

    def test_completion_time_zero_work(self, model):
        assert model.completion_time_s(0.0, 120.0) == 0.0

    def test_completion_time_infinite_below_idle(self, model):
        assert model.completion_time_s(10.0, 60.0) == float("inf")

    def test_power_for_rate_inverts(self, model):
        for rate in (10.0, 30.0, 59.0):
            assert model.rate_at(model.power_for_rate(rate)) == pytest.approx(rate)

    def test_power_for_rate_above_max_is_peak(self, model):
        assert model.power_for_rate(100.0) == 180.0

    def test_validation(self, power_model):
        with pytest.raises(ConfigurationError):
            ThroughputModel(power_model, rate_max=0.0)
        with pytest.raises(ConfigurationError):
            ThroughputModel(power_model, rate_max=10.0, scaling_exponent=2.0)
        model = ThroughputModel(power_model, rate_max=10.0)
        with pytest.raises(ConfigurationError):
            model.completion_time_s(-1.0, 100.0)
        with pytest.raises(ConfigurationError):
            model.power_for_rate(-1.0)


def bits(values) -> np.ndarray:
    """IEEE bit patterns, so parity checks see signed zeros and last-place drift."""
    return np.asarray(values, dtype=float).view(np.int64)


@st.composite
def latency_models(draw):
    idle = draw(st.floats(min_value=0.0, max_value=200.0))
    span = draw(st.floats(min_value=1.0, max_value=400.0))
    return LatencyModel(
        power_model=ServerPowerModel(idle, idle + span),
        mu_max_rps=draw(st.floats(min_value=1.0, max_value=5000.0)),
        d_min_ms=draw(st.floats(min_value=1.0, max_value=60.0)),
        alpha=draw(st.floats(min_value=0.5, max_value=3.5)),
        tail_const_ms_rps=draw(st.floats(min_value=0.0, max_value=1e4)),
        min_frequency=draw(st.floats(min_value=0.01, max_value=1.0)),
    )


def budgets(model, draw_fracs):
    """Budgets from fractions of the dynamic range: <0 is below idle, >1 above peak."""
    pm = model.power_model
    return np.array([pm.idle_w + f * pm.dynamic_range_w for f in draw_fracs])


class TestArrayParity:
    """The ``*_array`` forms return the scalar methods' exact bits."""

    @given(
        model=latency_models(),
        fracs=st.lists(st.floats(min_value=-0.5, max_value=1.5), min_size=1, max_size=40),
        load=st.floats(min_value=0.0, max_value=1.5),
    )
    @settings(max_examples=200, deadline=None)
    def test_latency_matches_scalar(self, model, fracs, load):
        power = budgets(model, fracs)
        # Loads up to 1.5 x mu_max cover saturation (arrival >= mu).
        rate = load * model.mu_max_rps
        scalar = [model.latency_ms(float(p), rate) for p in power]
        assert np.array_equal(bits(model.latency_ms_array(power, rate)), bits(scalar))
        freq = [model.frequency(float(p)) for p in power]
        assert np.array_equal(bits(model.frequency_array(power)), bits(freq))

    @given(
        model=latency_models(),
        fracs=st.lists(st.floats(min_value=-0.5, max_value=1.5), min_size=1, max_size=20),
        loads=st.lists(st.floats(min_value=0.0, max_value=1.5), min_size=1, max_size=20),
    )
    @settings(max_examples=100, deadline=None)
    def test_latency_elementwise_rates(self, model, fracs, loads):
        n = min(len(fracs), len(loads))
        power = budgets(model, fracs[:n])
        rates = np.array(loads[:n]) * model.mu_max_rps
        scalar = [model.latency_ms(float(p), float(r)) for p, r in zip(power, rates)]
        assert np.array_equal(bits(model.latency_ms_array(power, rates)), bits(scalar))

    def test_latency_edge_cases(self, power_model):
        model = LatencyModel(power_model, mu_max_rps=120.0)
        power = np.array([0.0, 59.0, 60.0, 60.5, 120.0, 180.0, 181.0, 1e6])
        for rate in (0.0, 24.0, 60.0, 119.99, 120.0, 500.0):
            scalar = [model.latency_ms(float(p), rate) for p in power]
            assert np.array_equal(bits(model.latency_ms_array(power, rate)), bits(scalar))
        # Saturated everywhere: the clip value, no division warnings.
        saturated = model.latency_ms_array(power, 500.0)
        assert np.all(saturated == model.saturated_latency_ms)

    def test_latency_rejects_negative_rate(self, power_model):
        model = LatencyModel(power_model, mu_max_rps=120.0)
        with pytest.raises(ConfigurationError):
            model.latency_ms_array(np.array([100.0, 120.0]), np.array([10.0, -1.0]))

    @given(
        model=latency_models(),
        loads=st.lists(st.floats(min_value=0.0, max_value=1.2), min_size=1, max_size=30),
        target=st.floats(min_value=1.0, max_value=1200.0),
        tolerance=st.sampled_from([0.01, 0.5, 1e-4]),
    )
    @settings(max_examples=100, deadline=None)
    def test_power_for_latency_matches_scalar(self, model, loads, target, tolerance):
        rates = np.array(loads) * model.mu_max_rps
        scalar = [model.power_for_latency(target, float(r), tolerance) for r in rates]
        vector = model.power_for_latency_array(target, rates, tolerance)
        assert np.array_equal(bits(vector), bits(scalar))

    def test_power_for_latency_trace_edge_cases(self, power_model):
        model = LatencyModel(power_model, mu_max_rps=120.0)
        # Zero arrival, a reachable mid-load, a target unreachable even at
        # peak (returns peak), and a saturating rate.
        rates = np.array([0.0, 60.0, 110.0, 119.0, 200.0])
        for target in (5.0, 25.0, 80.0, 90.0):
            scalar = [model.power_for_latency(target, float(r)) for r in rates]
            vector = model.power_for_latency_array(target, rates)
            assert np.array_equal(bits(vector), bits(scalar))
        vector = model.power_for_latency_array(5.0, rates)
        assert np.all(vector == power_model.peak_w)

    def test_power_for_latency_trace_validation(self, power_model):
        model = LatencyModel(power_model, mu_max_rps=120.0)
        with pytest.raises(ConfigurationError):
            model.power_for_latency_array(80.0, np.array([10.0, 50.0, -0.5, 20.0]))
        with pytest.raises(ConfigurationError):
            model.power_for_latency_array(0.0, np.array([10.0]))

    @given(
        idle=st.floats(min_value=0.0, max_value=200.0),
        span=st.floats(min_value=1.0, max_value=400.0),
        rate_max=st.floats(min_value=0.1, max_value=1e4),
        exponent=st.floats(min_value=0.05, max_value=1.5),
        fracs=st.lists(st.floats(min_value=-0.5, max_value=1.5), min_size=1, max_size=40),
    )
    @settings(max_examples=200, deadline=None)
    def test_rate_at_matches_scalar(self, idle, span, rate_max, exponent, fracs):
        power_model = ServerPowerModel(idle, idle + span)
        model = ThroughputModel(power_model, rate_max=rate_max, scaling_exponent=exponent)
        power = np.array([idle + f * span for f in fracs] + [idle, idle + span])
        scalar = [model.rate_at(float(p)) for p in power]
        assert np.array_equal(bits(model.rate_at_array(power)), bits(scalar))
