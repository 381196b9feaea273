"""Tail-latency model for interactive (sprinting) workloads.

The paper's Fig. 8 profiles p99/p90 latency against the rack power
budget at several workload intensities: latency falls steeply as power
(hence CPU frequency, hence service rate) rises, and rises with load.
We reproduce that shape with a DVFS frequency model plus an M/M/1-style
tail approximation:

* frequency from power:
  ``f = ((p - idle) / (peak - idle)) ** (1 / alpha)``, the inverse of the
  classic ``p ~ idle + span * f**alpha`` DVFS power law;
* service rate ``mu(p) = mu_max * f``;
* tail latency ``d = d_min / f + (tail_const / mu) * rho / (1 - rho)``
  with ``rho = lambda / mu``, saturating at ``saturated_latency_ms`` when
  the arrival rate meets or exceeds the service rate.

Every model function has a scalar form (one budget) and an ``*_array``
form over numpy arrays of budgets or arrival rates, which value-curve
tabulation and trace preparation use.  The array forms return the
scalar results bit for bit (see :mod:`repro.power.elementwise`).

This is a *behavioural* substitute for the paper's CloudSuite testbed
runs: monotone decreasing and convex in power, monotone increasing in
load, with a saturation wall — the properties the market mechanism and
the SLO-driven bidding actually exercise.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.errors import ConfigurationError
from repro.power.elementwise import pow_each, py_max, py_min
from repro.power.server import ServerPowerModel

__all__ = ["LatencyColumns", "LatencyModel"]


def _frequency(power_w, idle, span, inv_alpha, min_frequency) -> np.ndarray:
    """:meth:`LatencyModel.frequency` elementwise; parameters broadcast."""
    shifted = np.asarray(power_w, dtype=float) - idle
    usable = py_min(py_max(shifted, 0.0), span)
    f = pow_each(usable / span, inv_alpha)
    return py_max(min_frequency, py_min(1.0, f))


def _latency(power_w, arrival, idle, span, inv_alpha, mu_max, d_min, tail,
             min_frequency, saturated_ms) -> np.ndarray:
    """:meth:`LatencyModel.latency_ms` elementwise; parameters broadcast."""
    f = _frequency(power_w, idle, span, inv_alpha, min_frequency)
    mu = mu_max * f
    saturated = arrival >= mu
    # Saturated elements take rho = 0 only to keep 1 - rho nonzero;
    # their latency is replaced below.
    rho = np.where(saturated, 0.0, arrival / mu)
    latency = d_min / f + (tail / mu) * rho / (1 - rho)
    capped = py_min(latency, saturated_ms)
    return np.where(saturated, saturated_ms, capped)


@dataclasses.dataclass(frozen=True)
class LatencyModel:
    """Tail latency as a function of power budget and request rate.

    Attributes:
        power_model: The rack's utilization/power model (supplies the
            idle/peak range the frequency model maps over).
        mu_max_rps: Service rate at full power, requests/second.
        d_min_ms: Deterministic floor of the tail latency at full
            frequency and vanishing load.
        alpha: DVFS power-law exponent (2-3 for real silicon).
        tail_const_ms_rps: Queueing-term scale: ``tail_const / mu`` is in
            milliseconds when ``mu`` is in requests/second.  Calibrates
            the percentile being modelled (p99 vs p90).
        min_frequency: DVFS floor as a fraction of full frequency.
        saturated_latency_ms: Latency reported when the rack is
            overloaded (``rho >= 1``); also the model's upper clip.
    """

    power_model: ServerPowerModel
    mu_max_rps: float
    d_min_ms: float = 20.0
    alpha: float = 2.0
    tail_const_ms_rps: float = 4000.0
    min_frequency: float = 0.2
    saturated_latency_ms: float = 1000.0

    def __post_init__(self) -> None:
        if self.mu_max_rps <= 0:
            raise ConfigurationError("mu_max_rps must be positive")
        if self.d_min_ms <= 0:
            raise ConfigurationError("d_min_ms must be positive")
        if self.alpha <= 0:
            raise ConfigurationError("alpha must be positive")
        if not 0 < self.min_frequency <= 1:
            raise ConfigurationError("min_frequency must be in (0, 1]")
        if self.saturated_latency_ms <= self.d_min_ms:
            raise ConfigurationError(
                "saturated_latency_ms must exceed d_min_ms"
            )

    def frequency(self, power_w: float) -> float:
        """Effective CPU frequency fraction sustainable at a power budget."""
        span = self.power_model.dynamic_range_w
        usable = min(max(power_w - self.power_model.idle_w, 0.0), span)
        f = (usable / span) ** (1.0 / self.alpha)
        return max(self.min_frequency, min(1.0, f))

    def frequency_array(self, power_w: np.ndarray) -> np.ndarray:
        """:meth:`frequency` over an array of power budgets."""
        return _frequency(
            power_w,
            self.power_model.idle_w,
            self.power_model.dynamic_range_w,
            1.0 / self.alpha,
            self.min_frequency,
        )

    def service_rate_rps(self, power_w: float) -> float:
        """Sustainable request service rate at a power budget."""
        return self.mu_max_rps * self.frequency(power_w)

    def latency_ms(self, power_w: float, arrival_rps: float) -> float:
        """Tail latency at a power budget under a given arrival rate.

        Args:
            power_w: Enforced power budget for the rack.
            arrival_rps: Offered request rate; must be >= 0.
        """
        if arrival_rps < 0:
            raise ConfigurationError(f"arrival_rps must be >= 0, got {arrival_rps}")
        f = self.frequency(power_w)
        mu = self.mu_max_rps * f
        if arrival_rps >= mu:
            return self.saturated_latency_ms
        rho = arrival_rps / mu
        latency = self.d_min_ms / f + (self.tail_const_ms_rps / mu) * rho / (1 - rho)
        return min(latency, self.saturated_latency_ms)

    def latency_ms_array(self, power_w: np.ndarray, arrival_rps) -> np.ndarray:
        """:meth:`latency_ms` over arrays of budgets and arrival rates.

        ``power_w`` and ``arrival_rps`` broadcast against each other; a
        scalar rate tabulates one curve over a budget grid.
        """
        arrival = np.asarray(arrival_rps, dtype=float)
        if (arrival < 0).any():
            raise ConfigurationError(
                f"arrival_rps must be >= 0, got {float(arrival.min())}"
            )
        return _latency(
            power_w,
            arrival,
            self.power_model.idle_w,
            self.power_model.dynamic_range_w,
            1.0 / self.alpha,
            self.mu_max_rps,
            self.d_min_ms,
            self.tail_const_ms_rps,
            self.min_frequency,
            self.saturated_latency_ms,
        )

    def power_for_latency(
        self, target_ms: float, arrival_rps: float, tolerance_w: float = 0.01
    ) -> float:
        """Smallest power budget meeting a latency target (bisection).

        Returns the rack's peak power when the target is unreachable even
        at full power (the caller then knows spot capacity alone cannot
        restore the SLO).
        """
        if target_ms <= 0:
            raise ConfigurationError("target_ms must be positive")
        peak = self.power_model.peak_w
        if self.latency_ms(peak, arrival_rps) > target_ms:
            return peak
        lo, hi = self.power_model.idle_w, peak
        while hi - lo > tolerance_w:
            mid = (lo + hi) / 2
            if self.latency_ms(mid, arrival_rps) <= target_ms:
                hi = mid
            else:
                lo = mid
        return hi

    def power_for_latency_array(
        self, target_ms: float, arrival_rps: np.ndarray, tolerance_w: float = 0.01
    ) -> np.ndarray:
        """:meth:`power_for_latency` for every rate of an array at once.

        One bisection runs over the whole array.  Each element follows
        the scalar loop's ``lo``/``hi``/``mid`` sequence and freezes once
        its own gap is within tolerance; the loop ends when every gap is.
        """
        if target_ms <= 0:
            raise ConfigurationError("target_ms must be positive")
        rates = np.asarray(arrival_rps, dtype=float)
        lo = np.full(rates.shape, float(self.power_model.idle_w))
        hi = np.full(rates.shape, float(self.power_model.peak_w))
        reachable = ~(self.latency_ms_array(hi, rates) > target_ms)
        active = reachable & (hi - lo > tolerance_w)
        while active.any():
            mid = (lo + hi) / 2
            meets = self.latency_ms_array(mid, rates) <= target_ms
            hi = np.where(active & meets, mid, hi)
            lo = np.where(active & ~meets, mid, lo)
            active &= hi - lo > tolerance_w
        return hi


class LatencyColumns:
    """Several racks' latency models as parameter columns.

    Element ``k`` of every column holds model ``k``'s parameter, so
    :meth:`latency_ms` evaluates each model on its own column of budgets
    in one pass, bit-identical to :meth:`LatencyModel.latency_ms`.

    Args:
        models: One latency model per rack.
    """

    def __init__(self, models) -> None:
        (
            self.idle,
            self.span,
            self.inv_alpha,
            self.mu_max,
            self.d_min,
            self.tail,
            self.min_frequency,
            self.saturated,
        ) = np.array(
            [
                (
                    m.power_model.idle_w,
                    m.power_model.dynamic_range_w,
                    1.0 / m.alpha,
                    m.mu_max_rps,
                    m.d_min_ms,
                    m.tail_const_ms_rps,
                    m.min_frequency,
                    m.saturated_latency_ms,
                )
                for m in models
            ],
            dtype=float,
        ).reshape(-1, 8).T.copy()

    def latency_ms(self, power_w: np.ndarray, arrival_rps: np.ndarray) -> np.ndarray:
        """Tail latency per model; the last axis of both arrays is the model."""
        return _latency(
            power_w,
            np.asarray(arrival_rps, dtype=float),
            self.idle,
            self.span,
            self.inv_alpha,
            self.mu_max,
            self.d_min,
            self.tail,
            self.min_frequency,
            self.saturated,
        )
