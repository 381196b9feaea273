"""Pluggable forecasting signals and risk-aware capacity release.

The seam between telemetry and the market: a :class:`Signal` turns the
power monitor's history into a point forecast
(:class:`SpotCapacityForecast`) plus a confidence band
(:class:`BandedForecast`), and a :class:`RiskAwareReleasePolicy`
decides how much of that band the operator actually sells.  The
paper's hard-coded rule survives as :class:`CurrentDrawSignal`, the
default, with byte-identical traces.  Tenants' market-price forecasts
(:class:`EwmaPricePredictor`) live here too.  See docs/forecasting.md.
"""

from repro.forecast.capacity import SpotCapacityForecast
from repro.forecast.price import EwmaPricePredictor
from repro.forecast.profile import PredictionProfile
from repro.forecast.release import RiskAwareReleasePolicy
from repro.forecast.signals import (
    BAND_LEVELS,
    SIGNAL_NAMES,
    Ar1Signal,
    BandedForecast,
    CurrentDrawSignal,
    MovingAverageSignal,
    QuantileEnsembleSignal,
    RollingMaxSignal,
    Signal,
    build_signal,
)

__all__ = [
    "BAND_LEVELS",
    "SIGNAL_NAMES",
    "Ar1Signal",
    "BandedForecast",
    "CurrentDrawSignal",
    "EwmaPricePredictor",
    "MovingAverageSignal",
    "PredictionProfile",
    "QuantileEnsembleSignal",
    "RiskAwareReleasePolicy",
    "RollingMaxSignal",
    "Signal",
    "SpotCapacityForecast",
    "build_signal",
]
