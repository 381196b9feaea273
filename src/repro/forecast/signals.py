"""Pluggable spot-capacity forecasting signals with confidence bands.

The paper's operator predicts next-slot spot capacity with one
hard-coded rule (Section III-C: current draw vs. guaranteed capacity,
scaled by a scalar under-prediction factor).  Production autoscalers
instead treat the forecast as a first-class *signal*: an object that
turns telemetry into a prediction, swapped without touching the control
loop.  This module is that seam.

Every signal answers one question per slot — *how much headroom will
each PDU (and the UPS) have next slot?* — and answers it twice:

* a **point forecast** (a :class:`~repro.forecast.capacity.SpotCapacityForecast`),
  which is what the paper's operator releases to the market, and
* a **confidence band**: a piecewise-linear quantile function over the
  same per-PDU/UPS headrooms.  ``at_quantile(q)`` is the headroom value
  with probability ``q`` of *overcommitting* — exceeding the headroom
  that actually materialises.  Small ``q`` is conservative, large ``q``
  optimistic, and the values are non-decreasing in ``q`` by
  construction.

Every signal computes its headroom with the one :meth:`Signal.headroom`
(Eqs. 3-4 with the safety margin and under-prediction factor) — signals
differ only in the per-rack *reference power* they feed it and in how
they widen the result into a band.  That keeps exactly one
forecast-producing code path in the tree and makes
:class:`CurrentDrawSignal` float-identical to the rule the engine
previously built inline.

See docs/forecasting.md for band semantics and how to add a signal.
"""

from __future__ import annotations

import abc
import dataclasses
from collections.abc import Iterable, Mapping
from statistics import NormalDist

import numpy as np

from repro.errors import ConfigurationError
from repro.forecast.capacity import SpotCapacityForecast
from repro.power.elementwise import ordered_sum, py_max, py_min

__all__ = [
    "SIGNAL_NAMES",
    "Ar1Signal",
    "BandedForecast",
    "CurrentDrawSignal",
    "MovingAverageSignal",
    "QuantileEnsembleSignal",
    "RollingMaxSignal",
    "Signal",
    "build_signal",
]

#: Quantile knots every banded signal publishes.  Between knots the
#: band interpolates linearly; outside them it clamps to the edge knot.
BAND_LEVELS = (0.05, 0.25, 0.5, 0.75, 0.95)

_Z_SCORES = tuple(NormalDist().inv_cdf(q) for q in BAND_LEVELS)


class BandedForecast:
    """A point forecast plus its quantile band for one upcoming slot.

    Plain ``__slots__`` class (not a dataclass): the default signal
    constructs one per slot on the engine's hot path, and the bench
    pins the whole predict phase at <2% overhead vs. the old inline
    rule.

    Attributes:
        point: The released-by-default forecast (the paper's rule for
            :class:`CurrentDrawSignal`; the band median for banded
            signals).
        usable_fraction: ``1 - safety_margin_fraction`` of physical
            capacity — the hard ceiling any release is clamped to.
        quantiles: Sorted band knot levels, ``()`` for a degenerate
            (point-only) band.
        pdu_quantiles: Per-PDU headroom values at each knot level.
        ups_quantiles: UPS headroom values at each knot level.
    """

    __slots__ = (
        "point",
        "usable_fraction",
        "quantiles",
        "pdu_quantiles",
        "ups_quantiles",
    )

    def __init__(
        self,
        point: SpotCapacityForecast,
        usable_fraction: float = 1.0,
        quantiles: tuple = (),
        pdu_quantiles: "dict[str, tuple] | None" = None,
        ups_quantiles: tuple = (),
    ) -> None:
        self.point = point
        self.usable_fraction = usable_fraction
        self.quantiles = quantiles
        self.pdu_quantiles = pdu_quantiles or {}
        self.ups_quantiles = ups_quantiles

    @property
    def has_band(self) -> bool:
        """Whether this forecast carries a non-degenerate band."""
        return bool(self.quantiles)

    def at_quantile(self, q: float) -> SpotCapacityForecast:
        """Headroom released when accepting overcommit probability ``q``.

        Piecewise-linear interpolation over the band knots, clamped to
        the edge knots outside their range.  A degenerate band returns
        the point forecast for every ``q``.
        """
        if not 0 < q <= 1:
            raise ConfigurationError(f"risk quantile must be in (0, 1], got {q}")
        if not self.quantiles:
            return self.point
        levels = self.quantiles
        return SpotCapacityForecast(
            pdu_spot_w={
                pdu_id: float(np.interp(q, levels, values))
                for pdu_id, values in self.pdu_quantiles.items()
            },
            ups_spot_w=float(np.interp(q, levels, self.ups_quantiles)),
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"BandedForecast(point={self.point!r}, "
            f"quantiles={self.quantiles!r})"
        )


@dataclasses.dataclass
class Signal(abc.ABC):
    """A forecasting signal: the paper's headroom rule plus a reference.

    Subclasses provide per-rack :meth:`references` (what :meth:`headroom`
    subtracts from capacity) and optionally a :meth:`band` that widens
    the point forecast into quantile knots.  :meth:`forecast_slot`
    returns the zero forecast at slot 0 (no telemetry yet).

    Args:
        under_prediction_factor: Multiplier in (0, 1] applied to every
            predicted headroom; 1.0 (default) is the paper's base case,
            0.85 reproduces "15% under-prediction" (Fig. 17).
        safety_margin_fraction: Fraction of each level's physical
            capacity held back from the market.  Covers the residual
            slot-to-slot drift of non-requesting racks (the paper's
            ±2.5%/min, Fig. 7a) so that spot capacity introduces no
            additional power emergencies (Section V-B2); the circuit-
            breaker tolerance then only ever absorbs drift beyond that.
        window: Telemetry window (slots) the reference is taken over.
    """

    #: Registry name; also the scenario-spec / CLI identifier.
    name = "signal"

    under_prediction_factor: float = 1.0
    safety_margin_fraction: float = 0.025
    window: int = 5

    def __post_init__(self) -> None:
        if not 0 < self.under_prediction_factor <= 1:
            raise ConfigurationError(
                "under_prediction_factor must be in (0, 1], got "
                f"{self.under_prediction_factor}"
            )
        if not 0 <= self.safety_margin_fraction < 1:
            raise ConfigurationError(
                "safety_margin_fraction must be in [0, 1), got "
                f"{self.safety_margin_fraction}"
            )
        if self.window < 1:
            raise ConfigurationError(f"signal window must be >= 1, got {self.window}")

    @property
    def usable_fraction(self) -> float:
        """Fraction of physical capacity the market may ever see."""
        return 1.0 - self.safety_margin_fraction

    def headroom(
        self,
        topology,
        requesting_rack_ids: Iterable[str],
        reference_power_w: Mapping[str, float] | np.ndarray | None = None,
    ) -> SpotCapacityForecast:
        """Predict per-PDU and UPS spot capacity for the next slot (Eqs. 3-4).

        Each level's reference power is subtracted from its usable
        capacity and the result scaled by the under-prediction factor.
        A rack that requests or holds spot capacity is referenced at its
        guaranteed capacity (it may ramp to its whole subscription);
        any other rack at its reference, clamped to that guarantee.
        Columnar over ``topology.layout``, but each PDU sums its racks
        in ``pdu.rack_ids`` order and the facility its PDUs in topology
        order, exactly as the per-rack rule reads.

        Args:
            topology: Facility with current rack power samples recorded.
            requesting_rack_ids: Racks bidding for (or holding) spot capacity.
            reference_power_w: Reference power of the other racks: a
                mapping (racks it omits use their current draw) or an
                array in ``topology.racks`` order, such as
                :meth:`~repro.infrastructure.monitor.PowerMonitor.recent_max_w`.
                ``None`` uses every rack's current draw.
        """
        layout = topology.layout
        requesting = set(requesting_rack_ids)
        unknown = [rack_id for rack_id in requesting if rack_id not in layout.index]
        if unknown:
            raise ConfigurationError(
                f"requesting racks not in topology: {sorted(unknown)[:5]}"
            )
        if reference_power_w is None:
            reference = layout.power_row()
        elif isinstance(reference_power_w, np.ndarray):
            reference = reference_power_w
            if reference.shape != layout.guaranteed_w.shape:
                raise ConfigurationError(
                    f"reference row has shape {reference.shape}, topology has "
                    f"{len(layout.racks)} racks"
                )
        else:
            reference = np.array(
                [
                    reference_power_w.get(rack.rack_id, rack.power_w)
                    for rack in layout.racks
                ],
                dtype=float,
            )
        guaranteed = layout.guaranteed_w
        held = layout.mask(requesting) | (layout.spot_row() > 0)
        rack_reference = np.where(held, guaranteed, py_min(reference, guaranteed))
        pdu_reference = layout.pdu_totals(rack_reference)
        total_reference = ordered_sum(pdu_reference)
        usable = 1.0 - self.safety_margin_fraction
        headroom = py_max(0.0, layout.pdu_capacity_row() * usable - pdu_reference)
        pdu_spot = headroom * self.under_prediction_factor
        ups_headroom = max(0.0, topology.ups.capacity_w * usable - total_reference)
        return SpotCapacityForecast(
            pdu_spot_w=dict(zip(layout.pdu_ids, pdu_spot.tolist())),
            ups_spot_w=ups_headroom * self.under_prediction_factor,
        )

    def forecast_slot(self, topology, requesting, monitor, slot: int) -> BandedForecast:
        """Forecast next-slot headroom from the monitor's telemetry.

        Args:
            topology: Facility with current rack power samples recorded.
            requesting: Rack ids bidding for (or holding) spot capacity.
            monitor: :class:`~repro.infrastructure.monitor.PowerMonitor`
                with the metered history up to and including this slot.
            slot: Index of the slot being cleared (0 ⇒ no history yet).
        """
        if slot == 0:
            return BandedForecast(
                point=SpotCapacityForecast(
                    pdu_spot_w={p: 0.0 for p in topology.pdus},
                    ups_spot_w=0.0,
                ),
                usable_fraction=self.usable_fraction,
            )
        references = self.references(topology, monitor)
        point = self.headroom(topology, requesting, references)
        return self.band(point, topology, requesting, monitor)

    @abc.abstractmethod
    def references(self, topology, monitor):
        """Per-rack reference power fed to :meth:`headroom`.

        A mapping by rack id, or an array in ``topology.racks`` order
        (what :meth:`PowerMonitor.recent_max_w` returns).
        """

    def band(self, point, topology, requesting, monitor) -> BandedForecast:
        """Widen a point forecast into a band (degenerate by default)."""
        return BandedForecast(point=point, usable_fraction=self.usable_fraction)

    def _gaussian_band(self, point, topology, pdu_sigma, ups_sigma) -> BandedForecast:
        """Symmetric Gaussian knots around the point forecast.

        Sigmas are in watts of aggregate draw; they scale by the
        under-prediction factor so the band tightens with the point.
        """
        factor = self.under_prediction_factor
        pdu_quantiles = {}
        for pdu_id, headroom in point.pdu_spot_w.items():
            sigma = pdu_sigma.get(pdu_id, 0.0) * factor
            pdu_quantiles[pdu_id] = tuple(
                max(0.0, headroom + z * sigma) for z in _Z_SCORES
            )
        ups_quantiles = tuple(
            max(0.0, point.ups_spot_w + z * ups_sigma * factor) for z in _Z_SCORES
        )
        return BandedForecast(
            point=point,
            usable_fraction=self.usable_fraction,
            quantiles=BAND_LEVELS,
            pdu_quantiles=pdu_quantiles,
            ups_quantiles=ups_quantiles,
        )


def _tails(monitor, window: int, level: str) -> np.ndarray:
    """Each series' last ``window`` samples, one contiguous row per series.

    Rows are contiguous so that a mean or a variance over one adds in
    the same order as over that series read on its own.
    """
    return np.ascontiguousarray(monitor.recent_rows(window, level).T)


@dataclasses.dataclass
class CurrentDrawSignal(Signal):
    """The paper's rule (Section III-C), verbatim.

    Reference power is each rack's recent metered maximum over
    ``window`` slots — exactly what the engine built inline before this
    subsystem existed, so default-path traces stay byte-identical.  The
    band is degenerate: the paper's operator has a point estimate only.
    """

    name = "current_draw"

    def references(self, topology, monitor) -> np.ndarray:
        return monitor.recent_max_w(self.window)


@dataclasses.dataclass
class RollingMaxSignal(Signal):
    """Conservative long-window peak reference.

    Like :class:`CurrentDrawSignal` but over a longer window (default
    30 slots), so a rack's reference covers any draw it has reached in
    the last half hour of one-minute slots.  The band spans from this
    conservative point up to the short-window (current-draw) forecast:
    releasing at high ``q`` recovers the paper's behaviour, low ``q``
    keeps the long-window floor.
    """

    name = "rolling_max"
    window: int = 30

    #: Short window used for the optimistic edge of the band.
    SHORT_WINDOW = 5

    def references(self, topology, monitor) -> np.ndarray:
        return monitor.recent_max_w(self.window)

    def band(self, point, topology, requesting, monitor) -> BandedForecast:
        short_refs = monitor.recent_max_w(self.SHORT_WINDOW)
        high = self.headroom(topology, requesting, short_refs)
        # Short-window references are pointwise <= long-window ones, so
        # `high` headrooms are pointwise >= the point: knots are sorted.
        levels = (0.5, 1.0)
        return BandedForecast(
            point=point,
            usable_fraction=self.usable_fraction,
            quantiles=levels,
            pdu_quantiles={
                pdu_id: (value, high.pdu_spot_w[pdu_id])
                for pdu_id, value in point.pdu_spot_w.items()
            },
            ups_quantiles=(point.ups_spot_w, high.ups_spot_w),
        )


@dataclasses.dataclass
class MovingAverageSignal(Signal):
    """Windowed mean reference with a Gaussian band.

    Reference power is each rack's mean draw over the window — less
    conservative than a recent max — and the band widens by the
    within-window standard deviation of each PDU's aggregate draw
    (racks on one PDU move together under correlated load, so the
    aggregate deviation is the right width, not a per-rack sum).
    """

    name = "moving_average"
    window: int = 12

    def references(self, topology, monitor) -> np.ndarray:
        return np.array(
            [
                float(tail.mean()) if tail.size else 0.0
                for tail in _tails(monitor, self.window, "rack")
            ]
        )

    def band(self, point, topology, requesting, monitor) -> BandedForecast:
        pdu_sigma = {
            pdu_id: float(tail.std()) if tail.size >= 2 else 0.0
            for pdu_id, tail in zip(topology.pdus, _tails(monitor, self.window, "pdu"))
        }
        (ups_tail,) = _tails(monitor, self.window, "ups")
        ups_sigma = float(ups_tail.std()) if ups_tail.size >= 2 else 0.0
        return self._gaussian_band(point, topology, pdu_sigma, ups_sigma)


@dataclasses.dataclass
class Ar1Signal(Signal):
    """Per-rack AR(1) one-step prediction with a residual-width band.

    Fits ``x_{t+1} - mu = phi (x_t - mu) + e`` per rack over the window
    (lag-1 autocorrelation estimate of ``phi``, clipped to [0, 0.99]);
    the reference is the one-step conditional mean and the band width
    aggregates the per-rack residual variances up each PDU and the UPS
    (independent residuals: variances add).
    """

    name = "ar1"
    window: int = 60

    def references(self, topology, monitor) -> dict:
        references = {}
        self._residual_var = {}
        for rack_id, tail in zip(monitor.rack_ids, _tails(monitor, self.window, "rack")):
            if tail.size < 3:
                references[rack_id] = float(tail[-1]) if tail.size else 0.0
                self._residual_var[rack_id] = 0.0
                continue
            mu = float(tail.mean())
            centred = tail - mu
            denom = float(np.dot(centred[:-1], centred[:-1]))
            phi = float(np.dot(centred[1:], centred[:-1]) / denom) if denom > 0 else 0.0
            phi = min(max(phi, 0.0), 0.99)
            references[rack_id] = mu + phi * float(centred[-1])
            residuals = centred[1:] - phi * centred[:-1]
            self._residual_var[rack_id] = float(residuals.var())
        return references

    def band(self, point, topology, requesting, monitor) -> BandedForecast:
        residual_var = getattr(self, "_residual_var", {})
        pdu_sigma = {}
        total_var = 0.0
        for pdu_id, pdu in topology.pdus.items():
            var = ordered_sum([residual_var.get(rid, 0.0) for rid in pdu.rack_ids])
            pdu_sigma[pdu_id] = var**0.5
            total_var += var
        return self._gaussian_band(point, topology, pdu_sigma, total_var**0.5)


@dataclasses.dataclass
class QuantileEnsembleSignal(Signal):
    """Empirical-quantile ensemble over member signals.

    The point reference is the per-rack *median* of the member signals'
    references (default members: current-draw, rolling-max, moving
    average, AR(1)).  The band is distribution-free: empirical
    quantiles of the last ``band_window`` slot-to-slot *innovations*
    ``e_t = x_t - x_{t-1}`` of each PDU's (and the UPS's) aggregate
    draw.  Releasing at risk ``q`` subtracts the ``(1-q)``-innovation
    quantile from the point headroom, so under i.i.d. innovations the
    empirical coverage ``P(realised headroom >= release)`` matches
    ``1 - q`` — the property the coverage test pins.
    """

    name = "ensemble"

    #: Trailing innovation window the empirical quantiles are taken over.
    band_window: int = 200

    members: "tuple | None" = None

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.members is None:
            kwargs = dict(
                under_prediction_factor=self.under_prediction_factor,
                safety_margin_fraction=self.safety_margin_fraction,
            )
            self.members = (
                CurrentDrawSignal(window=self.window, **kwargs),
                RollingMaxSignal(**kwargs),
                MovingAverageSignal(**kwargs),
                Ar1Signal(**kwargs),
            )

    def references(self, topology, monitor) -> dict:
        rack_ids = topology.layout.rack_ids
        member_refs = []
        for member in self.members:
            refs = member.references(topology, monitor)
            if not isinstance(refs, np.ndarray):
                refs = [refs[rack_id] for rack_id in rack_ids]
            member_refs.append(refs)
        return {
            rack_id: float(np.median([refs[i] for refs in member_refs]))
            for i, rack_id in enumerate(rack_ids)
        }

    def _innovation_offsets(self, series) -> "np.ndarray | None":
        innovations = np.diff(series[-(self.band_window + 1) :])
        if innovations.size < 2:
            return None
        # Offset at knot level q: minus the (1-q)-innovation quantile.
        return -np.quantile(innovations, [1.0 - q for q in BAND_LEVELS])

    def band(self, point, topology, requesting, monitor) -> BandedForecast:
        factor = self.under_prediction_factor
        pdu_quantiles = {}
        degenerate = False
        tails = dict(zip(topology.pdus, _tails(monitor, self.band_window + 1, "pdu")))
        for pdu_id, headroom in point.pdu_spot_w.items():
            offsets = self._innovation_offsets(tails[pdu_id])
            if offsets is None:
                degenerate = True
                break
            pdu_quantiles[pdu_id] = tuple(
                max(0.0, headroom + off * factor) for off in offsets
            )
        (ups_tail,) = _tails(monitor, self.band_window + 1, "ups")
        ups_offsets = self._innovation_offsets(ups_tail)
        if degenerate or ups_offsets is None:
            return BandedForecast(point=point, usable_fraction=self.usable_fraction)
        ups_quantiles = tuple(
            max(0.0, point.ups_spot_w + off * factor) for off in ups_offsets
        )
        return BandedForecast(
            point=point,
            usable_fraction=self.usable_fraction,
            quantiles=BAND_LEVELS,
            pdu_quantiles=pdu_quantiles,
            ups_quantiles=ups_quantiles,
        )


SIGNAL_CLASSES = {
    CurrentDrawSignal.name: CurrentDrawSignal,
    RollingMaxSignal.name: RollingMaxSignal,
    MovingAverageSignal.name: MovingAverageSignal,
    Ar1Signal.name: Ar1Signal,
    QuantileEnsembleSignal.name: QuantileEnsembleSignal,
}

#: Spec/CLI-facing signal identifiers, registration order.
SIGNAL_NAMES = tuple(SIGNAL_CLASSES)


def build_signal(
    name: str,
    *,
    under_prediction_factor: float = 1.0,
    safety_margin_fraction: float = 0.025,
    window: "int | None" = None,
) -> Signal:
    """Instantiate a registered signal by its spec/CLI name.

    ``window=None`` keeps each signal's own default (current-draw 5,
    rolling-max 30, moving-average 12, AR(1) 60).
    """
    try:
        cls = SIGNAL_CLASSES[name]
    except KeyError:
        known = ", ".join(SIGNAL_NAMES)
        raise ConfigurationError(
            f"unknown forecasting signal {name!r} (known: {known})"
        ) from None
    kwargs = dict(
        under_prediction_factor=under_prediction_factor,
        safety_margin_fraction=safety_margin_fraction,
    )
    if window is not None:
        kwargs["window"] = window
    return cls(**kwargs)
