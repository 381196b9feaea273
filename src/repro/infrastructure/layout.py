"""Columnar rack layout and per-slot row storage for rack telemetry.

Rack telemetry is stored one float64 row per slot, every row aligned to
one rack order — the topology's ``racks`` order.  :class:`RackLayout`
is that order plus the per-rack and per-PDU arrays the monitor, the
emergency scan and the spot-capacity predictor share; :class:`SlotRows`
is the append-only row store.

Totals keep the scalar code's arithmetic bit for bit: a PDU's total adds
its racks in ``pdu.rack_ids`` order and a facility total adds in the
caller's order, each left to right (see :mod:`repro.power.elementwise`).
"""

from __future__ import annotations

from collections.abc import Iterable
from operator import attrgetter

import numpy as np

from repro.power.elementwise import segment_sums

__all__ = ["RackLayout", "SlotRows"]

# Rack's storage fields behind ``power_w`` / ``spot_budget_w``: reading
# them directly costs a third of the property calls, per rack per slot.
_power_of = attrgetter("_power_w")
_spot_of = attrgetter("_spot_budget_w")


class RackLayout:
    """One rack order for a topology, with its gather block.

    Built by :attr:`repro.infrastructure.topology.PowerTopology.layout`
    and rebuilt whenever a PDU or rack is added.  A rack's guaranteed
    capacity is fixed at construction, so it is stored as a column.

    Attributes:
        racks: Rack objects in ``topology.racks`` order.
        rack_ids: Their ids, in the same order.
        index: Rack id -> row position.
        pdus: PDU objects in ``topology.pdus`` order.
        pdu_ids: Their ids, in the same order.
        guaranteed_w: Guaranteed capacity per rack.
        gather: ``(widest PDU, PDUs)`` block of rack positions, each
            column in ``pdu.rack_ids`` order and padded with
            ``len(racks)`` (a trailing ``0.0``).
    """

    __slots__ = ("racks", "rack_ids", "index", "pdus", "pdu_ids", "guaranteed_w", "gather")

    def __init__(self, topology) -> None:
        self.racks = tuple(topology.racks.values())
        self.rack_ids = tuple(topology.racks)
        self.index = {rack_id: i for i, rack_id in enumerate(self.rack_ids)}
        self.pdus = tuple(topology.pdus.values())
        self.pdu_ids = tuple(topology.pdus)
        self.guaranteed_w = np.array(
            [rack.guaranteed_w for rack in self.racks], dtype=float
        )
        pad = len(self.racks)
        widest = max([len(pdu.rack_ids) for pdu in self.pdus] + [1])
        gather = np.full((widest, len(self.pdus)), pad, dtype=np.intp)
        for j, pdu in enumerate(self.pdus):
            for k, rack_id in enumerate(pdu.rack_ids):
                gather[k, j] = self.index.get(rack_id, pad)
        self.gather = gather

    def power_row(self) -> np.ndarray:
        """Each rack's last recorded draw (``Rack.power_w``)."""
        return np.fromiter(map(_power_of, self.racks), dtype=float, count=len(self.racks))

    def spot_row(self) -> np.ndarray:
        """Each rack's current spot grant (``Rack.spot_budget_w``)."""
        return np.fromiter(map(_spot_of, self.racks), dtype=float, count=len(self.racks))

    def record_powers(self, watts: Iterable[float]) -> None:
        """Set every rack's ``power_w``, in layout order.

        The caller has already checked the sample (no negative draw),
        which :meth:`Rack.record_power` would otherwise do rack by rack.
        """
        for rack, value in zip(self.racks, watts):
            rack._power_w = value

    def pdu_capacity_row(self) -> np.ndarray:
        """Each PDU's live capacity (after deratings and event cuts)."""
        return np.fromiter(
            (pdu.capacity_w for pdu in self.pdus), dtype=float, count=len(self.pdus)
        )

    def pdu_totals(self, rack_row: np.ndarray) -> np.ndarray:
        """Per-PDU sums of a rack row, each in ``pdu.rack_ids`` order."""
        return segment_sums(rack_row, self.gather)

    def mask(self, rack_ids: Iterable[str]) -> np.ndarray:
        """Boolean rack row, true at every listed rack."""
        out = np.zeros(len(self.racks), dtype=bool)
        out[[self.index[rack_id] for rack_id in rack_ids]] = True
        return out


class SlotRows:
    """Append-only ``(slots x width)`` rows, optionally keeping the last ``limit``.

    Rows live in one preallocated block that doubles as it fills; a
    bounded store stops growing at one and a half times ``limit`` and
    then moves its live rows back to the front, so an append costs
    amortised O(width) however long the run.  Pickles only the live rows.
    """

    __slots__ = ("_buf", "_start", "_stop", "limit")

    def __init__(self, width: int, limit: int | None = None, dtype=float) -> None:
        self.limit = limit
        self._buf = np.empty((min(16, self._max_capacity()), width), dtype=dtype)
        self._start = 0
        self._stop = 0

    def _max_capacity(self) -> int:
        if self.limit is None:
            return 1 << 62
        return self.limit + max(1, self.limit // 2)

    def __len__(self) -> int:
        return self._stop - self._start

    def append(self, row) -> None:
        """Store one slot's row (anything that broadcasts to ``width``)."""
        if self._stop == len(self._buf):
            self._make_room()
        self._buf[self._stop] = row
        self._stop += 1
        if self.limit is not None and self._stop - self._start > self.limit:
            self._start += 1

    def _make_room(self) -> None:
        live = self._buf[self._start : self._stop]
        capacity = min(2 * len(self._buf), self._max_capacity())
        if capacity > len(self._buf):
            buf = np.empty((capacity, self._buf.shape[1]), dtype=self._buf.dtype)
        else:
            buf = self._buf
        buf[: len(live)] = live  # numpy copies overlapping ranges safely
        self._buf = buf
        self._stop = len(live)
        self._start = 0

    def tail(self, count: int) -> np.ndarray:
        """The last ``count`` rows (all of them if fewer), as a fresh array."""
        return self._buf[self._first(count) : self._stop].copy()

    def column(self, index: int, count: int | None = None) -> np.ndarray:
        """One column over the live rows (the last ``count`` if given).

        A fresh C-contiguous array, so reductions over it add in the
        order they would over an array built from a per-id list.
        """
        return self._buf[self._first(count) : self._stop, index].copy()

    def _first(self, count: int | None) -> int:
        if count is None:
            return self._start
        return max(self._start, self._stop - count)

    def last(self) -> np.ndarray:
        """The newest row, as a fresh array; the store must not be empty."""
        return self._buf[self._stop - 1].copy()

    def copy(self) -> "SlotRows":
        """An independent store holding the same rows."""
        other = SlotRows.__new__(SlotRows)
        other.__setstate__(self.__getstate__())
        return other

    def __getstate__(self):
        return (self.limit, self._buf[self._start : self._stop].copy())

    def __setstate__(self, state) -> None:
        self.limit, rows = state
        capacity = min(max(16, 2 * len(rows)), self._max_capacity())
        self._buf = np.empty((capacity, rows.shape[1]), dtype=rows.dtype)
        self._buf[: len(rows)] = rows
        self._start = 0
        self._stop = len(rows)
