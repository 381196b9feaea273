"""Elementwise helpers that keep array results bit-identical to scalar code.

The power and cost models evaluate one budget at a time (the scalar
methods) or a whole grid or trace at once (the ``*_array`` methods).
Value curves feed bids, and same-seed traces are compared byte for
byte, so every array element must equal the scalar result exactly:

* ``+ - * /`` round the same way in numpy as in Python.
* Python's ``min(a, b)`` / ``max(a, b)`` keep their *first* argument on
  a tie, which decides the sign of a zero; :func:`py_min` and
  :func:`py_max` make the same choice.
* numpy's vectorised ``power`` may differ from the C library's ``pow``
  in the last place, so :func:`pow_each` raises element by element with
  Python's float ``**``.
* ``np.sum`` adds a contiguous run of 8 or more values pairwise, not
  left to right, and Python 3.12's ``sum()`` of floats is compensated.
  Totals that must match an ``acc += x`` loop go through
  :func:`ordered_sum` and :func:`segment_sums`, which are built on
  ``np.add.accumulate`` and so always add in order.
"""

from __future__ import annotations

import numpy as np

__all__ = ["ordered_sum", "pow_each", "py_max", "py_min", "segment_sums"]


def py_min(a, b) -> np.ndarray:
    """Elementwise ``min(a, b)`` with Python's tie rule (``a`` wins)."""
    return np.where(b < a, b, a)


def py_max(a, b) -> np.ndarray:
    """Elementwise ``max(a, b)`` with Python's tie rule (``a`` wins)."""
    return np.where(b > a, b, a)


def pow_each(x: np.ndarray, exponent) -> np.ndarray:
    """``x ** exponent`` per element, with Python's float power.

    ``exponent`` is one float for every element, or an array of them
    shaped like ``x`` (one exponent per rack, say).
    """
    values = np.asarray(x, dtype=float)
    if np.size(exponent) == 1:
        exponent = exponent if np.ndim(exponent) == 0 else float(np.ravel(exponent)[0])
        flat = [u ** exponent for u in values.ravel().tolist()]
    else:
        powers = np.broadcast_to(np.asarray(exponent, dtype=float), values.shape)
        flat = [u ** e for u, e in zip(values.ravel().tolist(), powers.ravel().tolist())]
    return np.array(flat, dtype=float).reshape(values.shape)


def ordered_sum(values) -> float:
    """``acc = 0.0; for x in values: acc += x``, added left to right."""
    values = np.asarray(values, dtype=float)
    if values.size == 0:
        return 0.0
    # ``0.0 +`` gives an all-zero total the sign the loop's 0.0 start gives.
    return 0.0 + float(np.add.accumulate(values)[-1])


def segment_sums(values: np.ndarray, gather: np.ndarray) -> np.ndarray:
    """Left-to-right sums of ``values`` over the columns of a gather block.

    ``gather`` is a ``(widest segment, segments)`` block of indices into
    ``values``; column ``j`` lists segment ``j``'s elements in order and
    is padded with ``len(values)``, which reads a trailing ``0.0``.
    Each column adds like ``acc = 0.0; for x in segment: acc += x``.
    ``np.add.reduce`` over axis 0 would too, except that a one-column
    block collapses into a contiguous run and is summed pairwise;
    ``accumulate`` never reorders.
    """
    padded = np.append(np.asarray(values, dtype=float), 0.0)
    return np.add.accumulate(padded[gather], axis=0)[-1] + 0.0
