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
"""

from __future__ import annotations

import numpy as np

__all__ = ["pow_each", "py_max", "py_min"]


def py_min(a, b) -> np.ndarray:
    """Elementwise ``min(a, b)`` with Python's tie rule (``a`` wins)."""
    return np.where(b < a, b, a)


def py_max(a, b) -> np.ndarray:
    """Elementwise ``max(a, b)`` with Python's tie rule (``a`` wins)."""
    return np.where(b > a, b, a)


def pow_each(x: np.ndarray, exponent: float) -> np.ndarray:
    """``x ** exponent`` per element, with Python's float power."""
    values = np.asarray(x, dtype=float)
    flat = [u ** exponent for u in values.ravel().tolist()]
    return np.array(flat, dtype=float).reshape(values.shape)
