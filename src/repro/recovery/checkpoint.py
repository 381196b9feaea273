"""Versioned, atomic checkpoints of the simulation engine's slot loop.

A checkpoint captures *everything* the next slot depends on — RNG
streams, tenant/workload/portfolio state, enforcement warning memory,
degradation-controller and fault-injector state, telemetry counters and
the trace cursor — by pickling the whole
:class:`~repro.sim.engine.SimulationEngine` inside a small validated
envelope.  Restoring it and replaying the remaining slots must be
indistinguishable from never having crashed: the recovery invariant is
byte-identical traces and an equal :class:`SimulationResult`.

Format & compatibility policy
-----------------------------

A checkpoint file holds two pickles: the header
``{"magic", "format", "slot", "horizon"}``, then the engine.
``format`` (:data:`CHECKPOINT_FORMAT`) is bumped on any change to the
engine's pickled state layout; there is **no** cross-version migration —
a checkpoint is scoped to the code that wrote it (it exists to survive a
crash, not a deploy), so a version mismatch raises
:class:`~repro.errors.RecoveryError` and the run must restart from
slot 0.  The header is read without resolving any class, so a file from
an older layout — formats 1-2 pickled header and engine as one dict —
is refused by its version before its engine is ever unpickled.  Format
5 changed what every checkpoint pickles: the monitor's and the metrics
collector's telemetry became one float64 row per slot, so a format-4
file is refused like any other mismatch.  Format 6 removed the
standalone prediction package whose objects format-5 engines pickled;
such a file is refused by its version, not by a failed import.  Format
7 moved batch backlogs into the tenant fleet's shared column.  Writes
are atomic (temp file + :func:`os.replace`) so a crash
*during* checkpointing leaves the previous checkpoint intact.
"""

from __future__ import annotations

import os
import pickle
import re
import warnings
from pathlib import Path

from repro.errors import RecoveryError

__all__ = [
    "CHECKPOINT_FORMAT",
    "checkpoint_path",
    "latest_checkpoint",
    "load_checkpoint",
    "save_checkpoint",
]

#: Checkpoint format version; bumped on any engine state-layout change.
#: 2: the engine carries its mid-loop run state (``_run``) so daemon-mode
#: resumes continue inside the slot loop.
#: 3: header and engine are separate pickles; the allocator lost its
#: sharding knobs and ``PduBlock`` moved to :mod:`repro.core.frame`.
#: 4: frames and blocks dropped their ``breakpoints`` column and the
#: frame its per-PDU slice cache.
#: 5: the power monitor and the metrics collector store one row per slot
#: (:class:`~repro.infrastructure.layout.SlotRows`) and the topology
#: carries its :class:`~repro.infrastructure.layout.RackLayout`.
#: 6: the prediction package folded into :mod:`repro.forecast` (signals
#: no longer carry a ``predictor``) and the engine dropped its legacy
#: predictor and reference-window attributes.
#: 7: batch workloads keep their backlog as a float or a bound
#: ``(column, index)`` cell of the tenant fleet's backlog column, and the
#: run state dropped its per-rack guaranteed-capacity map.
CHECKPOINT_FORMAT = 7

_MAGIC = "spotdc-checkpoint"
_NAME_RE = re.compile(r"^checkpoint_(\d{6,})\.pkl$")


class _Opaque:
    """Stand-in for every class a header read meets; absorbs any state."""

    def __new__(cls, *args, **kwargs):
        return object.__new__(cls)

    def __init__(self, *args, **kwargs):
        pass

    def __setstate__(self, state):
        pass

    def __setitem__(self, key, value):
        pass

    def append(self, value):
        pass

    def extend(self, values):
        pass


class _HeaderUnpickler(pickle.Unpickler):
    """Reads a checkpoint header without importing or running anything.

    A current header holds only builtins.  An older single-pickle
    envelope also carries the engine; its classes become inert
    :class:`_Opaque` objects, so the version check can refuse the file
    even when those classes no longer exist.
    """

    def find_class(self, module, name):
        return _Opaque


def checkpoint_path(directory: str | Path, slot: int) -> Path:
    """The canonical checkpoint filename for a slot."""
    return Path(directory) / f"checkpoint_{slot:06d}.pkl"


def save_checkpoint(
    engine, directory: str | Path, slot: int, horizon: int
) -> Path:
    """Atomically write the engine's state after completing ``slot``.

    Args:
        engine: The :class:`~repro.sim.engine.SimulationEngine`, with
            every slot up to and including ``slot`` fully processed.
        directory: Checkpoint directory (created if missing).
        slot: Last completed slot; a resume restarts at ``slot + 1``.
        horizon: Total slots of the run, pinned so a resume with a
            different horizon fails loudly instead of silently
            producing a differently-shaped result.

    Returns:
        The path written.

    Raises:
        RecoveryError: If the engine state cannot be pickled (e.g. a
            ``constraint_provider`` lambda closed over live objects).
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    header = {
        "magic": _MAGIC,
        "format": CHECKPOINT_FORMAT,
        "slot": int(slot),
        "horizon": int(horizon),
    }
    path = checkpoint_path(directory, slot)
    tmp = path.with_suffix(".pkl.tmp")
    try:
        with open(tmp, "wb") as fh:
            pickle.dump(header, fh, protocol=pickle.HIGHEST_PROTOCOL)
            pickle.dump(engine, fh, protocol=pickle.HIGHEST_PROTOCOL)
    except (pickle.PicklingError, TypeError, AttributeError) as exc:
        tmp.unlink(missing_ok=True)
        raise RecoveryError(
            f"engine state is not checkpointable: {exc} (a common cause is "
            "a constraint_provider lambda; use a picklable callable)"
        ) from exc
    os.replace(tmp, path)
    return path


def load_checkpoint(path: str | Path) -> dict:
    """Load and validate a checkpoint envelope.

    Returns:
        The envelope dict: ``slot`` (last completed slot), ``horizon``
        (the run length it was written under), and ``engine`` (the
        restored :class:`~repro.sim.engine.SimulationEngine`).

    Raises:
        RecoveryError: If the file is missing, unreadable, not a SpotDC
            checkpoint, or from an incompatible format version.
    """
    path = Path(path)
    if not path.exists():
        raise RecoveryError(f"checkpoint not found: {path}")
    # A truncated or bit-flipped pickle stream can raise nearly anything
    # (EOFError, UnpicklingError, ImportError, KeyError,
    # UnicodeDecodeError, ...); every flavour of corruption must surface
    # as a RecoveryError naming the file, never as a raw pickle
    # traceback.
    with open(path, "rb") as fh:
        try:
            header = _HeaderUnpickler(fh).load()
        except Exception as exc:
            raise RecoveryError(f"corrupt checkpoint {path}: {exc!r}") from exc
        if not isinstance(header, dict) or header.get("magic") != _MAGIC:
            raise RecoveryError(f"{path} is not a SpotDC checkpoint")
        version = header.get("format")
        if version != CHECKPOINT_FORMAT:
            raise RecoveryError(
                f"checkpoint {path} has format {version}, this build reads "
                f"{CHECKPOINT_FORMAT}; checkpoints do not survive "
                "state-layout changes — restart the run from slot 0"
            )
        missing = [k for k in ("slot", "horizon") if k not in header]
        if missing:
            raise RecoveryError(
                f"corrupt checkpoint {path}: header is missing "
                f"{', '.join(missing)}"
            )
        try:
            engine = pickle.load(fh)
        except Exception as exc:
            raise RecoveryError(f"corrupt checkpoint {path}: {exc!r}") from exc
    return {**header, "engine": engine}


def latest_checkpoint(directory: str | Path) -> Path | None:
    """The highest-slot *valid* checkpoint in a directory, or ``None``.

    Only files matching the canonical ``checkpoint_<slot>.pkl`` name are
    considered, so stray temp files from an interrupted write are never
    picked up.  Candidates are validated newest-first (a full
    :func:`load_checkpoint`): a corrupt or truncated file — e.g. one
    damaged by a disk fault after the atomic write — is skipped with a
    :class:`UserWarning` naming it, and the next older checkpoint is
    used instead.
    """
    directory = Path(directory)
    if not directory.is_dir():
        return None
    candidates: list[tuple[int, Path]] = []
    for entry in directory.iterdir():
        match = _NAME_RE.match(entry.name)
        if match is None:
            continue
        candidates.append((int(match.group(1)), entry))
    for _, path in sorted(candidates, reverse=True):
        try:
            load_checkpoint(path)
        except RecoveryError as exc:
            warnings.warn(
                f"skipping unusable checkpoint {path}: {exc}",
                stacklevel=2,
            )
            continue
        return path
    return None
