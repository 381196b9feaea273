"""Shared plumbing for the whole-slot benchmark.

Statistics, the machine record, correctness digests and the run
outcome every workload reports.  Nothing here imports :mod:`repro`, so
the entry point can fail cleanly when the package is missing.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import resource
import sys
import time
from pathlib import Path

#: The checkout the benchmark runs in (the parent of this directory).
ROOT = Path(__file__).resolve().parent.parent
#: Scratch space for daemon state, sockets and span dumps (git-ignored).
STATE_DIR = ROOT / ".perfbench-state"
#: Reference digests, keyed by :func:`reference_key`: the default seed 0
#: and the held-out seed 7 of every workload.
REFERENCES = Path(__file__).resolve().parent / "references.json"

#: Slot 0 clears nothing and slot 1 pays the cold frame build; both are
#: set-up, never timed.
WARMUP_SLOTS = 2
#: The slot p90 needs at least this many timed slots (ten beyond it).
MIN_TIMED_SLOTS = 100
#: A run never measures longer than this many times ``--seconds``.
MAX_STRETCH = 3.0
#: Set-ups per untraced run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: Slots of the correctness run (the first set-up, run on and finished).
CHECK_SLOTS = 8
#: Horizon of the timed run: warm-up plus the most slots it may time.
MAIN_SLOTS = WARMUP_SLOTS + 120

#: The calibration loop: a fixed piece of pure-Python work timed right
#: before and after every measured interval.  The shared hosts this runs
#: on change speed by up to 2x within minutes; scaling each interval by
#: (reference / loop time) ** exponent reports it at one fixed machine
#: speed.  The reference is the loop's median time on the 2-vCPU x86-64 VM
#: (Python 3.11) the benchmark was tuned on.  The exponent is measured
#: there too: over 20 runs of each workload the log of the median slot
#: time rose 1.28, 1.36 and 1.31 times as fast as the log of the median
#: loop time (correlation >= 0.94) - the market leans on caches and
#: memory more than the loop does, so host contention slows it more.
CALIBRATION_LOOPS = 50_000
CALIBRATION_REF_S = 0.0035
CALIBRATION_EXPONENT = 1.3


def percentile(values, q: float) -> float:
    """The ``q``-th percentile (0-100), linear between closest ranks."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of an empty sample")
    rank = (len(ordered) - 1) * q / 100.0
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def median(values) -> float:
    return percentile(values, 50.0)


def calibrate() -> float:
    """Seconds the calibration loop takes right now."""
    started = time.perf_counter()
    total = 0
    for i in range(CALIBRATION_LOOPS):
        total += i * i
    return time.perf_counter() - started


class Calibration:
    """Scales intervals to the reference machine speed.

    :meth:`begin` times the loop before an interval; :meth:`end` times
    it again after and returns the interval scaled by the reference over
    the mean of the two, to the calibration exponent.  ``end`` chains: its
    loop also begins the next interval, so back-to-back slots need one
    loop each.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []
        self._before = None

    def begin(self) -> None:
        self._before = calibrate()
        self.samples.append(self._before)

    def end(self, elapsed: float) -> float:
        after = calibrate()
        self.samples.append(after)
        speed = CALIBRATION_REF_S * 2.0 / (self._before + after)
        scaled = elapsed * speed**CALIBRATION_EXPONENT
        self._before = after
        return scaled


def peak_rss_mb() -> float:
    """This process's peak resident set (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def git_sha() -> str:
    """The checked-out commit, or ``unknown`` outside a git checkout."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def machine(workload: str, seed: int) -> dict:
    """What the run ran on; call at start, then :func:`close_machine`."""
    import numpy

    return {
        "workload": workload,
        "seed": seed,
        "cpu_count": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "loadavg_start": list(os.getloadavg()),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "git_sha": git_sha(),
    }


def close_machine(record: dict) -> dict:
    record["loadavg_end"] = list(os.getloadavg())
    return record


def digest(payload) -> str:
    """SHA-256 of a canonical JSON encoding (floats keep every digit)."""
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def reference_key(workload: str, groups: int, seed: int) -> str:
    return f"{workload}/groups={groups}/seed={seed}"


def load_references(path: Path) -> dict:
    try:
        return json.loads(Path(path).read_text())
    except FileNotFoundError:
        return {}


class Outcome:
    """Operations attempted and failed, plus correctness findings.

    A failed operation is an exception, a non-``ok`` response, a shed
    bundle, a deadline fallback or a slot that fails an invariant.  Any
    failure, and any digest mismatch, makes the run incorrect.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.digest_ok = True

    def attempt(self, count: int = 1) -> None:
        self.attempted += count

    def fail(self, reason: str, count: int = 1) -> None:
        self.failed += count
        if len(self.problems) < 20:
            self.problems.append(reason)

    def mismatch(self, reason: str) -> None:
        self.digest_ok = False
        self.problems.append(reason)

    @property
    def correct(self) -> bool:
        return self.digest_ok and self.failed == 0

    @property
    def failed_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


def check_digest(outcome: Outcome, references: dict, key: str, value: str) -> str:
    """Compare one check-run digest against its stored reference."""
    expected = references.get(key)
    if expected is None:
        return "none stored"
    if expected != value:
        outcome.mismatch(f"digest mismatch for {key}: {value} != {expected}")
        return "mismatch"
    return "match"


def emit(outcome: Outcome, metrics: dict, details: dict) -> None:
    """Print the detail line, then the one-line result (last on stdout)."""
    print(json.dumps({"details": details}, sort_keys=True))
    result = {
        "correct": outcome.correct,
        "attempted": max(1, outcome.attempted),
        "failed": outcome.failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }
    print(json.dumps(result))
    sys.stdout.flush()
