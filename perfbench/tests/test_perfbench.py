"""Tests of the benchmark itself, at tiny facility sizes.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import common, layers  # noqa: E402
from perfbench.daemon import ClosedLoop  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY = ["--groups", "2", "--seconds", "0.5", "--min-slots", "3"]


def bench(workload, *extra, trace=0, cwd=ROOT, script=ROOT / "perfbench" / "run.py"):
    command = [sys.executable, str(script), "--workload", workload, "--seed", "3"]
    command += [f"--trace={trace}", *TINY, *extra]
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True, timeout=300)


def result_of(proc) -> dict:
    return json.loads(proc.stdout.strip().splitlines()[-1])


def details_of(proc) -> dict:
    return json.loads(proc.stdout.strip().splitlines()[-2])["details"]


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_prints_with_its_unit(workload, trace):
    proc = bench(workload, trace=trace)
    assert proc.returncode == 0, proc.stderr
    result = result_of(proc)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in expected} == {
        name: metric["unit"] for name, metric in result["metrics"].items()
    }
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], float)
    machine = details_of(proc)["machine"]
    for field in ("cpu_count", "loadavg_start", "loadavg_end", "python", "numpy", "git_sha"):
        assert field in machine
    assert (machine["workload"], machine["seed"]) == (workload, 3)


def test_reference_digest_is_enforced(tmp_path):
    first = bench("fleet_batch")
    digest = details_of(first)["check_digest"]
    key = common.reference_key("fleet_batch", 2, 3)
    references = tmp_path / "references.json"

    references.write_text(json.dumps({key: digest}))
    good = bench("fleet_batch", "--references", str(references))
    assert good.returncode == 0 and details_of(good)["reference"] == "match"

    references.write_text(json.dumps({key: digest[::-1]}))
    tampered = bench("fleet_batch", "--references", str(references))
    assert tampered.returncode == 1
    assert result_of(tampered)["correct"] is False
    assert details_of(tampered)["reference"] == "mismatch"


def test_shed_daemon_submissions_count_as_failures():
    # A one-bundle queue sheds all but the last bundle of every slot.
    proc = bench("daemon_ingest", "--max-pending", "1", trace=1)
    result = result_of(proc)
    assert result["correct"] is False and result["failed"] > 0
    assert result["metrics"]["failed_frac"]["value"] > 0
    assert any("shed" in problem for problem in details_of(proc)["problems"])


class _RejectingClient:
    """Answers like a daemon that rejects every submission."""

    def describe(self):
        racks = [{"rack_id": "r1", "pdu_id": "p1", "max_spot_w": 100.0}]
        return {"tenants": {"t1": {"racks": racks}}}

    def submit(self, tenant, slot, racks):
        return {"ok": False, "op": "submit", "error": {"code": "too_late"}}

    def tick(self):
        return {"ok": True, "op": "tick", "slot": 0}


def test_rejected_submission_counts_as_a_failure():
    outcome = common.Outcome()
    loop = ClosedLoop(_RejectingClient(), 0, 10, outcome, common.Calibration())
    loop.slot(0, timed=False)
    assert (outcome.attempted, outcome.failed) == (2, 1)
    assert outcome.failed_frac == 0.5 and not outcome.correct


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__")
    )
    started = time.monotonic()
    proc = bench("fleet_batch", cwd=tmp_path, script=tmp_path / "perfbench" / "run.py")
    assert proc.returncode not in (0, None)
    assert time.monotonic() - started < 60
    assert '"metrics"' not in proc.stdout


def test_recorder_separates_self_time_and_folds_reentry():
    recorder = layers.Recorder()

    class Layer:
        def outer(self):
            time.sleep(0.02)
            return self.inner() + self.outer_again()

        def outer_again(self):
            return 1

        def inner(self):
            time.sleep(0.01)
            return 1

    patches = layers.Patches()
    outer = recorder.timed("outer")
    patches.on_class(Layer, "outer", outer)
    patches.on_class(Layer, "outer_again", outer)
    patches.on_class(Layer, "inner", recorder.timed("inner"))
    try:
        assert Layer().outer() == 2
    finally:
        patches.restore()
    calls, total, self_time, _ = recorder.snapshot()["outer"]
    inner_total = recorder.snapshot()["inner"][1]
    assert calls == 1
    assert self_time == pytest.approx(total - inner_total)
    assert inner_total >= 0.01 and self_time >= 0.02
    assert Layer.outer.__name__ == "outer" and not hasattr(Layer.outer, "__wrapped__")


def test_percentiles():
    assert common.median([3, 1, 2]) == 2
    assert common.percentile(range(101), 90) == 90
    assert common.percentile([1.0, 2.0], 50) == 1.5
