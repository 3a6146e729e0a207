"""Self-check of the benchmark's output schema, on tiny budgets.

Run from the root of a checkout::

    python3 -m pytest perfbench/tests -q

Each workload runs with ``--smoke`` (a few hundred detailed
instructions per op) in both modes; the last line of output must carry
exactly the metrics ``BENCHMARK.json`` declares for that mode.  The
host-speed clock (``hostclock.py``) is checked on its own.
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
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
COMMAND = [sys.executable, *SPEC["command"][1:]]

sys.path.insert(0, str(ROOT / "perfbench"))
import hostclock  # noqa: E402


def _run(*args, cwd=ROOT):
    return subprocess.run(
        [*COMMAND, *args], cwd=cwd, capture_output=True, text=True,
        timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_result_schema(workload, trace):
    done = _run("--workload", workload, "--seed", "1", "--seconds", "1",
                "--trace", str(trace), "--smoke")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, done.stdout
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {
        name: metric["unit"] for name, metric in result["metrics"].items()
    } == {metric["name"]: metric["unit"] for metric in declared}
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float))
        if not trace:
            assert metric["value"] > 0


def test_without_the_program_it_fails_and_prints_nothing(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    done = _run("--workload", "kernel", "--seed", "0", "--seconds", "1",
                "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout == ""


def test_clock_rescales_by_the_calibration_slices(monkeypatch):
    monkeypatch.setattr(hostclock, "TICK_GAP_S", 0.01)
    calibration = hostclock.Calibration()
    # A host at half the reference speed: slices take twice as long.
    calibration.slice_time = lambda: 2 * hostclock.REFERENCE_SLICE_S
    clock = hostclock.Clock(calibration).start()
    for _ in range(3):
        time.sleep(0.02)
        calibration.tick()
    raw_s, reference_s = clock.stop()
    assert raw_s >= 0.06
    assert reference_s == pytest.approx(raw_s / 2)
    calibration.tick()  # no clock runs: a no-op
    assert clock.raw_s == raw_s
