"""Cycle-kernel throughput gate (the ``repro.perf`` tentpole).

Measures simulator throughput in KIPS (thousand simulated instructions
per wall-clock second) on four calibrated profiles and checks it
against the checked-in baseline in ``results/BENCH_kernel.json``:

* the measured numbers are written to ``results/kernel_kips.json`` (the
  CI artifact);
* a drop of more than ``regression_tolerance`` (20%) below the
  checked-in *optimized* KIPS fails the run — after normalising for
  host speed via ``REPRO_KIPS_SCALE`` (a slower CI runner exports e.g.
  ``REPRO_KIPS_SCALE=0.5``; the scale multiplies the checked-in
  reference, not the measurement);
* the optimizations must be *pure*: SimStats are asserted bit-identical
  with idle fast-skip on vs off, and a run-cache hit must return the
  exact stats of the run that populated it.
"""

import json
import math
import pathlib
import time

from repro.core.config import CoreConfig, WrpkruPolicy
from repro.core.pipeline import Simulator
from repro.harness.api import RunRequest, execute
from repro.workloads.generator import build_workload
from repro.workloads.instrument import InstrumentMode
from repro.workloads.profiles import profile_by_label

BASELINE_PATH = pathlib.Path(__file__).parent / "results" / "BENCH_kernel.json"
BASELINE = json.loads(BASELINE_PATH.read_text())

PROFILES = list(BASELINE["optimized_kips"])
INSTRUCTIONS = BASELINE["methodology"]["instructions"]
WARMUP = BASELINE["methodology"]["warmup"]
REPEATS = BASELINE["methodology"]["repeats"]
TOLERANCE = BASELINE["regression_tolerance"]


def _simulate(label: str, fast_skip: bool = True):
    """One timed kernel run; returns (stats, elapsed_seconds)."""
    workload = build_workload(
        profile_by_label(label), InstrumentMode.PROTECTED
    )
    config = CoreConfig(
        wrpkru_policy=WrpkruPolicy.SPECMPK, idle_fast_skip=fast_skip,
    )
    sim = Simulator(
        workload.program, config, initial_pkru=workload.initial_pkru
    )
    sim.prewarm_tlb()
    start = time.perf_counter()
    result = sim.run(
        max_cycles=200 * (INSTRUCTIONS + WARMUP),
        max_instructions=INSTRUCTIONS,
        warmup_instructions=WARMUP,
    )
    elapsed = time.perf_counter() - start
    assert result.fault is None
    return result.stats, elapsed


def _kips(label: str) -> float:
    best = min(_simulate(label)[1] for _ in range(REPEATS))
    return (INSTRUCTIONS + WARMUP) / best / 1_000.0


def _geomean(values):
    return math.exp(sum(math.log(v) for v in values) / len(values))


def test_kernel_kips_regression_gate(results_dir):
    from repro.perf.envflag import env_float

    scale = env_float("REPRO_KIPS_SCALE", 1.0)
    measured = {label: _kips(label) for label in PROFILES}
    report = {
        "unit": "KIPS",
        "measured": {k: round(v, 2) for k, v in measured.items()},
        "reference_optimized": BASELINE["optimized_kips"],
        "reference_baseline": BASELINE["baseline_kips"],
        "host_scale": scale,
        "geomean_vs_pre_optimization": round(
            _geomean([
                measured[label] / BASELINE["baseline_kips"][label]
                for label in PROFILES
            ]), 2
        ),
    }
    (results_dir / "kernel_kips.json").write_text(
        json.dumps(report, indent=2) + "\n"
    )
    failures = []
    for label in PROFILES:
        floor = BASELINE["optimized_kips"][label] * scale * (1 - TOLERANCE)
        if measured[label] < floor:
            failures.append(
                f"{label}: {measured[label]:.1f} KIPS < floor {floor:.1f}"
            )
    assert not failures, (
        "kernel throughput regressed >"
        f"{TOLERANCE:.0%} vs results/BENCH_kernel.json: "
        + "; ".join(failures)
    )


def test_fast_skip_is_pure_at_bench_budgets():
    """Identical SimStats with the idle-cycle fast-skip on vs off, at
    the same budgets the KIPS gate uses."""
    label = PROFILES[0]
    on = _simulate(label, fast_skip=True)[0]
    off = _simulate(label, fast_skip=False)[0]
    assert vars(on) == vars(off)


def test_cache_hit_matches_simulated_run(tmp_path, monkeypatch):
    """A run-cache hit must reproduce the populating run's stats."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    monkeypatch.delenv("REPRO_CACHE", raising=False)
    request = RunRequest(
        workload=PROFILES[0],
        policy=WrpkruPolicy.SPECMPK,
        instructions=INSTRUCTIONS,
        warmup=WARMUP,
    )
    cold = execute(request)   # simulates, populates the cache
    warm = execute(request)   # must be served from the cache
    from repro.perf.runcache import default_cache
    assert default_cache().hits >= 1
    assert vars(warm.stats) == vars(cold.stats)
    assert warm.metadata == cold.metadata
