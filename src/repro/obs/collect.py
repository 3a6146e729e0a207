"""Bridge from simulator state to a :class:`MetricsSnapshot`.

The hot path keeps its counters as plain attributes (``SimStats``,
``CacheStats``, ``TlbStats``, the SpecMPK unit's lifecycle counts);
:func:`collect_run_metrics` runs **once per run**, after ``run()``
returns, and freezes all of them into one hierarchical snapshot:

* ``core.*``    — every scalar ``SimStats`` counter plus the derived
  rates as gauges, and the SpecMPK-unit occupancy histogram
  (``core.rob_pkru.occupancy``, reconciling bit-exactly with the trace
  layer's ``rob_pkru`` histogram on traced runs).
* ``mpk.*``     — WRPKRU lifecycle through the SpecMPK unit
  (allocated/retired/squashed), PKRU Load/Store Check counts and
  failures, architectural fault flag.
* ``memory.*``  — per-level cache hits/misses/evictions/fills, TLB
  behaviour, and the speculative/wrong-path fill provenance that makes
  Flush+Reload visibility a queryable number.
* ``perf.*``    — idle fast-skip savings for this run.

Every value is copied from an existing attribute, so the snapshot
*reconciles exactly* with the legacy counters — asserted by
``tests/obs/test_run_metrics.py``.  ``REPRO_METRICS`` (parsed by the
shared :func:`repro.perf.envflag.env_flag`) gates collection globally.
"""

from __future__ import annotations

from typing import Dict, Optional

from ..perf.envflag import env_flag
from .snapshot import MetricsSnapshot

#: SimStats scalars re-homed outside ``core.`` because they are really
#: memory-subsystem provenance counters.
_STAT_ALIASES = {
    "spec_fills": "memory.fills.speculative",
    "wrongpath_fills": "memory.fills.wrongpath",
}

#: Derived SimStats properties exported as gauges, not counters (they
#: are rates — adding them across shards would be meaningless).
_DERIVED_GAUGES = ("ipc", "wrpkru_per_kilo", "rename_stall_fraction")


def metrics_enabled() -> bool:
    """Metrics collection is on unless ``REPRO_METRICS`` disables it."""
    return env_flag("REPRO_METRICS", default=True)


def collect_run_metrics(
    sim,
    meta: Optional[Dict[str, object]] = None,
) -> MetricsSnapshot:
    """Freeze one finished :class:`~repro.core.pipeline.Simulator` run.

    Reads only — the simulator can keep running (e.g. between SimPoint
    measurement windows) and a later call reflects the newer window.
    """
    stats = sim.stats
    counters: Dict[str, float] = {}
    gauges: Dict[str, float] = {}
    for name, value in stats.as_dict().items():
        if name in _DERIVED_GAUGES:
            gauges[f"core.{name}"] = value
        else:
            counters[_STAT_ALIASES.get(name, f"core.{name}")] = value
    histograms = {
        "core.rob_pkru.occupancy": dict(sim.specmpk_occupancy_histogram()),
    }
    for stage, bins in stats.occupancy_histograms.items():
        histograms[f"core.occupancy.{stage}"] = dict(bins)

    specmpk = sim.specmpk
    counters["mpk.wrpkru.allocated"] = specmpk.allocated
    counters["mpk.wrpkru.retired"] = specmpk.retired
    counters["mpk.wrpkru.squashed"] = specmpk.squashed
    counters["mpk.checks.load"] = specmpk.load_checks
    counters["mpk.checks.load_failed"] = specmpk.load_check_fails
    counters["mpk.checks.store"] = specmpk.store_checks
    counters["mpk.checks.store_failed"] = specmpk.store_check_fails
    counters["mpk.faults.architectural"] = (
        1 if getattr(sim, "_fault", None) is not None else 0
    )

    hierarchy = sim.hierarchy
    levels = [("l1d", hierarchy.l1d), ("l1i", hierarchy.l1i),
              ("l2", hierarchy.l2), ("l3", hierarchy.l3)]
    for level, cache in levels:
        if cache is None:
            continue
        cache_stats = cache.stats
        counters[f"memory.{level}.hits"] = cache_stats.hits
        counters[f"memory.{level}.misses"] = cache_stats.misses
        counters[f"memory.{level}.evictions"] = cache_stats.evictions
        counters[f"memory.{level}.invalidations"] = cache_stats.invalidations
        counters[f"memory.{level}.fills"] = cache_stats.fills
    counters["memory.prefetches"] = hierarchy.prefetches_issued
    tlb_stats = sim.tlb.stats
    counters["memory.tlb.hits"] = tlb_stats.hits
    counters["memory.tlb.misses"] = tlb_stats.misses
    counters["memory.tlb.fills"] = tlb_stats.fills
    counters["memory.tlb.deferred_fills"] = tlb_stats.deferred_fills
    counters["memory.tlb.flushes"] = tlb_stats.flushes

    counters["perf.fastskip.cycles_saved"] = sim.cycles_fast_skipped
    counters["perf.fastskip.events"] = sim.fast_skip_events

    return MetricsSnapshot(counters, gauges, histograms, dict(meta or {}))
