"""Per-layer metrics of one traced round, and the trace file.

Every timing here is read from spans the :class:`tracer.Tracer`
recorded around the public calls named in ``tracer.TARGETS``; see
``README.md`` for which metric should move which end-to-end metric, and
on which workload.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Dict, Tuple

from tracer import LAYERS

Metrics = Dict[str, Tuple[float, str]]

_SIM = {"Simulator.run", "Simulator.run_window"}
_EMULATE = {"Emulator.run", "Emulator.run_fast"}
_BATCH = {"execute_many", "SweepService.process"}


def median_round(rounds):
    """The round of median wall time (the lower one of an even count)."""
    ordered = sorted(rounds, key=lambda r: r.wall_s)
    return ordered[(len(ordered) - 1) // 2]


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _descendant_time(tracer, outer, inner) -> float:
    """Time of outermost *inner* spans that sit inside an *outer* span."""
    total = 0.0
    for span in tracer.outermost(inner):
        parent = span.parent
        while parent:
            if tracer.spans[parent].name in outer:
                total += span.end - span.start
                break
            parent = tracer.spans[parent].parent
    return total


def simulated_outputs(results) -> Metrics:
    """Aggregates of the run results a round produced (deduplicated)."""
    unique = {}
    for index, (key, result) in enumerate(results):
        unique[key if key is not None else ("uncached", index)] = result
    stats = [result.stats for result in unique.values()]
    l1d_hits = l1d_misses = 0.0
    for result in unique.values():
        if result.metrics is not None:
            l1d_hits += result.metrics.counters.get("memory.l1d.hits", 0)
            l1d_misses += result.metrics.counters.get("memory.l1d.misses", 0)
    ipcs = [s.ipc for s in stats if s.ipc > 0]
    return {
        "core.cycles": (sum(s.cycles for s in stats), "count"),
        "core.ipc_geomean": (
            math.exp(sum(map(math.log, ipcs)) / len(ipcs)) if ipcs else 0.0,
            "ratio",
        ),
        "memory.l1d_miss_rate": (
            _ratio(l1d_misses, l1d_hits + l1d_misses), "ratio"
        ),
        "memory.wrongpath_fills": (
            sum(s.wrongpath_fills for s in stats), "count"
        ),
        "mpk.wrpkru_per_kinst": (
            _ratio(1000.0 * sum(s.wrpkru_retired for s in stats),
                   sum(s.instructions_retired for s in stats)),
            "1/kinst",
        ),
    }


def per_layer(chosen, untraced_wall: float, calls: Dict[str, int],
              fig9_gap_pp: float) -> Metrics:
    """Every per-layer metric of the traced round *chosen*."""
    tracer = chosen.tracer
    inclusive, count = tracer.inclusive, tracer.count
    wall = chosen.wall_s
    sim_s = inclusive(*_SIM)
    kinsts = count("insts", *_SIM) / 1000.0
    emulate_s = inclusive(*_EMULATE)
    emulated = count("insts", *_EMULATE)
    prepare_s = inclusive("prepare_request")
    fold_s = inclusive("fold_outcomes")
    sharded_s = inclusive("execute_sharded")
    batch_s = inclusive(*_BATCH)
    hits = chosen.cache_after["hits"] - chosen.cache_before["hits"]
    misses = chosen.cache_after["misses"] - chosen.cache_before["misses"]
    worker_busy = sum(end - start for start, end, _pid in tracer.worker_spans)
    metrics: Metrics = {
        "trace.wall_s": (wall, "s"),
        "trace.untraced_wall_s": (untraced_wall, "s"),
        "trace.overhead_s": (wall - untraced_wall, "s"),
        "trace.spans": (len(tracer.spans) - 1, "count"),
        "core.setup_s": (
            inclusive("Simulator.__init__", "Simulator.prewarm_tlb"), "s"
        ),
        "core.schedule_s": (inclusive("shared_schedule"), "s"),
        "core.sim_s": (sim_s, "s"),
        "core.kinsts": (kinsts, "kinst"),
        "core.kips": (_ratio(kinsts, sim_s), "kinst/s"),
        "core.calls_per_kinst": (_ratio(calls["total"], kinsts), "1/kinst"),
    }
    metrics.update(simulated_outputs(chosen.results))
    metrics.update({
        "isa.emulate_s": (emulate_s, "s"),
        "isa.insts": (emulated, "count"),
        "isa.mips": (_ratio(emulated, emulate_s) / 1e6, "Minst/s"),
        "workloads.build_s": (inclusive("build_workload"), "s"),
        "workloads.builds": (tracer.calls("build_workload"), "count"),
        "state.fastforward_s": (inclusive("fast_forward"), "s"),
        "state.checkpoint_s": (
            inclusive("take_checkpoint", "resume_simulator"), "s"
        ),
        "state.checkpoints": (tracer.calls("take_checkpoint"), "count"),
        "simpoint.profile_s": (inclusive("profile_program"), "s"),
        "simpoint.select_s": (inclusive("select_simpoints"), "s"),
        "simpoint.measure_s": (inclusive("weighted_ipc"), "s"),
        "simpoint.intervals": (count("count", "weighted_ipc"), "count"),
        "timeshard.prepare_s": (prepare_s, "s"),
        "timeshard.wait_s": (
            sharded_s - _descendant_time(
                tracer, {"execute_sharded"},
                {"prepare_request", "fold_outcomes"},
            ),
            "s",
        ),
        "timeshard.fold_s": (fold_s, "s"),
        "timeshard.shards": (count("count", "prepare_request"), "count"),
        "pool.spinup_s": (inclusive("get_pool"), "s"),
        "pool.tasks": (count("count", "run_longest_first"), "count"),
        "pool.busy_frac": (
            _ratio(worker_busy, tracer.dispatch_capacity), "ratio"
        ),
        "runcache.get_s": (inclusive("RunCache.get", "RunCache.peek"), "s"),
        "runcache.put_s": (inclusive("RunCache.put"), "s"),
        "runcache.hits": (hits, "count"),
        "runcache.misses": (misses, "count"),
        "runcache.hit_ratio": (_ratio(hits, hits + misses), "ratio"),
        "runcache.bytes": (chosen.cache_bytes, "B"),
        "service.batch_s": (batch_s, "s"),
        "service.overhead_s": (
            batch_s - _descendant_time(tracer, _BATCH, {"execute"}),
            "s",
        ),
        "service.jobs": (count("jobs", "SweepService.process"), "count"),
        "service.deduped": (
            count("deduped", "SweepService.process"), "count"
        ),
        "service.retries": (
            count("retries", "SweepService.process"), "count"
        ),
        "service.failed": (count("failed", "SweepService.process"), "count"),
        "harness.execute_calls": (tracer.calls("execute"), "count"),
        "obs.collect_s": (inclusive("collect_run_metrics"), "s"),
        "report.bootstrap_s": (inclusive("summarize_series"), "s"),
        "report.write_s": (
            inclusive("Manifest.save", "render_manifest_md", "write_jsonl"),
            "s",
        ),
        "report.artifacts": (count("count", "generate_report"), "count"),
        "report.fig9_gap_pp": (fig9_gap_pp, "pp"),
        "attacks.run_s": (inclusive("run_attack"), "s"),
    })
    for layer, seconds in tracer.self_times().items():
        metrics[f"{layer}.self_s"] = (seconds, "s")
    for layer in LAYERS:
        metrics[f"{layer}.calls"] = (calls[layer], "count")
    metrics["trace.calls_total"] = (calls["total"], "count")
    return metrics


def write_trace(path: Path, chosen, metrics: Metrics, stamp) -> None:
    """Write the traced round's spans, worker spans and metrics.

    *stamp* (host and ``REPRO_*`` knobs) is stored beside them.
    """
    tracer = chosen.tracer
    path.parent.mkdir(parents=True, exist_ok=True)
    document = {
        **stamp,
        "note": (
            "spans of the median traced round; worker_spans are pool "
            "tasks timed inside the workers by the dispatch shim and are "
            "not part of the self-time split"
        ),
        "spans": [span.as_dict() for span in tracer.spans],
        "worker_spans": [
            {"start": start, "end": end, "pid": pid}
            for start, end, pid in tracer.worker_spans
        ],
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }
    path.write_text(json.dumps(document, indent=1) + "\n")
