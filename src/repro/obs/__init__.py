"""``repro.obs``: the unified telemetry subsystem.

One write side, one wire format, one read side:

* :func:`collect_run_metrics` — freezes a finished simulator run into
  a :class:`MetricsSnapshot` spanning core/mpk/memory/perf, copying
  each counter from the simulator's own attributes
  (:mod:`repro.obs.collect`).
* :class:`MetricsSnapshot` — immutable, associatively mergeable
  counters/gauges/histograms that cross process boundaries and land
  on ``RunResult.metrics``; ``merge`` aggregates runs, ``diff`` and
  ``top`` compare them (:mod:`repro.obs.snapshot`).
* Exporters — JSONL archive + Prometheus text exposition
  (:mod:`repro.obs.exporters`).
* :class:`ProgressReporter` — live sweep progress/ETA heartbeat
  (:mod:`repro.obs.progress`).

``REPRO_METRICS=0`` disables end-of-run collection globally;
``REPRO_PROGRESS=1`` enables the live sweep heartbeat.
"""

from .collect import collect_run_metrics, metrics_enabled
from .exporters import (
    jsonl_line,
    load_snapshot,
    prometheus_text,
    read_jsonl,
    write_jsonl,
)
from .progress import ProgressReporter, maybe_reporter, progress_enabled
from .snapshot import MetricsSnapshot

__all__ = [
    "MetricsSnapshot",
    "ProgressReporter",
    "collect_run_metrics",
    "jsonl_line",
    "load_snapshot",
    "maybe_reporter",
    "metrics_enabled",
    "progress_enabled",
    "prometheus_text",
    "read_jsonl",
    "write_jsonl",
]
