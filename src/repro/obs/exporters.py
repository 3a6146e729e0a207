"""Snapshot exporters: JSON Lines and Prometheus text exposition.

JSONL is the machine-readable archive format (one snapshot per line,
``jq``-friendly, the ledger's ``metrics.jsonl`` and the CI benchmark
artifact); Prometheus text is the scrape format for wiring a sweep box
into an existing monitoring stack.
"""

from __future__ import annotations

import json
import math
import re
from pathlib import Path
from typing import Iterable, List, Union

from ..report.writer import atomic_write_text
from .snapshot import MetricsSnapshot

_INVALID_CHARS = re.compile(r"[^a-zA-Z0-9_]")


# -- JSON Lines ------------------------------------------------------------


def jsonl_line(snapshot: MetricsSnapshot) -> str:
    """One snapshot as a single compact JSON line."""
    return json.dumps(snapshot.as_dict(), sort_keys=True)


def write_jsonl(
    path: Union[str, Path],
    snapshots: Iterable[MetricsSnapshot],
) -> int:
    """Write snapshots to *path*, one per line; returns lines written.

    The file is replaced atomically, so a failure part-way through the
    snapshots leaves any earlier content of *path* intact.
    """
    lines = [jsonl_line(snapshot) + "\n" for snapshot in snapshots]
    atomic_write_text(path, "".join(lines))
    return len(lines)


def read_jsonl(path: Union[str, Path]) -> List[MetricsSnapshot]:
    """Load every snapshot from a JSONL file (blank lines ignored)."""
    snapshots = []
    for line in Path(path).read_text().splitlines():
        line = line.strip()
        if line:
            snapshots.append(MetricsSnapshot.from_dict(json.loads(line)))
    return snapshots


def load_snapshot(path: Union[str, Path]) -> MetricsSnapshot:
    """Read one snapshot from a ``.json`` file or the first JSONL line."""
    text = Path(path).read_text().strip()
    first = text.splitlines()[0] if "\n" in text else text
    try:
        return MetricsSnapshot.from_dict(json.loads(text))
    except json.JSONDecodeError:
        return MetricsSnapshot.from_dict(json.loads(first))


# -- Prometheus text exposition --------------------------------------------


def _metric_name(prefix: str, name: str) -> str:
    """Dots become underscores; anything non-metric-safe is stripped."""
    flat = _INVALID_CHARS.sub("_", name.replace(".", "_"))
    return f"{prefix}_{flat}" if prefix else flat


def _labels(meta: dict) -> str:
    if not meta:
        return ""
    parts = []
    for key, value in sorted(meta.items()):
        safe_key = _INVALID_CHARS.sub("_", str(key))
        safe_value = str(value).replace("\\", "\\\\").replace('"', '\\"')
        parts.append(f'{safe_key}="{safe_value}"')
    return "{" + ",".join(parts) + "}"


def _format_value(value: float) -> str:
    if isinstance(value, float) and not value.is_integer():
        return repr(value)
    if math.isinf(value) or math.isnan(value):  # pragma: no cover - guard
        return str(value)
    return str(int(value))


def prometheus_text(snapshot: MetricsSnapshot, prefix: str = "repro") -> str:
    """Render one snapshot in the Prometheus text exposition format.

    Counters and gauges map directly; each exact histogram becomes a
    native Prometheus histogram with cumulative ``_bucket{le=...}``
    series plus ``_sum``/``_count``.  ``meta`` entries become labels on
    every sample.
    """
    labels = _labels(snapshot.meta)
    lines: List[str] = []
    for name in sorted(snapshot.counters):
        metric = _metric_name(prefix, name)
        lines.append(f"# TYPE {metric} counter")
        lines.append(f"{metric}{labels} "
                     f"{_format_value(snapshot.counters[name])}")
    for name in sorted(snapshot.gauges):
        metric = _metric_name(prefix, name)
        lines.append(f"# TYPE {metric} gauge")
        lines.append(f"{metric}{labels} "
                     f"{_format_value(snapshot.gauges[name])}")
    for name in sorted(snapshot.histograms):
        metric = _metric_name(prefix, name)
        bins = snapshot.histograms[name]
        lines.append(f"# TYPE {metric} histogram")
        cumulative = 0
        total = 0
        for value in sorted(bins):
            cumulative += bins[value]
            total += value * bins[value]
            bucket_labels = dict(snapshot.meta)
            bucket_labels["le"] = value
            lines.append(f"{metric}_bucket{_labels(bucket_labels)} "
                         f"{cumulative}")
        inf_labels = dict(snapshot.meta)
        inf_labels["le"] = "+Inf"
        lines.append(f"{metric}_bucket{_labels(inf_labels)} {cumulative}")
        lines.append(f"{metric}_sum{labels} {total}")
        lines.append(f"{metric}_count{labels} {cumulative}")
    return "\n".join(lines) + "\n"
