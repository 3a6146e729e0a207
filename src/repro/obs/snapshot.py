"""Immutable point-in-time view of one run's (or many runs') metrics.

A :class:`MetricsSnapshot` is the one metrics type: it is what
:func:`repro.obs.collect.collect_run_metrics` builds, what crosses
process boundaries (worker shards pickle them back to the parent),
what lands on :class:`~repro.harness.api.RunResult`, and what feeds
the exporters.  The merge operation is **associative and
commutative** — counters and histogram bins add, gauges take the
maximum, metadata keeps only the keys every operand agrees on — so
aggregating worker shards gives one deterministic result regardless
of completion order or grouping (asserted by
``tests/obs/test_snapshot.py``).
"""

from __future__ import annotations

import dataclasses
import json
from typing import Dict, List, Optional, Tuple


@dataclasses.dataclass
class MetricsSnapshot:
    """Frozen metric values: counters, gauges, exact histograms, meta."""

    counters: Dict[str, float] = dataclasses.field(default_factory=dict)
    gauges: Dict[str, float] = dataclasses.field(default_factory=dict)
    histograms: Dict[str, Dict[int, int]] = dataclasses.field(
        default_factory=dict
    )
    #: Free-form labels (workload, policy, ...).  Not metrics: merge
    #: keeps only the entries all operands agree on.
    meta: Dict[str, object] = dataclasses.field(default_factory=dict)

    # -- construction ------------------------------------------------------

    @classmethod
    def empty(cls) -> "MetricsSnapshot":
        """The merge identity: ``empty().merge(s)`` equals ``s``."""
        return cls()

    # -- aggregation -------------------------------------------------------

    def merge(self, other: "MetricsSnapshot") -> "MetricsSnapshot":
        """Combine two shards into a new snapshot.

        Counters add, histogram bins add, gauges take the maximum
        (max is the only common reduction that stays associative
        without per-gauge weights), and meta keeps the agreeing keys.
        """
        counters = dict(self.counters)
        for name, value in other.counters.items():
            counters[name] = counters.get(name, 0) + value
        gauges = dict(self.gauges)
        for name, value in other.gauges.items():
            gauges[name] = max(gauges[name], value) if name in gauges else value
        histograms = {name: dict(bins) for name, bins in self.histograms.items()}
        for name, bins in other.histograms.items():
            target = histograms.setdefault(name, {})
            for value, count in bins.items():
                target[value] = target.get(value, 0) + count
        if not self.counters and not self.gauges and not self.histograms:
            meta = dict(other.meta)  # merging into the identity
        elif not other.counters and not other.gauges and not other.histograms:
            meta = dict(self.meta)
        else:
            meta = {
                key: value for key, value in self.meta.items()
                if other.meta.get(key) == value
            }
        return MetricsSnapshot(counters, gauges, histograms, meta)

    def diff(self, baseline: "MetricsSnapshot") -> "MetricsSnapshot":
        """``self - baseline``: what changed between two snapshots.

        Counters and gauges subtract (missing keys count as 0);
        unchanged counters and empty histogram bins are dropped.  Used
        by ``repro metrics diff`` to compare two saved runs.
        """
        counters = {}
        for name in sorted(set(self.counters) | set(baseline.counters)):
            change = self.counters.get(name, 0) - baseline.counters.get(name, 0)
            if change:
                counters[name] = change
        names = set(self.gauges) | set(baseline.gauges)
        gauges = {
            name: self.gauges.get(name, 0.0) - baseline.gauges.get(name, 0.0)
            for name in names
        }
        histograms: Dict[str, Dict[int, int]] = {}
        for name in set(self.histograms) | set(baseline.histograms):
            ours = self.histograms.get(name, {})
            theirs = baseline.histograms.get(name, {})
            delta = {}
            for value in set(ours) | set(theirs):
                change = ours.get(value, 0) - theirs.get(value, 0)
                if change:
                    delta[value] = change
            histograms[name] = delta
        meta = {"diff_of": (self.meta.get("label"), baseline.meta.get("label"))}
        return MetricsSnapshot(counters, gauges, histograms, meta)

    # -- queries -----------------------------------------------------------

    def get(self, name: str, default: float = 0.0) -> float:
        """Counter-then-gauge lookup by exact name."""
        if name in self.counters:
            return self.counters[name]
        return self.gauges.get(name, default)

    def top(
        self, n: int = 10, prefix: Optional[str] = None,
        by_magnitude: bool = False,
    ) -> List[Tuple[str, float]]:
        """The *n* largest counters, optionally under a dotted prefix.

        *by_magnitude* sorts by ``abs()`` — the useful order for diff
        snapshots where regressions are negative.  Ties sort by name.
        """
        items = [
            (name, value) for name, value in self.counters.items()
            if prefix is None
            or name == prefix or name.startswith(prefix + ".")
        ]
        items.sort(key=lambda kv: kv[0])
        key = (lambda kv: abs(kv[1])) if by_magnitude else (lambda kv: kv[1])
        items.sort(key=key, reverse=True)
        return items[:n]

    # -- (de)serialization -------------------------------------------------

    def as_dict(self) -> Dict[str, object]:
        """Plain-JSON-able dict (histogram bins keyed by string)."""
        return {
            "counters": dict(self.counters),
            "gauges": dict(self.gauges),
            "histograms": {
                name: {str(value): count for value, count in bins.items()}
                for name, bins in self.histograms.items()
            },
            "meta": dict(self.meta),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "MetricsSnapshot":
        return cls(
            counters=dict(data.get("counters", {})),
            gauges=dict(data.get("gauges", {})),
            histograms={
                name: {int(value): count for value, count in bins.items()}
                for name, bins in data.get("histograms", {}).items()
            },
            meta=dict(data.get("meta", {})),
        )

    def to_json(self, indent: Optional[int] = None) -> str:
        return json.dumps(self.as_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "MetricsSnapshot":
        return cls.from_dict(json.loads(text))
