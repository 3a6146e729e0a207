"""Shared access-statistics type for every memory-system structure.

One :class:`AccessStats` serves both :class:`~repro.memory.cache.Cache`
and :class:`~repro.memory.tlb.Tlb`, so the ``accesses``/hit-rate
arithmetic lives in one place and the obs layer reads one shape.

Fields a structure never touches simply stay zero (a cache never
defers a fill; a TLB never evicts a single entry outside a flush).
"""

from __future__ import annotations

from typing import Dict


class AccessStats:
    """Hit/miss/fill/eviction counters shared by caches and TLBs."""

    __slots__ = (
        "hits",
        "misses",
        "evictions",
        "invalidations",
        "fills",
        "deferred_fills",
        "flushes",
    )

    def __init__(self) -> None:
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.invalidations = 0
        self.fills = 0
        self.deferred_fills = 0
        self.flushes = 0

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def miss_rate(self) -> float:
        return self.misses / self.accesses if self.accesses else 0.0

    @property
    def hit_rate(self) -> float:
        return self.hits / self.accesses if self.accesses else 0.0

    def as_dict(self) -> Dict[str, int]:
        """Every counter, by name."""
        return {name: getattr(self, name) for name in self.__slots__}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        inner = ", ".join(f"{k}={v}" for k, v in self.as_dict().items())
        return f"AccessStats({inner})"
