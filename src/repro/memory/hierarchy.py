"""Multi-level cache hierarchy with DRAM backing (Table III geometry).

``access`` walks L1 -> L2 -> L3 -> DRAM, fills upward on miss, and
returns the round-trip latency of the level that hit.  Instruction and
data sides share L2/L3.  The model is presence/latency only; values are
architectural and come from :class:`~repro.memory.AddressSpace`.
Every level is a dict-backed :class:`~repro.memory.cache.Cache`.
"""

from __future__ import annotations

from typing import List, NamedTuple, Optional, Sequence

from .cache import Cache


class CacheGeometry(NamedTuple):
    """Size/associativity/latency triple for one cache level."""

    size: int
    assoc: int
    latency: int


#: Table III values.
DEFAULT_L1I = CacheGeometry(32 * 1024, 8, 5)
DEFAULT_L1D = CacheGeometry(48 * 1024, 12, 5)
DEFAULT_L2 = CacheGeometry(512 * 1024, 8, 15)
DEFAULT_L3 = CacheGeometry(2 * 1024 * 1024, 16, 40)
#: Round-trip latency of a DDR4_2400-class access, in core cycles.
DEFAULT_DRAM_LATENCY = 150


class MemoryHierarchy:
    """L1D (+ optional L1I) / L2 / L3 / DRAM."""

    def __init__(
        self,
        l1d: CacheGeometry = DEFAULT_L1D,
        l1i: Optional[CacheGeometry] = DEFAULT_L1I,
        l2: CacheGeometry = DEFAULT_L2,
        l3: CacheGeometry = DEFAULT_L3,
        dram_latency: int = DEFAULT_DRAM_LATENCY,
        line_size: int = 64,
        prefetch_next_line: bool = False,
    ) -> None:
        self.l1d = Cache("L1D", l1d.size, l1d.assoc, line_size, l1d.latency)
        self.l1i = (
            Cache("L1I", l1i.size, l1i.assoc, line_size, l1i.latency)
            if l1i is not None
            else None
        )
        self.l2 = Cache("L2", l2.size, l2.assoc, line_size, l2.latency)
        self.l3 = Cache("L3", l3.size, l3.assoc, line_size, l3.latency)
        self.dram_latency = dram_latency
        self.line_size = line_size
        self.prefetch_next_line = prefetch_next_line
        self.prefetches_issued = 0

    # -- data side -----------------------------------------------------------

    def access(self, address: int) -> int:
        """Data access: return latency, filling caches along the miss path.

        This mutates cache state — a speculative wrong-path call is
        exactly the transmitter of a cache side channel.
        """
        if self.l1d.lookup(address):
            return self.l1d.latency
        if self.l2.lookup(address):
            self.l1d.fill(address)
            return self.l2.latency
        if self.l3.lookup(address):
            self.l1d.fill(address)
            self.l2.fill(address)
            return self.l3.latency
        self.l1d.fill(address)
        self.l2.fill(address)
        self.l3.fill(address)
        if self.prefetch_next_line:
            self._prefetch(address + self.line_size)
        return self.dram_latency

    def _prefetch(self, address: int) -> None:
        """Next-line prefetch into L2/L3 (no L1 pollution, no timing
        cost — an idealised stride-1 prefetcher)."""
        if not self.l2.contains(address):
            self.l2.fill(address)
            self.l3.fill(address)
            self.prefetches_issued += 1

    def probe_latency(self, address: int) -> int:
        """Latency the next access *would* see, without touching state.

        The Flush+Reload receiver uses this as its timer readout.
        """
        if self.l1d.contains(address):
            return self.l1d.latency
        if self.l2.contains(address):
            return self.l2.latency
        if self.l3.contains(address):
            return self.l3.latency
        return self.dram_latency

    def probe_latency_many(self, addresses: Sequence[int]) -> List[int]:
        """:meth:`probe_latency` over a whole address stream."""
        return [self.probe_latency(a) for a in addresses]

    def is_cached(self, address: int) -> bool:
        return (
            self.l1d.contains(address)
            or self.l2.contains(address)
            or self.l3.contains(address)
        )

    def clflush(self, address: int) -> None:
        """Invalidate the line from every level (CLFLUSH semantics)."""
        self.l1d.invalidate(address)
        if self.l1i is not None:
            self.l1i.invalidate(address)
        self.l2.invalidate(address)
        self.l3.invalidate(address)

    def flush_all(self) -> None:
        for cache in self._levels():
            cache.flush_all()

    # -- instruction side ------------------------------------------------------

    def fetch_access(self, address: int) -> int:
        """Instruction fetch: L1I then the shared L2/L3."""
        if self.l1i is None:
            return 0
        if self.l1i.lookup(address):
            return self.l1i.latency
        if self.l2.lookup(address):
            self.l1i.fill(address)
            return self.l2.latency
        if self.l3.lookup(address):
            self.l1i.fill(address)
            self.l2.fill(address)
            return self.l3.latency
        self.l1i.fill(address)
        self.l2.fill(address)
        self.l3.fill(address)
        return self.dram_latency

    def _levels(self) -> List[Cache]:
        levels = [self.l1d, self.l2, self.l3]
        if self.l1i is not None:
            levels.insert(1, self.l1i)
        return levels

    def stats_report(self) -> str:
        lines = []
        for cache in self._levels():
            s = cache.stats
            lines.append(
                f"{cache.name}: {s.accesses} accesses, "
                f"{s.miss_rate:.1%} miss rate, {s.evictions} evictions"
            )
        return "\n".join(lines)
