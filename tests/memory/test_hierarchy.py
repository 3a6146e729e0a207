"""Unit tests for the L1/L2/L3/DRAM hierarchy."""

from repro.memory.hierarchy import CacheGeometry, MemoryHierarchy


def small_hierarchy():
    return MemoryHierarchy(
        l1d=CacheGeometry(1024, 2, 5),
        l1i=None,
        l2=CacheGeometry(4096, 4, 15),
        l3=CacheGeometry(16384, 8, 40),
        dram_latency=150,
    )


class TestLatencies:
    def test_cold_access_costs_dram(self):
        hierarchy = small_hierarchy()
        assert hierarchy.access(0x1000) == 150

    def test_second_access_hits_l1(self):
        hierarchy = small_hierarchy()
        hierarchy.access(0x1000)
        assert hierarchy.access(0x1000) == 5

    def test_l2_hit_after_l1_eviction(self):
        hierarchy = small_hierarchy()
        hierarchy.access(0x1000)
        # Thrash the single L1 set that 0x1000 maps to (8 sets, 2 ways).
        set_stride = 8 * 64
        hierarchy.access(0x1000 + set_stride)
        hierarchy.access(0x1000 + 2 * set_stride)
        latency = hierarchy.access(0x1000)
        assert latency == 15  # L1 miss, L2 hit

    def test_probe_latency_is_pure(self):
        hierarchy = small_hierarchy()
        assert hierarchy.probe_latency(0x2000) == 150
        assert hierarchy.probe_latency(0x2000) == 150  # unchanged
        hierarchy.access(0x2000)
        assert hierarchy.probe_latency(0x2000) == 5

    def test_probe_latency_many_matches_scalar(self):
        """The sweep equals per-address probe_latency and mutates
        nothing (the Flush+Reload receiver's whole-sweep timer relies
        on both properties)."""
        hierarchy = MemoryHierarchy(
            l1d=CacheGeometry(1024, 2, 5),
            l1i=None,
            l2=CacheGeometry(4096, 4, 15),
            l3=CacheGeometry(16384, 8, 40),
            dram_latency=150,
        )
        hierarchy.access(0x1000)
        hierarchy.access(0x2000)
        # Push 0x3000 out of L1 but keep it in L2.
        hierarchy.access(0x3000)
        set_stride = 8 * 64
        hierarchy.access(0x3000 + set_stride)
        hierarchy.access(0x3000 + 2 * set_stride)
        probes = [0x1000, 0x2000, 0x3000, 0x9000, 0x1040]
        expected = [hierarchy.probe_latency(a) for a in probes]
        before = hierarchy.l1d.stats.as_dict()
        assert list(hierarchy.probe_latency_many(probes)) == expected
        assert hierarchy.l1d.stats.as_dict() == before


class TestClflush:
    def test_clflush_evicts_all_levels(self):
        hierarchy = small_hierarchy()
        hierarchy.access(0x3000)
        hierarchy.clflush(0x3000)
        assert not hierarchy.is_cached(0x3000)
        assert hierarchy.probe_latency(0x3000) == 150

    def test_clflush_only_one_line(self):
        hierarchy = small_hierarchy()
        hierarchy.access(0x3000)
        hierarchy.access(0x3040)
        hierarchy.clflush(0x3000)
        assert hierarchy.is_cached(0x3040)

    def test_flush_all(self):
        hierarchy = small_hierarchy()
        hierarchy.access(0x3000)
        hierarchy.flush_all()
        assert not hierarchy.is_cached(0x3000)


class TestInstructionSide:
    def test_fetch_uses_l1i(self):
        hierarchy = MemoryHierarchy(
            l1d=CacheGeometry(1024, 2, 5),
            l1i=CacheGeometry(1024, 2, 4),
            l2=CacheGeometry(4096, 4, 15),
            l3=CacheGeometry(16384, 8, 40),
            dram_latency=150,
        )
        assert hierarchy.fetch_access(0x100) == 150
        assert hierarchy.fetch_access(0x100) == 4

    def test_fetch_without_l1i_is_free(self):
        assert small_hierarchy().fetch_access(0x100) == 0

    def test_stats_report_lists_levels(self):
        hierarchy = small_hierarchy()
        hierarchy.access(0x0)
        report = hierarchy.stats_report()
        assert "L1D" in report and "L3" in report


class TestPrefetcher:
    def _hierarchy(self, prefetch):
        return MemoryHierarchy(
            l1d=CacheGeometry(1024, 2, 5),
            l1i=None,
            l2=CacheGeometry(8192, 4, 15),
            l3=CacheGeometry(32768, 8, 40),
            dram_latency=150,
            prefetch_next_line=prefetch,
        )

    def test_next_line_lands_in_l2(self):
        hierarchy = self._hierarchy(prefetch=True)
        hierarchy.access(0x1000)           # DRAM miss, prefetch 0x1040
        assert hierarchy.l2.contains(0x1040)
        assert not hierarchy.l1d.contains(0x1040)  # no L1 pollution
        assert hierarchy.prefetches_issued == 1
        assert hierarchy.access(0x1040) == 15      # L2 hit

    def test_sequential_stream_benefits(self):
        with_pf = self._hierarchy(prefetch=True)
        without = self._hierarchy(prefetch=False)
        addresses = [0x4000 + 64 * i for i in range(16)]
        cost_with = sum(with_pf.access(a) for a in addresses)
        cost_without = sum(without.access(a) for a in addresses)
        assert cost_with < cost_without

    def test_no_prefetch_when_disabled(self):
        hierarchy = self._hierarchy(prefetch=False)
        hierarchy.access(0x1000)
        assert not hierarchy.l2.contains(0x1040)
        assert hierarchy.prefetches_issued == 0

    def test_prefetch_does_not_duplicate(self):
        hierarchy = self._hierarchy(prefetch=True)
        hierarchy.access(0x1040)   # brings 0x1040 in, prefetches 0x1080
        hierarchy.access(0x1000)   # prefetch target 0x1040 already in L2
        assert hierarchy.prefetches_issued == 1  # only 0x1080
