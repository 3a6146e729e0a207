"""End-to-end metrics collection: snapshots reconcile with SimStats.

The acceptance property of the telemetry layer: every exported number
is copied from (or derived bit-exactly from) an existing simulator
counter, so with metrics on, a traced SpecMPK run exposes the WRPKRU
lifecycle, the SpecMPK-unit occupancy distribution, and the
speculative-fill provenance — and each agrees exactly with the legacy
``SimStats`` / trace-layer values.
"""

import pytest

from repro.core.config import WrpkruPolicy
from repro.harness.api import RunRequest, TraceOptions, execute
from repro.obs.collect import metrics_enabled


@pytest.fixture(scope="module")
def traced_specmpk_result():
    # warmup=0 so the measurement window covers the whole run: the
    # SpecMPK unit's lifetime counters (not reset at the warmup
    # boundary) must then agree exactly with the windowed SimStats.
    return execute(RunRequest(
        workload="557.xz_r (SS)",
        policy=WrpkruPolicy.SPECMPK,
        instructions=3000,
        warmup=0,
        trace=TraceOptions(enabled=True),
        metrics=True,
    ))


class TestWrpkruLifecycle:
    def test_retired_reconciles_with_simstats(self, traced_specmpk_result):
        snap = traced_specmpk_result.metrics
        stats = traced_specmpk_result.stats
        assert stats.wrpkru_retired > 0
        assert snap.get("core.wrpkru_retired") == stats.wrpkru_retired
        assert snap.get("mpk.wrpkru.retired") == stats.wrpkru_retired

    def test_dispatch_to_retire_or_squash_conserves(
        self, traced_specmpk_result
    ):
        snap = traced_specmpk_result.metrics
        stats = traced_specmpk_result.stats
        assert snap.get("core.wrpkru_dispatched") == stats.wrpkru_dispatched
        allocated = snap.get("mpk.wrpkru.allocated")
        # Under SPECMPK every dispatched WRPKRU allocates a unit entry.
        assert allocated == stats.wrpkru_dispatched
        # Every allocation is retired, squashed, or still in flight.
        assert allocated >= (snap.get("mpk.wrpkru.retired")
                             + snap.get("mpk.wrpkru.squashed"))

    def test_check_counters_cover_simstats_stalls(
        self, traced_specmpk_result
    ):
        snap = traced_specmpk_result.metrics
        stats = traced_specmpk_result.stats
        # Every failed load check the pipeline observed was counted by
        # the unit (the unit may count more: a stalled load re-checks).
        assert (snap.get("mpk.checks.load_failed")
                >= stats.loads_stalled_by_check)
        assert snap.get("mpk.checks.load") >= snap.get(
            "mpk.checks.load_failed"
        )
        assert snap.get("mpk.faults.architectural") == 0


class TestOccupancyHistogram:
    def test_matches_trace_layer_bit_exactly(self, traced_specmpk_result):
        snap = traced_specmpk_result.metrics
        trace_hist = (
            traced_specmpk_result.trace.occupancy_histograms()["rob_pkru"]
        )
        assert snap.histograms["core.rob_pkru.occupancy"] == trace_hist
        # The trace-layer per-stage histograms are mirrored too.
        assert snap.histograms["core.occupancy.rob_pkru"] == trace_hist

    def test_histogram_covers_every_cycle(self, traced_specmpk_result):
        snap = traced_specmpk_result.metrics
        bins = snap.histograms["core.rob_pkru.occupancy"]
        assert sum(bins.values()) == traced_specmpk_result.stats.cycles

    def test_untraced_run_still_has_occupancy(self):
        result = execute(RunRequest(
            workload="557.xz_r (SS)",
            policy=WrpkruPolicy.SPECMPK,
            instructions=2000,
            warmup=300,
            metrics=True,
        ))
        bins = result.metrics.histograms["core.rob_pkru.occupancy"]
        assert sum(bins.values()) == result.stats.cycles
        assert any(occupancy > 0 for occupancy in bins)

    def test_serialized_unit_stays_empty(self):
        result = execute(RunRequest(
            workload="557.xz_r (SS)",
            policy=WrpkruPolicy.SERIALIZED,
            instructions=2000,
            warmup=0,
            metrics=True,
        ))
        bins = result.metrics.histograms["core.rob_pkru.occupancy"]
        assert bins == {0: result.stats.cycles}


class TestFillProvenance:
    def test_fill_counters_reconcile(self, traced_specmpk_result):
        snap = traced_specmpk_result.metrics
        stats = traced_specmpk_result.stats
        assert snap.get("memory.fills.speculative") == stats.spec_fills
        assert snap.get("memory.fills.wrongpath") == stats.wrongpath_fills
        assert stats.spec_fills > 0
        assert stats.wrongpath_fills <= stats.spec_fills
        # Wrong-path fills came from wrong-path executed instructions.
        assert (stats.wrongpath_fills
                <= stats.instructions_wrongpath_executed)

    def test_l1d_fills_bound_spec_fills(self, traced_specmpk_result):
        snap = traced_specmpk_result.metrics
        assert (snap.get("memory.l1d.fills")
                >= snap.get("memory.fills.speculative"))

    def test_cache_and_tlb_counters_present(self, traced_specmpk_result):
        snap = traced_specmpk_result.metrics
        for name in ("memory.l1d.hits", "memory.l1d.misses",
                     "memory.l2.hits", "memory.l3.misses",
                     "memory.tlb.hits", "memory.tlb.fills"):
            assert name in snap.counters


#: Every non-``core.`` counter one untraced, L1I-less run exports; the
#: ``core.`` counters are the SimStats scalars (checked by value below).
_EXPECTED_OTHER_COUNTERS = {
    "memory.fills.speculative", "memory.fills.wrongpath",
    "mpk.wrpkru.allocated", "mpk.wrpkru.retired", "mpk.wrpkru.squashed",
    "mpk.checks.load", "mpk.checks.load_failed",
    "mpk.checks.store", "mpk.checks.store_failed",
    "mpk.faults.architectural",
    *(f"memory.{level}.{event}"
      for level in ("l1d", "l2", "l3")
      for event in ("hits", "misses", "evictions", "invalidations", "fills")),
    "memory.prefetches",
    *(f"memory.tlb.{event}"
      for event in ("hits", "misses", "fills", "deferred_fills", "flushes")),
    "perf.fastskip.cycles_saved", "perf.fastskip.events",
}


class TestSnapshotSchema:
    """Pins the wire schema of one short fixed run: names and types."""

    @pytest.fixture(scope="class")
    def result(self):
        return execute(RunRequest(
            workload="557.xz_r (SS)",
            policy=WrpkruPolicy.SPECMPK,
            instructions=1000,
            warmup=0,
            metrics=True,
        ), cache=False)

    def test_exact_names(self, result):
        snap = result.metrics
        scalars = {
            name for name in result.stats.as_dict()
            if name not in ("ipc", "wrpkru_per_kilo", "rename_stall_fraction",
                            "spec_fills", "wrongpath_fills")
        }
        assert len(scalars) == 28
        assert set(snap.counters) == (
            {f"core.{name}" for name in scalars} | _EXPECTED_OTHER_COUNTERS
        )
        assert set(snap.gauges) == {
            "core.ipc", "core.wrpkru_per_kilo", "core.rename_stall_fraction",
        }
        assert set(snap.histograms) == {"core.rob_pkru.occupancy"}

    def test_value_types(self, result):
        snap = result.metrics
        assert all(type(value) is int for value in snap.counters.values())
        assert all(type(value) is float for value in snap.gauges.values())
        for bins in snap.histograms.values():
            assert all(type(value) is int and type(count) is int
                       for value, count in bins.items())

    def test_core_counters_equal_simstats(self, result):
        snap = result.metrics
        core = {name[len("core."):]: value
                for name, value in snap.counters.items()
                if name.startswith("core.")}
        for name, value in core.items():
            assert value == getattr(result.stats, name), name
        for name, value in snap.gauges.items():
            assert value == getattr(result.stats, name[len("core."):]), name


class TestGatingAndMeta:
    def test_repro_metrics_0_suppresses_snapshot(self, monkeypatch):
        monkeypatch.setenv("REPRO_METRICS", "0")
        monkeypatch.setenv("REPRO_CACHE", "0")
        result = execute(RunRequest(
            workload="557.xz_r (SS)",
            policy=WrpkruPolicy.SPECMPK,
            instructions=2000,
        ))
        assert result.metrics is None

    def test_explicit_request_overrides_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_METRICS", "0")
        monkeypatch.setenv("REPRO_CACHE", "0")
        result = execute(RunRequest(
            workload="557.xz_r (SS)",
            policy=WrpkruPolicy.SPECMPK,
            instructions=2000,
            metrics=True,
        ))
        assert result.metrics is not None

    @pytest.mark.parametrize("raw,expected", [
        ("0", False), ("false", False), ("off", False),
        ("1", True), ("yes", True),
    ])
    def test_repro_metrics_flag(self, monkeypatch, raw, expected):
        monkeypatch.setenv("REPRO_METRICS", raw)
        assert metrics_enabled() is expected

    def test_default_is_enabled(self, monkeypatch):
        monkeypatch.delenv("REPRO_METRICS", raising=False)
        assert metrics_enabled() is True

    def test_meta_identifies_the_run(self, traced_specmpk_result):
        meta = traced_specmpk_result.metrics.meta
        assert meta["label"] == "557.xz_r (SS)"
        assert meta["policy"] == "specmpk"
        assert meta["instructions"] == 3000

    def test_ipc_gauge_matches_stats(self, traced_specmpk_result):
        snap = traced_specmpk_result.metrics
        assert snap.gauges["core.ipc"] == traced_specmpk_result.stats.ipc


class TestCacheInteraction:
    def test_cached_result_preserves_metrics(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        monkeypatch.setenv("REPRO_CACHE", "1")
        request = RunRequest(
            workload="557.xz_r (SS)",
            policy=WrpkruPolicy.SPECMPK,
            instructions=2000,
            metrics=True,
        )
        first = execute(request)
        second = execute(request)
        assert second.metrics is not None
        assert second.metrics.counters == first.metrics.counters

    def test_metrics_flag_is_part_of_the_cache_key(self):
        from repro.perf.runcache import cache_key

        base = RunRequest(
            workload="557.xz_r (SS)",
            policy=WrpkruPolicy.SPECMPK,
            instructions=2000,
        )
        on = cache_key(base.replace(metrics=True))
        off = cache_key(base.replace(metrics=False))
        assert on is not None and off is not None and on != off


class TestSweepAggregation:
    def test_sweep_drives_progress(self):
        import io

        from repro.harness.runner import sweep_policies
        from repro.obs.progress import ProgressReporter

        stream = io.StringIO()
        reporter = ProgressReporter(
            4, label="sweep", stream=stream, min_interval=0.0
        )
        results = sweep_policies(
            labels=["557.xz_r (SS)", "429.mcf (CPI)"],
            policies=[WrpkruPolicy.SERIALIZED, WrpkruPolicy.SPECMPK],
            instructions=500,
            parallel=False,
            progress=reporter,
            request=RunRequest(
                workload="", policy=WrpkruPolicy.SERIALIZED,
                instructions=500, metrics=True,
            ),
        )
        assert len(results) == 2
        out = stream.getvalue()
        assert "4/4" in out
        assert out.endswith("\n")
        assert "/specmpk" in out
