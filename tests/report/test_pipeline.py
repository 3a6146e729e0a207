"""End-to-end tests for the report pipeline (repro.report.pipeline)."""

import dataclasses
import hashlib
import json

import pytest

from repro.report import (
    ARTIFACTS,
    ArtifactEntry,
    BootstrapCI,
    Manifest,
    MetricStat,
    ReportConfig,
    artifact_names,
    diff_manifests,
    generate_report,
)

_ENTRY = ArtifactEntry(
    name="fig", path="fig.txt", kind="figure", content_sha256="00",
)


def _small_config(tmp_path, **overrides):
    # ablation_tlb is the cheapest figure artifact: three labels, two
    # configurations each.  Tiny budget keeps the test quick while
    # still exercising simulate -> record -> summarize -> ledger.
    defaults = dict(
        out=tmp_path / "final", repeats=2, instructions=1_500,
        seed=0, only={"ablation_tlb", "hw"},
    )
    defaults.update(overrides)
    return ReportConfig(**defaults)


class TestSpecs:
    def test_artifact_names_are_unique(self):
        names = artifact_names()
        assert len(names) == len(set(names))
        filenames = [spec.filename for spec in ARTIFACTS]
        assert len(filenames) == len(set(filenames))

    def test_static_specs_are_exact(self):
        for spec in ARTIFACTS:
            if spec.kind == "static":
                assert spec.tolerance == 0.0

    def test_unknown_subset_raises(self, tmp_path):
        with pytest.raises(ValueError, match="unknown artifact"):
            _small_config(tmp_path, only={"fig99"}).selected()


class TestGenerateReport:
    def test_full_ledger_and_warm_rerun(self, tmp_path):
        config = _small_config(tmp_path)
        manifest, counters = generate_report(config)

        # Every artifact file exists and matches its ledger hash.
        for entry in manifest.artifacts.values():
            text = (config.out / entry.path).read_text()
            digest = hashlib.sha256(
                text[:-1].encode()  # ledger hashes the unterminated text
            ).hexdigest()
            assert digest == entry.content_sha256

        ablation = manifest.artifacts["ablation_tlb"]
        assert ablation.repeats == 2
        # 3 labels x 2 configs x 2 repeats, every run cache-keyed.
        assert len(ablation.runs) == 12
        assert all(ref.cache_key for ref in ablation.runs)
        assert {ref.repeat for ref in ablation.runs} == {0, 1}
        # Three metrics, each summarised over both repeats.
        assert len(ablation.metrics) == 3
        for stat in ablation.metrics.values():
            assert len(stat.ci.values) == 2
            assert stat.ci.lo <= stat.ci.mean <= stat.ci.hi

        # The static artifact carries no metric series.
        assert manifest.artifacts["hw"].metrics == {}

        # Ledger companions.
        assert (config.out / "manifest.json").exists()
        assert (config.out / "manifest.md").exists()
        assert (config.out / "metrics.jsonl").exists()
        assert Manifest.load(config.out / "manifest.json") == manifest

        # The tentpole property: an immediate warm rerun resolves
        # every simulation from the run cache — zero new misses.
        manifest2, counters2 = generate_report(config)
        assert counters2["cache_misses"] == 0
        assert counters2["cache_hits"] == counters["cache_hits"] \
            + counters["cache_misses"]

    def test_warm_rerun_diffs_clean(self, tmp_path):
        config = _small_config(tmp_path)
        baseline, _ = generate_report(config)
        current, _ = generate_report(config)
        report = diff_manifests(baseline, current)
        assert report.ok
        assert not report.failures
        assert "clean" in report.render()

    def test_same_seed_reproduces_ci_bounds(self, tmp_path):
        config = _small_config(tmp_path)
        first, _ = generate_report(config)
        second, _ = generate_report(config)
        assert (
            first.artifacts["ablation_tlb"].metrics
            == second.artifacts["ablation_tlb"].metrics
        )


def _manifest_with(value: float, tolerance: float = 0.05) -> Manifest:
    ci = BootstrapCI(
        mean=value, lo=value, hi=value, values=(value,),
    )
    manifest = Manifest(
        code_fingerprint="f" * 20, seed=0, repeats=1, instructions=1000,
    )
    manifest.add(dataclasses.replace(
        _ENTRY, metrics={"ipc": MetricStat("ipc", ci, tolerance)},
    ))
    return manifest


class TestDiff:
    def test_within_tolerance_passes(self):
        report = diff_manifests(_manifest_with(1.00), _manifest_with(1.04))
        assert report.ok

    def test_outside_tolerance_fails(self):
        report = diff_manifests(_manifest_with(1.00), _manifest_with(1.10))
        assert not report.ok
        assert report.failures[0].metric == "ipc"
        assert "FAIL" in report.failures[0].describe()

    def test_baseline_tolerance_governs(self):
        # Loosening the tolerance in the *current* manifest must not
        # rescue an out-of-tolerance value.
        baseline = _manifest_with(1.00, tolerance=0.01)
        current = _manifest_with(1.05, tolerance=0.5)
        assert not diff_manifests(baseline, current).ok

    def test_missing_artifact_fails(self):
        baseline = _manifest_with(1.0)
        empty = Manifest(
            code_fingerprint="f" * 20, seed=0, repeats=1,
            instructions=1000,
        )
        report = diff_manifests(baseline, empty)
        assert not report.ok
        assert "missing" in report.failures[0].note

    def test_new_artifact_is_informational(self):
        empty = Manifest(
            code_fingerprint="f" * 20, seed=0, repeats=1,
            instructions=1000,
        )
        report = diff_manifests(empty, _manifest_with(1.0))
        assert report.ok
        assert "new artifact" in report.items[0].note

    def test_static_artifacts_compare_by_hash(self):
        base = Manifest(
            code_fingerprint="f" * 20, seed=0, repeats=1,
            instructions=1000,
        )
        base.add(dataclasses.replace(_ENTRY, content_sha256="aa"))
        same = Manifest.from_json(base.to_json())
        assert diff_manifests(base, same).ok
        changed = Manifest.from_json(base.to_json())
        changed.artifacts["fig"].content_sha256 = "bb"
        report = diff_manifests(base, changed)
        assert not report.ok
        assert "content hash changed" in report.failures[0].note

    def test_only_restricts_comparison(self):
        baseline = _manifest_with(1.00)
        current = _manifest_with(2.00)  # way out of tolerance
        report = diff_manifests(baseline, current, only={"other"})
        # "other" is absent from the baseline: that is itself a
        # failure, but the out-of-tolerance "fig" is never checked.
        assert all(item.artifact == "other" for item in report.items)

    def test_json_round_trip_preserves_diff_verdict(self, tmp_path):
        baseline = _manifest_with(1.00)
        current = _manifest_with(1.02)
        path = tmp_path / "b.json"
        baseline.save(path)
        loaded = Manifest.load(path)
        assert json.loads(path.read_text())["version"] == loaded.version
        assert diff_manifests(loaded, current).ok


class TestParallelCacheSummary:
    def test_summary_identical_serial_and_parallel(self, tmp_path,
                                                   monkeypatch):
        """Pool workers count their run-cache lookups in their own
        processes; the report summary must fold them back in."""
        from repro.perf.pool import shutdown_pool
        from repro.perf.runcache import default_cache
        from repro.report import pipeline

        labels = ("557.xz_r (SS)", "505.mcf_r (SS)", "541.leela_r (SS)")
        monkeypatch.setattr(pipeline, "ARTIFACTS", tuple(
            dataclasses.replace(spec, labels=labels)
            if spec.name == "fig10" else spec
            for spec in pipeline.ARTIFACTS
        ))
        monkeypatch.setenv("REPRO_WORKERS", "2")
        summaries = {}
        for flag in ("0", "1"):
            monkeypatch.setenv("REPRO_PARALLEL", flag)
            monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / flag))
            shutdown_pool()  # workers read REPRO_CACHE_DIR at spawn
            config = _small_config(
                tmp_path, out=tmp_path / f"out{flag}", repeats=1,
                instructions=1_000, only={"fig10"},
            )
            passes = [generate_report(config)[1] for _ in range(2)]
            summaries[flag] = [
                (counters["cache_hits"], counters["cache_misses"])
                for counters in passes
            ]
            assert default_cache().persistent_counters() == {
                "hits": sum(hits for hits, _ in summaries[flag]),
                "misses": sum(misses for _, misses in summaries[flag]),
            }
        shutdown_pool()
        assert summaries["0"] == summaries["1"] == [
            (0, len(labels)), (len(labels), 0),
        ]
