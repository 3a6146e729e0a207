"""Tests for the ``python -m repro`` command-line driver."""

import pytest

from repro.__main__ import main


class TestInfo:
    def test_info_prints_configuration(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "352/128/72/160/280" in out
        assert "520.omnetpp_r (SS)" in out


class TestRun:
    def test_single_policy_run(self, capsys):
        assert main(["run", "557.xz_r (SS)", "--policy", "specmpk",
                     "--instructions", "2000"]) == 0
        out = capsys.readouterr().out
        assert "under specmpk" in out
        assert "IPC" in out

    def test_unknown_label_raises(self):
        from repro.harness import RequestError

        with pytest.raises(RequestError):
            main(["run", "nope (SS)", "--policy", "specmpk",
                  "--instructions", "1000"])


class TestTrace:
    """End-to-end smoke of the observability layer via the CLI."""

    def test_traced_run_emits_all_artifacts(self, tmp_path, capsys):
        import json

        assert main([
            "trace", "557.xz_r (SS)", "--policy", "specmpk",
            "--instructions", "2000", "--warmup", "500",
            "--out", str(tmp_path), "--last", "8",
        ]) == 0
        out = capsys.readouterr().out
        # Top-down report printed and reconciled.
        assert "top-down CPI accounting" in out
        assert "reconciliation error 0.00%" in out
        # Chrome trace is valid JSON with real content.
        json_files = list(tmp_path.glob("*.trace.json"))
        assert len(json_files) == 1
        doc = json.loads(json_files[0].read_text())
        assert doc["traceEvents"]
        assert any(e["ph"] == "X" for e in doc["traceEvents"])
        # Konata-style text view written and printed.
        text_files = list(tmp_path.glob("*.pipeline.txt"))
        assert len(text_files) == 1
        assert "pipeline view" in text_files[0].read_text()
        assert "pipeline view" in out

    def test_single_format_selection(self, tmp_path, capsys):
        assert main([
            "trace", "557.xz_r (SS)", "--instructions", "1500",
            "--warmup", "300", "--out", str(tmp_path),
            "--format", "topdown",
        ]) == 0
        out = capsys.readouterr().out
        assert "top-down CPI accounting" in out
        assert not list(tmp_path.glob("*.json"))
        assert not list(tmp_path.glob("*.pipeline.txt"))


class TestCheckpoint:
    def test_checkpoint_write_and_measure(self, tmp_path, capsys):
        out = tmp_path / "xz.ckpt"
        assert main([
            "checkpoint", "557.xz_r (SS)", "--at", "5000",
            "--out", str(out), "--measure", "1500",
            "--policy", "specmpk",
        ]) == 0
        assert out.exists()
        text = capsys.readouterr().out
        assert "position    : 5000 instructions" in text
        assert "resumed specmpk" in text
        assert "IPC" in text

    def test_checkpoint_roundtrips_through_file(self, tmp_path):
        from repro.state import Checkpoint

        out = tmp_path / "xz.ckpt"
        assert main([
            "checkpoint", "557.xz_r (SS)", "--at", "3000",
            "--out", str(out),
        ]) == 0
        checkpoint = Checkpoint.load(out)
        assert checkpoint.instructions == 3000
        assert checkpoint.warmup is not None


class TestSimpoint:
    def test_simpoint_reports_weighted_ipc(self, capsys):
        assert main([
            "simpoint", "557.xz_r (SS)", "--policy", "specmpk",
            "--interval-length", "2000", "--profile-instructions", "20000",
            "--top-n", "2",
        ]) == 0
        out = capsys.readouterr().out
        assert "simpoints over" in out
        assert "weighted IPC (checkpointed)" in out
        assert "specmpk" in out

    def test_simpoint_json(self, capsys):
        import json

        assert main([
            "simpoint", "557.xz_r (SS)", "--policy", "specmpk",
            "--interval-length", "2000", "--profile-instructions", "20000",
            "--top-n", "2", "--json",
        ]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["fastforward"] is True
        assert doc["weighted_ipc"]["specmpk"] > 0
        assert doc["points"]


class TestMetrics:
    def test_dump_json_to_stdout(self, capsys):
        import json

        assert main([
            "metrics", "dump", "557.xz_r (SS)", "--policy", "specmpk",
            "--instructions", "2000",
        ]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["counters"]["core.wrpkru_retired"] > 0
        assert "core.rob_pkru.occupancy" in doc["histograms"]
        assert doc["meta"]["policy"] == "specmpk"

    def test_dump_prometheus_to_file(self, tmp_path, capsys):
        out = tmp_path / "run.prom"
        assert main([
            "metrics", "dump", "557.xz_r (SS)", "--policy", "specmpk",
            "--instructions", "2000", "--format", "prom",
            "--out", str(out),
        ]) == 0
        assert f"metrics written to {out}" in capsys.readouterr().out
        text = out.read_text()
        assert "# TYPE repro_core_cycles counter" in text
        assert "repro_core_rob_pkru_occupancy_bucket" in text

    def test_diff_and_top(self, tmp_path, capsys):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        assert main(["metrics", "dump", "557.xz_r (SS)",
                     "--policy", "specmpk", "--instructions", "2000",
                     "--out", str(a)]) == 0
        assert main(["metrics", "dump", "557.xz_r (SS)",
                     "--policy", "serialized", "--instructions", "2000",
                     "--out", str(b)]) == 0
        capsys.readouterr()
        assert main(["metrics", "diff", str(a), str(b), "-n", "5"]) == 0
        out = capsys.readouterr().out
        assert "top 5 by |change|" in out
        assert main(["metrics", "top", str(a), "-n", "3",
                     "--prefix", "mpk"]) == 0
        out = capsys.readouterr().out
        assert "mpk." in out

    def test_diff_against_itself_has_no_movers(self, tmp_path, capsys):
        from repro.obs import MetricsSnapshot

        snap = tmp_path / "a.json"
        snap.write_text(MetricsSnapshot(
            counters={"core.cycles": 900, "mpk.checks.load": 12,
                      "memory.l1d.misses": 0},
            gauges={"core.ipc": 1.25},
            meta={"label": "557.xz_r (SS)"},
        ).to_json())
        assert main(["metrics", "diff", str(snap), str(snap)]) == 0
        out = capsys.readouterr().out
        assert "(no counter changed)" in out
        assert "+0" not in out

    def test_missing_subcommand_exits(self):
        with pytest.raises(SystemExit):
            main(["metrics"])


class TestAttack:
    def test_v1_attack_reports_all_policies(self, capsys):
        assert main(["attack", "v1"]) == 0  # 0: leaked under NonSecure
        out = capsys.readouterr().out
        assert out.count("mitigated") == 2
        assert out.count("LEAKED") == 1


class TestReproduce:
    def test_subset_writes_files(self, tmp_path, capsys):
        assert main([
            "reproduce", "--experiments", "table2,table3,hw",
            "--out", str(tmp_path),
        ]) == 0
        assert (tmp_path / "table2.txt").exists()
        assert (tmp_path / "table3.txt").exists()
        assert "93" in (tmp_path / "hw_overhead.txt").read_text() or (
            "94" in (tmp_path / "hw_overhead.txt").read_text()
        )

    def test_fig13_reproduction(self, tmp_path):
        assert main([
            "reproduce", "--experiments", "fig13", "--out", str(tmp_path),
        ]) == 0
        text = (tmp_path / "fig13.txt").read_text()
        assert "cached" in text

    def test_shards_flag_is_accepted(self, tmp_path):
        """``--shards`` parses on the reproduce surface (threading into
        the figure drivers is covered by the harness runner tests)."""
        assert main([
            "reproduce", "--experiments", "table2", "--shards", "2",
            "--out", str(tmp_path),
        ]) == 0
        assert (tmp_path / "table2.txt").exists()


class TestService:
    """submit / serve / status against a spool directory."""

    def _submit(self, spool, *extra):
        return main([
            "submit", "557.xz_r (SS)", "--policy", "specmpk",
            "--instructions", "500", "--spool", str(spool),
            "--batch-id", "b1", *extra,
        ])

    def test_submit_serve_status_round_trip(self, tmp_path, capsys):
        import json

        spool = tmp_path / "spool"
        assert self._submit(spool, "--json") == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["batch"] == "b1"
        assert doc["submitted"] == 1 and doc["pending"] == 1

        assert main(["serve", "--spool", str(spool), "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["settled"] == 1 and doc["done"] == 1

        metrics_out = tmp_path / "batch.jsonl"
        assert main(["status", "b1", "--spool", str(spool),
                     "--metrics-out", str(metrics_out), "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["done"] == 1 and doc["pending"] == 0
        lines = metrics_out.read_text().splitlines()
        assert len(lines) == 1
        snapshot = json.loads(lines[0])
        assert snapshot["counters"]["core.instructions_retired"] >= 500

    def test_resubmission_deduplicates(self, tmp_path, capsys):
        import json

        spool = tmp_path / "spool"
        assert self._submit(spool) == 0
        capsys.readouterr()
        assert main([
            "submit", "557.xz_r (SS)", "--policy", "specmpk",
            "--instructions", "500", "--spool", str(spool), "--json",
        ]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["deduped"] == 1 and doc["pending"] == 1

    def test_whole_spool_status(self, tmp_path, capsys):
        spool = tmp_path / "spool"
        assert self._submit(spool) == 0
        capsys.readouterr()
        assert main(["status", "--spool", str(spool)]) == 0
        out = capsys.readouterr().out
        assert "1 pending" in out
        assert "batch b1" in out

    def test_sharded_submit_and_watch(self, tmp_path, capsys,
                                      monkeypatch):
        import json

        monkeypatch.setenv("REPRO_PARALLEL", "0")
        spool = tmp_path / "spool"
        assert self._submit(spool, "--time-shards", "2",
                            "--shard-warmup", "100", "--json") == 0
        capsys.readouterr()
        # The spooled job carries the shard knobs.
        from repro.service import SpoolDir

        spool_dir = SpoolDir(spool)
        job_id = spool_dir.batch_jobs("b1")[0]
        doc = spool_dir.job_doc(job_id)
        assert doc["request"]["time_shards"] == 2
        assert doc["request"]["shard_warmup"] == 100

        assert main(["serve", "--spool", str(spool), "--json"]) == 0
        served = json.loads(capsys.readouterr().out)
        assert served["done"] == 1
        # Watching a settled batch renders progress and exits cleanly.
        assert self._submit(spool, "--time-shards", "2",
                            "--shard-warmup", "100", "--watch",
                            "--poll-interval", "0.01") == 0
        assert "[batch] 1/1" in capsys.readouterr().err

    def test_submit_without_workloads_errors(self, tmp_path, capsys):
        assert main(["submit", "--spool", str(tmp_path / "s")]) == 2
        assert "no workloads" in capsys.readouterr().err

    def test_submit_unknown_label_errors(self, tmp_path, capsys):
        assert main(["submit", "bogus", "--spool",
                     str(tmp_path / "s")]) == 2
        assert "unknown workload label" in capsys.readouterr().err

    def test_unknown_batch_status_errors(self, tmp_path, capsys):
        assert main(["status", "nope", "--spool",
                     str(tmp_path / "s")]) == 2
        assert "unknown batch" in capsys.readouterr().err


class TestArgs:
    def test_missing_command_exits(self):
        with pytest.raises(SystemExit):
            main([])

    def test_bad_attack_name_exits(self):
        with pytest.raises(SystemExit):
            main(["attack", "rowhammer"])


class TestCompile:
    def test_compile_and_run(self, tmp_path, capsys):
        source = tmp_path / "prog.mc"
        source.write_text(
            "fn main() { var i = 0; var s = 0;"
            " while (i < 5) { s = s + i; i = i + 1; } return s; }"
        )
        assert main(["compile", str(source), "--policy", "specmpk"]) == 0
        out = capsys.readouterr().out
        assert "main() = 10" in out

    def test_emit_asm(self, tmp_path, capsys):
        source = tmp_path / "prog.mc"
        source.write_text("fn main() { return 7; }")
        assert main(["compile", str(source), "--emit-asm"]) == 0
        out = capsys.readouterr().out
        assert "fn_main:" in out
        assert "halt" in out

    def test_protected_build_flags(self, tmp_path, capsys):
        source = tmp_path / "prog.mc"
        source.write_text(
            "secure s[2] = {9};\nfn main() { return s[0]; }"
        )
        assert main(["compile", str(source), "--shadow-stack",
                     "--policy", "all"]) == 0
        out = capsys.readouterr().out
        assert out.count("main() = 9") == 3


class TestBench:
    """The ``bench kernel`` subcommand (staged-engine throughput)."""

    ARGS = ["bench", "kernel", "--labels", "548.exchange2_r (SS)",
            "--instructions", "800", "--warmup", "200", "--repeats", "1"]

    def test_kernel_bench_reports_kips(self, capsys):
        assert main(self.ARGS) == 0
        out = capsys.readouterr().out
        assert "548.exchange2_r (SS)" in out
        assert "KIPS" in out
        assert "geomean" in out

    def test_compare_runs_both_engines(self, tmp_path, capsys):
        import json

        out_file = tmp_path / "compare.json"
        assert main(self.ARGS + ["--compare", "--json",
                                 "--out", str(out_file)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report == json.loads(out_file.read_text())
        label = "548.exchange2_r (SS)"
        assert report["staged"][label] > 0
        assert report["single_step"][label] > 0
        assert report["speedup"][label] == pytest.approx(
            report["staged"][label] / report["single_step"][label],
            rel=0.02,
        )
        assert report["geomean_speedup"] > 0

    def _baseline(self, tmp_path, floor):
        import json

        path = tmp_path / "BENCH_kernel.json"
        path.write_text(json.dumps({
            "optimized_kips": {"548.exchange2_r (SS)": floor},
            "regression_tolerance": 0.2,
        }))
        return path

    def test_baseline_gate_passes_above_floor(self, tmp_path, capsys):
        baseline = self._baseline(tmp_path, floor=0.001)
        assert main(self.ARGS + ["--baseline", str(baseline)]) == 0
        assert "REGRESSION" not in capsys.readouterr().out

    def test_baseline_gate_fails_below_floor(self, tmp_path, capsys,
                                             monkeypatch):
        monkeypatch.delenv("REPRO_KIPS_SCALE", raising=False)
        baseline = self._baseline(tmp_path, floor=1e9)
        assert main(self.ARGS + ["--baseline", str(baseline)]) == 1
        assert "REGRESSION" in capsys.readouterr().out


class TestBenchFullrun:
    """The ``bench fullrun`` subcommand (time-sharded speedup gate)."""

    ARGS = ["bench", "fullrun", "--labels", "557.xz_r (SS)",
            "--instructions", "2000", "--warmup", "500",
            "--shards", "2", "--shard-warmup", "100", "--repeats", "1"]

    @pytest.fixture(autouse=True)
    def _inline(self, monkeypatch):
        monkeypatch.setenv("REPRO_PARALLEL", "0")
        monkeypatch.delenv("REPRO_FULLRUN_SCALE", raising=False)

    def test_reports_speedup_and_accuracy(self, tmp_path, capsys):
        import json

        out_file = tmp_path / "fullrun.json"
        assert main(self.ARGS + ["--json", "--out", str(out_file)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report == json.loads(out_file.read_text())
        entry = report["labels"]["557.xz_r (SS)"]
        assert entry["retired_exact"] is True
        assert entry["retired_sharded"] == 2000
        assert entry["speedup"] > 0
        assert report["geomean_speedup"] > 0

    def _baseline(self, tmp_path, **overrides):
        import json

        doc = {
            "speedup_floor": 0.001,
            "min_effective_workers": 1,
            "max_ipc_error_percent": 10.0,
            "regression_tolerance": 0.2,
        }
        doc.update(overrides)
        path = tmp_path / "BENCH_fullrun.json"
        path.write_text(json.dumps(doc))
        return path

    def test_gate_passes_within_bounds(self, tmp_path, capsys):
        baseline = self._baseline(tmp_path)
        assert main(self.ARGS + ["--baseline", str(baseline)]) == 0
        assert "REGRESSION" not in capsys.readouterr().out

    def test_gate_fails_below_speedup_floor(self, tmp_path, capsys):
        baseline = self._baseline(tmp_path, speedup_floor=1e9)
        assert main(self.ARGS + ["--baseline", str(baseline)]) == 1
        assert "REGRESSION" in capsys.readouterr().out

    def test_speedup_floor_waived_without_parallel_hardware(
        self, tmp_path, capsys
    ):
        # An unreachable floor that only applies on >=10**6-core hosts:
        # the accuracy bounds still pass, so the gate must pass.
        baseline = self._baseline(
            tmp_path, speedup_floor=1e9, min_effective_workers=10**6
        )
        assert main(self.ARGS + ["--baseline", str(baseline)]) == 0

    def test_gate_fails_on_accuracy(self, tmp_path, capsys):
        # A negative bound no measurement can satisfy: exercises the
        # accuracy-failure path deterministically (the real error can
        # round to 0.0000%).
        baseline = self._baseline(
            tmp_path, max_ipc_error_percent=-1.0,
            min_effective_workers=10**6,
        )
        assert main(self.ARGS + ["--baseline", str(baseline)]) == 1
        assert "IPC off by" in capsys.readouterr().out

    def test_kips_scale_normalises_the_floor(self, tmp_path, capsys,
                                             monkeypatch):
        """A slow host exports REPRO_KIPS_SCALE < 1: the same reference
        floor that fails at scale 1.0 passes once normalised."""
        baseline = self._baseline(tmp_path, floor=1e9)
        monkeypatch.setenv("REPRO_KIPS_SCALE", "1e-12")
        assert main(self.ARGS + ["--baseline", str(baseline)]) == 0


class TestReport:
    """The provenance-ledger pipeline via the CLI (static subset)."""

    def _generate(self, out, *extra):
        return main([
            "report", "all", "--only", "hw,table3", "--repeats", "1",
            "--out", str(out), *extra,
        ])

    def test_report_writes_ledger_and_baseline(self, tmp_path, capsys):
        import json

        out = tmp_path / "final"
        assert self._generate(out, "--write-baseline", "--json") == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["artifacts"] == ["hw", "table3"]
        assert doc["baseline_written"] is True
        for name in ("manifest.json", "manifest.md", "baseline.json",
                     "hw_overhead.txt", "table3_configuration.txt"):
            assert (out / name).exists()

    def test_diff_clean_against_fresh_baseline(self, tmp_path, capsys):
        out = tmp_path / "final"
        assert self._generate(out, "--write-baseline") == 0
        capsys.readouterr()
        assert main(["report", "diff", "--out", str(out)]) == 0
        assert "clean" in capsys.readouterr().out

    def test_diff_detects_content_change(self, tmp_path, capsys):
        import json

        out = tmp_path / "final"
        assert self._generate(out, "--write-baseline") == 0
        baseline = out / "baseline.json"
        doc = json.loads(baseline.read_text())
        doc["artifacts"]["hw"]["content_sha256"] = "0" * 64
        baseline.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["report", "diff", "--out", str(out)]) == 1
        assert "content hash changed" in capsys.readouterr().out

    def test_diff_rejects_budget_mismatch(self, tmp_path, capsys):
        import json

        out = tmp_path / "final"
        assert self._generate(out, "--write-baseline") == 0
        baseline = out / "baseline.json"
        doc = json.loads(baseline.read_text())
        doc["repeats"] = 99
        baseline.write_text(json.dumps(doc))
        assert main(["report", "diff", "--out", str(out)]) == 2
        assert "different budgets" in capsys.readouterr().err

    def test_diff_without_manifest_errors(self, tmp_path, capsys):
        assert main(["report", "diff", "--out",
                     str(tmp_path / "nope")]) == 2
        assert "repro report all" in capsys.readouterr().err

    def test_unknown_artifact_errors(self, tmp_path, capsys):
        assert main(["report", "all", "--only", "fig99",
                     "--out", str(tmp_path)]) == 2
        assert "unknown artifact" in capsys.readouterr().err


class TestStatusShards:
    """`repro status <batch>` surfaces intra-job shard progress."""

    def _spool_with_progress(self, tmp_path):
        from repro.core import WrpkruPolicy
        from repro.harness import RunRequest
        from repro.service import SpoolDir

        spool = SpoolDir(tmp_path / "spool")
        job_id, _, _ = spool.add_job(RunRequest(
            workload="557.xz_r (SS)", policy=WrpkruPolicy.SPECMPK,
            instructions=500, warmup=100, time_shards=4,
        ))
        spool.create_batch([job_id], batch_id="b1")
        spool.claim(job_id)
        spool.note_shards(job_id, 2, 4)
        return spool

    def test_json_view_carries_shard_counts(self, tmp_path, capsys):
        import json

        spool = self._spool_with_progress(tmp_path)
        assert main(["status", "b1", "--spool", str(spool.root),
                     "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        (job,) = doc["jobs"]
        assert job["state"] == "running"
        assert job["shards_done"] == 2 and job["shards_total"] == 4

    def test_text_view_renders_shard_column(self, tmp_path, capsys):
        spool = self._spool_with_progress(tmp_path)
        assert main(["status", "b1", "--spool", str(spool.root)]) == 0
        out = capsys.readouterr().out
        assert "shard 2/4" in out
        assert "running" in out
