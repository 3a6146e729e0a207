"""JSONL and Prometheus exporters."""

import pytest

from repro.obs.exporters import (
    jsonl_line,
    load_snapshot,
    prometheus_text,
    read_jsonl,
    write_jsonl,
)
from repro.obs.snapshot import MetricsSnapshot


def _snap(n: int = 1) -> MetricsSnapshot:
    return MetricsSnapshot(
        counters={"core.cycles": 100 * n},
        gauges={"core.ipc": 1.25},
        histograms={"core.rob_pkru.occupancy": {0: 90 * n, 1: 10 * n}},
        meta={"label": "557.xz_r (SS)", "policy": "specmpk"},
    )


class TestJsonl:
    def test_line_is_single_compact_json(self):
        line = jsonl_line(_snap())
        assert "\n" not in line
        assert '"core.cycles": 100' in line

    def test_write_read_round_trip(self, tmp_path):
        path = tmp_path / "metrics.jsonl"
        written = write_jsonl(path, [_snap(1), _snap(2)])
        assert written == 2
        snapshots = read_jsonl(path)
        assert len(snapshots) == 2
        assert snapshots[1].counters["core.cycles"] == 200
        assert snapshots[1].histograms["core.rob_pkru.occupancy"] == {
            0: 180, 1: 20
        }

    def test_failed_write_keeps_earlier_content(self, tmp_path):
        path = tmp_path / "metrics.jsonl"
        write_jsonl(path, [_snap(1), _snap(2)])
        before = path.read_bytes()

        def interrupted():
            yield _snap(3)
            raise RuntimeError("report interrupted")

        with pytest.raises(RuntimeError):
            write_jsonl(path, interrupted())
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["metrics.jsonl"]

    def test_load_snapshot_accepts_json_and_jsonl(self, tmp_path):
        pretty = tmp_path / "one.json"
        pretty.write_text(_snap(3).to_json(indent=2))
        assert load_snapshot(pretty).counters["core.cycles"] == 300
        lines = tmp_path / "many.jsonl"
        write_jsonl(lines, [_snap(4), _snap(5)])
        assert load_snapshot(lines).counters["core.cycles"] == 400


class TestPrometheus:
    def test_counters_gauges_and_labels(self):
        text = prometheus_text(_snap())
        assert "# TYPE repro_core_cycles counter" in text
        assert ('repro_core_cycles{label="557.xz_r (SS)",'
                'policy="specmpk"} 100') in text
        assert "# TYPE repro_core_ipc gauge" in text
        assert "} 1.25" in text

    def test_histogram_buckets_are_cumulative(self):
        lines = prometheus_text(_snap()).splitlines()
        buckets = [l for l in lines if "_bucket" in l]
        # le=0 -> 90, le=1 -> 100, le=+Inf -> 100
        assert buckets[0].endswith(" 90") and 'le="0"' in buckets[0]
        assert buckets[1].endswith(" 100") and 'le="1"' in buckets[1]
        assert buckets[2].endswith(" 100") and 'le="+Inf"' in buckets[2]
        assert any(
            l.startswith("repro_core_rob_pkru_occupancy_sum") and
            l.endswith(" 10")  # 0*90 + 1*10
            for l in lines
        )
        assert any(
            l.startswith("repro_core_rob_pkru_occupancy_count") and
            l.endswith(" 100")
            for l in lines
        )

    def test_custom_prefix_and_name_sanitisation(self):
        snap = MetricsSnapshot(counters={"weird name!": 1}, meta={})
        text = prometheus_text(snap, prefix="x")
        assert "x_weird_name_ 1" in text
