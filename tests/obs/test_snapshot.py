"""Merge semantics and (de)serialization of MetricsSnapshot.

The load-bearing property is associativity: worker shards complete in
nondeterministic order, so ``(a + b) + c`` must equal ``a + (b + c)``
for the sweep aggregation to be deterministic.
"""

import itertools

from repro.obs.snapshot import MetricsSnapshot


def _shard(n: int) -> MetricsSnapshot:
    return MetricsSnapshot(
        counters={"core.cycles": 100 * n, "core.retired": 10 * n,
                  f"only.{n}": n},
        gauges={"core.ipc": 0.5 * n},
        histograms={"core.occ": {0: n, n: 2}},
        meta={"label": "w", "shard": n},
    )


class TestMerge:
    def test_counters_add_gauges_max_bins_add(self):
        merged = _shard(1).merge(_shard(3))
        assert merged.counters["core.cycles"] == 400
        assert merged.counters["only.1"] == 1
        assert merged.counters["only.3"] == 3
        assert merged.gauges["core.ipc"] == 1.5
        assert merged.histograms["core.occ"] == {0: 4, 1: 2, 3: 2}

    def test_meta_keeps_agreeing_keys_only(self):
        merged = _shard(1).merge(_shard(2))
        assert merged.meta == {"label": "w"}

    def test_empty_is_identity_both_sides(self):
        shard = _shard(2)
        left = MetricsSnapshot.empty().merge(shard)
        right = shard.merge(MetricsSnapshot.empty())
        assert left.as_dict() == shard.as_dict()
        assert right.as_dict() == shard.as_dict()

    def test_merge_is_associative_across_worker_shards(self):
        shards = [_shard(n) for n in (1, 2, 3, 4)]
        orderings = []
        for perm in itertools.permutations(range(4)):
            merged = MetricsSnapshot.empty()
            for index in perm:
                merged = merged.merge(shards[index])
            # Meta is order-independent too, except for ordering inside
            # dicts, which as_dict normalises.
            orderings.append(merged.as_dict())
        assert all(o == orderings[0] for o in orderings)
        # Grouping independence: (a+b)+(c+d) == ((a+b)+c)+d.
        ab = shards[0].merge(shards[1])
        cd = shards[2].merge(shards[3])
        grouped = ab.merge(cd).as_dict()
        assert grouped == orderings[0]

    def test_merge_does_not_mutate_operands(self):
        a, b = _shard(1), _shard(2)
        before = a.as_dict()
        a.merge(b)
        assert a.as_dict() == before


class TestDiff:
    def test_diff_subtracts_counters_and_bins(self):
        after = MetricsSnapshot(
            counters={"x": 10, "new": 3},
            gauges={"ipc": 1.5},
            histograms={"h": {0: 5, 1: 1}},
            meta={"label": "b"},
        )
        before = MetricsSnapshot(
            counters={"x": 4, "gone": 2},
            gauges={"ipc": 1.0},
            histograms={"h": {0: 5, 2: 7}},
            meta={"label": "a"},
        )
        delta = after.diff(before)
        assert delta.counters == {"x": 6, "new": 3, "gone": -2}
        assert delta.gauges == {"ipc": 0.5}
        assert delta.histograms["h"] == {1: 1, 2: -7}  # equal bins dropped
        assert delta.meta["diff_of"] == ("b", "a")

    def test_diff_drops_unchanged_counters(self):
        snap = MetricsSnapshot(counters={"x": 4, "zero": 0},
                               gauges={"ipc": 1.0})
        delta = snap.diff(snap)
        assert delta.counters == {}
        assert delta.top(10, by_magnitude=True) == []


class TestQueries:
    def test_get_prefers_counters_then_gauges(self):
        snap = MetricsSnapshot(counters={"a": 1}, gauges={"b": 2.0})
        assert snap.get("a") == 1
        assert snap.get("b") == 2.0
        assert snap.get("missing", -1) == -1

    def test_top_with_prefix_and_magnitude(self):
        snap = MetricsSnapshot(counters={
            "mpk.checks.load": 50, "mpk.checks.store": -80,
            "mpkother": 999, "core.cycles": 10,
        })
        assert snap.top(1) == [("mpkother", 999)]
        names = [name for name, _ in snap.top(10, prefix="mpk")]
        assert set(names) == {"mpk.checks.load", "mpk.checks.store"}
        assert snap.top(1, prefix="mpk", by_magnitude=True) == [
            ("mpk.checks.store", -80)
        ]

    def test_top_breaks_ties_by_name(self):
        snap = MetricsSnapshot(counters={"b": 5, "c": -5, "a": 5, "d": 1})
        assert snap.top(3) == [("a", 5), ("b", 5), ("d", 1)]
        assert snap.top(3, by_magnitude=True) == [
            ("a", 5), ("b", 5), ("c", -5)
        ]


class TestSerialization:
    def test_round_trip_preserves_int_histogram_keys(self):
        snap = _shard(3)
        rebuilt = MetricsSnapshot.from_json(snap.to_json())
        assert rebuilt.as_dict() == snap.as_dict()
        assert rebuilt.histograms["core.occ"] == {0: 3, 3: 2}
        assert all(
            isinstance(key, int) for key in rebuilt.histograms["core.occ"]
        )
