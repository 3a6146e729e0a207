"""Tests for BBV profiling and SimPoint selection."""

import pytest

from repro.isa import assemble
from repro.simpoint import (
    checkpoint_intervals,
    collect_bbv,
    select_simpoints,
    simpoint_ipc,
    weighted_ipc,
)
from repro.workloads import build_workload, profile_by_label

PHASED_PROGRAM = """
main:
    li r2, 60
phase_a:                 # ALU-ish phase
    addi r3, r3, 1
    addi r3, r3, 2
    addi r3, r3, 3
    addi r2, r2, -1
    bne r2, zero, phase_a
    li r2, 60
phase_b:                 # multiply-heavy phase
    mul r4, r3, r3
    mul r4, r4, r3
    mul r4, r4, r4
    addi r2, r2, -1
    bne r2, zero, phase_b
    halt
"""


class TestBbv:
    def test_intervals_cover_execution(self):
        program = assemble(PHASED_PROGRAM)
        profile = collect_bbv(program, interval_length=50)
        assert profile.num_intervals >= 10
        total = sum(sum(iv.values()) for iv in profile.intervals)
        assert total == profile.total_instructions

    def test_matrix_rows_normalised(self):
        program = assemble(PHASED_PROGRAM)
        profile = collect_bbv(program, interval_length=50)
        matrix = profile.matrix()
        assert matrix.shape[0] == profile.num_intervals
        assert all(abs(row.sum() - 1.0) < 1e-9 for row in matrix)

    def test_budget_limits_profiling(self):
        workload = build_workload(profile_by_label("541.leela_r (SS)"))
        profile = collect_bbv(
            workload.program, interval_length=1000,
            max_instructions=10_000, pkru=workload.initial_pkru,
        )
        assert profile.total_instructions == 10_000
        assert profile.num_intervals == 10


class TestSelection:
    def test_phases_distinguished(self):
        program = assemble(PHASED_PROGRAM)
        profile = collect_bbv(program, interval_length=50)
        selection = select_simpoints(profile, top_n=5)
        # Two distinct phases -> at least two clusters selected.
        assert len(selection.points) >= 2
        assert abs(sum(p.weight for p in selection.points) - 1.0) < 1e-9

    def test_top_n_limits_points(self):
        program = assemble(PHASED_PROGRAM)
        profile = collect_bbv(program, interval_length=20)
        selection = select_simpoints(profile, top_n=2)
        assert len(selection.points) <= 2

    def test_empty_profile_rejected(self):
        from repro.simpoint.bbv import BbvProfile

        with pytest.raises(ValueError):
            select_simpoints(BbvProfile(100))


class TestEndToEnd:
    def test_simpoint_ipc_close_to_full_run(self):
        """Weighted simpoint IPC must approximate a long detailed run."""
        from repro.core import CoreConfig, Simulator

        workload = build_workload(profile_by_label("541.leela_r (SS)"))
        approx = simpoint_ipc(
            workload.program,
            initial_pkru=workload.initial_pkru,
            interval_length=2000,
            profile_instructions=40_000,
            top_n=4,
        )
        sim = Simulator(workload.program, CoreConfig(),
                        initial_pkru=workload.initial_pkru)
        sim.prewarm_tlb()
        sim.run(max_instructions=20_000, warmup_instructions=4000,
                max_cycles=10_000_000)
        full = sim.stats.ipc
        assert approx == pytest.approx(full, rel=0.35)


class TestCheckpointedFlow:
    def _selection(self, workload, interval_length=2000):
        profile = collect_bbv(
            workload.program, interval_length=interval_length,
            max_instructions=40_000, pkru=workload.initial_pkru,
        )
        return select_simpoints(profile, top_n=4)

    def test_checkpoints_land_before_their_intervals(self):
        workload = build_workload(profile_by_label("541.leela_r (SS)"))
        selection = self._selection(workload)
        checkpoints = checkpoint_intervals(
            workload.program, selection,
            initial_pkru=workload.initial_pkru, warmup_fraction=0.2,
        )
        assert len(checkpoints) == len(selection.points)
        warmup = int(selection.interval_length * 0.2)
        for point, checkpoint in zip(selection.points, checkpoints):
            assert checkpoint is not None
            start = point.interval_index * selection.interval_length
            assert checkpoint.instructions == max(0, start - warmup)
            assert checkpoint.warmup is not None

    def test_fastforward_matches_full_prefix_path(self):
        """The checkpointed path must agree with timing-simulating the
        whole prefix of every interval (the acceptance bound is 2%)."""
        workload = build_workload(profile_by_label("541.leela_r (SS)"))
        selection = self._selection(workload)
        slow = weighted_ipc(
            workload.program, selection,
            initial_pkru=workload.initial_pkru, fastforward=False,
        )
        fast = weighted_ipc(
            workload.program, selection,
            initial_pkru=workload.initial_pkru,
        )
        assert fast == pytest.approx(slow, rel=0.02)

    def test_parallel_path_agrees_with_serial(self):
        workload = build_workload(profile_by_label("541.leela_r (SS)"))
        # Two intervals: a single job would be measured inline and the
        # pool path (which pickles the program) would never run.
        selection = self._selection(workload, interval_length=1000)
        assert len(selection.points) > 1
        serial = weighted_ipc(
            workload.program, selection,
            initial_pkru=workload.initial_pkru,
        )
        parallel = weighted_ipc(
            workload.program, selection,
            initial_pkru=workload.initial_pkru,
            parallel=True, max_workers=2,
        )
        assert parallel == pytest.approx(serial, rel=1e-12)
