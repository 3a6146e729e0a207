"""Tests for the synthetic workload generator and instrumentation."""

import pickle

import pytest

from repro.core import CoreConfig, Simulator, WrpkruPolicy
from repro.isa import Emulator, EmulatorLimitExceeded
from repro.workloads import (
    ALL_PROFILES,
    InstrumentMode,
    build_workload,
    profile_by_label,
)


def run_functional(workload, budget=30_000):
    emulator = Emulator(workload.program, pkru=workload.initial_pkru)
    try:
        emulator.run(max_instructions=budget)
    except EmulatorLimitExceeded:
        pass  # the outer loop is effectively unbounded by design
    return emulator


class TestDeterminism:
    def test_same_profile_same_program(self):
        profile = profile_by_label("541.leela_r (SS)")
        first = build_workload(profile)
        second = build_workload(profile)
        assert len(first.program) == len(second.program)
        assert all(
            a.render() == b.render()
            for a, b in zip(first.program.instructions,
                            second.program.instructions)
        )

    def test_built_workload_pickles_round_trip(self):
        """Pool workers receive programs by pickle (parallel SimPoint,
        time shards of seed variants): every decoded field must come
        back, evaluators included, and execution must not change."""
        from repro.isa.instruction import Instruction
        from repro.workloads import seed_variant

        workload = build_workload(
            seed_variant("520.omnetpp_r (SS)", 1), InstrumentMode.PROTECTED
        )
        copy = pickle.loads(pickle.dumps(workload))
        assert copy.profile == workload.profile
        assert copy.protection_pcs == workload.protection_pcs
        assert copy.program.labels == workload.program.labels
        for original, restored in zip(workload.program.instructions,
                                      copy.program.instructions):
            for name in Instruction.__slots__:
                assert getattr(restored, name) == getattr(original, name)
        first, second = run_functional(workload), run_functional(copy)
        assert first.state.regs == second.state.regs
        assert first.state.pc == second.state.pc
        assert first.wrpkru_executed == second.wrpkru_executed


class TestFunctionalSoundness:
    @pytest.mark.parametrize(
        "label", ["520.omnetpp_r (SS)", "505.mcf_r (SS)", "471.omnetpp (CPI)",
                  "401.bzip2 (CPI)"],
    )
    def test_protected_build_runs_without_faults(self, label):
        workload = build_workload(profile_by_label(label))
        emulator = run_functional(workload)
        assert emulator.instructions_executed == 30_000
        # The SS violation stub must never be reached.
        assert emulator.state.regs[28] != 0xDEAD

    @pytest.mark.parametrize("mode", list(InstrumentMode))
    def test_all_modes_run(self, mode):
        workload = build_workload(
            profile_by_label("541.leela_r (SS)"), mode
        )
        run_functional(workload, budget=10_000)

    def test_uninstrumented_has_no_wrpkru(self):
        workload = build_workload(
            profile_by_label("520.omnetpp_r (SS)"), InstrumentMode.NONE
        )
        assert workload.static_wrpkru == 0
        assert workload.initial_pkru == 0

    def test_nop_mode_has_no_wrpkru_but_same_layout_cost(self):
        profile = profile_by_label("520.omnetpp_r (SS)")
        nop = build_workload(profile, InstrumentMode.PROTECTED_NOP)
        protected = build_workload(profile, InstrumentMode.PROTECTED)
        assert nop.static_wrpkru == 0
        # NOP substitution preserves the instruction count exactly.
        assert len(nop.program) == len(protected.program)

    def test_protected_build_issues_wrpkru_dynamically(self):
        workload = build_workload(profile_by_label("520.omnetpp_r (SS)"))
        emulator = run_functional(workload)
        assert emulator.wrpkru_executed > 10


class TestDensityOrdering:
    def test_fig10_ordering(self):
        """omnetpp must dominate; mcf/xz/exchange2 must be near zero."""
        def density(label):
            workload = build_workload(profile_by_label(label))
            emulator = run_functional(workload)
            return 1000 * emulator.wrpkru_executed / emulator.instructions_executed

        omnetpp = density("520.omnetpp_r (SS)")
        leela = density("541.leela_r (SS)")
        mcf = density("505.mcf_r (SS)")
        assert omnetpp > leela > mcf
        assert mcf < 1.0

    def test_cpi_densities(self):
        def density(label):
            workload = build_workload(profile_by_label(label))
            emulator = run_functional(workload)
            return 1000 * emulator.wrpkru_executed / emulator.instructions_executed

        assert density("471.omnetpp (CPI)") > density("483.xalancbmk (CPI)")
        assert density("401.bzip2 (CPI)") < 1.0


class TestTimingBehaviour:
    def test_serialization_hurts_call_heavy_workload(self):
        workload = build_workload(profile_by_label("520.omnetpp_r (SS)"))

        def ipc(policy):
            sim = Simulator(
                workload.program, CoreConfig(wrpkru_policy=policy),
                initial_pkru=workload.initial_pkru,
            )
            sim.prewarm_tlb()
            sim.run(max_instructions=8000, warmup_instructions=2000,
                    max_cycles=2_000_000)
            return sim.stats.ipc

        serialized = ipc(WrpkruPolicy.SERIALIZED)
        specmpk = ipc(WrpkruPolicy.SPECMPK)
        nonsecure = ipc(WrpkruPolicy.NONSECURE_SPEC)
        assert specmpk > serialized * 1.2
        # SpecMPK must land close to the NonSecure upper bound (Fig. 9).
        assert specmpk > nonsecure * 0.9

    def test_low_density_workload_unaffected(self):
        workload = build_workload(profile_by_label("557.xz_r (SS)"))

        def ipc(policy):
            sim = Simulator(
                workload.program, CoreConfig(wrpkru_policy=policy),
                initial_pkru=workload.initial_pkru,
            )
            sim.prewarm_tlb()
            sim.run(max_instructions=6000, warmup_instructions=2000,
                    max_cycles=2_000_000)
            return sim.stats.ipc

        serialized = ipc(WrpkruPolicy.SERIALIZED)
        specmpk = ipc(WrpkruPolicy.SPECMPK)
        assert abs(specmpk / serialized - 1) < 0.08


class TestProfiles:
    def test_all_profiles_build(self):
        for profile in ALL_PROFILES:
            workload = build_workload(profile)
            assert len(workload.program) > 100

    def test_labels_unique(self):
        labels = [profile.label for profile in ALL_PROFILES]
        assert len(labels) == len(set(labels)) == 22

    def test_unknown_label_raises(self):
        with pytest.raises(KeyError):
            profile_by_label("999.nonexistent (SS)")
