"""One entry point per paper table/figure (the experiment index).

Each ``figN_*`` / ``tableN_*`` function regenerates the corresponding
result and returns a list of *typed rows* — small frozen dataclasses
(one per figure) that still quack like the dicts they replaced:
``row["key"]``, ``row.items()`` and ``row.as_dict()`` all work, so
:mod:`repro.harness.reporting` and every existing benchmark render
them unchanged while new callers get attribute access and type
checking.  The benchmarks under ``benchmarks/`` are thin wrappers
around these.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Iterable, List, Optional, Tuple, Union

from ..analysis.hardware_cost import HardwareCost
from ..analysis.isolation_taxonomy import table_i, verify_probes
from ..attacks import build_spectre_v1_poc, run_attack
from ..core.config import CoreConfig, WrpkruPolicy, table_iii_config
from ..perf.runcache import memoized
from ..workloads.instrument import InstrumentMode
from ..workloads.profiles import ALL_PROFILES, WorkloadProfile, label_of
from .runner import (
    geomean,
    normalized_ipc,
    run_workload,
    sweep_policies,
)


class Row:
    """Mixin giving experiment-row dataclasses dict-style access.

    ``as_dict()`` is the export surface consumed by
    ``reporting.render_table`` / ``reporting.export_csv``; the mapping
    dunders keep ``row["key"]`` / ``row.items()`` / ``list(row)``
    working for callers written against the old plain-dict rows.
    """

    def as_dict(self) -> Dict[str, object]:
        return {
            field.name: getattr(self, field.name)
            for field in dataclasses.fields(self)
        }

    def __getitem__(self, key: str):
        return self.as_dict()[key]

    def __iter__(self):
        return iter(self.as_dict())

    def __contains__(self, key: str) -> bool:
        return key in self.as_dict()

    def keys(self):
        return self.as_dict().keys()

    def items(self):
        return self.as_dict().items()

    def get(self, key: str, default=None):
        return self.as_dict().get(key, default)


@dataclasses.dataclass(frozen=True)
class Fig3Row(Row):
    """Fig. 3: speculative-WRPKRU speedup and rename-stall share."""

    workload: str
    speedup: float
    rename_stall_fraction: float


@dataclasses.dataclass(frozen=True)
class Fig4Row(Row):
    """Fig. 4: compiler vs serialization overhead split."""

    workload: str
    compiler_overhead: float
    serialization_overhead: float
    total_overhead: float


@dataclasses.dataclass(frozen=True)
class Fig9Row(Row):
    """Fig. 9: normalized IPC of both speculative microarchitectures."""

    workload: str
    nonsecure_specmpk: float
    specmpk: float
    wrpkru_per_kilo: float


@dataclasses.dataclass(frozen=True)
class Fig10Row(Row):
    """Fig. 10: WRPKRU density in the dynamic instruction stream."""

    workload: str
    wrpkru_per_kilo: float


@dataclasses.dataclass(frozen=True)
class Fig11Row(Row):
    """Fig. 11: normalized IPC per ROB_pkru size, plus the bound.

    ``specmpk_by_size`` maps the rendered column label (e.g.
    ``"specmpk_8 (1/44)"``) to the normalized IPC at that size; the
    flattened ``as_dict`` keeps the original wide-table shape.
    """

    workload: str
    specmpk_by_size: Tuple[Tuple[str, float], ...]
    nonsecure: float

    def as_dict(self) -> Dict[str, object]:
        flat: Dict[str, object] = {"workload": self.workload}
        flat.update(self.specmpk_by_size)
        flat["nonsecure"] = self.nonsecure
        return flat


@dataclasses.dataclass(frozen=True)
class Table2Row(Row):
    """Table II: source operands SpecMPK adds per instruction type."""

    instruction_type: str
    new_source_operands: str

    def as_dict(self) -> Dict[str, object]:
        return {
            "Instruction Type": self.instruction_type,
            "New Source Operands": self.new_source_operands,
        }


@dataclasses.dataclass(frozen=True)
class Table3Row(Row):
    """Table III: one simulated-core configuration parameter."""

    parameter: str
    value: str

    def as_dict(self) -> Dict[str, object]:
        return {"Parameter": self.parameter, "Value": self.value}

#: Workloads the Fig. 11 sensitivity study highlights (high WRPKRU
#: density; the paper names these as the ROB_pkru-sensitive ones).
FIG11_WORKLOADS = [
    "500.perlbench_r (SS)",
    "502.gcc_r (SS)",
    "520.omnetpp_r (SS)",
    "531.deepsjeng_r (SS)",
    "541.leela_r (SS)",
    "453.povray (CPI)",
    "471.omnetpp (CPI)",
]


# ---------------------------------------------------------------------------
# Fig. 3 — speedup of speculative WRPKRU + rename-stall fraction
# ---------------------------------------------------------------------------

def fig3_serialization_study(
    labels: Optional[Iterable[str]] = None,
    instructions: Optional[int] = None,
    time_shards: Optional[int] = None,
) -> List[Fig3Row]:
    """Speedup from speculative WRPKRU execution and the fraction of
    cycles the rename stage stalls for WRPKRU serialization."""
    results = sweep_policies(
        labels,
        policies=(WrpkruPolicy.SERIALIZED, WrpkruPolicy.NONSECURE_SPEC),
        instructions=instructions,
        time_shards=time_shards,
    )
    rows = []
    for label, by_policy in results.items():
        serialized = by_policy[WrpkruPolicy.SERIALIZED]
        speculative = by_policy[WrpkruPolicy.NONSECURE_SPEC]
        rows.append(
            Fig3Row(
                workload=label_of(label),
                speedup=speculative.ipc / serialized.ipc - 1.0,
                rename_stall_fraction=serialized.rename_stall_fraction,
            )
        )
    rows.append(
        Fig3Row(
            workload="average",
            speedup=geomean([1 + row.speedup for row in rows]) - 1.0,
            rename_stall_fraction=sum(
                row.rename_stall_fraction for row in rows
            ) / len(rows),
        )
    )
    return rows


# ---------------------------------------------------------------------------
# Fig. 4 — overhead breakdown (compiler transformation vs serialization)
# ---------------------------------------------------------------------------

def _useful_fraction(label: Union[str, WorkloadProfile],
                     mode: InstrumentMode, sample: int = 20_000) -> float:
    """Fraction of dynamic instructions that are *not* instrumentation.

    Instrumented builds execute extra instructions for the same work;
    comparing raw CPI across modes would credit the padding.  Measured
    functionally (the architectural path is identical to the pipeline's
    committed path).  The value is a deterministic function of the
    generated program, so it is memoized in the run cache: a warm
    report neither rebuilds the workload nor re-steps it.
    """
    return memoized(
        "useful-fraction-v1",
        lambda: _count_useful_fraction(label, mode, sample),
        label, mode, sample,
    )


def _count_useful_fraction(label: Union[str, WorkloadProfile],
                           mode: InstrumentMode, sample: int) -> float:
    """The uncached probe: step *sample* instructions of the build.

    Single-stepping with a per-instruction observer beats counting on
    translated blocks here: translating every block costs more than a
    20k-instruction sample saves (docs/performance.md §3).
    """
    from ..isa.emulator import EmulatorLimitExceeded, make_emulator
    from .api import RunRequest, resolve_workload

    # The build the timing run of (label, mode) just used, not a second one.
    workload = resolve_workload(RunRequest(
        workload=label, policy=WrpkruPolicy.SERIALIZED, mode=mode,
    ))
    if not workload.protection_pcs:
        return 1.0
    marked = workload.protection_pcs
    counts = {"protection": 0}

    def observe(pc, inst):
        if pc in marked:
            counts["protection"] += 1

    emulator = make_emulator(workload)
    try:
        emulator.run(max_instructions=sample, observer=observe)
    except EmulatorLimitExceeded:
        pass
    executed = emulator.instructions_executed
    return 1.0 - counts["protection"] / executed if executed else 1.0


def fig4_overhead_breakdown(
    labels: Optional[Iterable[str]] = None,
    instructions: Optional[int] = None,
    time_shards: Optional[int] = None,
) -> List[Fig4Row]:
    """Split total protection overhead into compiler-transformation and
    WRPKRU-serialization parts via the paper's NOP-substitution trick.

    Overheads are cycles per *useful* (non-instrumentation) instruction
    so the padded instruction counts of instrumented builds do not skew
    the comparison.
    """
    if labels is None:
        labels = [profile.label for profile in ALL_PROFILES]
    rows = []
    for label in labels:
        costs = {}
        for mode in InstrumentMode:
            stats = run_workload(
                label, WrpkruPolicy.SERIALIZED, mode=mode,
                instructions=instructions, time_shards=time_shards,
            )
            useful = _useful_fraction(label, mode)
            costs[mode] = stats.cycles / (
                stats.instructions_retired * useful
            )
        base = costs[InstrumentMode.NONE]
        nop = costs[InstrumentMode.PROTECTED_NOP]
        protected = costs[InstrumentMode.PROTECTED]
        rows.append(
            Fig4Row(
                workload=label_of(label),
                compiler_overhead=nop / base - 1.0,
                serialization_overhead=protected / nop - 1.0,
                total_overhead=protected / base - 1.0,
            )
        )
    rows.append(
        Fig4Row(
            workload="average",
            compiler_overhead=sum(
                r.compiler_overhead for r in rows
            ) / len(rows),
            serialization_overhead=sum(
                r.serialization_overhead for r in rows
            ) / len(rows),
            total_overhead=sum(
                r.total_overhead for r in rows
            ) / len(rows),
        )
    )
    return rows


# ---------------------------------------------------------------------------
# Fig. 9 — normalized IPC of SpecMPK and NonSecure SpecMPK
# ---------------------------------------------------------------------------

def fig9_normalized_ipc(
    labels: Optional[Iterable[str]] = None,
    instructions: Optional[int] = None,
    time_shards: Optional[int] = None,
) -> List[Fig9Row]:
    """Normalized IPC over the serialized-WRPKRU microarchitecture."""
    results = sweep_policies(
        labels, instructions=instructions, time_shards=time_shards
    )
    norm = normalized_ipc(results)
    rows = []
    for label, by_policy in norm.items():
        rows.append(
            Fig9Row(
                workload=label_of(label),
                nonsecure_specmpk=by_policy[WrpkruPolicy.NONSECURE_SPEC],
                specmpk=by_policy[WrpkruPolicy.SPECMPK],
                wrpkru_per_kilo=results[label][
                    WrpkruPolicy.SPECMPK
                ].wrpkru_per_kilo,
            )
        )
    rows.append(
        Fig9Row(
            workload="geomean",
            nonsecure_specmpk=geomean(
                [row.nonsecure_specmpk for row in rows]
            ),
            specmpk=geomean([row.specmpk for row in rows]),
            wrpkru_per_kilo=sum(
                row.wrpkru_per_kilo for row in rows
            ) / len(rows),
        )
    )
    return rows


# ---------------------------------------------------------------------------
# Fig. 10 — WRPKRU frequency in the dynamic instruction stream
# ---------------------------------------------------------------------------

def fig10_wrpkru_frequency(
    labels: Optional[Iterable[str]] = None,
    instructions: Optional[int] = None,
    time_shards: Optional[int] = None,
) -> List[Fig10Row]:
    results = sweep_policies(
        labels, policies=(WrpkruPolicy.NONSECURE_SPEC,),
        instructions=instructions, time_shards=time_shards,
    )
    return [
        Fig10Row(
            workload=label_of(label),
            wrpkru_per_kilo=by_policy[
                WrpkruPolicy.NONSECURE_SPEC
            ].wrpkru_per_kilo,
        )
        for label, by_policy in results.items()
    ]


# ---------------------------------------------------------------------------
# Fig. 11 — sensitivity to the ROB_pkru size
# ---------------------------------------------------------------------------

def fig11_rob_pkru_sensitivity(
    rob_sizes: Iterable[int] = (2, 4, 8),
    labels: Optional[Iterable[str]] = None,
    instructions: Optional[int] = None,
    time_shards: Optional[int] = None,
) -> List[Fig11Row]:
    """Normalized IPC of SpecMPK with 2/4/8-entry ROB_pkru (the paper's
    1/96, 1/48, 1/24 Active List ratios) plus the NonSecure bound."""
    if labels is None:
        labels = FIG11_WORKLOADS
    rows = []
    for label in labels:
        serialized = run_workload(
            label, WrpkruPolicy.SERIALIZED, instructions=instructions,
            time_shards=time_shards,
        )
        by_size = []
        for size in rob_sizes:
            config = CoreConfig(
                wrpkru_policy=WrpkruPolicy.SPECMPK, rob_pkru_size=size
            )
            stats = run_workload(
                label, WrpkruPolicy.SPECMPK, instructions=instructions,
                config=config, time_shards=time_shards,
            )
            ratio = f"1/{config.active_list_size // size}"
            by_size.append(
                (f"specmpk_{size} ({ratio})", stats.ipc / serialized.ipc)
            )
        nonsecure = run_workload(
            label, WrpkruPolicy.NONSECURE_SPEC, instructions=instructions,
            time_shards=time_shards,
        )
        rows.append(
            Fig11Row(
                workload=label_of(label),
                specmpk_by_size=tuple(by_size),
                nonsecure=nonsecure.ipc / serialized.ipc,
            )
        )
    return rows


# ---------------------------------------------------------------------------
# Fig. 13 — Flush+Reload access latencies
# ---------------------------------------------------------------------------

def fig13_flush_reload(num_values: int = 128) -> Dict[str, List[int]]:
    """Reload-phase latency per probe index for the NonSecure and
    SpecMPK microarchitectures (the paper's Fig. 13 series)."""
    attack = build_spectre_v1_poc(num_values=num_values)
    nonsecure = run_attack(attack, WrpkruPolicy.NONSECURE_SPEC)
    specmpk = run_attack(attack, WrpkruPolicy.SPECMPK)
    return {
        "train_value": attack.train_value,
        "secret_value": attack.secret_value,
        "nonsecure_latencies": nonsecure.latencies,
        "specmpk_latencies": specmpk.latencies,
        "nonsecure_leaked": nonsecure.leaked,
        "specmpk_leaked": specmpk.leaked,
    }


# ---------------------------------------------------------------------------
# Tables
# ---------------------------------------------------------------------------

def table1_isolation_properties() -> Dict:
    """Table I rows plus the executable probe verdicts."""
    return {"rows": table_i(), "probes": verify_probes()}


def table2_source_operands() -> List[Table2Row]:
    """Table II: the source operands SpecMPK adds per instruction type."""
    return [
        Table2Row(
            instruction_type="Load",
            new_source_operands=(
                "ROB_pkru, ARF_pkru, AccessDisableCounter"
            ),
        ),
        Table2Row(
            instruction_type="Store",
            new_source_operands=(
                "ROB_pkru, ARF_pkru, AccessDisableCounter, "
                "WriteDisableCounter"
            ),
        ),
        Table2Row(
            instruction_type="WRPKRU",
            new_source_operands="ROB_pkru (PKRU chained as a source)",
        ),
    ]


def table3_configuration(
    config: Optional[CoreConfig] = None,
) -> List[Table3Row]:
    """Table III: the simulated core configuration."""
    if config is None:
        config = table_iii_config()
    rows = [
        ("ISA", "repro RISC (x86-64 MPK semantics)"),
        ("Issue/decode/Commit width", f"{config.issue_width} instructions"),
        (
            "AL/LQ/SQ/IQ/PRF Size",
            f"{config.active_list_size}/{config.load_queue_size}/"
            f"{config.store_queue_size}/{config.issue_queue_size}/"
            f"{config.phys_regs}",
        ),
        ("ROB_pkru size", str(config.rob_pkru_size)),
        ("BTB", f"{config.btb_entries} entries"),
        ("RAS", f"{config.ras_entries} entries"),
        ("Direction Predictor", config.predictor.upper() + " (LTAGE-class)"),
        ("L1 Inst Cache",
         f"{config.l1i.size // 1024}kB, {config.l1i.assoc}-way, "
         f"{config.l1i.latency}-cycle roundtrip latency"),
        ("L1 Data Cache",
         f"{config.l1d.size // 1024}kB, {config.l1d.assoc}-way, "
         f"{config.l1d.latency}-cycle roundtrip latency"),
        ("L2 Cache",
         f"{config.l2.size // 1024}kB, {config.l2.assoc}-way, "
         f"{config.l2.latency}-cycle roundtrip latency"),
        ("L3 Cache",
         f"{config.l3.size // (1024 * 1024)}MB, {config.l3.assoc}-way, "
         f"{config.l3.latency}-cycle roundtrip latency"),
        ("DRAM Device", f"DDR4-class, {config.dram_latency}-cycle roundtrip"),
    ]
    return [Table3Row(parameter=name, value=value) for name, value in rows]


def section8_hardware_overhead(
    config: Optional[CoreConfig] = None,
) -> Dict:
    """SSVIII: sequential-state bytes and area/power estimates."""
    cost = HardwareCost(config or CoreConfig())
    return {
        "breakdown_bits": cost.breakdown(),
        "total_bits": cost.total_bits,
        "total_bytes": cost.total_bytes,
        "l1d_fraction": cost.l1d_fraction,
        "area_um2": cost.area_um2,
        "logic_cells": cost.logic_cells,
        "dynamic_power_pct": cost.dynamic_power_vs_l1d_pct,
        "leakage_power_pct": cost.leakage_power_vs_l1d_pct,
    }


# ---------------------------------------------------------------------------
# Ablations (DESIGN.md key decisions)
# ---------------------------------------------------------------------------

def ablation_tlb_deferral(
    labels: Optional[Iterable[str]] = None,
    instructions: Optional[int] = None,
    time_shards: Optional[int] = None,
) -> List[Dict]:
    """Cost of conservatively stalling TLB-missing accesses (SSV-C5)."""
    if labels is None:
        labels = ["505.mcf_r (SS)", "520.omnetpp_r (SS)", "557.xz_r (SS)"]
    rows = []
    for label in labels:
        strict = run_workload(
            label, WrpkruPolicy.SPECMPK, instructions=instructions,
            config=CoreConfig(
                wrpkru_policy=WrpkruPolicy.SPECMPK, stall_on_tlb_miss=True
            ),
            time_shards=time_shards,
        )
        relaxed = run_workload(
            label, WrpkruPolicy.SPECMPK, instructions=instructions,
            config=CoreConfig(
                wrpkru_policy=WrpkruPolicy.SPECMPK, stall_on_tlb_miss=False
            ),
            time_shards=time_shards,
        )
        rows.append(
            {
                "workload": label_of(label),
                "strict_ipc": strict.ipc,
                "relaxed_ipc": relaxed.ipc,
                "tlb_stalls": strict.tlb_miss_stalls,
                "cost": relaxed.ipc / strict.ipc - 1.0,
            }
        )
    return rows


def study_minic_protection(iterations: int = 40) -> List[Dict]:
    """End-to-end compiler study: a MiniC program under every build.

    Compiles the same session-key program three ways — unprotected,
    secure-arrays only, and secure arrays + shadow stack — and runs each
    build under all three WRPKRU microarchitectures, tying the compiler
    (repro.lang) to the Fig. 9 methodology.
    """
    from ..core.pipeline import Simulator
    from ..lang import CompileOptions, compile_module

    source = f"""
    secure keys[16] = {{7, 21, 99}};
    array buffer[64];
    fn mix(i, k) {{ return (i * 31 + k) ^ (k >> 3); }}
    fn step(i) {{
        var k = keys[i % 3];
        buffer[i & 63] = mix(i, k);
        return buffer[i & 63];
    }}
    fn main() {{
        var i = 0;
        var acc = 0;
        while (i < {iterations}) {{
            acc = acc ^ step(i);
            i = i + 1;
        }}
        keys[15] = acc & 255;
        return acc;
    }}
    """
    builds = [
        ("unprotected", CompileOptions(protect_secure_arrays=False)),
        ("secure-arrays", CompileOptions()),
        ("secure+shadow-stack", CompileOptions(shadow_stack=True)),
    ]
    rows = []
    expected = None
    for build_name, options in builds:
        compiled = compile_module(source, options)
        row: Dict = {"build": build_name}
        for policy in WrpkruPolicy:
            sim = Simulator(
                compiled.program, CoreConfig(wrpkru_policy=policy),
                initial_pkru=compiled.initial_pkru,
            )
            sim.prewarm_tlb()
            result = sim.run(max_cycles=2_000_000)
            if result.fault is not None or not result.halted:
                raise RuntimeError(f"{build_name}/{policy}: {result.fault}")
            value = sim.prf.read(
                sim.rename_tables.amt[compiled.result_register()]
            )
            if expected is None:
                expected = value
            assert value == expected, "builds disagree architecturally"
            row[policy.value + "_cycles"] = sim.stats.cycles
        row["wrpkru_sites"] = sum(
            1 for inst in compiled.program.instructions if inst.is_wrpkru
        )
        rows.append(row)
    return rows


def study_rdpkru_avoidance(instructions: int = 8000) -> Dict[str, float]:
    """SSV-C6: the cost of RDPKRU-based permission updates.

    glibc's ``pkey_set`` reads PKRU, modifies one key's bits, and writes
    it back; under SpecMPK the RDPKRU serializes (executes at the Active
    List head).  The paper notes a compiler can keep permissions in a
    data structure and emit load-immediate WRPKRUs instead.  This study
    measures both idioms on a switch-heavy microbenchmark.
    """
    from ..isa.builder import ProgramBuilder
    from ..isa.registers import EAX
    from ..mpk.pkru import make_pkru

    def build(use_rdpkru: bool):
        b = ProgramBuilder()
        data = b.region("data", 4096)
        b.label("main")
        b.li(20, data.base)
        b.li(27, 1 << 30)
        b.label("outer")
        for _ in range(8):
            if use_rdpkru:
                # pkey_set idiom: read-modify-write of PKRU.
                b.rdpkru()
                b.ori(EAX, EAX, make_pkru(disabled=[1]))
                b.wrpkru()
                b.rdpkru()
                b.andi(EAX, EAX, ~make_pkru(disabled=[1]) & 0xFFFFFFFF)
                b.wrpkru()
            else:
                # Compiler-optimised idiom: load-immediate values.
                b.li(EAX, make_pkru(disabled=[1]))
                b.wrpkru()
                b.li(EAX, 0)
                b.wrpkru()
            for slot in range(6):
                b.ld(2 + slot % 6, 20, 8 * slot)
                b.add(8, 8, 2 + slot % 6)
        b.addi(27, 27, -1)
        b.bne(27, 0, "outer")
        b.halt()
        return b.build()

    results = {}
    for name, use_rdpkru in (("rdpkru_idiom", True), ("li_idiom", False)):
        sim_config = CoreConfig(wrpkru_policy=WrpkruPolicy.SPECMPK)
        from ..core.pipeline import Simulator

        sim = Simulator(build(use_rdpkru), sim_config)
        sim.prewarm_tlb()
        sim.run(max_instructions=instructions,
                warmup_instructions=1000,
                max_cycles=300 * instructions)
        results[name] = sim.stats.ipc
    results["li_speedup"] = results["li_idiom"] / results["rdpkru_idiom"]
    return results


def comparison_general_mitigations(
    labels: Optional[Iterable[str]] = None,
    instructions: Optional[int] = None,
) -> List[Dict]:
    """SSIII-D: SpecMPK vs a general-purpose secure-speculation scheme.

    Delay-on-miss ([43] in the paper) protects *every* speculative load
    and pays for it; SpecMPK restricts only MPK-checked accesses.  Both
    are normalized to the serialized-WRPKRU baseline.
    """
    if labels is None:
        labels = [
            "520.omnetpp_r (SS)", "500.perlbench_r (SS)",
            "505.mcf_r (SS)", "471.omnetpp (CPI)",
        ]
    rows = []
    for label in labels:
        serialized = run_workload(
            label, WrpkruPolicy.SERIALIZED, instructions=instructions
        )
        specmpk = run_workload(
            label, WrpkruPolicy.SPECMPK, instructions=instructions
        )
        dom = run_workload(
            label, WrpkruPolicy.NONSECURE_SPEC, instructions=instructions,
            config=CoreConfig(
                wrpkru_policy=WrpkruPolicy.NONSECURE_SPEC,
                load_security="dom",
            ),
        )
        rows.append(
            {
                "workload": label_of(label),
                "specmpk": specmpk.ipc / serialized.ipc,
                "delay_on_miss": dom.ipc / serialized.ipc,
            }
        )
    return rows


def motivation_mprotect_vs_mpk(
    labels: Optional[Iterable[str]] = None,
    instructions: Optional[int] = None,
) -> List[Dict]:
    """SSIII-A motivation: MPK vs an mprotect-based isolation variant.

    Runs the MPK-protected workload on the serialized baseline (today's
    hardware) and prices the same protection implemented with mprotect
    syscalls + TLB shootdowns (see repro.analysis.mprotect_model).
    """
    from ..analysis.mprotect_model import estimate_mprotect_cost

    if labels is None:
        labels = [
            "520.omnetpp_r (SS)", "500.perlbench_r (SS)",
            "531.deepsjeng_r (SS)", "471.omnetpp (CPI)",
            "453.povray (CPI)", "557.xz_r (SS)",
        ]
    rows = []
    for label in labels:
        stats = run_workload(
            label, WrpkruPolicy.SERIALIZED, instructions=instructions
        )
        estimate = estimate_mprotect_cost(stats)
        rows.append(
            {
                "workload": label_of(label),
                "switches": estimate.switches,
                "mpk_cycles": estimate.mpk_cycles,
                "mprotect_cycles": estimate.mprotect_cycles,
                "mprotect_slowdown": estimate.slowdown_vs_mpk,
            }
        )
    return rows


@dataclasses.dataclass
class PaperExpectation:
    """Headline numbers from the paper, for EXPERIMENTS.md comparison."""

    fig9_average_speedup: float = 0.1221
    fig9_max_speedup: float = 0.4842
    fig3_average_speedup: float = 0.1258
    fig3_max_speedup: float = 0.4843
    hw_state_bytes: float = 93.0
    hw_l1d_fraction: float = 0.0019
