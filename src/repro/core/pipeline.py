"""The out-of-order superscalar core with SpecMPK support.

An MIPS-R10K-style machine (paper SSV): rename with a PRF/free-list/RMT,
an Active List managing in-order retirement, an issue queue with
wakeup/select scheduling, a load/store queue with store-to-load
forwarding, TAGE/BTB/RAS branch prediction with real wrong-path
execution, and the SpecMPK unit (:mod:`repro.core.rob_pkru`).

Three WRPKRU policies are supported (:class:`~repro.core.config.WrpkruPolicy`):

* ``SERIALIZED``   — the front end drains around every WRPKRU.
* ``NONSECURE_SPEC`` — PKRU renamed, no side-channel protection.
* ``SPECMPK``        — PKRU renamed + PKRU Load/Store Checks.

Wrong-path instructions really execute here — they compute on stale
registers, access the TLB and caches, and get squashed — which is what
lets the Fig. 13 Flush+Reload experiment observe (or, under SpecMPK,
fail to observe) the transient side channel.

Since the staged-engine refactor this module is the *orchestration*
layer only: the machine state lives in
:class:`~repro.core.corestate.CoreState`, the per-stage logic in the
free-function modules under :mod:`repro.core.stages`, the precompiled
per-block schedules in :mod:`repro.core.schedule`, and the idle-cycle
skip in :mod:`repro.core.fastpath`.  :class:`Simulator`
subclasses ``CoreState`` so stage functions and user code see one flat
namespace, and keeps the run loop, cosimulation, and invariant
checking.
"""

from __future__ import annotations

from typing import Dict, Optional

from ..isa.emulator import ArchState, Emulator
from ..isa.program import CODE_BASE, Program
from ..isa.registers import to_u64
from ..memory.address_space import AddressSpace
from ..trace.collector import TraceCollector
from .config import CoreConfig
from .corestate import CoreState
from .dynamic import DynInst
from .fastpath import idle_skip
from .stats import SimResult, SimStats
from .stages.commit import retire_stage
from .stages.fetch import fetch_stage
from .stages.issue import issue_stage
from .stages.rename import rename_stage
from .stages.writeback import writeback_stage


class CosimMismatch(Exception):
    """The pipeline's committed state diverged from the golden emulator."""


class Simulator(CoreState):
    """Cycle-level simulation of one program on the configured core.

    The machine starts from an arbitrary architectural state: by
    default a fresh :class:`~repro.isa.emulator.ArchState` at the
    program entry, or — via *start_state* — one rebuilt from a
    checkpoint (registers seeded into the PRF through the identity
    rename mapping, fetch redirected to its PC, PKRU installed in the
    SpecMPK unit, its address space adopted).  *start_state* is
    mutually exclusive with *address_space*/*initial_pkru*.
    """

    def __init__(
        self,
        program: Program,
        config: Optional[CoreConfig] = None,
        address_space: Optional[AddressSpace] = None,
        initial_pkru: int = 0,
        trace: Optional[TraceCollector] = None,
        start_state: Optional[ArchState] = None,
    ) -> None:
        super().__init__(
            program,
            config=config,
            address_space=address_space,
            initial_pkru=initial_pkru,
            trace=trace,
            start_state=start_state,
        )
        # The golden model checks every retire from the *same* start
        # state the core was built from: a shared-memory clone, so it
        # observes the words the core commits.  Lockstep requires
        # single-stepping — _check_cosim compares state after every
        # committed instruction — so block-cached execution stays off.
        self._cosim = (
            Emulator(
                program,
                state=self.start_state.clone(share_memory=True),
                blocks=False,
            )
            if self.config.cosimulate
            else None
        )

    # ------------------------------------------------------------------
    # Top level
    # ------------------------------------------------------------------

    def run(
        self,
        max_cycles: int = 2_000_000,
        max_instructions: Optional[int] = None,
        warmup_instructions: int = 0,
    ) -> SimResult:
        """Simulate until HALT retires, a fault commits, or a budget ends.

        When *warmup_instructions* is given, that many instructions run
        first to warm caches/TLB/predictors, then statistics are reset
        so the reported numbers are steady-state (the role SimPoint's
        interval warmup plays in the paper's methodology).
        """
        if warmup_instructions:
            self._run_until(max_cycles, warmup_instructions)
            self.reset_stats()
        self._run_until(
            max_cycles,
            None if max_instructions is None
            else max_instructions,
        )
        if self.trace is not None:
            self.stats.occupancy_histograms = (
                self.trace.occupancy_histograms()
            )
        return SimResult(self.stats, self.halted, self._fault)

    def run_window(
        self,
        max_cycles: int,
        instructions: int,
        warmup_instructions: int = 0,
    ) -> SimResult:
        """Like :meth:`run`, but the budgets are *exact*.

        The classic :meth:`run` lets the final cycle retire its whole
        commit group, overshooting both budgets by up to
        ``commit_width - 1`` — harmless for a standalone measurement,
        fatal for time sharding, where shard windows must tile the
        committed stream without double-counting boundary instructions.
        This variant caps retirement (via ``retire_limit``, honoured by
        the retire stage) so the warmup ends and the
        measurement stops on exact instruction boundaries: the stats
        window covers precisely *instructions* committed instructions
        (fewer only if HALT or a fault ends the program first).
        """
        try:
            if warmup_instructions:
                self.retire_limit = warmup_instructions
                self._run_until(max_cycles, warmup_instructions)
                self.reset_stats()
            self.retire_limit = instructions
            self._run_until(max_cycles, instructions)
        finally:
            self.retire_limit = None
        if self.trace is not None:
            self.stats.occupancy_histograms = (
                self.trace.occupancy_histograms()
            )
        return SimResult(self.stats, self.halted, self._fault)

    def _run_until(self, max_cycles: int, budget: Optional[int]) -> None:
        stats = self.stats
        step = self.step_cycle
        skip = (
            self._idle_skip
            if self.config.idle_fast_skip and not self.config.check_invariants
            else None
        )
        while not self.halted and self._fault is None and self.cycle < max_cycles:
            if budget is not None and stats.instructions_retired >= budget:
                break
            if skip is not None and skip(max_cycles):
                continue
            step()

    #: Multi-cycle advance over provably idle stretches — the fast-path
    #: layer (:func:`repro.core.fastpath.idle_skip`) bound as a method.
    _idle_skip = idle_skip

    def reset_stats(self) -> None:
        """Start a fresh measurement window at the current cycle."""
        self.stats = SimStats()
        self._cycle_base = self.cycle
        self.cycles_fast_skipped = 0
        self.fast_skip_events = 0
        self._pkru_occ_hist = {}
        self._pkru_occ_last = self.cycle
        if self.trace is not None:
            self.trace.reset_accounting()

    def specmpk_occupancy_histogram(self) -> Dict[int, int]:
        """``{occupancy: cycles}`` of the SpecMPK unit over the current
        measurement window; reconciles bit-exactly with a traced run's
        ``occupancy_histograms["rob_pkru"]``.  Non-destructive — safe
        to call mid-run or repeatedly."""
        hist = dict(self._pkru_occ_hist)
        pending = (self._cycle_base + self.stats.cycles) - self._pkru_occ_last
        if pending > 0:
            occupancy = self.specmpk.occupancy
            hist[occupancy] = hist.get(occupancy, 0) + pending
        return dict(sorted(hist.items()))

    def prewarm_tlb(self) -> int:
        """Pre-fill the TLB with every mapped page (up to capacity).

        Models the steady-state TLB a long-running SPEC binary has; the
        paper's SimPoint intervals are similarly warmed.  Returns the
        number of translations installed.
        """
        installed = 0
        for vpn in sorted(self.memory.page_table._entries):
            if installed >= self.tlb.capacity:
                break
            address = vpn << 12
            entry = self.tlb.walk(address)
            if entry is not None:
                self.tlb.fill(address, entry)
                installed += 1
        return installed

    def prewarm_icache(self) -> int:
        """Pre-fill the I-cache from the schedule's prebound code spans.

        Walks the program's static block sequence — compiling blocks
        through the shared schedule as it goes — and installs each
        block's ``code_span`` lines not already present, in address
        order.  Returns the number of lines installed; 0 when the
        I-cache is not modelled or no schedule is attached.
        """
        l1i = self.hierarchy.l1i
        if l1i is None or self.schedule is None:
            return 0
        line = self.hierarchy.line_size
        installed = 0
        pc = 0
        while True:
            block = self.schedule.block_at(pc)
            if block is None:
                break
            pc += block.length
            first, last = block.code_span
            for address in range(first - first % line, last + 1, line):
                if not l1i.contains(address):
                    self.hierarchy.fetch_access(address)
                    installed += 1
        return installed

    def step_cycle(self) -> None:
        """Advance the machine by one cycle (retire -> ... -> fetch)."""
        trace = self.trace
        if trace is not None:
            this_cycle = self.cycle
            retired_before = self.stats.instructions_retired
        retire_stage(self)
        if self.halted or self._fault is not None:
            self.stats.cycles = self.cycle + 1 - self._cycle_base
            if trace is not None:
                self._trace_end_cycle(this_cycle, retired_before)
            return
        writeback_stage(self)
        issue_stage(self)
        rename_stage(self)
        fetch_stage(self)
        self.cycle += 1
        self.stats.cycles = self.cycle - self._cycle_base
        if trace is not None:
            self._trace_end_cycle(this_cycle, retired_before)
        if self.config.check_invariants:
            self._check_invariants()

    def _trace_end_cycle(self, this_cycle: int, retired_before: int) -> None:
        """Close the trace collector's books on the cycle just simulated."""
        self.trace.end_cycle(
            this_cycle,
            self.stats.instructions_retired - retired_before,
            len(self.frontend),
            len(self.active_list),
            self.iq_count,
            len(self.load_queue),
            len(self.store_queue),
            self.specmpk.occupancy,
        )

    #: Byte address assigned to instruction slot 0 when the I-cache is
    #: modelled (16 instructions per 64-byte line at 4 B each).
    CODE_BASE = CODE_BASE

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------

    def _check_cosim(self, inst: DynInst) -> None:
        emulator = self._cosim
        expected_pc = emulator.state.pc
        if inst.pc != expected_pc:
            raise CosimMismatch(
                f"retired pc {inst.pc} but golden model at pc {expected_pc}"
            )
        if inst.is_store:
            golden_addr = to_u64(
                emulator.state.regs[inst.static.src1] + (inst.static.imm or 0)
            )
            golden_value = emulator.state.regs[inst.static.src2]
            if inst.address != golden_addr or inst.mem_value != golden_value:
                raise CosimMismatch(
                    f"pc {inst.pc} store: [{inst.address:#x}]={inst.mem_value:#x},"
                    f" golden [{golden_addr:#x}]={golden_value:#x}"
                )
        emulator.step()
        if inst.pdst is not None:
            golden = emulator.state.regs[inst.ldst]
            actual = self.prf.read(inst.pdst)
            if golden != actual:
                raise CosimMismatch(
                    f"pc {inst.pc} ({inst.static.render()}): "
                    f"r{inst.ldst} = {actual:#x}, golden {golden:#x}"
                )
        if inst.is_wrpkru and emulator.state.pkru != self.specmpk.arf:
            raise CosimMismatch(
                f"pc {inst.pc}: PKRU {self.specmpk.arf:#x}, "
                f"golden {emulator.state.pkru:#x}"
            )

    def _check_invariants(self) -> None:
        in_flight = [
            inst.pdst for inst in self.active_list if inst.pdst is not None
        ]
        self.rename_tables.check_invariants(in_flight)
        self.specmpk.check_invariants()
        assert self.iq_count >= 0
        seqs = [inst.seq for inst in self.active_list]
        assert seqs == sorted(seqs), "Active List out of order"
