"""The slim machine state shared by every pipeline stage.

:class:`CoreState` owns the architectural and microarchitectural state
of one simulated core — the queues, the physical register file and
rename tables, the branch predictor, the SpecMPK unit, the memory
hierarchy, fetch state, and the statistics window — and nothing else.
The stage modules under :mod:`repro.core.stages` are free functions
over a ``CoreState``; the orchestration (run loop, fast path,
cosimulation, invariant checking) lives in
:class:`repro.core.pipeline.Simulator`, which subclasses this.

Keeping the state in one flat namespace (rather than per-stage
sub-objects) is deliberate: the stage functions are the hottest code in
the repository and every extra attribute hop costs a dict lookup per
dynamic instruction.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Optional

from ..isa.emulator import ArchState
from ..isa.program import Program
from ..isa.registers import NUM_REGS
from ..memory.address_space import AddressSpace
from ..memory.hierarchy import MemoryHierarchy
from ..memory.tlb import Tlb
from ..trace.collector import TraceCollector
from .branch_predictor import BranchPredictor
from .config import CoreConfig, WrpkruPolicy
from .dynamic import DynInst
from .register_file import PhysRegFile, RenameTables
from .rob_pkru import SpecMpkUnit
from .schedule import TimingSchedule, shared_schedule
from .stats import SimStats


class CoreState:
    """Machine state of one out-of-order core (see module docstring).

    The machine starts from an arbitrary architectural state: by
    default a fresh :class:`~repro.isa.emulator.ArchState` at the
    program entry, or — via *start_state* — one rebuilt from a
    checkpoint (registers seeded into the PRF through the identity
    rename mapping, fetch redirected to its PC, PKRU installed in the
    SpecMPK unit, its address space adopted).  *start_state* is
    mutually exclusive with *address_space*/*initial_pkru*.
    """

    #: Golden-model emulator for lockstep commit checking, installed by
    #: :class:`repro.core.pipeline.Simulator` when cosimulation is on.
    #: Declared here so the commit stage can test it with one attribute
    #: load on any CoreState.
    _cosim = None

    def __init__(
        self,
        program: Program,
        config: Optional[CoreConfig] = None,
        address_space: Optional[AddressSpace] = None,
        initial_pkru: int = 0,
        trace: Optional[TraceCollector] = None,
        start_state: Optional[ArchState] = None,
    ) -> None:
        self.program = program
        #: Observability sink (:mod:`repro.trace`).  ``None`` disables
        #: tracing; every hook below is then a single attribute test.
        self.trace = trace
        self.config = config or CoreConfig()
        cfg = self.config

        if start_state is None:
            if address_space is None:
                address_space = AddressSpace()
                address_space.map_regions(program.regions)
            start_state = ArchState(address_space, pkru=initial_pkru)
            start_state.pc = program.entry
        else:
            if address_space is not None:
                raise ValueError(
                    "pass either start_state or address_space, not both"
                )
            address_space = start_state.memory
        self.start_state = start_state
        self.memory = address_space
        self.hierarchy = MemoryHierarchy(
            l1d=cfg.l1d,
            l1i=cfg.l1i if cfg.model_icache else None,
            l2=cfg.l2,
            l3=cfg.l3,
            dram_latency=cfg.dram_latency,
            prefetch_next_line=cfg.prefetch_next_line,
        )
        self.tlb = Tlb(
            address_space.page_table,
            entries=cfg.tlb_entries,
            walk_latency=cfg.tlb_walk_latency,
        )

        self.prf = PhysRegFile(cfg.phys_regs)
        self.rename_tables = RenameTables(self.prf)
        # Seed the start state's registers through the identity
        # AMT/RMT mapping (r0 stays hardwired zero).
        for lreg in range(1, NUM_REGS):
            self.prf.values[lreg] = start_state.regs[lreg]
        self.predictor = BranchPredictor(
            btb_entries=cfg.btb_entries,
            ras_entries=cfg.ras_entries,
            kind=cfg.predictor,
        )

        # The SpecMPK unit doubles as the PKRU home for every policy;
        # SERIALIZED simply never allocates ROB_pkru entries, and the
        # NonSecure microarchitecture renames through an effectively
        # unbounded buffer (the paper renames it via the main PRF).
        policy = cfg.wrpkru_policy
        window = cfg.rob_pkru_size if policy is WrpkruPolicy.SPECMPK else (
            cfg.active_list_size
        )
        self.specmpk = SpecMpkUnit(window, initial_pkru=start_state.pkru)
        # Policy predicates, resolved once: the rename/memory hot loops
        # test these every instruction and enum identity checks plus the
        # ``renames_pkru`` property are measurable there.
        self._policy_serialized = policy is WrpkruPolicy.SERIALIZED
        self._policy_specmpk = policy is WrpkruPolicy.SPECMPK
        self._renames_pkru = policy.renames_pkru
        self._memdep_spec = cfg.memory_dependence_speculation
        self._load_dom = cfg.load_security == "dom"
        self._stall_tlb_miss = (
            self._policy_specmpk and cfg.stall_on_tlb_miss
        )

        #: Precompiled per-block timing schedule (the static schedule
        #: layer, :mod:`repro.core.schedule`).  Setting it to ``None``
        #: selects the legacy single-step fetch, the reference the
        #: differential suite compares against.
        self.schedule: Optional[TimingSchedule] = shared_schedule(program)

        # Pipeline structures.  The LQ/SQ are deques: retirement pops
        # from the front, squash from the back — both O(1).
        self.active_list: Deque[DynInst] = deque()
        self.frontend: Deque[DynInst] = deque()
        self.load_queue: Deque[DynInst] = deque()
        self.store_queue: Deque[DynInst] = deque()
        self.iq_count = 0
        self.ready_heap: List = []  # (seq, DynInst)
        self.mem_parked: List[DynInst] = []
        #: Set when a store/lfence executes or retires, or a squash
        #: happens — the only events that can unpark memory accesses.
        self._mem_retry = False
        self.events: Dict[int, List[DynInst]] = {}
        self.inflight_lfences: List[int] = []
        #: Seqs of renamed, non-squashed stores whose address is still
        #: unknown, ascending (rename appends in order; execute_store
        #: and squash remove).  Makes the conservative load-ordering
        #: check O(1): an older unknown store exists iff the first
        #: entry is older than the load.
        self._unknown_stores: List[int] = []
        #: Executed, in-flight (not yet retired), non-squashed stores
        #: indexed by address — the store-to-load forwarding lookup.
        #: Maintained by execute_store (insert), store retirement
        #: (remove), and trim_younger (remove), replacing a full
        #: store-queue scan per executed load.
        self._fwd_stores: Dict[int, List[DynInst]] = {}

        # Fetch state.
        self.cycle = 0
        self.fetch_pc = start_state.pc
        self.fetch_resume_cycle = 0
        self.fetch_stopped = False
        self.next_seq = 0

        # Serialization state (SERIALIZED policy).
        self.serialize_block: Optional[DynInst] = None

        self.stats = SimStats()
        self._cycle_base = 0
        self.halted = start_state.halted
        self._fault: Optional[BaseException] = None
        # Exact retire budget for the current measurement window, or
        # None for the classic semantics (the final cycle retires its
        # full commit group, overshooting the budget by up to
        # ``commit_width - 1``).  Time-sharded runs set this so shard
        # windows tile the committed stream with no double counting
        # (:mod:`repro.perf.timeshard`); ordinary runs never do, which
        # keeps their results byte-identical.
        self.retire_limit: Optional[int] = None

        # Fast-path savings (telemetry only — deliberately NOT in
        # SimStats, whose contents are asserted bit-identical with the
        # fast path on vs off).
        self.cycles_fast_skipped = 0
        self.fast_skip_events = 0

        # Lazy SpecMPK-unit occupancy histogram.  Occupancy only
        # changes at WRPKRU allocate/retire/squash, so instead of
        # sampling every cycle the tracker credits ``hist[value] +=
        # cycles`` at each change (:func:`note_pkru_occ`) — matching
        # the trace layer's end-of-cycle sampling bit-exactly at a cost
        # proportional to WRPKRU events, not cycles.
        self._pkru_occ_hist: Dict[int, int] = {}
        self._pkru_occ_last = 0


def note_pkru_occ(core: CoreState) -> None:
    """Credit the cycles since the last SpecMPK occupancy change.

    Called immediately *before* any allocate/retire/squash on the
    SpecMPK unit: cycles ``[last, now)`` ended with the current
    (pre-change) occupancy.  The cycle the change happens in is
    credited later with its end-of-cycle value, which is exactly
    how the trace collector samples.
    """
    cycle = core.cycle
    elapsed = cycle - core._pkru_occ_last
    if elapsed > 0:
        occupancy = core.specmpk.occupancy
        hist = core._pkru_occ_hist
        hist[occupancy] = hist.get(occupancy, 0) + elapsed
    core._pkru_occ_last = cycle
