"""Dynamic (in-flight) instruction state for the out-of-order core."""

from __future__ import annotations

from typing import Optional

from ..isa.instruction import Instruction


class DynInst:
    """One in-flight instruction between rename and retire.

    Wraps a static :class:`Instruction` with renamed operands, progress
    flags, branch-resolution state, memory state, and the SpecMPK
    bookkeeping (PKRU dependence tag, check outcomes).

    One is built per fetched instruction, wrong paths included, and the
    stages read and write its fields on every cycle it is in flight, so
    the layout is fixed: every field is a slot and ``__init__`` stores
    all of them.  With constant fields left as class defaults instead,
    each instance writes its fields into its own ``__dict__`` in
    whatever order the pipeline reaches them — more names and orders
    than CPython's shared-key dicts hold — and every read of an
    unwritten field falls through to the class; over the whole cycle
    core that costs far more than the extra stores cost construction
    (docs/performance.md §9).
    """

    __slots__ = (
        "static", "seq", "pc", "fetch_cycle",
        # cached classification flags (hot paths)
        "is_load", "is_store", "is_memory", "is_control",
        "is_wrpkru", "is_rdpkru",
        # renamed operands
        "psrc1", "psrc2", "pdst", "ldst",
        # PKRU dependence: ROBpkru entry id this instruction waits on
        "pkru_dep",
        # progress flags
        "dispatched", "issued", "executed", "completed", "squashed",
        # scheduling
        "waiting_on", "complete_cycle",
        # branch state
        "predicted_taken", "predicted_target", "actual_taken",
        "actual_target", "mispredicted", "ghist_checkpoint",
        # memory state
        "address", "mem_value", "pkey", "tlb_entry",
        "forwarding_disabled", "replay_at_head", "replay_started",
        "replay_reason", "forwarded_from", "latency", "caused_fill",
        # result / exception
        "result", "fault",
        # WRPKRU state
        "rob_pkru_id", "wrpkru_value", "pkru_mark",
        # issue-queue occupancy
        "in_iq",
    )

    def __init__(self, static: Instruction, seq: int, fetch_cycle: int) -> None:
        self.static = static
        self.seq = seq
        self.pc = static.pc
        self.fetch_cycle = fetch_cycle
        # cached classification flags (hot paths)
        self.is_load = static.is_load
        self.is_store = static.is_store
        self.is_memory = static.is_memory
        self.is_control = static.is_control
        self.is_wrpkru = static.is_wrpkru
        self.is_rdpkru = static.is_rdpkru
        # renamed operands
        self.psrc1: Optional[int] = None
        self.psrc2: Optional[int] = None
        self.pdst: Optional[int] = None
        self.ldst: Optional[int] = None
        self.pkru_dep: Optional[int] = None
        # progress flags
        self.dispatched = False
        self.issued = False
        self.executed = False
        self.completed = False
        self.squashed = False
        # scheduling
        self.waiting_on = 0
        self.complete_cycle: Optional[int] = None
        # branch state
        self.predicted_taken = False
        self.predicted_target: Optional[int] = None
        self.actual_taken = False
        self.actual_target: Optional[int] = None
        self.mispredicted = False
        self.ghist_checkpoint = None
        # memory state
        self.address: Optional[int] = None
        self.mem_value: Optional[int] = None
        self.pkey: Optional[int] = None
        self.tlb_entry = None
        self.forwarding_disabled = False
        self.replay_at_head = False
        self.replay_started = False
        #: Why this access replays at the head ("tlb" or "check").
        self.replay_reason: Optional[str] = None
        self.forwarded_from: Optional[DynInst] = None
        self.latency = 0
        #: This load's speculative execution installed a new L1D line
        #: (provenance bit for the wrong-path fill counters).
        self.caused_fill = False
        # result / exception
        self.result: Optional[int] = None
        self.fault: Optional[BaseException] = None
        # WRPKRU state
        self.rob_pkru_id: Optional[int] = None
        self.wrpkru_value: Optional[int] = None
        self.pkru_mark = 0
        # issue-queue occupancy
        self.in_iq = False

    # -- convenience delegations ------------------------------------------

    @property
    def opcode(self):
        return self.static.opcode

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        flags = "".join(
            flag
            for flag, on in (
                ("D", self.dispatched), ("I", self.issued), ("X", self.executed),
                ("C", self.completed), ("Q", self.squashed),
            )
            if on
        )
        return f"<DynInst #{self.seq} pc={self.pc} {self.static.render()} [{flags}]>"
