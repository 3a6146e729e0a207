"""Static schedule layer: precompiled per-block timing descriptors.

PR 4 proved the decode-once idea on the functional emulator
(:mod:`repro.isa.blockcache`): translate each straight-line run of
instructions once per :class:`~repro.isa.program.Program`, then execute
whole blocks per dispatch.  This module extends the same discipline to
the *timing* model.  The cycle-accurate core cannot compile timing away
— the machine state (caches, predictor, queues) changes every cycle —
but everything *static* about a basic block can be resolved once
instead of once per dynamic instruction:

* the **dispatch group**: the decoded :class:`Instruction` objects of
  the block in fetch order, so the fetch stage appends whole groups
  without a ``program.fetch`` call, a bounds check, and a terminator
  classification per instruction;
* the **classification flags**: whether the block ends in control flow
  or HALT (the only events that redirect or stop fetch);
* the **code span**: the block's first and last byte address, which
  I-cache prewarming walks;
* the **precomputed dispatch state** every instruction already carries
  from decode (:class:`~repro.isa.instruction.Instruction`): latency,
  prebound ``alu_eval``/``branch_eval`` evaluators, and the effective
  register footprint (``eff_dst``/``eff_src1``/``eff_src2``) the rename
  stage binds against.

Block boundaries follow :mod:`repro.isa.blockcache` exactly — a block
ends at control flow, HALT, WRPKRU, or :data:`MAX_BLOCK_LENGTH` — so
the functional and timing engines agree on what a "basic block" is.
For fetch purposes only control flow and HALT matter (WRPKRU and the
length cap simply fall through), which is what
:attr:`TimingBlock.term` encodes.

One :class:`TimingSchedule` serves every simulator over the same
``Program`` (see :func:`shared_schedule`), so a sweep pays the walk
once per static block, not once per run.

Every simulator attaches the shared schedule.  The stage modules keep
the legacy single-step fetch (per-instruction ``program.fetch``) as a
reference: setting ``core.schedule = None`` selects it, and the
differential suite in ``tests/core/test_timing_engine.py`` asserts the
two front ends are bit-identical.
"""

from __future__ import annotations

import weakref
from typing import Dict, Optional

from ..isa.blockcache import MAX_BLOCK_LENGTH
from ..isa.instruction import Instruction
from ..isa.program import CODE_BASE, Program


class TimingBlock:
    """Precompiled timing descriptor of one basic block.

    Attributes:
        leader: Entry PC the block was walked from.  Any PC can be a
            leader — wrong-path fetch enters blocks mid-body, and each
            entry point gets its own descriptor.
        plains: Decoded instructions that cannot redirect fetch, in
            fetch order.  Includes WRPKRU (which serializes *rename*,
            not fetch) and the final instruction of a length-capped
            block (fetch falls through to the successor block).
        term: The block's control-flow or HALT terminator, or ``None``
            when the block falls through (WRPKRU terminator or length
            cap).
        term_is_halt: The terminator stops fetch rather than
            (potentially) redirecting it.
        length: Total instructions covered, terminator included.
        code_span: Prebound ``(first, last)`` byte addresses of the
            block's instruction stream (blocks are PC-contiguous), used
            to plan I-cache prewarming.
    """

    __slots__ = ("leader", "plains", "term", "term_is_halt", "length",
                 "code_span")

    def __init__(self, leader: int, plains: tuple,
                 term: Optional[Instruction], term_is_halt: bool) -> None:
        self.leader = leader
        self.plains = plains
        self.term = term
        self.term_is_halt = term_is_halt
        self.length = len(plains) + (term is not None)
        insts = plains if term is None else plains + (term,)
        self.code_span = (
            CODE_BASE + 4 * insts[0].pc,
            CODE_BASE + 4 * insts[-1].pc,
        )


class TimingSchedule:
    """Per-program cache of :class:`TimingBlock` keyed by entry PC."""

    def __init__(self, program: Program) -> None:
        self.program = program
        self.blocks: Dict[int, Optional[TimingBlock]] = {}
        #: Number of blocks walked (schedule-cache misses).
        self.compiled = 0
        #: Instructions covered by compiled blocks.
        self.compiled_instructions = 0

    def block_at(self, pc: int) -> Optional[TimingBlock]:
        """The block entered at *pc*, compiling on first visit.

        Returns ``None`` when *pc* is outside the program (wrong-path
        fetch off the edge; the fetch stage bubbles until a squash).
        """
        try:
            return self.blocks[pc]
        except KeyError:
            return self._compile(pc)

    def _compile(self, pc: int) -> Optional[TimingBlock]:
        fetch = self.program.fetch
        inst = fetch(pc)
        if inst is None:
            self.blocks[pc] = None
            return None
        insts = []
        # The walk mirrors repro.isa.blockcache._translate: stop at
        # control flow, HALT, WRPKRU, or the shared length cap, so both
        # engines share one notion of a basic block.
        while inst is not None:
            insts.append(inst)
            if (inst.is_control or inst.is_halt or inst.is_wrpkru
                    or len(insts) >= MAX_BLOCK_LENGTH):
                break
            inst = fetch(inst.pc + 1)
        last = insts[-1]
        if last.is_control or last.is_halt:
            block = TimingBlock(pc, tuple(insts[:-1]), last, last.is_halt)
        else:
            # WRPKRU terminator or length cap: plain fall-through.
            block = TimingBlock(pc, tuple(insts), None, False)
        self.blocks[pc] = block
        self.compiled += 1
        self.compiled_instructions += block.length
        return block


#: Shared schedules, one per live Program object (mirrors
#: :data:`repro.isa.blockcache._shared`).
_shared: "weakref.WeakKeyDictionary[Program, TimingSchedule]" = (
    weakref.WeakKeyDictionary()
)


def shared_schedule(program: Program) -> TimingSchedule:
    """The process-wide :class:`TimingSchedule` for *program*."""
    schedule = _shared.get(program)
    if schedule is None:
        schedule = _shared[program] = TimingSchedule(program)
    return schedule
