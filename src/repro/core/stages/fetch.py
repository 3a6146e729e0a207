"""Fetch: instruction supply and branch prediction.

Two equivalent front ends share this module:

* the **block path** walks the precompiled
  :class:`~repro.core.schedule.TimingBlock` descriptors — whole
  dispatch groups of non-redirecting instructions are appended with no
  per-instruction ``program.fetch`` call, bounds check, or terminator
  classification.  Every simulator runs it: ``CoreState`` always
  attaches a schedule;
* the **legacy path** fetches one instruction at a time, exactly as
  the pre-staged engine did.  It is kept as the reference the
  differential suite (and ``repro bench kernel --compare``) checks
  the block path against, selected by setting ``core.schedule = None``.

Both produce the same DynInst stream, trace events, and fetch-state
transitions; the differential suite asserts bit-identity.
"""

from __future__ import annotations

from ...isa.opcodes import Opcode
from ...isa.program import CODE_BASE
from ...trace.collector import EventKind
from ..corestate import CoreState
from ..dynamic import DynInst

_FETCH = EventKind.FETCH
_JMP = Opcode.JMP
_CALL = Opcode.CALL
_CALLR = Opcode.CALLR
_RET = Opcode.RET
_JR = Opcode.JR


def fetch_stage(core: CoreState) -> None:
    cfg = core.config
    if core.fetch_stopped or core.cycle < core.fetch_resume_cycle:
        return
    if len(core.frontend) >= 4 * cfg.fetch_width:
        return  # decode buffer full
    if cfg.model_icache:
        # The whole fetch group pays the I-cache latency of its
        # first line; a miss stalls fetch for the extra cycles.
        latency = core.hierarchy.fetch_access(
            CODE_BASE + 4 * core.fetch_pc
        )
        extra = latency - (core.hierarchy.l1i.latency
                           if core.hierarchy.l1i else 0)
        if extra > 0:
            core.fetch_resume_cycle = core.cycle + extra
            return
    if core.schedule is not None:
        _fetch_blocks(core, cfg.fetch_width)
    else:
        _fetch_legacy(core, cfg.fetch_width)


def _fetch_blocks(core: CoreState, width: int) -> None:
    """Block path: append whole precompiled dispatch groups."""
    block_at = core.schedule.block_at
    append = core.frontend.append
    trace = core.trace
    cycle = core.cycle
    pc = core.fetch_pc
    seq = core.next_seq
    fetched = 0
    while fetched < width:
        block = block_at(pc)
        if block is None:
            # Wrong-path fetch off the program edge: bubble until a
            # squash redirects us (correct paths end in HALT).
            core.fetch_stopped = True
            break
        plains = block.plains
        n = len(plains)
        room = width - fetched
        if n > room:
            # The dispatch group overfills this cycle's budget:
            # consume a prefix, resume mid-block next cycle (the
            # leftover suffix gets its own descriptor).
            for static in plains[:room]:
                inst = DynInst(static, seq, cycle)
                seq += 1
                append(inst)
                if trace is not None:
                    trace.event(cycle, _FETCH, inst)
            pc += room
            fetched = width
            break
        if trace is None:
            for static in plains:
                append(DynInst(static, seq, cycle))
                seq += 1
        else:
            for static in plains:
                inst = DynInst(static, seq, cycle)
                seq += 1
                append(inst)
                trace.event(cycle, _FETCH, inst)
        pc += n
        fetched += n
        term = block.term
        if term is None:
            continue  # WRPKRU terminator or length cap: fall through
        if fetched >= width:
            break  # terminator fetches next cycle
        inst = DynInst(term, seq, cycle)
        seq += 1
        append(inst)
        if trace is not None:
            trace.event(cycle, _FETCH, inst)
        fetched += 1
        if block.term_is_halt:
            core.fetch_stopped = True
            break
        redirected = predict(core, inst)
        pc = core.fetch_pc
        if redirected:
            break  # taken control flow ends the fetch group
    core.fetch_pc = pc
    core.next_seq = seq
    core.stats.instructions_fetched += fetched


def _fetch_legacy(core: CoreState, width: int) -> None:
    """Single-step path: one ``program.fetch`` per instruction."""
    fetch = core.program.fetch
    append = core.frontend.append
    trace = core.trace
    cycle = core.cycle
    seq = core.next_seq
    fetched = 0
    while fetched < width:
        static = fetch(core.fetch_pc)
        if static is None:
            # Wrong-path fetch off the program edge: bubble until a
            # squash redirects us (correct paths end in HALT).
            core.fetch_stopped = True
            break
        inst = DynInst(static, seq, cycle)
        seq += 1
        append(inst)
        if trace is not None:
            trace.event(cycle, _FETCH, inst)
        fetched += 1
        if static.is_halt:
            core.fetch_stopped = True
            break
        if static.is_control:
            if predict(core, inst):
                break  # taken control flow ends the fetch group
        else:
            core.fetch_pc += 1
    core.next_seq = seq
    core.stats.instructions_fetched += fetched


def predict(core: CoreState, inst: DynInst) -> bool:
    """Predict a control instruction; return True when fetch redirects."""
    static = inst.static
    predictor = core.predictor
    inst.ghist_checkpoint = predictor.checkpoint()
    op = static.opcode
    if op is _JMP:
        inst.predicted_taken, inst.predicted_target = True, static.imm
    elif op is _CALL:
        pred = predictor.predict_call(static.pc, static.imm)
        inst.predicted_taken, inst.predicted_target = True, pred.target
    elif op is _CALLR:
        pred = predictor.predict_call(static.pc, None)
        target = pred.target if pred.target is not None else static.pc + 1
        inst.predicted_taken, inst.predicted_target = True, target
    elif op is _RET:
        pred = predictor.predict_return()
        inst.predicted_taken, inst.predicted_target = True, pred.target
    elif op is _JR:
        pred = predictor.predict_indirect(static.pc)
        target = pred.target if pred.target is not None else static.pc + 1
        inst.predicted_taken, inst.predicted_target = True, target
    else:  # conditional branch
        pred = predictor.predict_conditional(static.pc)
        inst.predicted_taken = pred.taken
        inst.predicted_target = pred.target if pred.taken else static.pc + 1

    if inst.predicted_taken and inst.predicted_target != static.pc + 1:
        core.fetch_pc = inst.predicted_target
        return True
    core.fetch_pc = static.pc + 1
    return False
