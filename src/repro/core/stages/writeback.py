"""Writeback: completion, wakeup plumbing, and predictor training.

This module owns the completion machinery every executing stage shares:
:func:`mark_issued` (issue-queue bookkeeping + the ISSUE trace event)
and the wakeup plumbing (:func:`wake`, :func:`write_dest`).  Executing
stages book each instruction into the completion-event calendar
(``CoreState.events``, keyed by completion cycle) inline; the
:func:`writeback_stage` itself drains the calendar entry of the current
cycle oldest-first, finishes each instruction, and hands resolved
mispredictions to the squash stage.
"""

from __future__ import annotations

from heapq import heappush
from operator import attrgetter
from typing import List

from ...isa.registers import MASK64, to_u64
from ...trace.collector import EventKind
from ..corestate import CoreState
from ..dynamic import DynInst
from .squash import squash_after

#: Writeback orders same-cycle completions oldest-first.
_by_seq = attrgetter("seq")

_ISSUE = EventKind.ISSUE
_WRITEBACK = EventKind.WRITEBACK


def mark_issued(core: CoreState, inst: DynInst) -> None:
    inst.issued = True
    if inst.in_iq:
        inst.in_iq = False
        core.iq_count -= 1
    if core.trace is not None:
        core.trace.event(core.cycle, _ISSUE, inst)


def write_dest(core: CoreState, inst: DynInst, value: int) -> None:
    waiters = core.prf.write(inst.pdst, to_u64(value))
    wake(core, waiters)


def wake(core: CoreState, waiters) -> None:
    heap = core.ready_heap
    for waiter in waiters:
        if waiter.squashed or waiter.issued:
            continue
        waiter.waiting_on -= 1
        if waiter.waiting_on == 0 and waiter.dispatched:
            heappush(heap, (waiter.seq, waiter))


def writeback_stage(core: CoreState) -> None:
    pending = core.events.pop(core.cycle, None)
    if not pending:
        return
    pending.sort(key=_by_seq)
    mispredicts: List[DynInst] = []
    # The per-instruction finish work is inlined here (with the wakeup
    # loop of write_dest): this loop runs once per completing dynamic
    # instruction and is one of the hottest in the simulator.
    trace = core.trace
    cycle = core.cycle
    prf = core.prf
    values = prf.values
    ready = prf.ready
    waiters_map = prf.waiters
    heap = core.ready_heap
    for inst in pending:
        if inst.squashed:
            continue
        static = inst.static
        inst.executed = True
        inst.completed = True
        if trace is not None:
            trace.event(cycle, _WRITEBACK, inst)
        if inst.is_store:
            core._mem_retry = True
        if static.is_wrpkru and inst.rob_pkru_id is not None:
            specmpk = core.specmpk
            entry = specmpk.lookup(inst.rob_pkru_id)
            wake(core, specmpk.execute(entry, inst.wrpkru_value))
        if static.is_control:
            train_predictor(core, inst)
        pdst = inst.pdst
        if pdst is not None and inst.result is not None:
            # Inlined prf.write + the wakeup loop.
            values[pdst] = inst.result & MASK64
            ready[pdst] = True
            waiters = waiters_map.pop(pdst, None)
            if waiters:
                for waiter in waiters:
                    if waiter.squashed or waiter.issued:
                        continue
                    waiter.waiting_on -= 1
                    if waiter.waiting_on == 0 and waiter.dispatched:
                        heappush(heap, (waiter.seq, waiter))
        if inst.replay_at_head:
            inst.completed = False  # must re-execute at the head
        if inst.mispredicted:
            mispredicts.append(inst)
    for branch in mispredicts:
        if not branch.squashed:
            squash_after(core, branch)


def train_predictor(core: CoreState, inst: DynInst) -> None:
    static = inst.static
    if static.is_conditional_branch:
        core.predictor.train_conditional(
            static.pc, inst.ghist_checkpoint.ghist,
            inst.actual_taken, inst.actual_target,
        )
    elif static.is_indirect:
        core.predictor.train_indirect(static.pc, inst.actual_target)
