"""Rename/dispatch: register renaming and back-end allocation.

Renames up to ``rename_width`` instructions per cycle off the front-end
buffer: structural gates (Active List, LSQ, issue queue, free list,
ROB_pkru, WRPKRU serialization) are checked in a fixed order shared
with the fast path's :func:`~repro.core.fastpath.rename_blocked` probe,
registers are renamed through the RMT with an inlined free-list
allocation, PKRU dependences are tagged against the SpecMPK unit, and
no-issue instructions (NOP/HALT/JMP/CALL) complete immediately.

:func:`rename_stage` is the single hottest function in the simulator —
it runs once per renamed dynamic instruction, wrong paths included —
so the whole per-instruction path (gates, rename, dispatch, wakeup
registration) is one fused loop with every invariant attribute hoisted
to a local before it.  :func:`rename_gate` keeps the gate logic as a
standalone function for the fast path; its check order and this loop's
must stay identical.
"""

from __future__ import annotations

from heapq import heappush
from typing import Optional

from ...isa.opcodes import Opcode
from ...isa.registers import to_u64
from ...trace.collector import EventKind, StallKind
from ..config import WrpkruPolicy
from ..corestate import CoreState, note_pkru_occ

_DECODE = EventKind.DECODE
_RENAME = EventKind.RENAME
_DISPATCH = EventKind.DISPATCH
_CALL = Opcode.CALL
_NO_ISSUE = (Opcode.NOP, Opcode.HALT, Opcode.JMP)


def rename_stage(core: CoreState) -> None:
    """Rename, tag and dispatch up to ``rename_width`` instructions off
    the front-end buffer, stopping at the first structural gate."""
    frontend = core.frontend
    trace = core.trace
    stats = core.stats
    cycle = core.cycle
    cfg = core.config
    depth = cfg.frontend_depth
    # Zero-work bailouts before the (large) preamble: nothing buffered,
    # or the oldest buffered instruction is still in the front-end pipe.
    # Mirrors the loop's first-iteration checks exactly.
    if not frontend:
        stats.rename_stall_empty += 1
        if trace is not None:
            trace.stall(StallKind.FRONTEND_EMPTY)
        return
    if frontend[0].fetch_cycle + depth > cycle:
        if trace is not None:
            trace.stall(StallKind.FRONTEND_EMPTY)
        return
    width = cfg.rename_width
    al_size = cfg.active_list_size
    lq_size = cfg.load_queue_size
    sq_size = cfg.store_queue_size
    iq_size = cfg.issue_queue_size
    active_list = core.active_list
    load_queue = core.load_queue
    store_queue = core.store_queue
    specmpk = core.specmpk
    rename_tables = core.rename_tables
    rmt = rename_tables.rmt
    free_list = rename_tables.free_list
    prf = core.prf
    ready = prf.ready
    waiters_map = prf.waiters
    serialized = core._policy_serialized
    renames_pkru = core._renames_pkru
    al_append = active_list.append
    pop_frontend = frontend.popleft
    next_uid = specmpk._next_uid
    # RMT_pkru tag as a loop local: it only changes when a WRPKRU
    # allocates, which this loop itself does — the refresh below keeps
    # it equal to specmpk.current_dep() without a call per consumer.
    cur_dep = specmpk.rmt_tag if specmpk.rmt_valid else None
    renamed = 0
    while renamed < width:
        if not frontend:
            stats.rename_stall_empty += renamed == 0
            if trace is not None and renamed == 0:
                trace.stall(StallKind.FRONTEND_EMPTY)
            return
        inst = frontend[0]
        if inst.fetch_cycle + depth > cycle:
            if trace is not None and renamed == 0:
                trace.stall(StallKind.FRONTEND_EMPTY)
            return  # still in the front-end pipe
        if core.serialize_block is not None:
            stats.rename_stall_wrpkru += 1
            if trace is not None:
                trace.stall(StallKind.WRPKRU_SERIALIZATION)
            return
        if len(active_list) >= al_size:
            stats.rename_stall_al_full += 1
            if trace is not None:
                trace.stall(StallKind.BACKEND_AL_FULL)
            return

        static = inst.static
        ldst = static.eff_dst

        # Structural gates, inlined from :func:`rename_gate` (which the
        # fast path still calls) — the check order must stay identical
        # to that function's.
        gate = None
        if static.is_wrpkru:
            if serialized:
                if active_list:
                    # Drain: WRPKRU renames only once it is the oldest.
                    gate = ("rename_stall_wrpkru",
                            StallKind.WRPKRU_SERIALIZATION)
            elif specmpk.full:
                gate = ("rename_stall_rob_pkru_full",
                        StallKind.ROB_PKRU_FULL)
        if gate is None:
            if static.is_load and len(load_queue) >= lq_size:
                gate = ("rename_stall_lsq_full", StallKind.BACKEND_LSQ_FULL)
            elif static.is_store and len(store_queue) >= sq_size:
                gate = ("rename_stall_lsq_full", StallKind.BACKEND_LSQ_FULL)
            elif static.needs_iq and core.iq_count >= iq_size:
                gate = ("rename_stall_iq_full", StallKind.BACKEND_IQ_FULL)
            elif ldst is not None and not free_list:
                gate = ("rename_stall_no_preg", StallKind.BACKEND_NO_PREG)
        if gate is not None:
            stat, flag = gate
            setattr(stats, stat, getattr(stats, stat) + 1)
            if trace is not None:
                trace.stall(flag)
            return

        # PKRU dependence: the ROB_pkru tag this consumer waits on.
        pkru_dep = None
        if renames_pkru and (
            static.is_memory or static.is_wrpkru or static.is_rdpkru
        ):
            inst.pkru_dep = pkru_dep = cur_dep

        if static.is_wrpkru:
            stats.wrpkru_dispatched += 1
            if serialized:
                core.serialize_block = inst
            else:
                note_pkru_occ(core)
                inst.rob_pkru_id = cur_dep = specmpk.allocate().uid
                next_uid = specmpk._next_uid

        # Register rename (inlined RenameTables.allocate; free list
        # checked by the gate above).
        psrc1 = psrc2 = None
        lsrc1 = static.eff_src1
        if lsrc1 is not None:
            inst.psrc1 = psrc1 = rmt[lsrc1]
        lsrc2 = static.eff_src2
        if lsrc2 is not None:
            inst.psrc2 = psrc2 = rmt[lsrc2]
        if ldst is not None:
            inst.ldst = ldst
            inst.pdst = pdst = free_list.pop()
            rmt[ldst] = pdst
            ready[pdst] = False

        inst.pkru_mark = next_uid
        al_append(inst)
        if static.is_load:
            load_queue.append(inst)
        elif static.is_store:
            store_queue.append(inst)
            core._unknown_stores.append(inst.seq)
        if static.is_lfence:
            core.inflight_lfences.append(inst.seq)

        inst.dispatched = True
        if not static.needs_iq:
            # NOP/HALT/JMP/CALL shortcuts that skip the IQ (LFENCE and
            # RDPKRU execute at the head of the Active List).
            op = static.opcode
            if op is _CALL:
                # Target is known at fetch; the only work is writing RA
                # (nothing can be waiting on the freshly renamed RA
                # register, but keep the wakeup loop for exactness).
                for waiter in prf.write(inst.pdst, to_u64(inst.pc + 1)):
                    if waiter.squashed or waiter.issued:
                        continue
                    waiter.waiting_on -= 1
                    if waiter.waiting_on == 0 and waiter.dispatched:
                        heappush(core.ready_heap, (waiter.seq, waiter))
                inst.executed = inst.completed = True
            elif op in _NO_ISSUE:
                inst.executed = inst.completed = True
        else:
            # Dispatch into the issue queue with wakeup registration.
            core.iq_count += 1
            inst.in_iq = True
            waits = 0
            if psrc1 is not None and not ready[psrc1]:
                pending = waiters_map.get(psrc1)
                if pending is None:
                    waiters_map[psrc1] = [inst]
                else:
                    pending.append(inst)
                waits += 1
            if psrc2 is not None and not ready[psrc2]:
                pending = waiters_map.get(psrc2)
                if pending is None:
                    waiters_map[psrc2] = [inst]
                else:
                    pending.append(inst)
                waits += 1
            if pkru_dep is not None:
                entry = specmpk.lookup(pkru_dep)
                if entry is not None and not entry.executed:
                    entry.waiters.append(inst)
                    waits += 1
            inst.waiting_on = waits
            if waits == 0:
                heappush(core.ready_heap, (inst.seq, inst))

        if trace is not None:
            trace.event(cycle, _DECODE, inst)
            trace.event(cycle, _RENAME, inst)
            trace.event(cycle, _DISPATCH, inst)
        pop_frontend()
        renamed += 1


def rename_gate(core: CoreState, static) -> Optional[tuple]:
    """Structural reason *static* cannot rename: (stat, flag) or None.

    The standalone form of the gate checks fused into
    :func:`rename_stage` (which charges the returned counter once);
    used by the fast path's
    :func:`~repro.core.fastpath.rename_blocked` (which charges it once
    per skipped cycle).  The check order is the stepping order and must
    stay that way.
    """
    cfg = core.config
    if static.is_wrpkru:
        if cfg.wrpkru_policy is WrpkruPolicy.SERIALIZED:
            if core.active_list:
                # Drain: WRPKRU renames only once it is the oldest.
                return ("rename_stall_wrpkru",
                        StallKind.WRPKRU_SERIALIZATION)
        elif core.specmpk.full:
            return ("rename_stall_rob_pkru_full", StallKind.ROB_PKRU_FULL)
    if static.is_load and len(core.load_queue) >= cfg.load_queue_size:
        return ("rename_stall_lsq_full", StallKind.BACKEND_LSQ_FULL)
    if static.is_store and len(core.store_queue) >= cfg.store_queue_size:
        return ("rename_stall_lsq_full", StallKind.BACKEND_LSQ_FULL)
    if static.needs_iq and core.iq_count >= cfg.issue_queue_size:
        return ("rename_stall_iq_full", StallKind.BACKEND_IQ_FULL)
    if static.eff_dst is not None and core.rename_tables.free_count == 0:
        return ("rename_stall_no_preg", StallKind.BACKEND_NO_PREG)
    return None
