"""Fast-path layer: multi-cycle advancement over idle stretches.

The staged engine steps one cycle at a time only when a stage can make
progress.  For cycles where every stage would provably be a no-op
(nothing retires, completes, issues, renames, or fetches),
:func:`idle_skip` jumps the clock straight to the next wakeup and
credits the skipped cycles to exactly the counters and top-down
buckets per-cycle stepping would have bumped.

``SimStats``, the :mod:`repro.trace` accounting, and the SpecMPK
occupancy histogram are bit-identical with the skip on or off (the
tier-1 suite asserts this), traced or untraced.

Idle stretches appear behind long L2/DRAM misses and TLB walks; under
the SERIALIZED WRPKRU policy they also appear while the front end
drains around each permission update, which is why the fast path is
where that policy's slowdown shows up as *skipped* rather than
*stepped* cycles.
"""

from __future__ import annotations

from heapq import heappop
from typing import Optional

from ..trace.collector import StallKind
from .corestate import CoreState
from .stages.rename import rename_gate


def rename_blocked(core: CoreState) -> Optional[tuple]:
    """Why rename cannot proceed this cycle: (stat, flag) or None.

    Mirrors the gate order of :func:`~.stages.rename.rename_stage` +
    :func:`~.stages.rename.rename_gate` exactly; used only by the fast
    path, which charges the returned counter once per skipped cycle.
    """
    if not core.frontend:
        return ("rename_stall_empty", StallKind.FRONTEND_EMPTY)
    inst = core.frontend[0]
    if inst.fetch_cycle + core.config.frontend_depth > core.cycle:
        return (None, StallKind.FRONTEND_EMPTY)
    if core.serialize_block is not None:
        return ("rename_stall_wrpkru", StallKind.WRPKRU_SERIALIZATION)
    if len(core.active_list) >= core.config.active_list_size:
        return ("rename_stall_al_full", StallKind.BACKEND_AL_FULL)
    return rename_gate(core, inst.static)


def idle_skip(core: CoreState, max_cycles: int) -> int:
    """Fast-forward the clock over fully idle cycles.

    A cycle is idle when every stage would be a no-op: nothing can
    retire (the Active List head is waiting on a scheduled
    completion), nothing writes back this cycle, nothing is ready
    to issue, rename is blocked by a cause only a future completion
    can clear, and fetch is stalled.  Instead of stepping through
    such stretches one bookkeeping cycle at a time, jump the clock to
    the next wakeup and credit the skipped cycles (see module
    docstring).

    Returns the number of cycles skipped; 0 means "not idle, step
    normally".
    """
    # Cheapest discriminators first: most cycles are busy and must
    # bail out of this probe almost for free.
    events = core.events
    cycle = core.cycle
    if cycle in events:
        return 0  # a completion writes back this cycle
    heap = core.ready_heap
    while heap:
        top = heap[0][1]
        if top.squashed or top.issued:
            heappop(heap)  # exactly what issue_stage would discard
        else:
            return 0  # something can issue
    if core._mem_retry and core.mem_parked:
        return 0  # parked memory accesses must be rescanned
    tlb_flag = 0
    active_list = core.active_list
    if active_list:
        head = active_list[0]
        if head.completed:
            return 0  # retirement proceeds
        static = head.static
        if head.replay_at_head and not head.replay_started:
            return 0  # the head starts its non-speculative replay
        if not head.executed and (
            head.is_rdpkru or static.is_lfence or static.is_clflush
        ):
            return 0  # executes at the head this cycle
        if (
            (head.replay_at_head or head.replay_started)
            and head.replay_reason == "tlb"
        ):
            tlb_flag = StallKind.TLB  # retire stage raises this flag
    blocked = rename_blocked(core)
    if blocked is None:
        return 0  # rename makes progress
    cfg = core.config
    fetch_has_room = (
        not core.fetch_stopped
        and len(core.frontend) < 4 * cfg.fetch_width
    )
    if fetch_has_room and core.fetch_resume_cycle <= cycle:
        return 0  # fetch makes progress

    # Idle.  Wake at the next scheduled completion, or earlier if a
    # time-driven stall (redirect penalty, front-end pipe depth)
    # expires first.
    wake = min(events) if events else max_cycles
    if fetch_has_room and core.fetch_resume_cycle > cycle:
        wake = min(wake, core.fetch_resume_cycle)
    if core.frontend:
        depth_ready = core.frontend[0].fetch_cycle + cfg.frontend_depth
        if depth_ready > cycle:
            wake = min(wake, depth_ready)
    wake = min(wake, max_cycles)
    skipped = wake - cycle
    if skipped <= 0:
        return 0

    core.cycles_fast_skipped += skipped
    core.fast_skip_events += 1
    stat, flag = blocked
    stats = core.stats
    if stat is not None:
        # The same rename-stall counter a per-cycle step would have
        # bumped once per idle cycle.
        setattr(stats, stat, getattr(stats, stat) + skipped)
    core.cycle = wake
    stats.cycles = wake - core._cycle_base
    if core.trace is not None:
        core.trace.skip_cycles(
            cycle,
            skipped,
            int(flag | tlb_flag),
            (
                len(core.frontend), len(active_list), core.iq_count,
                len(core.load_queue), len(core.store_queue),
                core.specmpk.occupancy,
            ),
        )
    return skipped
