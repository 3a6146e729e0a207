"""Memory execution: translation, PKRU checks, forwarding, ordering.

Implements the load/store half of execution — TLB probes with the
SpecMPK conservative-stall rule (SSV-C5), the PKRU Load/Store Checks
(SSV-C2), store-to-load forwarding, delay-on-miss, fill provenance for
the Flush+Reload oracle, and memory-dependence speculation.  Shared by
the issue stage (speculative execution) and the commit stage
(non-speculative replay at the Active List head).
"""

from __future__ import annotations

from ...isa.registers import MASK64
from ...mpk.faults import ProtectionFault, SegmentationFault
from ...mpk.pkru import access_disabled
from ...trace.collector import EventKind
from ..corestate import CoreState
from ..dynamic import DynInst
from .squash import squash_memory_order

_ISSUE_EVENT = EventKind.ISSUE
_EXECUTE_EVENT = EventKind.EXECUTE


def try_execute_mem(core: CoreState, inst: DynInst) -> bool:
    """Route a ready load/store to execution; False parks it.

    The reference (non-fused) entry point: the issue stage inlines
    these gates into its select and parked-retry loops and must stay
    equivalent to this function.
    """
    if not older_lfences_done(core, inst):
        return False
    if inst.is_load:
        return try_execute_load(core, inst)
    execute_store(core, inst)
    return True


def older_lfences_done(core: CoreState, inst: DynInst) -> bool:
    # inflight_lfences stays seq-sorted (renamed in order, removed at
    # in-order commit or from the squashed tail), so the oldest
    # in-flight fence is the first entry.
    fences = core.inflight_lfences
    return not fences or fences[0] >= inst.seq


def translate(core: CoreState, inst: DynInst, address: int):
    """TLB probe for *address*; returns (entry, latency) or a stall.

    A miss under SpecMPK conservatively stalls the access until the
    Active List head (SSV-C5); other policies pay the walk latency
    and fill the TLB speculatively.
    """
    tlb = core.tlb
    entry = tlb.lookup(address)
    if entry is not None:
        return entry, 0
    walked = tlb.walk(address)
    if walked is None:
        return None, 0  # unmapped (wrong path or real segfault)
    if core._stall_tlb_miss:
        core.stats.tlb_miss_stalls += 1
        return "stall", 0
    tlb.fill(address, walked)
    return walked, tlb.walk_latency


def try_execute_load(core: CoreState, inst: DynInst) -> bool:
    """Attempt to execute a load; False parks it on memory ordering.

    Callers (:func:`try_execute_mem` and the issue stage's inlined
    gates) have already verified every older LFENCE completed.
    """
    # Memory ordering: every older store must have its address —
    # unless memory-dependence speculation is on, in which case the
    # load proceeds and a later conflicting store squashes it.
    if not core._memdep_spec:
        unknown = core._unknown_stores
        if unknown and unknown[0] < inst.seq:
            return False

    static = inst.static
    address = (core.prf.values[inst.psrc1] + (static.imm or 0)) & MASK64
    inst.address = address
    # Inlined mark_issued (one call saved per executed load).
    inst.issued = True
    if inst.in_iq:
        inst.in_iq = False
        core.iq_count -= 1
    if core.trace is not None:
        core.trace.event(core.cycle, _ISSUE_EVENT, inst)

    if address % 8 != 0:
        complete_load(core, inst, 0, 1, fault=_alignment(address, "read"))
        return True

    entry, extra = translate(core, inst, address)
    if entry is None:
        complete_load(
            core, inst, 0, 1, fault=SegmentationFault(address, "read")
        )
        return True
    if entry == "stall":
        stall_to_head(core, inst, reason="tlb")
        return True
    inst.pkey = entry.pkey
    inst.tlb_entry = entry

    if not entry.readable:
        complete_load(
            core, inst, 0, 1,
            fault=ProtectionFault(address, "read", entry.pkey,
                                  "page not readable"),
        )
        return True

    if core._load_dom and not core.hierarchy.is_cached(address):
        # Delay-on-miss [43]: any speculatively issued load that
        # would change cache state waits until it is non-squashable.
        core.stats.loads_stalled_by_check += 1
        stall_to_head(core, inst)
        return True

    if core._policy_specmpk:
        if not core.specmpk.load_check(entry.pkey):
            # PKRU Load Check failed: stall until non-squashable.
            core.stats.loads_stalled_by_check += 1
            stall_to_head(core, inst)
            return True
    else:
        check_pkru = (
            core.specmpk.arf
            if core._policy_serialized
            else core.specmpk.speculative_value(inst.pkru_dep)
        )
        if access_disabled(check_pkru, entry.pkey):
            complete_load(
                core, inst, 0, 1,
                fault=ProtectionFault(address, "read", entry.pkey,
                                      "PKRU access-disable"),
            )
            return True

    # Store-to-load forwarding: youngest older store with a match.
    candidates = core._fwd_stores.get(address)
    if candidates:
        seq = inst.seq
        store = None
        for cand in candidates:
            if cand.seq < seq and (store is None or cand.seq > store.seq):
                store = cand
        if store is not None:
            if store.forwarding_disabled:
                # SpecMPK: forwarding blocked; execute at the head.
                stall_to_head(core, inst)
                return True
            core.stats.load_forwardings += 1
            inst.forwarded_from = store
            complete_load(core, inst, store.mem_value, 1 + extra)
            return True

    # Fill provenance: an L1D miss here means this (speculatively
    # issued) load installs a new line — the state change a
    # Flush+Reload receiver can observe.  If the load is later
    # squashed, trim_younger reclassifies the fill as wrong-path.
    l1d_stats = core.hierarchy.l1d.stats
    misses_before = l1d_stats.misses
    latency = core.hierarchy.access(address) + extra
    if l1d_stats.misses != misses_before:
        inst.caused_fill = True
        core.stats.spec_fills += 1
    value = core.memory.peek(address)
    complete_load(core, inst, value, latency)
    return True


def complete_load(core: CoreState, inst: DynInst, value, latency,
                  fault=None) -> None:
    inst.mem_value = value
    inst.result = value
    inst.latency = latency
    inst.fault = fault
    # Book the completion-event calendar inline (no call per load).
    if latency < 1:
        latency = 1
    when = core.cycle + latency
    inst.complete_cycle = when
    events = core.events
    pending = events.get(when)
    if pending is None:
        events[when] = [inst]
    else:
        pending.append(inst)
    if core.trace is not None:
        core.trace.event(core.cycle, _EXECUTE_EVENT, inst, info=latency)


def stall_to_head(core: CoreState, inst: DynInst,
                  reason: str = "check") -> None:
    """Mark a memory access for non-speculative replay at retirement.

    *reason* records why (``"tlb"`` for a TLB miss under SpecMPK,
    ``"check"`` for a failed PKRU check or delay-on-miss) so the
    top-down report can attribute the resulting head-of-AL stall
    cycles to the right bucket.
    """
    inst.replay_at_head = True
    inst.replay_reason = reason
    if core.config.defer_tlb_update:
        core.tlb.note_deferred_fill()
        core.stats.tlb_fills_deferred += 1


def execute_store(core: CoreState, inst: DynInst) -> None:
    static = inst.static
    # Inlined mark_issued (one call saved per executed store).
    inst.issued = True
    if inst.in_iq:
        inst.in_iq = False
        core.iq_count -= 1
    if core.trace is not None:
        core.trace.event(core.cycle, _ISSUE_EVENT, inst)
    values = core.prf.values
    inst.address = (values[inst.psrc1] + (static.imm or 0)) & MASK64
    inst.mem_value = values[inst.psrc2]
    core._unknown_stores.remove(inst.seq)

    extra = 0
    if inst.address % 8 == 0:
        entry, extra = translate(core, inst, inst.address)
        if entry == "stall":
            # TLB-missing store: pKey unknown, so conservatively
            # disable forwarding; protection re-evaluated at head.
            inst.forwarding_disabled = True
            inst.replay_at_head = True
            inst.replay_reason = "tlb"
            entry = None
            extra = 0
        if entry is not None:
            inst.pkey = entry.pkey
            inst.tlb_entry = entry
            if core._policy_specmpk and not core.specmpk.store_check(
                entry.pkey
            ):
                # PKRU Store Check failed: no store-to-load
                # forwarding from this entry (SSV-C2).
                inst.forwarding_disabled = True
                core.stats.stores_forwarding_disabled += 1
    if core._memdep_spec:
        detect_memory_order_violation(core, inst)
    # Index the store for forwarding lookups by younger loads.
    fwd = core._fwd_stores
    peers = fwd.get(inst.address)
    if peers is None:
        fwd[inst.address] = [inst]
    else:
        peers.append(inst)
    # The store's address is now known: parked loads may proceed.
    core._mem_retry = True
    # Architectural permission/alignment outcomes resolve at retire.
    latency = 1 + extra
    when = core.cycle + latency
    inst.complete_cycle = when
    events = core.events
    pending = events.get(when)
    if pending is None:
        events[when] = [inst]
    else:
        pending.append(inst)
    if core.trace is not None:
        core.trace.event(core.cycle, _EXECUTE_EVENT, inst, info=latency)


def detect_memory_order_violation(core: CoreState, store: DynInst) -> None:
    """A store just learned its address: any younger load that
    already executed against the same address read a stale value."""
    for load in core.load_queue:
        if load.seq < store.seq or load.squashed:
            continue
        if (
            load.issued
            and not load.replay_at_head
            and load.address == store.address
            and load.forwarded_from is not store
        ):
            squash_memory_order(core, load)
            return


def _alignment(address: int, access: str):
    from ...mpk.faults import AlignmentFault

    return AlignmentFault(address, access)
