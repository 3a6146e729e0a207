"""Differential tests: staged timing engine == single-step engine.

The staged engine (precompiled per-block schedules from
:mod:`repro.core.schedule` driving the block fetch path) claims *timing*
bit-identity with the legacy single-step front end: same cycle count,
same SimStats down to every stall counter and fill-provenance counter,
same SpecMPK occupancy histogram, same trace accounting.  This suite is
the authority for that claim: hypothesis-generated programs plus
directed WRPKRU-dense, mispredict-dense, and fault-raising programs run
on both engines under every WRPKRU policy and every observable must
match exactly.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import CoreConfig, Simulator, WrpkruPolicy
from repro.core.schedule import shared_schedule
from repro.isa import EAX, ProgramBuilder
from repro.mpk import make_pkru
from repro.trace import TraceCollector, TraceConfig


WORK_REGS = list(range(2, 10))

alu_op = st.sampled_from(["add", "sub", "xor", "and_", "or_", "mul", "slt"])

LOCK = make_pkru(disabled=[1])

MAX_CYCLES = 500_000


@st.composite
def random_body(draw):
    """Abstract op list: ALU, memory, WRPKRU churn, branches, calls."""
    ops = draw(
        st.lists(
            st.one_of(
                st.tuples(st.just("alu"), alu_op,
                          st.sampled_from(WORK_REGS),
                          st.sampled_from(WORK_REGS),
                          st.sampled_from(WORK_REGS)),
                st.tuples(st.just("li"), st.sampled_from(WORK_REGS),
                          st.integers(min_value=-1000, max_value=1000)),
                st.tuples(st.just("ld"), st.sampled_from(WORK_REGS),
                          st.integers(min_value=0, max_value=63)),
                st.tuples(st.just("st"), st.sampled_from(WORK_REGS),
                          st.integers(min_value=0, max_value=63)),
                st.tuples(st.just("wrpkru"),
                          st.sampled_from([0, make_pkru(disabled=[14]),
                                           make_pkru(write_disabled=[15]),
                                           make_pkru(disabled=[14, 15])])),
                st.tuples(st.just("rdpkru")),
                st.tuples(st.just("lfence")),
                st.tuples(st.just("skip"),
                          st.sampled_from(["beq", "bne", "blt", "bge"]),
                          st.sampled_from(WORK_REGS),
                          st.sampled_from(WORK_REGS),
                          st.integers(min_value=1, max_value=3)),
                st.tuples(st.just("call"), st.integers(min_value=0, max_value=2)),
                st.tuples(st.just("callr"), st.integers(min_value=0, max_value=2)),
            ),
            min_size=1,
            max_size=30,
        )
    )
    iterations = draw(st.integers(min_value=1, max_value=3))
    return ops, iterations


def build_program(ops, iterations):
    """Materialise the abstract op list into a terminating program.

    Memory traffic stays in a pkey-0 region; WRPKRU only toggles pKeys
    14/15 so the machinery is exercised without architectural faults.
    """
    b = ProgramBuilder()
    data = b.region("data", 4096)
    # Leaves first so their PCs are known to the callr ops below.
    leaf_pcs = {}
    for func in range(3):
        leaf_pcs[func] = b.label(f"leaf{func}")
        b.addi(2 + func, 2 + func, func + 1)
        b.xori(9, 9, func)
        b.ret()
    b.label("main")
    b.li(10, data.base)
    b.li(11, iterations)
    for reg in WORK_REGS:
        b.li(reg, reg * 7)
    b.label("loop")
    pending_skips = []
    for index, op in enumerate(ops):
        pending_skips = _close_skips(b, pending_skips, index)
        kind = op[0]
        if kind == "alu":
            _, name, dst, s1, s2 = op
            getattr(b, name)(dst, s1, s2)
        elif kind == "li":
            _, dst, imm = op
            b.li(dst, imm)
        elif kind == "ld":
            _, dst, slot = op
            b.ld(dst, 10, 8 * slot)
        elif kind == "st":
            _, src, slot = op
            b.st(src, 10, 8 * slot)
        elif kind == "wrpkru":
            _, value = op
            b.li(EAX, value)
            b.wrpkru()
        elif kind == "rdpkru":
            b.rdpkru()
        elif kind == "lfence":
            b.lfence()
        elif kind == "skip":
            _, branch, s1, s2, distance = op
            label = f"skip_{index}"
            getattr(b, branch)(s1, s2, label)
            pending_skips.append((label, index + distance))
        elif kind == "call":
            _, func = op
            b.call(f"leaf{func}")
        elif kind == "callr":
            _, func = op
            b.li(13, leaf_pcs[func])
            b.callr(13)
    _close_skips(b, pending_skips, len(ops), force=True)
    b.addi(11, 11, -1)
    b.bne(11, 0, "loop")
    b.halt()
    return b.build()


def _close_skips(b, pending, index, force=False):
    remaining = []
    for label, end in pending:
        if force or end <= index:
            b.label(label)
        else:
            remaining.append((label, end))
    return remaining


def run_engine(program, policy, blocks, traced=False, fast_skip=True,
               max_instructions=None, warmup=0, initial_pkru=0):
    """One simulation with the staged (blocks=True) or legacy engine."""
    config = CoreConfig(wrpkru_policy=policy, idle_fast_skip=fast_skip)
    collector = (
        TraceCollector(TraceConfig(capacity=1 << 12, cycle_capacity=1 << 12))
        if traced else None
    )
    sim = Simulator(program, config, trace=collector,
                    initial_pkru=initial_pkru)
    if blocks:
        assert sim.schedule is not None, "staged engine should be default"
    else:
        sim.schedule = None  # the legacy single-step front end
    result = sim.run(
        max_cycles=MAX_CYCLES,
        max_instructions=max_instructions,
        warmup_instructions=warmup,
    )
    return result, sim, collector


def observe(result, sim, collector=None):
    """Every observable the bit-identity contract covers."""
    state = dict(vars(result.stats))
    state["halted"] = result.halted
    state["fault"] = (
        None if result.fault is None
        else (type(result.fault).__name__,
              getattr(result.fault, "address", None))
    )
    state["final_cycle"] = sim.cycle
    state["rob_pkru_occupancy"] = sim.specmpk_occupancy_histogram()
    state["arf_pkru"] = sim.specmpk.arf
    if collector is not None:
        state["bucket_cycles"] = dict(collector.bucket_cycles)
        state["total_cycles"] = collector.total_cycles
        state["occupancy"] = collector.occupancy_histograms()
        state["cycle_ring"] = list(collector.cycles)
    return state


def assert_engines_identical(program, policy, **kwargs):
    staged = run_engine(program, policy, blocks=True, **kwargs)
    legacy = run_engine(program, policy, blocks=False, **kwargs)
    obs_staged = observe(*staged)
    obs_legacy = observe(*legacy)
    assert obs_staged == obs_legacy
    # The fill-provenance counters feed the Flush+Reload oracle; call
    # them out explicitly even though vars(stats) already covers them.
    assert staged[0].stats.spec_fills == legacy[0].stats.spec_fills
    assert (staged[0].stats.wrongpath_fills
            == legacy[0].stats.wrongpath_fills)
    return staged, legacy


@pytest.mark.parametrize("policy", list(WrpkruPolicy))
@settings(max_examples=25, deadline=None)
@given(body=random_body())
def test_staged_engine_matches_single_step(policy, body):
    """Random programs: every SimStats field, the SpecMPK occupancy
    histogram, and the fill-provenance counters match bit-for-bit."""
    ops, iterations = body
    program = build_program(ops, iterations)
    assert_engines_identical(program, policy)


@settings(max_examples=10, deadline=None)
@given(body=random_body())
def test_staged_engine_matches_with_warmup_window(body):
    """reset_stats mid-run (the warmup window) keeps the engines in
    lockstep: the measurement window starts at the same cycle."""
    ops, iterations = body
    program = build_program(ops, iterations)
    assert_engines_identical(
        program, WrpkruPolicy.SPECMPK, max_instructions=400, warmup=100
    )


def _wrpkru_dense_program(iterations=40):
    """A WRPKRU per handful of instructions: the ROB_pkru churns
    (allocate/retire/squash) constantly, which is where the lazy
    occupancy histogram and the serialization drain live."""
    b = ProgramBuilder()
    data = b.region("data", 4096)
    b.label("main")
    b.li(10, data.base)
    b.li(11, iterations)
    b.li(2, 7)
    b.label("loop")
    for value in (make_pkru(disabled=[14]), 0,
                  make_pkru(write_disabled=[15]),
                  make_pkru(disabled=[14, 15]), 0):
        b.li(EAX, value)
        b.wrpkru()
        b.add(2, 2, 11)
        b.st(2, 10, 0)
        b.ld(3, 10, 0)
        b.rdpkru()
    b.addi(11, 11, -1)
    b.bne(11, 0, "loop")
    b.halt()
    return b.build()


def _mispredict_dense_program(iterations=200):
    """An LCG-driven branch the TAGE predictor cannot learn: dense
    mispredicts exercise squash, checkpoint restore, and wrong-path
    fetch through the block path's mid-block entry points."""
    b = ProgramBuilder()
    data = b.region("data", 4096)
    b.label("main")
    b.li(10, data.base)
    b.li(11, iterations)
    b.li(2, 12345)
    b.li(4, 1)
    b.label("loop")
    # r2 = r2 * 1103515245 + 12345 (mod 2^64); branch on bit 16.
    b.li(5, 1103515245)
    b.mul(2, 2, 5)
    b.addi(2, 2, 12345)
    b.srli(5, 2, 16)
    b.and_(5, 5, 4)
    b.bne(5, 0, "odd")
    b.st(2, 10, 0)
    b.jmp("join")
    b.label("odd")
    b.ld(3, 10, 8)
    b.xor(3, 3, 2)
    b.st(3, 10, 8)
    b.label("join")
    b.addi(11, 11, -1)
    b.bne(11, 0, "loop")
    b.halt()
    return b.build()


def _faulting_program():
    """Mid-run architectural protection fault: lock pKey 1, then touch
    its region.  Both engines must commit the same fault at the same
    point with identical statistics."""
    b = ProgramBuilder()
    secret = b.region("secret", 4096, pkey=1)
    b.label("main")
    b.li(EAX, LOCK)
    b.wrpkru()
    b.li(2, secret.base)
    b.addi(3, 0, 1)
    b.ld(4, 2, 0)     # faults: pKey 1 access-disabled
    b.addi(5, 0, 2)   # never retires
    b.halt()
    return b.build()


@pytest.mark.parametrize("policy", list(WrpkruPolicy))
def test_wrpkru_dense_program_matches(policy):
    assert_engines_identical(_wrpkru_dense_program(), policy)


@pytest.mark.parametrize("policy", list(WrpkruPolicy))
def test_mispredict_dense_program_matches(policy):
    staged, _ = assert_engines_identical(_mispredict_dense_program(), policy)
    # The program earns its name: real squash traffic happened.
    assert staged[0].stats.branch_mispredicts > 10


@pytest.mark.parametrize("policy", list(WrpkruPolicy))
def test_faulting_program_matches(policy):
    staged, legacy = assert_engines_identical(_faulting_program(), policy)
    assert staged[0].fault is not None
    assert type(staged[0].fault) is type(legacy[0].fault)
    assert staged[0].fault.address == legacy[0].fault.address


@pytest.mark.parametrize("policy", list(WrpkruPolicy))
def test_traced_runs_match(policy):
    """The trace layer sees the same stream from both engines: stall
    buckets, occupancy histograms, and the retained cycle ring."""
    assert_engines_identical(_wrpkru_dense_program(12), policy, traced=True)


@settings(max_examples=10, deadline=None)
@given(body=random_body())
def test_traced_random_programs_match(body):
    ops, iterations = body
    program = build_program(ops, iterations)
    assert_engines_identical(program, WrpkruPolicy.SPECMPK, traced=True)


def test_four_way_engine_fast_skip_identity():
    """{staged, legacy} x {fast-skip on, off} all agree: the fast-path
    layer is shared by both engines and pure under each."""
    program = _wrpkru_dense_program(15)
    observations = []
    for blocks in (True, False):
        for fast_skip in (True, False):
            result, sim, _ = run_engine(
                program, WrpkruPolicy.SPECMPK,
                blocks=blocks, fast_skip=fast_skip,
            )
            observations.append(observe(result, sim))
    first = observations[0]
    for other in observations[1:]:
        assert other == first


class TestScheduleCache:
    def test_schedule_is_shared_per_program(self):
        program = _wrpkru_dense_program(5)
        sim1 = Simulator(program)
        sim2 = Simulator(program)
        assert sim1.schedule is sim2.schedule
        assert sim1.schedule is shared_schedule(program)

    def test_blocks_compile_once_across_runs(self):
        program = _wrpkru_dense_program(5)
        result, sim, _ = run_engine(program, WrpkruPolicy.SPECMPK,
                                    blocks=True)
        assert result.halted
        schedule = sim.schedule
        assert schedule.compiled == len(schedule.blocks) - sum(
            1 for block in schedule.blocks.values() if block is None
        )
        compiled_once = schedule.compiled
        again, _, _ = run_engine(program, WrpkruPolicy.SPECMPK, blocks=True)
        assert again.halted
        assert schedule.compiled == compiled_once


class TestPrewarmIcache:
    def test_prewarm_installs_code_lines_once(self):
        """The I-cache prewarm installs every compiled block's code
        lines; a second pass finds nothing missing."""
        program = _wrpkru_dense_program(5)
        sim = Simulator(program, CoreConfig(model_icache=True))
        installed = sim.prewarm_icache()
        assert installed > 0
        assert sim.prewarm_icache() == 0

    def test_prewarm_without_icache_is_noop(self):
        sim = Simulator(_wrpkru_dense_program(2))  # model_icache=False
        assert sim.prewarm_icache() == 0

    def test_prewarmed_run_sees_no_cold_fetch_misses(self):
        program = _wrpkru_dense_program(5)
        sim = Simulator(program, CoreConfig(model_icache=True))
        sim.prewarm_icache()
        misses_before = sim.hierarchy.l1i.stats.misses
        result = sim.run(max_cycles=MAX_CYCLES)
        assert result.halted
        # The whole program fits in L1I: every fetch after the prewarm
        # hits (the blocks' code spans cover all fetched lines).
        assert sim.hierarchy.l1i.stats.misses == misses_before


class TestCosimGoldenModelPin:
    def test_golden_model_never_uses_staged_engine(self):
        """The lockstep golden model must single-step regardless of the
        timing engine in use: the *core* may fetch whole precompiled
        dispatch groups, but the reference emulator it is checked
        against advances exactly one architectural instruction per
        retire, with block caching pinned off."""
        program = _wrpkru_dense_program(5)
        config = CoreConfig(cosimulate=True, check_invariants=True)
        sim = Simulator(program, config)
        assert sim.schedule is not None     # staged engine on the core
        assert sim._cosim.blocks is False   # golden model single-steps
        assert sim._cosim.block_cache is None
        result = sim.run(max_cycles=MAX_CYCLES)
        assert result.fault is None and result.halted
        assert (sim._cosim.instructions_executed
                == sim.stats.instructions_retired)
