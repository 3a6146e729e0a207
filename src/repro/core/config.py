"""Core configuration (paper Table III) and WRPKRU execution policies."""

from __future__ import annotations

import dataclasses
import enum
from typing import Optional

from ..memory.hierarchy import (
    DEFAULT_DRAM_LATENCY,
    DEFAULT_L1D,
    DEFAULT_L1I,
    DEFAULT_L2,
    DEFAULT_L3,
    CacheGeometry,
)


class WrpkruPolicy(enum.Enum):
    """The three microarchitectures evaluated in the paper (SSVII).

    * ``SERIALIZED`` — baseline: WRPKRU executes non-speculatively; the
      front end drains around it (rename stalls), memory accesses wait
      for all prior WRPKRUs to retire.
    * ``NONSECURE_SPEC`` — PKRU is renamed; WRPKRU and younger memory
      instructions execute speculatively with no side-channel
      protection ("NonSecure SpecMPK").
    * ``SPECMPK`` — the paper's contribution: speculative WRPKRU plus
      PKRU Load/Store Checks backed by the Disabling Counters.
    """

    SERIALIZED = "serialized"
    NONSECURE_SPEC = "nonsecure_spec"
    SPECMPK = "specmpk"

    @property
    def renames_pkru(self) -> bool:
        return self is not WrpkruPolicy.SERIALIZED


@dataclasses.dataclass
class CoreConfig:
    """Microarchitectural parameters.  Defaults reproduce Table III."""

    # Pipeline widths ("Issue/decode/Commit width: 8 instructions").
    fetch_width: int = 8
    decode_width: int = 8
    rename_width: int = 8
    issue_width: int = 8
    commit_width: int = 8

    # Structure sizes ("AL/LQ/SQ/IQ/PRF Size: 352/128/72/160/280").
    active_list_size: int = 352
    load_queue_size: int = 128
    store_queue_size: int = 72
    issue_queue_size: int = 160
    phys_regs: int = 280

    # SpecMPK ("ROBpkru size: 8").
    rob_pkru_size: int = 8
    wrpkru_policy: WrpkruPolicy = WrpkruPolicy.SERIALIZED

    # Branch prediction ("BTB 4096, RAS 32, LTAGE").
    btb_entries: int = 4096
    ras_entries: int = 32
    predictor: str = "tage"

    # Front-end depth: cycles between fetch and rename, plus the
    # redirect penalty paid after a squash.
    frontend_depth: int = 4
    redirect_penalty: int = 2

    # Memory system (Table III geometries).
    l1i: CacheGeometry = DEFAULT_L1I
    l1d: CacheGeometry = DEFAULT_L1D
    l2: CacheGeometry = DEFAULT_L2
    l3: CacheGeometry = DEFAULT_L3
    dram_latency: int = DEFAULT_DRAM_LATENCY
    # Modelled as the unified second-level TLB of a Cascade-Lake-class
    # part; SpecMPK conservatively stalls TLB-missing accesses (SSV-C5),
    # so a realistically sized TLB matters for its overhead.
    tlb_entries: int = 1536
    tlb_walk_latency: int = 30
    model_icache: bool = False
    #: Idealised next-line prefetcher into L2/L3 (off by default; the
    #: calibrated profiles assume no prefetching).
    prefetch_next_line: bool = False

    # SpecMPK design-choice toggles (ablations, DESIGN.md SSkey decisions).
    defer_tlb_update: bool = True
    stall_on_tlb_miss: bool = True

    # Memory-dependence speculation: when enabled, loads issue past
    # older stores with unresolved addresses; a later conflict squashes
    # and re-executes from the offending load (SSV-C2 mentions these
    # squashes).  Off by default: the calibrated profiles assume the
    # conservative ordering.
    memory_dependence_speculation: bool = False

    # General-purpose secure-speculation comparison point (paper SSIII-D):
    # "dom" implements delay-on-miss (Sakalis et al. [43]) — speculative
    # loads that miss the L1 stall until they are non-squashable, for
    # EVERY load, not just MPK-checked ones.
    load_security: Optional[str] = None

    # Harness knobs.
    cosimulate: bool = False
    record_load_latencies: bool = False
    check_invariants: bool = False
    #: Fast-forward the clock over fully idle cycles (behind long
    #: DRAM misses / TLB walks) instead of stepping them one at a
    #: time.  Pure simulator-throughput optimization: SimStats and
    #: trace accounting are bit-identical with it on or off (the test
    #: suite asserts this).  Disabled automatically by
    #: ``check_invariants`` so invariants run every cycle.
    idle_fast_skip: bool = True

    def __post_init__(self) -> None:
        if self.rob_pkru_size < 1:
            raise ValueError("rob_pkru_size must be >= 1")
        if self.phys_regs < 32 + self.rename_width:
            raise ValueError("phys_regs too small to rename a full group")
        if self.active_list_size < 1 or self.issue_queue_size < 1:
            raise ValueError("queue sizes must be positive")
        if self.load_security not in (None, "dom"):
            raise ValueError(f"unknown load_security {self.load_security!r}")

    @property
    def rob_pkru_ratio(self) -> str:
        """The ROBpkru : Active List ratio used in Fig. 11 (e.g. '1/44')."""
        return f"1/{self.active_list_size // self.rob_pkru_size}"

    def replace(self, **overrides) -> "CoreConfig":
        """Return a copy with *overrides* applied."""
        return dataclasses.replace(self, **overrides)


def table_iii_config(policy: WrpkruPolicy = WrpkruPolicy.SERIALIZED) -> CoreConfig:
    """The exact configuration of Table III with the given policy."""
    return CoreConfig(wrpkru_policy=policy)
