"""Instruction representation.

An :class:`Instruction` is the static (decoded) form shared by the
functional emulator and the out-of-order core.  The dynamic, in-flight
form lives in :mod:`repro.core.dynamic` and wraps one of these.

Everything derivable from the opcode alone — classification flags,
functional-unit latency, the ALU/branch evaluator, the effective
(implicit-operand) register indices — is computed once here at decode
time.  The execution engines touch millions of dynamic instances of
each static instruction, so those per-instruction lookups are the
hottest dict/enum operations in the whole simulator when done lazily.
"""

from __future__ import annotations

from typing import Optional

from .opcodes import (
    ALU_EVAL,
    BRANCH_EVAL,
    NO_ISSUE_OPS,
    Opcode,
    is_call,
    is_conditional_branch,
    is_control,
    is_indirect,
    is_load,
    is_memory,
    is_return,
    is_store,
    latency_of,
)
from .registers import EAX, RA, register_name


class Instruction:
    """One static instruction.

    Fields follow a three-operand RISC convention:

    * ``dst``  — destination register index or ``None``.
    * ``src1`` / ``src2`` — source register indices or ``None``.
    * ``imm``  — immediate (also the displacement for LD/ST and the
      target PC for direct control flow once labels are resolved).
    * ``target_label`` — unresolved label name for direct control flow.

    Memory operands are ``imm(src1)`` i.e. base register plus
    displacement; stores read the value from ``src2``.

    The ``is_*`` classification flags, ``latency``, ``alu_eval`` /
    ``branch_eval`` and the effective register indices are plain
    attributes precomputed from the opcode at construction time (the
    opcode never changes after decode).
    """

    __slots__ = (
        "opcode", "dst", "src1", "src2", "imm", "target_label", "pc",
        # precomputed classification flags
        "is_memory", "is_load", "is_store", "is_control",
        "is_conditional_branch", "is_indirect", "is_call", "is_return",
        "is_wrpkru", "is_rdpkru", "is_halt", "is_lfence", "is_clflush",
        # precomputed dispatch state
        "latency", "alu_eval", "branch_eval", "needs_iq",
        # effective operands including implicit RA/EAX
        "eff_dst", "eff_src1", "eff_src2",
    )

    def __init__(
        self,
        opcode: Opcode,
        dst: Optional[int] = None,
        src1: Optional[int] = None,
        src2: Optional[int] = None,
        imm: Optional[int] = None,
        target_label: Optional[str] = None,
    ) -> None:
        self.opcode = opcode
        self.dst = dst
        self.src1 = src1
        self.src2 = src2
        self.imm = imm
        self.target_label = target_label
        self.pc: Optional[int] = None

        self.is_memory = is_memory(opcode)
        self.is_load = is_load(opcode)
        self.is_store = is_store(opcode)
        self.is_control = is_control(opcode)
        self.is_conditional_branch = is_conditional_branch(opcode)
        self.is_indirect = is_indirect(opcode)
        self.is_call = is_call(opcode)
        self.is_return = is_return(opcode)
        self.is_wrpkru = opcode is Opcode.WRPKRU
        self.is_rdpkru = opcode is Opcode.RDPKRU
        self.is_halt = opcode is Opcode.HALT
        self.is_lfence = opcode is Opcode.LFENCE
        self.is_clflush = opcode is Opcode.CLFLUSH

        self.latency = latency_of(opcode)
        self.alu_eval = ALU_EVAL.get(opcode)
        self.branch_eval = BRANCH_EVAL.get(opcode)
        self.needs_iq = opcode not in NO_ISSUE_OPS

        # Logical (dst, src1, src2) including the implicit RA/EAX
        # operands of calls/returns and the PKRU instructions.
        eff_dst, eff_src1, eff_src2 = dst, src1, src2
        if opcode is Opcode.CALL or opcode is Opcode.CALLR:
            eff_dst = RA
        elif opcode is Opcode.RET:
            eff_src1 = RA
        elif opcode is Opcode.WRPKRU:
            eff_src1 = EAX
        elif opcode is Opcode.RDPKRU:
            eff_dst = EAX
        self.eff_dst = eff_dst
        self.eff_src1 = eff_src1
        self.eff_src2 = eff_src2

    # ``alu_eval`` / ``branch_eval`` hold evaluator lambdas, which do
    # not pickle; they are a function of the opcode, so the state drops
    # them and unpickling derives them again.  Programs then ship to
    # pool workers (parallel SimPoint, time shards of seed variants).

    def __getstate__(self) -> tuple:
        return tuple(getattr(self, name) for name in _PICKLED_SLOTS)

    def __setstate__(self, state: tuple) -> None:
        for name, value in zip(_PICKLED_SLOTS, state):
            setattr(self, name, value)
        self.alu_eval = ALU_EVAL.get(self.opcode)
        self.branch_eval = BRANCH_EVAL.get(self.opcode)

    def source_registers(self) -> tuple:
        """Explicit source register indices (no PKRU, it is implicit)."""
        sources = []
        if self.src1 is not None:
            sources.append(self.src1)
        if self.src2 is not None:
            sources.append(self.src2)
        return tuple(sources)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Instruction {self.render()} @pc={self.pc}>"

    def render(self) -> str:
        """Render back to assembly text."""
        op = self.opcode.value
        if self.opcode in (Opcode.LD,):
            return f"{op} {register_name(self.dst)}, {self.imm}({register_name(self.src1)})"
        if self.opcode in (Opcode.ST,):
            return f"{op} {register_name(self.src2)}, {self.imm}({register_name(self.src1)})"
        if self.opcode is Opcode.CLFLUSH:
            return f"{op} {self.imm or 0}({register_name(self.src1)})"
        parts = []
        if self.dst is not None:
            parts.append(register_name(self.dst))
        if self.src1 is not None:
            parts.append(register_name(self.src1))
        if self.src2 is not None:
            parts.append(register_name(self.src2))
        if self.target_label is not None:
            parts.append(self.target_label)
        elif self.imm is not None:
            parts.append(str(self.imm))
        if parts:
            return f"{op} " + ", ".join(parts)
        return op


_PICKLED_SLOTS = tuple(
    name for name in Instruction.__slots__
    if name not in ("alu_eval", "branch_eval")
)
