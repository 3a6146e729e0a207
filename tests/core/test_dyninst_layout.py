"""``DynInst`` has a fixed slot layout with pinned initial values.

The per-instruction record is read and written on every cycle an
instruction is in flight, so every field is a declared slot stored by
``__init__`` (docs/performance.md section 9).  These tests pin both
halves of that: no instance ``__dict__`` can appear, and a freshly
built instruction starts from exactly the values the pipeline stages
have always assumed, so the layout cannot change any simulated result.
"""

import pytest

from repro.core.dynamic import DynInst
from repro.isa.instruction import Instruction
from repro.isa.opcodes import Opcode

#: Every field ``__init__`` does not derive from its arguments, with
#: its initial value.
INITIAL_VALUES = {
    # renamed operands
    "psrc1": None,
    "psrc2": None,
    "pdst": None,
    "ldst": None,
    "pkru_dep": None,
    # progress flags
    "dispatched": False,
    "issued": False,
    "executed": False,
    "completed": False,
    "squashed": False,
    # scheduling
    "waiting_on": 0,
    "complete_cycle": None,
    # branch state
    "predicted_taken": False,
    "predicted_target": None,
    "actual_taken": False,
    "actual_target": None,
    "mispredicted": False,
    "ghist_checkpoint": None,
    # memory state
    "address": None,
    "mem_value": None,
    "pkey": None,
    "tlb_entry": None,
    "forwarding_disabled": False,
    "replay_at_head": False,
    "replay_started": False,
    "replay_reason": None,
    "forwarded_from": None,
    "latency": 0,
    "caused_fill": False,
    # result / exception
    "result": None,
    "fault": None,
    # WRPKRU state
    "rob_pkru_id": None,
    "wrpkru_value": None,
    "pkru_mark": 0,
    # issue-queue occupancy
    "in_iq": False,
}

#: Classification flags ``__init__`` copies from the static instruction.
FLAGS = ("is_load", "is_store", "is_memory", "is_control",
         "is_wrpkru", "is_rdpkru")

OPCODES = (Opcode.ADD, Opcode.LD, Opcode.ST, Opcode.BNE, Opcode.CALL,
           Opcode.WRPKRU, Opcode.RDPKRU)


def _make(opcode: Opcode) -> DynInst:
    static = Instruction(opcode, dst=1, src1=2, src2=3, imm=8)
    static.pc = 0x40
    return DynInst(static, seq=7, fetch_cycle=11)


def test_no_instance_dict_and_undeclared_attribute_rejected():
    inst = _make(Opcode.ADD)
    assert not hasattr(inst, "__dict__")
    with pytest.raises(AttributeError):
        inst.not_a_field = 1


def test_slots_cover_exactly_the_known_fields():
    derived = {"static", "seq", "pc", "fetch_cycle", *FLAGS}
    assert len(DynInst.__slots__) == len(set(DynInst.__slots__))
    assert set(DynInst.__slots__) == derived | set(INITIAL_VALUES)


@pytest.mark.parametrize("opcode", OPCODES, ids=lambda op: op.name)
def test_fresh_instance_initial_values(opcode):
    inst = _make(opcode)
    assert inst.static.opcode is opcode
    assert (inst.seq, inst.pc, inst.fetch_cycle) == (7, 0x40, 11)
    for flag in FLAGS:
        assert getattr(inst, flag) is getattr(inst.static, flag), flag
    for name, value in INITIAL_VALUES.items():
        # ``is``: False must not read as 0, nor 0 as False.
        assert getattr(inst, name) is value, name
