"""The lowered simulator against the per-opcode interpreter it replaced.

``reference_interpreter.py`` keeps the old interpreter (``Processor.step``
dispatching through ``_DISPATCH``, operands resolved by ``isinstance``)
and the old simulator loop and recording wrappers.  Over generated
programs that use every opcode — CAS, FENCE, MUL, CMP_EQ, JMP and NOP
included, with indexed addresses and branches on stale, tainted values
— on all seven models, the five named propagation policies and three
schedulers, the lowered simulator must produce the same execution:
every ``MemoryOperation`` field, registers, raw SCP cuts, processor
statistics, flush and delivery counters, final memory, and (when
recording) the same schedule and deliveries.  A program that faults
(an indexed address out of range) must fault the same way.
"""

from typing import Callable, List, Optional, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.hunting import POLICY_NAMES, policy_registry
from repro.machine.isa import Addr, Imm, Instruction, Opcode, Reg
from repro.machine.models import ALL_MODEL_NAMES, make_model
from repro.machine.program import Program, SymbolTable, ThreadProgram
from repro.machine.replay import (
    ExecutionRecording,
    record_execution,
    replay_execution,
)
from repro.machine.scheduler import BurstScheduler, RandomScheduler, RoundRobin
from repro.machine.simulator import ExecutionResult, Simulator

from tests.machine.reference_interpreter import reference_run

REGS = ("r0", "r1", "r2")
SCALARS = 3
ARRAY = 4
SIZE = SCALARS + ARRAY
MAX_STEPS = 300

SCHEDULERS = {
    "random": RandomScheduler,
    "round-robin": RoundRobin,
    "burst": lambda: BurstScheduler(1, 3),
}


def _symbols() -> SymbolTable:
    table = SymbolTable()
    for i in range(SCALARS):
        table.scalar(f"s{i}")
    table.array("arr", ARRAY)
    return table


operands = st.one_of(
    st.sampled_from(REGS).map(Reg), st.integers(-2, 3).map(Imm)
)
addresses = st.one_of(
    st.integers(0, SIZE - 1).map(Addr),
    st.sampled_from(REGS).map(lambda r: Addr(SCALARS, Reg(r))),
)


@st.composite
def instructions(draw, labels: List[str]) -> Instruction:
    op = draw(st.sampled_from(list(Opcode)))
    dst = Reg(draw(st.sampled_from(REGS)))
    if op in (Opcode.READ, Opcode.TEST_AND_SET, Opcode.ACQ_READ):
        return Instruction(op, dst=dst, addr=draw(addresses))
    if op in (Opcode.WRITE, Opcode.REL_WRITE):
        return Instruction(op, src=(draw(operands),), addr=draw(addresses))
    if op is Opcode.UNSET:
        return Instruction(op, addr=draw(addresses))
    if op is Opcode.CAS:
        return Instruction(op, dst=dst, src=(draw(operands), draw(operands)),
                           addr=draw(addresses))
    if op is Opcode.MOV:
        return Instruction(op, dst=dst, src=(draw(operands),))
    if op in (Opcode.ADD, Opcode.SUB, Opcode.MUL, Opcode.CMP_EQ, Opcode.CMP_LT):
        return Instruction(op, dst=dst, src=(draw(operands), draw(operands)))
    if op is Opcode.JMP:
        return Instruction(op, label=draw(st.sampled_from(labels)))
    if op in (Opcode.BZ, Opcode.BNZ):
        return Instruction(op, src=(draw(operands),),
                           label=draw(st.sampled_from(labels)))
    return Instruction(op)  # FENCE, HALT, NOP


@st.composite
def threads(draw) -> ThreadProgram:
    length = draw(st.integers(1, 12))
    labels = ["top", "end", "mid"]
    positions = {
        "top": 0, "end": length, "mid": draw(st.integers(0, length)),
    }
    body = tuple(draw(instructions(labels)) for _ in range(length))
    return ThreadProgram(body, positions)


@st.composite
def programs(draw) -> Program:
    count = draw(st.integers(1, 3))
    initial = draw(st.dictionaries(st.integers(0, SIZE - 1),
                                   st.integers(0, 3), max_size=3))
    return Program(tuple(draw(threads()) for _ in range(count)), _symbols(),
                   initial)


def _outcome(run: Callable):
    """``("ok", value)`` or ``("error", type name, message)``."""
    try:
        return ("ok", run())
    except (IndexError, KeyError) as exc:
        return ("error", type(exc).__name__, str(exc))


def _fields(result: ExecutionResult) -> dict:
    return {
        "operations": result.operations,
        "registers": result.registers,
        "raw_scp_cuts": result.raw_scp_cuts,
        "stats": result.stats,
        "flush_count": result.flush_count,
        "propagated_writes": result.propagated_writes,
        "deliveries_logged": result.deliveries_logged,
        "final_memory": result.final_memory,
        "steps": result.steps,
        "completed": result.completed,
    }


def _assert_same(program: Program, model: str, policy: str, scheduler: str,
                 seed: int) -> Optional[Tuple[ExecutionResult, ExecutionRecording]]:
    """Plain run and recorded run against the oracle; returns the
    recorded execution and its recording (None when the program
    faulted)."""
    factories = policy_registry(program.processor_count)

    def kit():
        return make_model(model), SCHEDULERS[scheduler](), factories[policy]()

    def plain():
        m, s, p = kit()
        return _fields(Simulator(program, m, s, p, seed).run(MAX_STEPS))

    def plain_ref():
        m, s, p = kit()
        return _fields(reference_run(program, m, s, p, seed, MAX_STEPS)[0])

    assert _outcome(plain) == _outcome(plain_ref)

    def recorded():
        m, s, p = kit()
        result, recording = record_execution(program, m, s, p, seed, MAX_STEPS)
        return _fields(result), recording.to_payload(), result, recording

    def recorded_ref():
        m, s, p = kit()
        result, recording = reference_run(program, m, s, p, seed, MAX_STEPS,
                                          record=True)
        return _fields(result), recording.to_payload()

    new, ref = _outcome(recorded), _outcome(recorded_ref)
    if ref[0] == "error":
        assert new == ref
        return None
    assert new[0] == "ok", new
    assert new[1][:2] == ref[1]
    return new[1][2:]


@given(
    program=programs(),
    model=st.sampled_from(ALL_MODEL_NAMES),
    policy=st.sampled_from(POLICY_NAMES),
    scheduler=st.sampled_from(sorted(SCHEDULERS)),
    seed=st.integers(0, 2**16),
)
@settings(max_examples=250, deadline=None)
def test_lowered_simulator_matches_reference_interpreter(
    program, model, policy, scheduler, seed
):
    same = _assert_same(program, model, policy, scheduler, seed)
    if same is None:
        return
    recorded, recording = same
    replayed = replay_execution(program, make_model(model), recording,
                                max_steps=MAX_STEPS)
    assert _fields(replayed) == {
        **_fields(recorded), "deliveries_logged": replayed.deliveries_logged,
    }


def _every_opcode_program() -> Program:
    """Threads that together execute every opcode; P1 branches on a
    value it read stale (under buffering models with a lazy policy), so
    its control flow, an indexed address and later operations are
    tainted."""
    t0 = ThreadProgram((
        Instruction(Opcode.MOV, dst=Reg("r0"), src=(Imm(2),)),
        Instruction(Opcode.MUL, dst=Reg("r1"), src=(Reg("r0"), Imm(3))),
        Instruction(Opcode.WRITE, src=(Reg("r1"),), addr=Addr(0)),
        Instruction(Opcode.WRITE, src=(Imm(1),), addr=Addr(1)),
        Instruction(Opcode.FENCE),
        Instruction(Opcode.TEST_AND_SET, dst=Reg("r2"), addr=Addr(2)),
        Instruction(Opcode.SUB, dst=Reg("r2"), src=(Reg("r2"), Imm(1))),
        Instruction(Opcode.UNSET, addr=Addr(2)),
        Instruction(Opcode.NOP),
        Instruction(Opcode.HALT),
        Instruction(Opcode.WRITE, src=(Imm(9),), addr=Addr(0)),  # dead
    ), {})
    t1 = ThreadProgram((
        Instruction(Opcode.READ, dst=Reg("r0"), addr=Addr(1)),
        Instruction(Opcode.CMP_EQ, dst=Reg("r1"), src=(Reg("r0"), Imm(0))),
        Instruction(Opcode.BNZ, src=(Reg("r1"),), label="stale"),
        Instruction(Opcode.ACQ_READ, dst=Reg("r2"), addr=Addr(0)),
        Instruction(Opcode.JMP, label="out"),
        Instruction(Opcode.READ, dst=Reg("r2"), addr=Addr(0)),   # stale:
        Instruction(Opcode.CMP_LT, dst=Reg("r1"), src=(Reg("r2"), Imm(4))),
        Instruction(Opcode.BZ, src=(Reg("r1"),), label="out"),
        Instruction(Opcode.WRITE, src=(Imm(5),), addr=Addr(3, Reg("r1"))),
        Instruction(Opcode.ADD, dst=Reg("r2"), src=(Reg("r2"), Reg("r0"))),
        Instruction(Opcode.CAS, dst=Reg("r0"), src=(Imm(0), Reg("r2")),
                    addr=Addr(2)),
        Instruction(Opcode.REL_WRITE, src=(Reg("r0"),), addr=Addr(4)),
    ), {"stale": 5, "out": 12})
    # P2's only taint comes through CAS's expected operand: a stale
    # value compared in the CAS taints its result, and the branch on
    # that result cuts P2's later write out of the SC prefix.
    t2 = ThreadProgram((
        Instruction(Opcode.READ, dst=Reg("r0"), addr=Addr(1)),
        Instruction(Opcode.CAS, dst=Reg("r1"), src=(Reg("r0"), Imm(1)),
                    addr=Addr(5)),
        Instruction(Opcode.BZ, src=(Reg("r1"),), label="join"),
        Instruction(Opcode.WRITE, src=(Imm(1),), addr=Addr(6)),
    ), {"join": 3})
    return Program((t0, t1, t2), _symbols(), {})


def test_every_opcode_program_uses_every_opcode():
    used = {
        i.opcode for t in _every_opcode_program().threads for i in t.instructions
    }
    assert used == set(Opcode)


@pytest.mark.parametrize("model", ALL_MODEL_NAMES)
def test_every_opcode_matches_reference_on_every_policy(model):
    stale_branches = 0
    for policy in POLICY_NAMES:
        for seed in range(12):
            recorded, _ = _assert_same(_every_opcode_program(), model,
                                       policy, "random", seed)
            if recorded.raw_scp_cuts[1] is not None:
                stale_branches += 1
    if model != "SC":
        # the generator is only meaningful if the tainted path runs
        assert stale_branches > 0, model
