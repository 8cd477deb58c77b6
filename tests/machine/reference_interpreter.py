"""The per-opcode instruction interpreter, kept as the test oracle.

The simulator lowers each thread program once into pre-bound closures
(:mod:`repro.machine.processor`).  This module is the interpreter that
lowering replaced: ``ReferenceProcessor.step`` dispatches every
instruction through ``_DISPATCH`` and resolves every operand with an
``isinstance`` check.  :func:`reference_run` drives it with the
simulator's original loop — one propagation-policy step, one
``Scheduler.pick`` through ``rng.choice``, one processor step — and
records the same way the original recording wrappers did.  The
differential suite (``test_lowered_equiv.py``) requires the simulator
to match it field for field.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Protocol, Tuple

from repro.machine.isa import Addr, Instruction, Opcode, Operand, Reg
from repro.machine.memory import MemorySystem
from repro.machine.models.base import MemoryModel
from repro.machine.operations import MemoryOperation, OperationKind, SyncRole
from repro.machine.program import Program, ThreadProgram
from repro.machine.propagation import PropagationPolicy, RandomPropagation
from repro.machine.replay import ExecutionRecording
from repro.machine.scheduler import RandomScheduler, Scheduler
from repro.machine.simulator import ExecutionResult, ProcessorStats


class Recorder(Protocol):
    """Supplies global sequence numbers and collects operation records."""

    def next_seq(self) -> int: ...

    def append(self, op: MemoryOperation) -> None: ...


class ReferenceProcessor:
    """The per-opcode interpreter: one CPU stepped through ``_DISPATCH``."""

    def __init__(self, pid: int, thread: ThreadProgram) -> None:
        self.pid = pid
        self.thread = thread
        self.regs: Dict[str, int] = {}
        self.reg_taint: Dict[str, bool] = {}
        self.pc = 0
        self.halted = len(thread) == 0
        self.control_taint = False
        self.local_index = 0  # memory operations issued so far
        self.raw_scp_cut: Optional[int] = None
        self.stall_cycles = 0
        self.cycles = 0
        self.instructions_executed = 0
        # Handlers resolved once per instruction at construction; the
        # hot step loop then runs dict-lookup-free.
        self._code = thread.instructions
        self._handlers = [_DISPATCH[i.opcode] for i in thread.instructions]

    # ------------------------------------------------------------------
    def step(self, memory: MemorySystem, recorder: Recorder) -> None:
        """Execute the instruction at ``pc`` (a no-op when halted)."""
        if self.halted:
            return
        pc = self.pc
        if not 0 <= pc < len(self._code):
            self.halted = True
            return
        self.instructions_executed += 1
        self.cycles += 1  # base issue cycle; stalls are added separately
        self._handlers[pc](self, self._code[pc], memory, recorder)

    # ------------------------------------------------------------------
    # operand helpers
    # ------------------------------------------------------------------
    def _value(self, operand: Operand) -> int:
        if isinstance(operand, Reg):
            return self.regs.get(operand.name, 0)
        return operand.value

    def _taint_of(self, operand: Operand) -> bool:
        if isinstance(operand, Reg):
            return self.reg_taint.get(operand.name, False)
        return False

    def _set_reg(self, reg: Reg, value: int, taint: bool) -> None:
        self.regs[reg.name] = value
        self.reg_taint[reg.name] = taint or self.control_taint

    def _effective_addr(self, addr: Addr) -> int:
        if addr.index is None:
            return addr.base
        return addr.base + self.regs.get(addr.index.name, 0)

    def _addr_taint(self, addr: Addr) -> bool:
        if addr.index is None:
            return False
        return self.reg_taint.get(addr.index.name, False)

    def _note_identity(self, addr: Addr) -> None:
        """Record the SCP cut at the first identity-tainted operation."""
        if self.raw_scp_cut is None and (
            self.control_taint or self._addr_taint(addr)
        ):
            self.raw_scp_cut = self.local_index

    def _record(
        self,
        recorder: Recorder,
        seq: int,
        kind: OperationKind,
        role: SyncRole,
        ea: int,
        value: int,
        observed: Optional[int],
        stale: bool,
    ) -> None:
        recorder.append(
            MemoryOperation(
                seq=seq,
                proc=self.pid,
                local_index=self.local_index,
                kind=kind,
                role=role,
                addr=ea,
                value=value,
                observed_write=observed,
                stale=stale,
                instr_index=self.pc,
            )
        )
        self.local_index += 1

    def _stall(self, cycles: int) -> None:
        self.stall_cycles += cycles
        self.cycles += cycles


# ----------------------------------------------------------------------
# instruction handlers
# ----------------------------------------------------------------------

def _do_read(p: ReferenceProcessor, i: Instruction, m: MemorySystem, r: Recorder) -> None:
    ea = p._effective_addr(i.addr)
    p._note_identity(i.addr)
    res = m.read_data(p.pid, ea)
    seq = r.next_seq()
    p._record(r, seq, OperationKind.READ, SyncRole.NONE, ea, res.value,
              res.observed_write, res.stale)
    p._set_reg(i.dst, res.value, res.taint)
    p._stall(m.model.data_read_stall())
    p.pc += 1


def _do_write(p: ReferenceProcessor, i: Instruction, m: MemorySystem, r: Recorder) -> None:
    ea = p._effective_addr(i.addr)
    p._note_identity(i.addr)
    value = p._value(i.src[0])
    taint = p._taint_of(i.src[0]) or p.control_taint
    seq = r.next_seq()
    m.write_data(p.pid, ea, value, seq, taint)
    p._record(r, seq, OperationKind.WRITE, SyncRole.NONE, ea, value, None, False)
    p._stall(m.model.data_write_stall())
    p.pc += 1


def _do_test_and_set(p: ReferenceProcessor, i: Instruction, m: MemorySystem, r: Recorder) -> None:
    ea = p._effective_addr(i.addr)
    p._note_identity(i.addr)
    flushed = m.pre_sync_read_flush(p.pid, SyncRole.ACQUIRE)
    res = m.read_sync(p.pid, ea)
    seq = r.next_seq()
    p._record(r, seq, OperationKind.READ, SyncRole.ACQUIRE, ea, res.value,
              res.observed_write, res.stale)
    # The write half of a Test&Set is synchronization but NOT a release
    # (section 2.1 of the paper): it communicates nothing about prior
    # operations of this processor.  Store-buffer models (TSO/PSO) still
    # drain the buffer here — write_sync flushes when the model flushes
    # at SYNC_ONLY — matching RMW drain semantics on real hardware.
    wseq = r.next_seq()
    extra = m.write_sync(p.pid, ea, 1, wseq, p.control_taint, SyncRole.SYNC_ONLY)
    p._record(r, wseq, OperationKind.WRITE, SyncRole.SYNC_ONLY, ea, 1, None, False)
    p._set_reg(i.dst, res.value, res.taint)
    p._stall(m.model.sync_read_stall(SyncRole.ACQUIRE, flushed)
             + m.model.sync_write_stall(SyncRole.SYNC_ONLY, extra))
    p.pc += 1


def _do_cas(p: ReferenceProcessor, i: Instruction, m: MemorySystem, r: Recorder) -> None:
    """Compare-and-swap: atomically read; if the value equals the
    expected operand, write the new value and set dst to 1, else leave
    memory untouched and set dst to 0.  Like Test&Set, the read half is
    an acquire and the (conditional) write half communicates nothing
    about prior operations — it is synchronization, not a release."""
    ea = p._effective_addr(i.addr)
    p._note_identity(i.addr)
    expected = p._value(i.src[0])
    new = p._value(i.src[1])
    flushed = m.pre_sync_read_flush(p.pid, SyncRole.ACQUIRE)
    res = m.read_sync(p.pid, ea)
    seq = r.next_seq()
    p._record(r, seq, OperationKind.READ, SyncRole.ACQUIRE, ea, res.value,
              res.observed_write, res.stale)
    stall = m.model.sync_read_stall(SyncRole.ACQUIRE, flushed)
    success = res.value == expected
    if success:
        taint = p._taint_of(i.src[1]) or p.control_taint
        wseq = r.next_seq()
        extra = m.write_sync(p.pid, ea, new, wseq, taint, SyncRole.SYNC_ONLY)
        p._record(r, wseq, OperationKind.WRITE, SyncRole.SYNC_ONLY, ea, new,
                  None, False)
        stall += m.model.sync_write_stall(SyncRole.SYNC_ONLY, extra)
    taint = res.taint or p._taint_of(i.src[0])
    p._set_reg(i.dst, 1 if success else 0, taint)
    p._stall(stall)
    p.pc += 1


def _do_unset(p: ReferenceProcessor, i: Instruction, m: MemorySystem, r: Recorder) -> None:
    ea = p._effective_addr(i.addr)
    p._note_identity(i.addr)
    seq = r.next_seq()
    flushed = m.write_sync(p.pid, ea, 0, seq, p.control_taint, SyncRole.RELEASE)
    p._record(r, seq, OperationKind.WRITE, SyncRole.RELEASE, ea, 0, None, False)
    p._stall(m.model.sync_write_stall(SyncRole.RELEASE, flushed))
    p.pc += 1


def _do_acq_read(p: ReferenceProcessor, i: Instruction, m: MemorySystem, r: Recorder) -> None:
    ea = p._effective_addr(i.addr)
    p._note_identity(i.addr)
    flushed = m.pre_sync_read_flush(p.pid, SyncRole.ACQUIRE)
    res = m.read_sync(p.pid, ea)
    seq = r.next_seq()
    p._record(r, seq, OperationKind.READ, SyncRole.ACQUIRE, ea, res.value,
              res.observed_write, res.stale)
    p._set_reg(i.dst, res.value, res.taint)
    p._stall(m.model.sync_read_stall(SyncRole.ACQUIRE, flushed))
    p.pc += 1


def _do_rel_write(p: ReferenceProcessor, i: Instruction, m: MemorySystem, r: Recorder) -> None:
    ea = p._effective_addr(i.addr)
    p._note_identity(i.addr)
    value = p._value(i.src[0])
    taint = p._taint_of(i.src[0]) or p.control_taint
    seq = r.next_seq()
    flushed = m.write_sync(p.pid, ea, value, seq, taint, SyncRole.RELEASE)
    p._record(r, seq, OperationKind.WRITE, SyncRole.RELEASE, ea, value, None, False)
    p._stall(m.model.sync_write_stall(SyncRole.RELEASE, flushed))
    p.pc += 1


def _do_fence(p: ReferenceProcessor, i: Instruction, m: MemorySystem, r: Recorder) -> None:
    flushed = m.flush(p.pid)
    p._stall(m.model.costs.drain_per_write * flushed)
    p.pc += 1


def _do_mov(p: ReferenceProcessor, i: Instruction, m: MemorySystem, r: Recorder) -> None:
    p._set_reg(i.dst, p._value(i.src[0]), p._taint_of(i.src[0]))
    p.pc += 1


def _binop(fn):
    def handler(p: ReferenceProcessor, i: Instruction, m: MemorySystem, r: Recorder) -> None:
        a, b = p._value(i.src[0]), p._value(i.src[1])
        taint = p._taint_of(i.src[0]) or p._taint_of(i.src[1])
        p._set_reg(i.dst, fn(a, b), taint)
        p.pc += 1
    return handler


def _do_jmp(p: ReferenceProcessor, i: Instruction, m: MemorySystem, r: Recorder) -> None:
    p.pc = p.thread.target_of(i.label)


def _do_bz(p: ReferenceProcessor, i: Instruction, m: MemorySystem, r: Recorder) -> None:
    if p._taint_of(i.src[0]):
        p.control_taint = True
    if p._value(i.src[0]) == 0:
        p.pc = p.thread.target_of(i.label)
    else:
        p.pc += 1


def _do_bnz(p: ReferenceProcessor, i: Instruction, m: MemorySystem, r: Recorder) -> None:
    if p._taint_of(i.src[0]):
        p.control_taint = True
    if p._value(i.src[0]) != 0:
        p.pc = p.thread.target_of(i.label)
    else:
        p.pc += 1


def _do_halt(p: ReferenceProcessor, i: Instruction, m: MemorySystem, r: Recorder) -> None:
    p.halted = True


def _do_nop(p: ReferenceProcessor, i: Instruction, m: MemorySystem, r: Recorder) -> None:
    p.pc += 1


_DISPATCH = {
    Opcode.READ: _do_read,
    Opcode.WRITE: _do_write,
    Opcode.TEST_AND_SET: _do_test_and_set,
    Opcode.CAS: _do_cas,
    Opcode.UNSET: _do_unset,
    Opcode.ACQ_READ: _do_acq_read,
    Opcode.REL_WRITE: _do_rel_write,
    Opcode.FENCE: _do_fence,
    Opcode.MOV: _do_mov,
    Opcode.ADD: _binop(lambda a, b: a + b),
    Opcode.SUB: _binop(lambda a, b: a - b),
    Opcode.MUL: _binop(lambda a, b: a * b),
    Opcode.CMP_EQ: _binop(lambda a, b: 1 if a == b else 0),
    Opcode.CMP_LT: _binop(lambda a, b: 1 if a < b else 0),
    Opcode.JMP: _do_jmp,
    Opcode.BZ: _do_bz,
    Opcode.BNZ: _do_bnz,
    Opcode.HALT: _do_halt,
    Opcode.NOP: _do_nop,
}


# ----------------------------------------------------------------------
# the original simulator loop
# ----------------------------------------------------------------------

class _ListRecorder:
    def __init__(self) -> None:
        self.ops: List[MemoryOperation] = []
        self._seq = 0

    def next_seq(self) -> int:
        seq = self._seq
        self._seq += 1
        return seq

    def append(self, op: MemoryOperation) -> None:
        self.ops.append(op)


def reference_run(
    program: Program,
    model: MemoryModel,
    scheduler: Optional[Scheduler] = None,
    propagation: Optional[PropagationPolicy] = None,
    seed: Optional[int] = 0,
    max_steps: int = 200_000,
    record: bool = False,
) -> Tuple[ExecutionResult, Optional[ExecutionRecording]]:
    """Run *program* with the original interpreter and loop; with
    *record*, also capture the schedule and each step's voluntary
    deliveries sorted by ``(seq, reader)``, as the original recording
    wrappers did."""
    scheduler = scheduler or RandomScheduler()
    propagation = propagation or RandomPropagation()
    rng = random.Random(seed)
    memory = MemorySystem(
        size=max(program.memory_size, 1),
        processor_count=program.processor_count,
        model=model,
        initial=program.initial_memory,
    )
    processors = [
        ReferenceProcessor(pid, thread)
        for pid, thread in enumerate(program.threads)
    ]
    recording = ExecutionRecording(model_name=model.name) if record else None
    log = memory.enable_delivery_log() if record else None
    recorder = _ListRecorder()
    steps = 0
    runnable = [p.pid for p in processors if not p.halted]
    while steps < max_steps and runnable:
        propagation.step(memory, rng)
        if recording is not None:
            recording.deliveries.append(sorted(log))
            log.clear()
        pid = scheduler.pick(runnable, rng)
        if recording is not None:
            recording.schedule.append(pid)
        proc = processors[pid]
        proc.step(memory, recorder)
        if proc.halted:
            runnable.remove(pid)
        steps += 1
    result = ExecutionResult(
        model_name=model.name,
        seed=seed,
        operations=recorder.ops,
        completed=not runnable,
        steps=steps,
        final_memory=memory.committed_memory(),
        stats=[
            ProcessorStats(
                cycles=p.cycles,
                stall_cycles=p.stall_cycles,
                instructions=p.instructions_executed,
                operations=p.local_index,
            )
            for p in processors
        ],
        raw_scp_cuts=[p.raw_scp_cut for p in processors],
        registers=[dict(p.regs) for p in processors],
        flush_count=memory.flush_count,
        propagated_writes=memory.propagated_writes,
        symbols=program.symbols,
        deliveries_logged=memory.deliveries_logged,
    )
    return result, recording
