"""The simulated processor: executes one instruction per scheduler step.

A thread program is *lowered* once, the first time a processor runs it:
every instruction becomes a closure with its operands pre-bound (a
register name, an immediate, or a base+index address) and its jump
target resolved, and the lowered code is cached on the
:class:`~repro.machine.program.ThreadProgram`.  A hunt that runs the
same :class:`~repro.machine.program.Program` thousands of times lowers
it once; each step is then one indexed call, ``code[pc](proc, memory,
recorder)``, with no opcode dispatch and no per-operand type checks.

Besides ordinary interpretation, the processor maintains the simulator's
ground-truth *taint* state used to extract the sequentially consistent
prefix (section 3.2 of the paper):

* a register becomes tainted when it receives a value from a stale read
  (or from a memory cell whose value was produced from tainted inputs);
* control flow becomes tainted when a branch tests a tainted register;
* the identity of a memory operation (location + program point, the
  paper's definition in section 2.1) is tainted when the processor's
  control flow is tainted or its effective address uses a tainted
  register.

The first identity-tainted operation of a processor marks the raw cut
point after which the processor's operations can no longer be operations
of any sequentially consistent execution: its existence or address
depends on a value no SC execution could have produced.
"""

from __future__ import annotations

import operator
from typing import Callable, Dict, List, Optional, Tuple

from .isa import Addr, Instruction, Opcode, Operand, Reg
from .memory import MemorySystem
from .operations import MemoryOperation, OperationKind, SyncRole
from .program import ThreadProgram

_READ, _WRITE = OperationKind.READ, OperationKind.WRITE
_NONE, _ACQUIRE = SyncRole.NONE, SyncRole.ACQUIRE
_RELEASE, _SYNC_ONLY = SyncRole.RELEASE, SyncRole.SYNC_ONLY


class Recorder:
    """Issues global sequence numbers and collects operation records.

    ``emit`` is the live-emission hook: each operation is handed to it
    the moment it is issued, in global order — what an online
    (streaming) detector consumes without waiting for the execution to
    finish.  The recorder still accumulates the full stream.
    """

    __slots__ = ("ops", "seq", "append")

    def __init__(self, start_seq: int = 0, emit=None) -> None:
        self.ops: List[MemoryOperation] = []
        self.seq = start_seq
        if emit is None:
            self.append = self.ops.append
        else:
            keep = self.ops.append

            def append(op: MemoryOperation) -> None:
                keep(op)
                emit(op)

            self.append = append


#: One lowered instruction: ``op(processor, memory, recorder)``.
Lowered = Callable[["Processor", MemorySystem, Recorder], None]


class Processor:
    """One CPU: registers, program counter, taint state, stall counter."""

    __slots__ = (
        "pid", "thread", "code", "regs", "reg_taint", "pc", "halted",
        "control_taint", "local_index", "raw_scp_cut", "stall_cycles",
        "instructions_executed",
    )

    def __init__(self, pid: int, thread: ThreadProgram) -> None:
        self.pid = pid
        self.thread = thread
        self.code = lower(thread)
        self.regs: Dict[str, int] = {}
        self.reg_taint: Dict[str, bool] = {}
        self.pc = 0
        self.halted = len(thread) == 0
        self.control_taint = False
        self.local_index = 0  # memory operations issued so far
        self.raw_scp_cut: Optional[int] = None
        self.stall_cycles = 0
        self.instructions_executed = 0

    @property
    def cycles(self) -> int:
        """One issue cycle per instruction plus every stall cycle."""
        return self.instructions_executed + self.stall_cycles

    def step(self, memory: MemorySystem, recorder: Recorder) -> None:
        """Execute the instruction at ``pc`` (a no-op when halted)."""
        if self.halted:
            return
        self.instructions_executed += 1
        self.code[self.pc](self, memory, recorder)

    def clone(self) -> "Processor":
        """An independent copy of the processor state (the lowered code
        is immutable and shared)."""
        out = object.__new__(Processor)
        for name in Processor.__slots__:
            setattr(out, name, getattr(self, name))
        out.regs = dict(self.regs)
        out.reg_taint = dict(self.reg_taint)
        return out

    def state_key(self) -> Tuple:
        """A hashable key of the state that decides future behaviour."""
        return (self.pc, self.halted, tuple(sorted(self.regs.items())))


# ----------------------------------------------------------------------
# lowering
# ----------------------------------------------------------------------

def lower(thread: ThreadProgram) -> Tuple[Lowered, ...]:
    """The lowered code of *thread*, built on first use and cached on
    the thread program.  Index ``len(thread)`` holds the fall-off
    instruction, so every reachable pc indexes the tuple."""
    code = thread.__dict__.get("_lowered")
    if code is None:
        code = tuple(
            _LOWER[instr.opcode](instr, pc, thread)
            for pc, instr in enumerate(thread.instructions)
        ) + (_fall_off,)
        object.__setattr__(thread, "_lowered", code)
    return code


def _fall_off(p: "Processor", m: MemorySystem, r: Recorder) -> None:
    # Running past the last instruction halts the processor.  The step
    # is scheduled like any other but executes no instruction.
    p.instructions_executed -= 1
    p.halted = True


def _operand(operand: Operand) -> Tuple[Optional[str], int]:
    """``(key, default)`` such that ``regs.get(key, default)`` reads the
    operand: a register name and 0, or for an immediate ``None`` (never
    a register name) and the immediate's value."""
    if isinstance(operand, Reg):
        return operand.name, 0
    return None, operand.value


def _address(addr: Addr) -> Tuple[int, Optional[str]]:
    """``(base, index)``; the effective address is
    ``base + regs.get(index, 0)`` and its taint
    ``reg_taint.get(index, False)``, both constant when index is None."""
    return addr.base, (addr.index.name if addr.index is not None else None)


def _lower_read(i: Instruction, pc: int, thread: ThreadProgram) -> Lowered:
    base, index = _address(i.addr)
    dst, nxt = i.dst.name, pc + 1

    def read(p: Processor, m: MemorySystem, r: Recorder) -> None:
        regs, taint = p.regs, p.reg_taint
        ea = base + regs.get(index, 0)
        if p.raw_scp_cut is None and (p.control_taint or taint.get(index, False)):
            p.raw_scp_cut = p.local_index
        value, observed, stale, vtaint = m.read_data(p.pid, ea)
        seq = r.seq
        r.seq = seq + 1
        local = p.local_index
        r.append(MemoryOperation(seq, p.pid, local, _READ, _NONE, ea, value,
                                 observed, stale, pc))
        p.local_index = local + 1
        regs[dst] = value
        taint[dst] = vtaint or p.control_taint
        p.stall_cycles += m.data_read_stall
        p.pc = nxt

    return read


def _lower_write(i: Instruction, pc: int, thread: ThreadProgram) -> Lowered:
    base, index = _address(i.addr)
    key, imm = _operand(i.src[0])
    nxt = pc + 1

    def write(p: Processor, m: MemorySystem, r: Recorder) -> None:
        regs, taint, ct = p.regs, p.reg_taint, p.control_taint
        ea = base + regs.get(index, 0)
        if p.raw_scp_cut is None and (ct or taint.get(index, False)):
            p.raw_scp_cut = p.local_index
        value = regs.get(key, imm)
        seq = r.seq
        r.seq = seq + 1
        m.write_data(p.pid, ea, value, seq, taint.get(key, False) or ct)
        local = p.local_index
        r.append(MemoryOperation(seq, p.pid, local, _WRITE, _NONE, ea, value,
                                 None, False, pc))
        p.local_index = local + 1
        p.stall_cycles += m.data_write_stall
        p.pc = nxt

    return write


def _lower_test_and_set(i: Instruction, pc: int, thread: ThreadProgram) -> Lowered:
    base, index = _address(i.addr)
    dst, nxt = i.dst.name, pc + 1

    def test_and_set(p: Processor, m: MemorySystem, r: Recorder) -> None:
        regs, taint, pid = p.regs, p.reg_taint, p.pid
        ea = base + regs.get(index, 0)
        if p.raw_scp_cut is None and (p.control_taint or taint.get(index, False)):
            p.raw_scp_cut = p.local_index
        flushed = m.pre_sync_read_flush(pid, _ACQUIRE)
        value, observed, stale, vtaint = m.read_sync(pid, ea)
        seq, local = r.seq, p.local_index
        r.seq = seq + 2
        p.local_index = local + 2
        r.append(MemoryOperation(seq, pid, local, _READ, _ACQUIRE, ea, value,
                                 observed, stale, pc))
        # The write half of a Test&Set is synchronization but NOT a
        # release (section 2.1 of the paper): it communicates nothing
        # about prior operations of this processor.  Store-buffer
        # models (TSO/PSO) still drain the buffer here — write_sync
        # flushes when the model flushes at SYNC_ONLY — matching RMW
        # drain semantics on real hardware.
        extra = m.write_sync(pid, ea, 1, seq + 1, p.control_taint, _SYNC_ONLY)
        r.append(MemoryOperation(seq + 1, pid, local + 1, _WRITE, _SYNC_ONLY,
                                 ea, 1, None, False, pc))
        regs[dst] = value
        taint[dst] = vtaint or p.control_taint
        model = m.model
        p.stall_cycles += (model.sync_read_stall(_ACQUIRE, flushed)
                           + model.sync_write_stall(_SYNC_ONLY, extra))
        p.pc = nxt

    return test_and_set


def _lower_cas(i: Instruction, pc: int, thread: ThreadProgram) -> Lowered:
    """Compare-and-swap: atomically read; if the value equals the
    expected operand, write the new value and set dst to 1, else leave
    memory untouched and set dst to 0.  Like Test&Set, the read half is
    an acquire and the (conditional) write half communicates nothing
    about prior operations — it is synchronization, not a release."""
    base, index = _address(i.addr)
    exp_key, exp_imm = _operand(i.src[0])
    new_key, new_imm = _operand(i.src[1])
    dst, nxt = i.dst.name, pc + 1

    def cas(p: Processor, m: MemorySystem, r: Recorder) -> None:
        regs, taint, pid = p.regs, p.reg_taint, p.pid
        ea = base + regs.get(index, 0)
        if p.raw_scp_cut is None and (p.control_taint or taint.get(index, False)):
            p.raw_scp_cut = p.local_index
        expected = regs.get(exp_key, exp_imm)
        new = regs.get(new_key, new_imm)
        flushed = m.pre_sync_read_flush(pid, _ACQUIRE)
        value, observed, stale, vtaint = m.read_sync(pid, ea)
        seq, local = r.seq, p.local_index
        r.seq = seq + 1
        p.local_index = local + 1
        r.append(MemoryOperation(seq, pid, local, _READ, _ACQUIRE, ea, value,
                                 observed, stale, pc))
        model = m.model
        stall = model.sync_read_stall(_ACQUIRE, flushed)
        success = value == expected
        if success:
            r.seq = seq + 2
            p.local_index = local + 2
            extra = m.write_sync(pid, ea, new, seq + 1,
                                 taint.get(new_key, False) or p.control_taint,
                                 _SYNC_ONLY)
            r.append(MemoryOperation(seq + 1, pid, local + 1, _WRITE,
                                     _SYNC_ONLY, ea, new, None, False, pc))
            stall += model.sync_write_stall(_SYNC_ONLY, extra)
        regs[dst] = 1 if success else 0
        taint[dst] = vtaint or taint.get(exp_key, False) or p.control_taint
        p.stall_cycles += stall
        p.pc = nxt

    return cas


def _lower_unset(i: Instruction, pc: int, thread: ThreadProgram) -> Lowered:
    base, index = _address(i.addr)
    nxt = pc + 1

    def unset(p: Processor, m: MemorySystem, r: Recorder) -> None:
        ea = base + p.regs.get(index, 0)
        if p.raw_scp_cut is None and (
            p.control_taint or p.reg_taint.get(index, False)
        ):
            p.raw_scp_cut = p.local_index
        seq, local = r.seq, p.local_index
        r.seq = seq + 1
        flushed = m.write_sync(p.pid, ea, 0, seq, p.control_taint, _RELEASE)
        r.append(MemoryOperation(seq, p.pid, local, _WRITE, _RELEASE, ea, 0,
                                 None, False, pc))
        p.local_index = local + 1
        p.stall_cycles += m.model.sync_write_stall(_RELEASE, flushed)
        p.pc = nxt

    return unset


def _lower_acq_read(i: Instruction, pc: int, thread: ThreadProgram) -> Lowered:
    base, index = _address(i.addr)
    dst, nxt = i.dst.name, pc + 1

    def acq_read(p: Processor, m: MemorySystem, r: Recorder) -> None:
        regs, taint, pid = p.regs, p.reg_taint, p.pid
        ea = base + regs.get(index, 0)
        if p.raw_scp_cut is None and (p.control_taint or taint.get(index, False)):
            p.raw_scp_cut = p.local_index
        flushed = m.pre_sync_read_flush(pid, _ACQUIRE)
        value, observed, stale, vtaint = m.read_sync(pid, ea)
        seq, local = r.seq, p.local_index
        r.seq = seq + 1
        r.append(MemoryOperation(seq, pid, local, _READ, _ACQUIRE, ea, value,
                                 observed, stale, pc))
        p.local_index = local + 1
        regs[dst] = value
        taint[dst] = vtaint or p.control_taint
        p.stall_cycles += m.model.sync_read_stall(_ACQUIRE, flushed)
        p.pc = nxt

    return acq_read


def _lower_rel_write(i: Instruction, pc: int, thread: ThreadProgram) -> Lowered:
    base, index = _address(i.addr)
    key, imm = _operand(i.src[0])
    nxt = pc + 1

    def rel_write(p: Processor, m: MemorySystem, r: Recorder) -> None:
        regs, taint, ct = p.regs, p.reg_taint, p.control_taint
        ea = base + regs.get(index, 0)
        if p.raw_scp_cut is None and (ct or taint.get(index, False)):
            p.raw_scp_cut = p.local_index
        value = regs.get(key, imm)
        seq, local = r.seq, p.local_index
        r.seq = seq + 1
        flushed = m.write_sync(p.pid, ea, value, seq,
                               taint.get(key, False) or ct, _RELEASE)
        r.append(MemoryOperation(seq, p.pid, local, _WRITE, _RELEASE, ea,
                                 value, None, False, pc))
        p.local_index = local + 1
        p.stall_cycles += m.model.sync_write_stall(_RELEASE, flushed)
        p.pc = nxt

    return rel_write


def _lower_fence(i: Instruction, pc: int, thread: ThreadProgram) -> Lowered:
    nxt = pc + 1

    def fence(p: Processor, m: MemorySystem, r: Recorder) -> None:
        p.stall_cycles += m.model.costs.drain_per_write * m.flush(p.pid)
        p.pc = nxt

    return fence


def _lower_mov(i: Instruction, pc: int, thread: ThreadProgram) -> Lowered:
    key, imm = _operand(i.src[0])
    dst, nxt = i.dst.name, pc + 1

    def mov(p: Processor, m: MemorySystem, r: Recorder) -> None:
        p.regs[dst] = p.regs.get(key, imm)
        p.reg_taint[dst] = p.reg_taint.get(key, False) or p.control_taint
        p.pc = nxt

    return mov


_ARITHMETIC = {Opcode.ADD: operator.add, Opcode.SUB: operator.sub,
               Opcode.MUL: operator.mul}
_COMPARISON = {Opcode.CMP_EQ: operator.eq, Opcode.CMP_LT: operator.lt}


def _lower_alu(i: Instruction, pc: int, thread: ThreadProgram) -> Lowered:
    ka, ia = _operand(i.src[0])
    kb, ib = _operand(i.src[1])
    dst, nxt = i.dst.name, pc + 1

    if i.opcode in _ARITHMETIC:
        fn = _ARITHMETIC[i.opcode]

        def arithmetic(p: Processor, m: MemorySystem, r: Recorder) -> None:
            regs, taint = p.regs, p.reg_taint
            regs[dst] = fn(regs.get(ka, ia), regs.get(kb, ib))
            taint[dst] = (taint.get(ka, False) or taint.get(kb, False)
                          or p.control_taint)
            p.pc = nxt
        return arithmetic

    test = _COMPARISON[i.opcode]

    def compare(p: Processor, m: MemorySystem, r: Recorder) -> None:
        regs, taint = p.regs, p.reg_taint
        regs[dst] = 1 if test(regs.get(ka, ia), regs.get(kb, ib)) else 0
        taint[dst] = (taint.get(ka, False) or taint.get(kb, False)
                      or p.control_taint)
        p.pc = nxt
    return compare


def _lower_branch(i: Instruction, pc: int, thread: ThreadProgram) -> Lowered:
    op, nxt = i.opcode, pc + 1
    key, imm = _operand(i.src[0]) if i.src else (None, 0)
    target = thread.target_of(i.label)  # a dangling label raises here

    if op is Opcode.JMP:
        def jmp(p: Processor, m: MemorySystem, r: Recorder) -> None:
            p.pc = target
        return jmp
    if op is Opcode.BZ:
        def bz(p: Processor, m: MemorySystem, r: Recorder) -> None:
            if p.reg_taint.get(key, False):
                p.control_taint = True
            p.pc = target if p.regs.get(key, imm) == 0 else nxt
        return bz

    def bnz(p: Processor, m: MemorySystem, r: Recorder) -> None:
        if p.reg_taint.get(key, False):
            p.control_taint = True
        p.pc = target if p.regs.get(key, imm) != 0 else nxt
    return bnz


def _lower_halt(i: Instruction, pc: int, thread: ThreadProgram) -> Lowered:
    def halt(p: Processor, m: MemorySystem, r: Recorder) -> None:
        p.halted = True
    return halt


def _lower_nop(i: Instruction, pc: int, thread: ThreadProgram) -> Lowered:
    nxt = pc + 1

    def nop(p: Processor, m: MemorySystem, r: Recorder) -> None:
        p.pc = nxt
    return nop


_LOWER = {
    Opcode.READ: _lower_read,
    Opcode.WRITE: _lower_write,
    Opcode.TEST_AND_SET: _lower_test_and_set,
    Opcode.CAS: _lower_cas,
    Opcode.UNSET: _lower_unset,
    Opcode.ACQ_READ: _lower_acq_read,
    Opcode.REL_WRITE: _lower_rel_write,
    Opcode.FENCE: _lower_fence,
    Opcode.MOV: _lower_mov,
    Opcode.ADD: _lower_alu,
    Opcode.SUB: _lower_alu,
    Opcode.MUL: _lower_alu,
    Opcode.CMP_EQ: _lower_alu,
    Opcode.CMP_LT: _lower_alu,
    Opcode.JMP: _lower_branch,
    Opcode.BZ: _lower_branch,
    Opcode.BNZ: _lower_branch,
    Opcode.HALT: _lower_halt,
    Opcode.NOP: _lower_nop,
}
