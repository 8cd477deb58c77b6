"""Processor interpretation tests via tiny single/multi-thread programs."""

import pytest

from repro.machine.models import SequentialConsistency, make_model
from repro.machine.operations import OperationKind, SyncRole
from repro.machine.program import ProgramBuilder
from repro.machine.simulator import run_program


def _run(builder_fn, model="SC", seed=0, **kwargs):
    b = ProgramBuilder()
    builder_fn(b)
    return run_program(b.build(), make_model(model), seed=seed, **kwargs)


def test_mov_add_sub_mul():
    def build(b):
        out = b.var("out")
        with b.thread() as t:
            a = t.mov(6)
            c = t.add(a, 4)      # 10
            d = t.sub(c, 3)      # 7
            e = t.mul(d, 5)      # 35
            t.write(out, e)
    res = _run(build)
    assert res.value_of("out") == 35


def test_cmp_eq_and_lt():
    def build(b):
        eq = b.var("eq")
        lt = b.var("lt")
        with b.thread() as t:
            r = t.cmp_eq(3, 3)
            t.write(eq, r)
            r2 = t.cmp_lt(5, 3)
            t.write(lt, r2)
    res = _run(build)
    assert res.value_of("eq") == 1
    assert res.value_of("lt") == 0


def test_read_write_roundtrip():
    def build(b):
        x = b.var("x", initial=9)
        y = b.var("y")
        with b.thread() as t:
            v = t.read(x)
            t.write(y, v)
    res = _run(build)
    assert res.value_of("y") == 9


def test_branch_if_zero_taken():
    def build(b):
        out = b.var("out")
        with b.thread() as t:
            z = t.mov(0)
            t.jump_if_zero(z, "skip")
            t.write(out, 111)
            t.label("skip")
            t.write(out, 222)
    res = _run(build)
    assert res.value_of("out") == 222
    # the skipped write never issued
    writes = [op for op in res.operations if op.is_write]
    assert len(writes) == 1


def test_loop_with_counter():
    def build(b):
        out = b.var("out")
        with b.thread() as t:
            i = t.mov(0)
            total = t.mov(0)
            t.label("loop")
            t.add(total, i, dst=total)
            t.add(i, 1, dst=i)
            more = t.cmp_lt(i, 5)
            t.jump_if_nonzero(more, "loop")
            t.write(out, total)
    res = _run(build)
    assert res.value_of("out") == 0 + 1 + 2 + 3 + 4


def test_test_and_set_returns_old_value_and_sets():
    def build(b):
        s = b.var("s")
        got = b.var("got")
        with b.thread() as t:
            old = t.test_and_set(s)
            t.write(got, old)
    res = _run(build)
    assert res.value_of("got") == 0
    assert res.value_of("s") == 1


def test_test_and_set_emits_acquire_read_and_sync_only_write():
    def build(b):
        s = b.var("s")
        with b.thread() as t:
            t.test_and_set(s)
    res = _run(build)
    kinds = [(op.kind, op.role) for op in res.operations]
    assert kinds == [
        (OperationKind.READ, SyncRole.ACQUIRE),
        (OperationKind.WRITE, SyncRole.SYNC_ONLY),
    ]


def test_unset_emits_release_write_of_zero():
    def build(b):
        s = b.var("s", initial=1)
        with b.thread() as t:
            t.unset(s)
    res = _run(build)
    op = res.operations[0]
    assert op.role is SyncRole.RELEASE
    assert op.value == 0
    assert res.value_of("s") == 0


def test_release_acquire_flag():
    def build(b):
        f = b.var("f")
        seen = b.var("seen")
        with b.thread() as t:
            t.release_write(f, 5)
        with b.thread() as t:
            v = t.spin_until_eq(f, 5)
            t.write(seen, v)
    res = _run(build)
    assert res.value_of("seen") == 5


def test_register_indexed_addressing():
    def build(b):
        arr = b.array("arr", 4)
        with b.thread() as t:
            i = t.mov(2)
            t.write(b.at(arr, i), 77)
    res = _run(build)
    assert res.final_memory[2] == 77  # arr base 0 + index 2


def test_halt_stops_mid_program():
    def build(b):
        out = b.var("out")
        with b.thread() as t:
            t.write(out, 1)
            t.halt()
            t.write(out, 2)
    res = _run(build)
    assert res.value_of("out") == 1


def test_fence_drains_buffered_writes():
    def build(b):
        x = b.var("x")
        with b.thread() as t:
            t.write(x, 1)
            t.fence()
        with b.thread() as t:
            t.read(x)

    from repro.machine.propagation import StubbornPropagation
    from repro.machine.scheduler import ScriptedScheduler
    from repro.machine.simulator import Simulator
    b = ProgramBuilder()
    build(b)
    program = b.build()
    sim = Simulator(
        program,
        make_model("WO"),
        scheduler=ScriptedScheduler([0, 0, 1]),
        propagation=StubbornPropagation(),
        seed=0,
    )
    res = sim.run()
    read = [op for op in res.operations if op.is_read][0]
    assert read.value == 1
    assert not read.stale


def test_instruction_and_cycle_counters():
    def build(b):
        x = b.var("x")
        with b.thread() as t:
            t.write(x, 1)
            t.write(x, 2)
    res = _run(build)
    stats = res.stats[0]
    assert stats.instructions == 3  # two writes + implicit halt
    assert stats.operations == 2
    assert stats.cycles >= stats.instructions
    assert stats.stall_cycles == 2 * SequentialConsistency().data_write_stall()


def test_program_is_lowered_once_and_still_pickles():
    import pickle

    from repro.machine.processor import Processor, lower
    from repro.programs import buggy_workqueue_program

    program = buggy_workqueue_program()
    thread = program.threads[1]
    code = lower(thread)
    assert lower(thread) is code
    assert Processor(0, thread).code is code
    run_program(program, make_model("WO"), seed=3)
    assert lower(thread) is code  # a run reuses the cached code
    copy = pickle.loads(pickle.dumps(program))
    assert copy == program
    assert len(lower(copy.threads[1])) == len(thread) + 1  # + fall-off


def test_falling_off_the_end_takes_a_step_but_no_instruction():
    from repro.machine.isa import Addr, Imm, Instruction, Opcode
    from repro.machine.program import Program, SymbolTable, ThreadProgram

    symbols = SymbolTable()
    symbols.scalar("x")
    thread = ThreadProgram(
        (Instruction(Opcode.WRITE, src=(Imm(1),), addr=Addr(0)),), {}
    )
    res = run_program(Program((thread,), symbols), make_model("SC"))
    assert res.steps == 2
    assert res.stats[0].instructions == 1
    assert res.completed


def test_processor_clone_and_state_key():
    from repro.machine.memory import MemorySystem
    from repro.machine.processor import Processor, Recorder

    b = ProgramBuilder()
    x = b.var("x")
    with b.thread() as t:
        r = t.read(x)
        t.add(r, 1, dst=r)
        t.write(x, r)
    thread = b.build().threads[0]
    memory = MemorySystem(1, 1, SequentialConsistency(), initial={0: 4})
    p = Processor(0, thread)
    p.step(memory, Recorder())
    q = p.clone()
    assert q.state_key() == p.state_key()
    q.step(memory, Recorder())
    assert q.state_key() != p.state_key()
    assert p.regs == {r.name: 4} and q.regs == {r.name: 5}
    assert (p.pc, p.instructions_executed) == (1, 1)
    assert (q.pc, q.instructions_executed) == (2, 2)
    assert q.code is p.code


def test_dangling_label_in_a_hand_built_thread_raises_when_lowered():
    from repro.machine.isa import Instruction, Opcode
    from repro.machine.processor import Processor
    from repro.machine.program import SymbolError, ThreadProgram

    thread = ThreadProgram((Instruction(Opcode.JMP, label="nowhere"),), {})
    with pytest.raises(SymbolError, match="nowhere"):
        Processor(0, thread)
