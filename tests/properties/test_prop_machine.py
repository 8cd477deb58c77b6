"""Property-based tests of the machine substrate.

The memory system is checked against a brute-force reference model of
per-reader visibility; record/replay and assembler round-trips are
checked over generated programs and executions.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.machine.memory import MemorySystem
from repro.machine.models import WeakOrdering, make_model
from repro.machine.operations import SyncRole
from repro.machine.replay import (
    executions_equal,
    record_execution,
    replay_execution,
)
from repro.machine.assembler import format_program, parse_program
from repro.machine.simulator import run_program
from repro.programs.random_programs import random_racy_program


# ----------------------------------------------------------------------
# memory-system reference model
# ----------------------------------------------------------------------

class _ReferenceMemory:
    """Obvious per-reader-visibility model: every reader keeps a full
    map; a buffered write is a (writer, addr, value, seq) record plus
    the set of readers still unaware of it."""

    def __init__(self, size, nproc, initial):
        self.nproc = nproc
        self.views = [
            {a: (initial.get(a, 0), -1) for a in range(size)}
            for _ in range(nproc)
        ]
        self.committed = {a: (initial.get(a, 0), -1) for a in range(size)}
        self.pending = []  # (writer, addr, value, seq, set(readers))

    def write_data(self, proc, addr, value, seq):
        self.committed[addr] = (value, seq)
        self.views[proc][addr] = (value, seq)
        self.pending.append(
            [proc, addr, value, seq, {q for q in range(self.nproc) if q != proc}]
        )

    def read_data(self, proc, addr):
        value, seq = self.views[proc][addr]
        stale = self.committed[addr][1] != seq
        return value, stale

    def flush(self, proc):
        drained = 0
        keep = []
        for rec in self.pending:
            if rec[0] != proc:
                keep.append(rec)
                continue
            for reader in rec[4]:
                self._apply(reader, rec[1], rec[2], rec[3])
            drained += 1
        self.pending = keep
        return drained

    def deliver(self, index, reader):
        rec = self.pending[index]
        if reader in rec[4]:
            rec[4].discard(reader)
            self._apply(reader, rec[1], rec[2], rec[3])
            if not rec[4]:
                self.pending.pop(index)

    def _apply(self, reader, addr, value, seq):
        if self.views[reader][addr][1] < seq:
            self.views[reader][addr] = (value, seq)


@st.composite
def memory_scripts(draw):
    """A sequence of memory-system actions over a small address space."""
    nproc = draw(st.integers(2, 4))
    size = draw(st.integers(1, 4))
    n = draw(st.integers(0, 40))
    actions = []
    for _ in range(n):
        kind = draw(st.sampled_from(
            ["write", "read", "flush", "deliver", "sync_write"]
        ))
        actions.append((
            kind,
            draw(st.integers(0, nproc - 1)),   # proc / reader
            draw(st.integers(0, size - 1)),    # addr
            draw(st.integers(0, 99)),          # value
            draw(st.integers(0, 7)),           # pending index selector
        ))
    return nproc, size, actions


@given(memory_scripts())
@settings(max_examples=150, deadline=None)
def test_memory_system_matches_reference(script):
    nproc, size, actions = script
    mem = MemorySystem(size, nproc, WeakOrdering(), initial={})
    ref = _ReferenceMemory(size, nproc, {})
    seq = 0
    for kind, proc, addr, value, sel in actions:
        if kind == "write":
            mem.write_data(proc, addr, value, seq, taint=False)
            ref.write_data(proc, addr, value, seq)
            seq += 1
        elif kind == "read":
            got = mem.read_data(proc, addr)
            want_value, want_stale = ref.read_data(proc, addr)
            assert got.value == want_value
            assert got.stale == want_stale
        elif kind == "flush":
            assert mem.flush(proc) == ref.flush(proc)
        elif kind == "deliver":
            pending = mem.pending_writes()
            if pending:
                index = sel % len(pending)
                pw = pending[index]
                readers = sorted(pw.remaining)
                if readers:
                    reader = readers[sel % len(readers)]
                    mem.propagate(pw, reader)
                    # mirror in the reference (match by seq)
                    for i, rec in enumerate(ref.pending):
                        if rec[3] == pw.seq:
                            ref.deliver(i, reader)
                            break
        elif kind == "sync_write":
            mem.write_sync(proc, addr, value, seq, taint=False,
                           role=SyncRole.RELEASE)
            ref.flush(proc)
            ref.committed[addr] = (value, seq)
            for reader in range(nproc):
                ref._apply(reader, addr, value, seq)
            ref.views[proc][addr] = (value, seq)
            seq += 1
    # final convergence agreement
    for p in range(nproc):
        for a in range(size):
            assert mem.view_value(p, a) == ref.views[p][a][0]


seeds = st.integers(min_value=0, max_value=2_000)


@given(seed=seeds, model=st.sampled_from(["SC", "WO", "RCsc"]))
@settings(max_examples=40, deadline=None)
def test_record_replay_roundtrip(seed, model):
    program = random_racy_program(seed % 300, race_prob=0.3)
    original, recording = record_execution(
        program, make_model(model), seed=seed
    )
    replayed = replay_execution(program, make_model(model), recording)
    assert executions_equal(original, replayed)


@given(seed=seeds)
@settings(max_examples=40, deadline=None)
def test_assembler_roundtrip_preserves_semantics(seed):
    program = random_racy_program(seed % 300, race_prob=0.4)
    reparsed = parse_program(format_program(program))
    a = run_program(program, make_model("WO"), seed=seed)
    b = run_program(reparsed, make_model("WO"), seed=seed)
    assert [
        (op.proc, op.kind, op.addr, op.value) for op in a.operations
    ] == [
        (op.proc, op.kind, op.addr, op.value) for op in b.operations
    ]


@given(seed=seeds)
@settings(max_examples=30, deadline=None)
def test_binary_trace_roundtrip(seed, tmp_path_factory):
    from repro import load_trace
    from repro.trace.binfile import write_binary_trace
    from repro.trace.build import build_trace
    program = random_racy_program(seed % 300, race_prob=0.4)
    result = run_program(program, make_model("WO"), seed=seed)
    trace = build_trace(result)
    path = tmp_path_factory.mktemp("bin") / "t.bin"
    write_binary_trace(trace, path)
    loaded = load_trace(path)
    assert loaded.sync_order == trace.sync_order
    for pa, pb in zip(trace.events, loaded.events):
        assert [type(e).__name__ for e in pa] == [type(e).__name__ for e in pb]


# ----------------------------------------------------------------------
# TSO store buffer: FIFO drain
# ----------------------------------------------------------------------

@given(seed=seeds)
@settings(max_examples=40, deadline=None)
def test_tso_store_buffer_drains_fifo(seed):
    """TSO forbids visible write→write reordering: once a reader has
    observed some write *w* by processor *q*, every po-later read on
    that reader returns, for each address, a value at least as new (in
    coherence order = commit-seq order) as *q*'s last write to that
    address older than *w* — unless the read is forwarded from the
    reader's own store buffer."""
    program = random_racy_program(seed % 300, race_prob=0.5)
    result = run_program(program, make_model("TSO"), seed=seed)
    ops = list(result.operations)
    by_seq = {op.seq: op for op in ops}
    reads_by_proc = {}
    for op in ops:
        if op.is_read:
            reads_by_proc.setdefault(op.proc, []).append(op)
    for proc, reads in reads_by_proc.items():
        for i, first in enumerate(reads):
            if first.observed_write is None:
                continue
            w = by_seq[first.observed_write]
            if w.proc == proc:
                continue
            # q's writes that are po-older than w, newest per address
            floor = {}
            for op in ops:
                if op.proc == w.proc and op.is_write and op.seq <= w.seq:
                    floor[op.addr] = op.seq
            for later in reads[i:]:
                bound = floor.get(later.addr)
                if bound is None:
                    continue
                observed = later.observed_write
                if observed is None:
                    raise AssertionError(
                        f"read {later} sees the initial value after "
                        f"{w} (and its FIFO-older write {bound}) were "
                        f"already visible"
                    )
                if by_seq[observed].proc == proc:
                    continue  # own-buffer forwarding is allowed
                assert observed >= bound, (
                    f"write->write reordering under TSO: {later} "
                    f"observes seq {observed} although seq {bound} "
                    f"drained before the already-visible {w}"
                )


@given(seed=seeds)
@settings(max_examples=30, deadline=None)
def test_sc_executions_always_robust(seed):
    """Any SC execution of any generated program must admit an SC
    justification covering every operation."""
    from repro.core.robustness import check_robustness
    program = random_racy_program(seed % 300, race_prob=0.5)
    result = run_program(program, make_model("SC"), seed=seed)
    report = check_robustness(result)
    assert report.robust
    assert len(report.witness) == len(result.operations)
