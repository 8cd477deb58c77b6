"""Binary trace format tests."""

import pytest

from repro import load_trace
from repro.core.detector import PostMortemDetector
from repro.machine.models import make_model
from repro.machine.simulator import run_program
from repro.programs.figure1 import figure1b_program
from repro.programs.workqueue import run_figure2
from repro.trace.binfile import (
    BinaryTraceError,
    _read_binary_trace,
    write_binary_trace,
)
from repro.trace.build import build_trace
from repro.trace.events import ComputationEvent, SyncEvent
from repro.trace.tracefile import write_trace


@pytest.fixture
def trace():
    return build_trace(run_figure2(make_model("WO")))


def _assert_equivalent(a, b):
    assert a.processor_count == b.processor_count
    assert a.memory_size == b.memory_size
    assert a.model_name == b.model_name
    for pa, pb in zip(a.events, b.events):
        assert len(pa) == len(pb)
        for ea, eb in zip(pa, pb):
            assert type(ea) is type(eb)
            assert ea.eid == eb.eid
            if isinstance(ea, SyncEvent):
                assert (ea.addr, ea.op_kind, ea.role, ea.value,
                        ea.order_pos) == \
                       (eb.addr, eb.op_kind, eb.role, eb.value, eb.order_pos)
            else:
                assert ea.reads == eb.reads
                assert ea.writes == eb.writes
                assert ea.op_count == eb.op_count
    assert a.sync_order == b.sync_order


def test_roundtrip(trace, tmp_path):
    path = tmp_path / "t.bin"
    write_binary_trace(trace, path)
    _assert_equivalent(trace, load_trace(path))


def test_roundtrip_simple(tmp_path):
    result = run_program(figure1b_program(), make_model("RCsc"), seed=4)
    trace = build_trace(result)
    path = tmp_path / "s.bin"
    write_binary_trace(trace, path)
    _assert_equivalent(trace, load_trace(path))


def test_negative_values_roundtrip(tmp_path):
    from repro.machine.program import ProgramBuilder
    b = ProgramBuilder()
    f = b.var("f")
    with b.thread() as t:
        t.release_write(f, -12345)
    result = run_program(b.build(), make_model("SC"), seed=0)
    trace = build_trace(result)
    path = tmp_path / "n.bin"
    write_binary_trace(trace, path)
    loaded = load_trace(path)
    assert loaded.events[0][0].value == -12345


def test_smaller_than_json(trace, tmp_path):
    bin_path = tmp_path / "t.bin"
    json_path = tmp_path / "t.jsonl"
    write_binary_trace(trace, bin_path)
    write_trace(trace, json_path)
    # The binary format drops ground-truth op seqs and packs structs;
    # it must be much smaller.
    assert bin_path.stat().st_size < json_path.stat().st_size / 2


def test_detection_identical(trace, tmp_path):
    path = tmp_path / "t.bin"
    write_binary_trace(trace, path)
    loaded = load_trace(path)
    det = PostMortemDetector()
    a, b = det.analyze(trace), det.analyze(loaded)
    assert [(r.a, r.b, r.locations) for r in a.races] == \
           [(r.a, r.b, r.locations) for r in b.races]
    assert len(a.first_partitions) == len(b.first_partitions)


def test_bad_magic(tmp_path):
    path = tmp_path / "bad.bin"
    path.write_bytes(b"NOPE" + b"\x00" * 16)
    # load_trace would sniff this as JSON lines; the magic check
    # belongs to the binary loader itself
    with pytest.raises(BinaryTraceError, match="magic"):
        _read_binary_trace(path)


def test_truncation_detected(trace, tmp_path):
    path = tmp_path / "t.bin"
    write_binary_trace(trace, path)
    data = path.read_bytes()
    path.write_bytes(data[: len(data) // 2])
    with pytest.raises(BinaryTraceError, match="truncated"):
        load_trace(path)


def test_bad_version(tmp_path):
    import struct
    path = tmp_path / "v.bin"
    path.write_bytes(b"WRTR" + struct.pack("<I", 99))
    with pytest.raises(BinaryTraceError, match="version"):
        load_trace(path)
