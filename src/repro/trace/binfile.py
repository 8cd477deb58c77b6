"""Compact binary trace files.

The whole point of event-granularity tracing (section 4.1) is that the
trace "avoids writing a trace record for every memory operation"; when
traces are written on the production machine, bytes matter.  This is a
struct-packed binary encoding of the same :class:`Trace` the JSON-lines
format (:mod:`.tracefile`) carries, typically several times smaller:

* header: magic, version, processor count, memory size, model name;
* per event: a one-byte tag, then either the sync tuple or the two
  bit-vectors as length-prefixed big-endian byte strings (ground-truth
  op seqs are *not* stored — the binary format carries exactly what the
  paper's instrumentation records, nothing more);
* per location: the sync order as (proc, pos) pairs.

All integers are little-endian; variable ints use a u32.  The format is
deliberately simple rather than clever — the benchmark compares it
against JSON and against a hypothetical per-operation log.

Every malformed-input path — short reads, unknown role/tag codes,
undecodable model names, trailing garbage — surfaces as
:class:`BinaryTraceError` carrying the byte offset of the fault, never
a raw ``struct.error`` / ``KeyError`` / ``UnicodeDecodeError``.
"""

from __future__ import annotations

import struct
from pathlib import Path
from typing import BinaryIO, Dict, List, Union

from ..machine.operations import OperationKind, SyncRole
from .bitvector import BitVector
from .build import Trace
from .events import ComputationEvent, Event, EventId, SyncEvent

MAGIC = b"WRTR"
VERSION = 1

_TAG_SYNC = 0
_TAG_COMP = 1

_ROLE_CODE = {
    SyncRole.NONE: 0,
    SyncRole.ACQUIRE: 1,
    SyncRole.RELEASE: 2,
    SyncRole.SYNC_ONLY: 3,
}
_CODE_ROLE = {v: k for k, v in _ROLE_CODE.items()}


class BinaryTraceError(ValueError):
    """Malformed or wrong-version binary trace."""


def _write_u32(fh: BinaryIO, value: int) -> None:
    fh.write(struct.pack("<I", value))


def _write_i64(fh: BinaryIO, value: int) -> None:
    fh.write(struct.pack("<q", value))


def _write_bytes(fh: BinaryIO, payload: bytes) -> None:
    _write_u32(fh, len(payload))
    fh.write(payload)


def _read_exact(fh: BinaryIO, n: int) -> bytes:
    offset = fh.tell()
    data = fh.read(n)
    if len(data) != n:
        raise BinaryTraceError(
            f"truncated trace file: wanted {n} bytes at byte {offset}, "
            f"got {len(data)}"
        )
    return data


def _read_u32(fh: BinaryIO) -> int:
    return struct.unpack("<I", _read_exact(fh, 4))[0]


def _read_i64(fh: BinaryIO) -> int:
    return struct.unpack("<q", _read_exact(fh, 8))[0]


def _read_bytes(fh: BinaryIO) -> bytes:
    return _read_exact(fh, _read_u32(fh))


def _bitvector_bytes(bv: BitVector) -> bytes:
    hex_text = bv.to_hex()
    if hex_text == "0":
        return b""
    if len(hex_text) % 2:
        hex_text = "0" + hex_text
    return bytes.fromhex(hex_text)


def _bitvector_from_bytes(payload: bytes) -> BitVector:
    if not payload:
        return BitVector()
    return BitVector.from_hex(payload.hex())


def write_binary_trace(trace: Trace, path: Union[str, Path]) -> None:
    """Serialize *trace* to the compact binary format."""
    with Path(path).open("wb") as fh:
        fh.write(MAGIC)
        _write_u32(fh, VERSION)
        _write_u32(fh, trace.processor_count)
        _write_u32(fh, trace.memory_size)
        _write_bytes(fh, trace.model_name.encode("utf-8"))

        for proc_events in trace.events:
            _write_u32(fh, len(proc_events))
            for event in proc_events:
                if isinstance(event, SyncEvent):
                    fh.write(struct.pack("<B", _TAG_SYNC))
                    fh.write(struct.pack(
                        "<BBI", _ROLE_CODE[event.role],
                        1 if event.op_kind is OperationKind.WRITE else 0,
                        event.addr,
                    ))
                    _write_i64(fh, event.value)
                    _write_u32(fh, event.order_pos)
                else:
                    assert isinstance(event, ComputationEvent)
                    fh.write(struct.pack("<B", _TAG_COMP))
                    _write_bytes(fh, _bitvector_bytes(event.reads))
                    _write_bytes(fh, _bitvector_bytes(event.writes))
                    _write_u32(fh, event.op_count)

        _write_u32(fh, len(trace.sync_order))
        for addr in sorted(trace.sync_order):
            order = trace.sync_order[addr]
            _write_u32(fh, addr)
            _write_u32(fh, len(order))
            for eid in order:
                fh.write(struct.pack("<II", eid.proc, eid.pos))


def _read_binary_trace_stream(fh: BinaryIO) -> Trace:
    """Parse the binary format from an open, seekable binary stream
    positioned at the magic.  The stream must contain exactly one
    trace: trailing bytes after the sync-order section are an error."""
    try:
        return _parse_stream(fh)
    except struct.error as exc:  # defensive: no unpack path should leak
        raise BinaryTraceError(
            f"malformed trace file at byte {fh.tell()}: {exc}"
        ) from exc


def _parse_stream(fh: BinaryIO) -> Trace:
    if _read_exact(fh, 4) != MAGIC:
        raise BinaryTraceError("not a binary trace file (bad magic)")
    version = _read_u32(fh)
    if version != VERSION:
        raise BinaryTraceError(f"unsupported version {version}")
    processor_count = _read_u32(fh)
    memory_size = _read_u32(fh)
    offset = fh.tell()
    try:
        model_name = _read_bytes(fh).decode("utf-8")
    except UnicodeDecodeError as exc:
        raise BinaryTraceError(
            f"undecodable model name at byte {offset}: {exc}"
        ) from exc

    events: List[List[Event]] = []
    for proc in range(processor_count):
        count = _read_u32(fh)
        proc_events: List[Event] = []
        for pos in range(count):
            offset = fh.tell()
            tag = _read_exact(fh, 1)[0]
            eid = EventId(proc, pos)
            if tag == _TAG_SYNC:
                role_code, is_write, addr = struct.unpack(
                    "<BBI", _read_exact(fh, 6)
                )
                role = _CODE_ROLE.get(role_code)
                if role is None:
                    raise BinaryTraceError(
                        f"unknown sync role code {role_code} "
                        f"at byte {offset + 1}"
                    )
                value = _read_i64(fh)
                order_pos = _read_u32(fh)
                proc_events.append(SyncEvent(
                    eid=eid,
                    addr=addr,
                    op_kind=(
                        OperationKind.WRITE if is_write
                        else OperationKind.READ
                    ),
                    role=role,
                    value=value,
                    order_pos=order_pos,
                ))
            elif tag == _TAG_COMP:
                reads = _bitvector_from_bytes(_read_bytes(fh))
                writes = _bitvector_from_bytes(_read_bytes(fh))
                op_count = _read_u32(fh)
                event = ComputationEvent(eid=eid, reads=reads, writes=writes)
                event.op_count = op_count
                proc_events.append(event)
            else:
                raise BinaryTraceError(
                    f"unknown event tag {tag} at byte {offset}"
                )
        events.append(proc_events)

    sync_order: Dict[int, List[EventId]] = {}
    for _ in range(_read_u32(fh)):
        addr = _read_u32(fh)
        count = _read_u32(fh)
        order = []
        for _ in range(count):
            proc, pos = struct.unpack("<II", _read_exact(fh, 8))
            order.append(EventId(proc, pos))
        sync_order[addr] = order

    offset = fh.tell()
    if fh.read(1):
        raise BinaryTraceError(f"trailing garbage after byte {offset}")

    return Trace(
        processor_count=processor_count,
        memory_size=memory_size,
        events=events,
        sync_order=sync_order,
        symbols=None,
        model_name=model_name,
    )


def _read_binary_trace(path: Union[str, Path]) -> Trace:
    """The binary loader behind :func:`repro.load_trace`."""
    with Path(path).open("rb") as fh:
        return _read_binary_trace_stream(fh)
