"""Trace-file serialization.

The paper's post-mortem techniques "generate trace files ... analyzed
after the execution".  This module round-trips a :class:`Trace` through
a JSON-lines file: a header line, then one line per event in global
interleaved order per processor, then the per-location sync orders.
READ/WRITE sets travel as hex-encoded bit-vectors, matching the
compactness argument of section 4.1.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Union

from ..machine.operations import OperationKind, SyncRole
from .bitvector import BitVector
from .build import Trace
from .events import ComputationEvent, Event, EventId, SyncEvent

FORMAT_VERSION = 1


class TraceFormatError(ValueError):
    """Raised when a trace file is malformed or wrong-versioned."""


def _event_record(event: Event) -> Dict:
    if isinstance(event, SyncEvent):
        return {
            "t": "sync",
            "proc": event.eid.proc,
            "pos": event.eid.pos,
            "addr": event.addr,
            "op": event.op_kind.value,
            "role": event.role.value,
            "value": event.value,
            "order_pos": event.order_pos,
            "seq": event.seq,
        }
    assert isinstance(event, ComputationEvent)
    return {
        "t": "comp",
        "proc": event.eid.proc,
        "pos": event.eid.pos,
        "reads": event.reads.to_hex(),
        "writes": event.writes.to_hex(),
        "op_seqs": event.op_seqs,
        "op_count": event.op_count,
    }


def _event_from_record(record: Dict) -> Event:
    eid = EventId(record["proc"], record["pos"])
    if record["t"] == "sync":
        return SyncEvent(
            eid=eid,
            addr=record["addr"],
            op_kind=OperationKind(record["op"]),
            role=SyncRole(record["role"]),
            value=record["value"],
            order_pos=record["order_pos"],
            seq=record.get("seq", -1),
        )
    if record["t"] == "comp":
        event = ComputationEvent(
            eid=eid,
            reads=BitVector.from_hex(record["reads"]),
            writes=BitVector.from_hex(record["writes"]),
            op_seqs=list(record.get("op_seqs", [])),
        )
        event.op_count = record.get("op_count", len(event.op_seqs))
        return event
    raise TraceFormatError(f"unknown event record type {record.get('t')!r}")


def trace_to_json(trace: Trace) -> Dict:
    """The whole trace as one JSON document (used by report
    serialization; the trace *file* format stays JSON-lines)."""
    return {
        "format": FORMAT_VERSION,
        "processor_count": trace.processor_count,
        "memory_size": trace.memory_size,
        "model": trace.model_name,
        "events": [
            _event_record(event)
            for proc_events in trace.events
            for event in proc_events
        ],
        "sync_order": {
            str(addr): [[eid.proc, eid.pos] for eid in order]
            for addr, order in trace.sync_order.items()
        },
    }


def trace_from_json(payload: Dict) -> Trace:
    """Inverse of :func:`trace_to_json` (symbols are not serialized)."""
    if payload.get("format") != FORMAT_VERSION:
        raise TraceFormatError(
            f"unsupported trace format {payload.get('format')!r}"
        )
    processor_count = payload["processor_count"]
    events: List[List[Event]] = [[] for _ in range(processor_count)]
    for record in payload["events"]:
        event = _event_from_record(record)
        proc_events = events[event.eid.proc]
        if event.eid.pos != len(proc_events):
            raise TraceFormatError(
                f"event {event.eid} out of order "
                f"(expected pos {len(proc_events)})"
            )
        proc_events.append(event)
    sync_order: Dict[int, List[EventId]] = {
        int(addr_text): [EventId(p, i) for p, i in pairs]
        for addr_text, pairs in payload.get("sync_order", {}).items()
    }
    return Trace(
        processor_count=processor_count,
        memory_size=payload["memory_size"],
        events=events,
        sync_order=sync_order,
        symbols=None,
        model_name=payload.get("model", "unknown"),
    )


def write_trace(trace: Trace, path: Union[str, Path]) -> None:
    """Serialize *trace* to a JSON-lines file at *path*."""
    path = Path(path)
    with path.open("w", encoding="utf-8") as fh:
        header = {
            "format": FORMAT_VERSION,
            "processor_count": trace.processor_count,
            "memory_size": trace.memory_size,
            "model": trace.model_name,
        }
        fh.write(json.dumps(header) + "\n")
        for proc_events in trace.events:
            for event in proc_events:
                fh.write(json.dumps(_event_record(event)) + "\n")
        sync_order = {
            str(addr): [[eid.proc, eid.pos] for eid in order]
            for addr, order in trace.sync_order.items()
        }
        fh.write(json.dumps({"t": "sync_order", "orders": sync_order}) + "\n")


def _parse_trace_lines(lines: List[str], label: str) -> Trace:
    """Parse JSON-lines records (header, events, sync orders) into a
    :class:`Trace`; *label* names the source in error messages."""
    if not lines:
        raise TraceFormatError(f"{label}: empty trace file")
    header = json.loads(lines[0])
    if header.get("format") != FORMAT_VERSION:
        raise TraceFormatError(
            f"{label}: unsupported trace format {header.get('format')!r}"
        )
    processor_count = header["processor_count"]
    events: List[List[Event]] = [[] for _ in range(processor_count)]
    sync_order: Dict[int, List[EventId]] = {}
    for line in lines[1:]:
        record = json.loads(line)
        if record.get("t") == "sync_order":
            for addr_text, pairs in record["orders"].items():
                sync_order[int(addr_text)] = [EventId(p, i) for p, i in pairs]
            continue
        event = _event_from_record(record)
        proc_events = events[event.eid.proc]
        if event.eid.pos != len(proc_events):
            raise TraceFormatError(
                f"{label}: event {event.eid} out of order "
                f"(expected pos {len(proc_events)})"
            )
        proc_events.append(event)
    return Trace(
        processor_count=processor_count,
        memory_size=header["memory_size"],
        events=events,
        sync_order=sync_order,
        symbols=None,
        model_name=header.get("model", "unknown"),
    )


def _read_trace(path: Union[str, Path]) -> Trace:
    """The JSON-lines loader behind :func:`repro.load_trace`."""
    path = Path(path)
    with path.open("r", encoding="utf-8") as fh:
        lines = [line for line in fh if line.strip()]
    return _parse_trace_lines(lines, str(path))
