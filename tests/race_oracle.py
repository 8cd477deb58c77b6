"""The race oracle: Definition 2.4 decided pair by pair on the closure.

Every conflicting cross-processor event pair is enumerated per location
and kept when the bitset transitive closure of the relation orders it
in neither direction.  This is the closure sweep the package used
before a single vector-clock race kernel replaced it; it stays here,
unchanged, as the reference the kernel's differential tests compare
against.  It is quadratic in the conflicting pairs and is meant for
test-sized traces only.
"""

from typing import Dict, List, Optional, Set, Tuple

from repro.core.hb1 import HappensBefore1
from repro.core.races import EventRace
from repro.trace.build import Trace
from repro.trace.events import ComputationEvent, EventId, SyncEvent


def oracle_races(
    trace: Trace, hb: Optional[HappensBefore1] = None
) -> List[EventRace]:
    """All races of *trace* under *hb* (plain hb1 by default; any
    :class:`HappensBefore1` subclass works), sorted by ``(a, b)``."""
    hb = hb or HappensBefore1(trace)
    readers, writers = _accesses_by_location(trace)

    # Hot path: for each location, every writer x (writer or reader)
    # pair is a conflict; a pair is a race iff hb1-unordered.  Ordered
    # pairs are remembered so multi-location conflicts don't re-query.
    closure = hb.closure
    index_of = closure.index_of
    ordered_index = closure.ordered_index
    dense: Dict[EventId, int] = {}

    def didx(eid: EventId) -> int:
        i = dense.get(eid)
        if i is None:
            i = index_of(eid)
            dense[eid] = i
        return i

    racing: Dict[Tuple[EventId, EventId], List[int]] = {}
    settled_ordered: Set[Tuple[EventId, EventId]] = set()

    def note(x: EventId, y: EventId, addr: int) -> None:
        key = (x, y) if x < y else (y, x)
        bucket = racing.get(key)
        if bucket is not None:
            bucket.append(addr)
            return
        if key in settled_ordered:
            return
        i, j = didx(key[0]), didx(key[1])
        if ordered_index(i, j) or ordered_index(j, i):
            settled_ordered.add(key)
        else:
            racing[key] = [addr]

    for addr, writer_list in writers.items():
        reader_list = readers.get(addr, [])
        for i, w in enumerate(writer_list):
            # same-processor events are always po-ordered: skip them
            for other in writer_list[i + 1:]:
                if other.proc != w.proc:
                    note(w, other, addr)
            for r in reader_list:
                if r.proc != w.proc:
                    note(w, r, addr)

    races: List[EventRace] = []
    for (a, b), locations in racing.items():
        races.append(_make_race(trace, a, b, locations))
    races.sort(key=lambda race: (race.a, race.b))
    return races


def _accesses_by_location(
    trace: Trace,
) -> Tuple[Dict[int, List[EventId]], Dict[int, List[EventId]]]:
    """Index events by the locations they read and write."""
    columns = getattr(trace, "columns", None)
    if columns is not None:
        return _accesses_by_location_columnar(columns)
    readers: Dict[int, List[EventId]] = {}
    writers: Dict[int, List[EventId]] = {}
    for event in trace.all_events():
        if isinstance(event, SyncEvent):
            target = writers if event.writes_addr else readers
            target.setdefault(event.addr, []).append(event.eid)
        else:
            assert isinstance(event, ComputationEvent)
            for addr in event.reads:
                readers.setdefault(addr, []).append(event.eid)
            for addr in event.writes:
                writers.setdefault(addr, []).append(event.eid)
    return readers, writers


def _accesses_by_location_columnar(
    columns,
) -> Tuple[Dict[int, List[EventId]], Dict[int, List[EventId]]]:
    """The same read/write index straight off the columns — EventIds
    only, no event or bit-vector objects."""
    readers: Dict[int, List[EventId]] = {}
    writers: Dict[int, List[EventId]] = {}
    tag, kind, addr_col = columns.tag, columns.kind, columns.addr
    for proc, count in enumerate(columns.proc_counts):
        base = columns.proc_offsets[proc]
        for pos in range(count):
            row = base + pos
            eid = EventId(proc, pos)
            if tag[row]:  # computation event
                for addr in columns.event_reads(row):
                    readers.setdefault(addr, []).append(eid)
                for addr in columns.event_writes(row):
                    writers.setdefault(addr, []).append(eid)
            else:
                target = writers if kind[row] else readers
                target.setdefault(int(addr_col[row]), []).append(eid)
    return readers, writers


def _make_race(trace: Trace, a: EventId, b: EventId, locations: List[int]) -> EventRace:
    columns = getattr(trace, "columns", None)
    if columns is not None:
        is_data = (
            columns.is_comp(columns.row_of(a.proc, a.pos))
            or columns.is_comp(columns.row_of(b.proc, b.pos))
        )
    else:
        event_a, event_b = trace.event(a), trace.event(b)
        is_data = event_a.is_computation or event_b.is_computation
    return EventRace(
        a=a,
        b=b,
        locations=tuple(sorted(set(locations))),
        is_data_race=is_data,
    )
