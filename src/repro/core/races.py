"""Event-level race detection (Definition 2.4 lifted to events, §4.1).

A race is a pair of events that conflict on some location and are not
ordered by hb1.  It is a *data* race when at least one side is a
computation (data) event; a race between two synchronization events is
detected but flagged, since Definition 2.4 excludes it from data races.

Every detector in the package finds races with one kernel,
:class:`RaceKernel`: a frontier-pruned sweep that consumes events one
at a time, each with its vector clock, and tests every new access only
against the remembered accesses that some processor has not yet seen.
:func:`find_races` feeds it the events of a finished trace in the order
:class:`~repro.core.hb1_vc.VectorClockHB1` computed their clocks (a
topological order of the hb1 condensation, so cyclic hb1 needs no
special case); the streaming detector feeds it live, with clocks from
its own online Definition 2.1 pairing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Set, Tuple, Union

from .. import obs
from ..trace.build import Trace
from ..trace.events import EventId, SyncEvent
from .hb1 import HappensBefore1
from .hb1_vc import VectorClockHB1


@dataclass(frozen=True)
class EventRace:
    """An unordered conflicting event pair ``<a, b>`` (a < b canonically).

    ``locations`` lists every location the pair conflicts on; a single
    event-level race may stand for many lower-level operation races
    (section 4.1 of the paper).
    """

    a: EventId
    b: EventId
    locations: Tuple[int, ...]
    is_data_race: bool

    @property
    def events(self) -> Tuple[EventId, EventId]:
        return (self.a, self.b)

    @property
    def signature(self) -> str:
        """Stable text key for one race (``P0.E3~P1.E2``) — how the CLI
        names a race across runs of the same trace."""
        return f"{self.a}~{self.b}"

    def involves(self, eid: EventId) -> bool:
        return eid == self.a or eid == self.b

    def describe(self, trace: Optional[Trace] = None, max_names: int = 6) -> str:
        if trace is None:
            names = [str(addr) for addr in self.locations]
        else:
            names = [trace.addr_name(addr) for addr in self.locations]
        if len(names) > max_names:
            extra = len(names) - max_names
            names = names[:max_names] + [f"+{extra} more"]
        locs = ",".join(names)
        kind = "data race" if self.is_data_race else "sync race"
        return f"<{self.a}, {self.b}> on {{{locs}}} ({kind})"


class RaceKernel:
    """The race-finding sweep, with O(P·V + races) state.

    Events must arrive so that an event hb1-before another arrives first
    (cycle members, which are hb1-before each other, in any order), and
    each processor's clocks must grow pointwise from one of its events
    to the next.  Then the later event ``b`` of a pair is hb1-before the
    earlier ``a`` only if ``a`` is hb1-before ``b`` too, and the single
    epoch test ``clock_b[a.proc] < a.pos+1`` decides unorderedness
    exactly.

    The kernel keeps

    * :attr:`clock` — per processor, the clock of its latest event (the
      streaming detector updates these lists in place; :meth:`advance`
      installs a new one),
    * per data location, the remembered reader/writer accesses that
      some processor has *not yet seen*, pruned exactly: an access
      ``(q, pos)`` is dropped the moment every other processor's clock
      has component ``>= pos+1``, because from then on every future
      event is hb1-after it and no new race can involve it,
    * the accumulated race set.
    """

    def __init__(self, processor_count: int) -> None:
        self.nproc = processor_count
        self.clock = [[0] * processor_count for _ in range(processor_count)]
        # addr -> [(proc, pos, is_comp, eid)] not yet seen by every
        # processor
        self.writers: Dict[int, List[Tuple[int, int, bool, EventId]]] = {}
        self.readers: Dict[int, List[Tuple[int, int, bool, EventId]]] = {}
        # min over r != q of clock[r][q]; entries below it are settled
        self.global_min: List[float] = [
            float("inf") if processor_count == 1 else 0
        ] * processor_count
        # canonical (a, b) -> (locations, is_data_race)
        self.races: Dict[Tuple[EventId, EventId], Tuple[Set[int], bool]] = {}
        self.retained = 0
        self.retained_peak = 0
        self.pruned = 0

    # ------------------------------------------------------------------
    def recompute_global_min(self) -> None:
        """Call after a processor's clock gained a foreign component."""
        clock = self.clock
        for q in range(self.nproc):
            self.global_min[q] = min(
                (clock[r][q] for r in range(self.nproc) if r != q),
                default=float("inf"),
            )

    def advance(self, proc: int, clock: List[int]) -> None:
        """Make *clock* (never mutated here) the clock of *proc*'s
        latest event."""
        previous = self.clock[proc]
        self.clock[proc] = clock
        if clock is not previous and (
            clock[:proc] != previous[:proc]
            or clock[proc + 1:] != previous[proc + 1:]
        ):
            self.recompute_global_min()

    def _scan_list(self, index: Dict[int, List[Tuple[int, int, bool, EventId]]],
                   addr: int, eid: EventId, is_comp: bool,
                   clock: List[int]) -> None:
        entries = index.get(addr)
        if not entries:
            return
        gm = self.global_min
        proc = eid.proc
        keep = []
        for entry in entries:
            q, qpos, q_comp, qeid = entry
            if gm[q] >= qpos + 1:
                # every other processor has seen (q, qpos): hb1-ordered
                # before all current and future events, drop it
                self.pruned += 1
                self.retained -= 1
                continue
            keep.append(entry)
            if q == proc:
                continue  # same-processor pairs are po-ordered
            if clock[q] < qpos + 1:
                # canonical (a, b): processors differ, so proc decides
                key = (qeid, eid) if q < proc else (eid, qeid)
                race = self.races.get(key)
                if race is None:
                    self.races[key] = ({addr}, q_comp or is_comp)
                else:
                    race[0].add(addr)
        if len(keep) != len(entries):
            index[addr] = keep

    def scan(self, eid: EventId, is_comp: bool,
             reads: Iterable[int], writes: Iterable[int]) -> None:
        """Race-scan one event (clock: ``clock[eid.proc]``) against the
        remembered accesses, then remember it.  Writer×writer and
        writer×reader pairs only: readers never race each other."""
        # both sets are walked twice (scan, then remember) — a one-shot
        # iterator (e.g. a columnar bitset decoder) must be materialized
        reads = tuple(reads)
        writes = tuple(writes)
        clock = self.clock[eid.proc]
        for addr in writes:
            self._scan_list(self.writers, addr, eid, is_comp, clock)
            self._scan_list(self.readers, addr, eid, is_comp, clock)
        for addr in reads:
            self._scan_list(self.writers, addr, eid, is_comp, clock)
        entry = (eid.proc, eid.pos, is_comp, eid)
        for addr in writes:
            self.writers.setdefault(addr, []).append(entry)
            self.retained += 1
        for addr in reads:
            self.readers.setdefault(addr, []).append(entry)
            self.retained += 1
        if self.retained > self.retained_peak:
            self.retained_peak = self.retained

    def finish(self) -> List[EventRace]:
        """The races found so far, sorted by ``(a, b)``."""
        races = [
            EventRace(
                a=a,
                b=b,
                locations=tuple(sorted(locations)),
                is_data_race=is_data,
            )
            for (a, b), (locations, is_data) in self.races.items()
        ]
        races.sort(key=lambda race: (race.a, race.b))
        return races


def find_races(
    trace: Trace,
    hb: Optional[Union[HappensBefore1, VectorClockHB1]] = None,
) -> List[EventRace]:
    """All races of *trace*: conflicting, hb1-unordered event pairs.

    Returns races sorted by (a, b) for determinism.  *hb* is the
    ordering: ``None`` for plain hb1, a prebuilt :class:`HappensBefore1`
    (or subclass — the predictive SHB/WCP relations) to reuse its graph,
    or a prebuilt :class:`VectorClockHB1` to reuse its clocks as well.
    A columnar trace is read straight off its columns, so a lazy one
    stays unmaterialized.
    """
    vc = hb if isinstance(hb, VectorClockHB1) else VectorClockHB1(trace, base=hb)
    with obs.span("races.find") as sp:
        kernel = RaceKernel(trace.processor_count)
        advance, scan, clock_of = kernel.advance, kernel.scan, vc.clock_of
        columns = getattr(trace, "columns", None)
        # vc.order holds the relation graph's own EventId objects, which
        # the races then share: later graph lookups hit by identity
        for eid in vc.order:
            proc, pos = eid.proc, eid.pos
            advance(proc, clock_of(eid))
            if columns is not None:
                row = columns.row_of(proc, pos)
                if columns.is_comp(row):
                    scan(eid, True,
                         columns.event_reads(row), columns.event_writes(row))
                elif columns.kind[row]:
                    scan(eid, False, (), (int(columns.addr[row]),))
                else:
                    scan(eid, False, (int(columns.addr[row]),), ())
                continue
            event = trace.events[proc][pos]
            if not isinstance(event, SyncEvent):
                scan(eid, True, event.reads, event.writes)
            elif event.writes_addr:
                scan(eid, False, (), (event.addr,))
            else:
                scan(eid, False, (event.addr,), ())
        races = kernel.finish()
        if sp.enabled:
            sp.add("retained_peak", kernel.retained_peak)
            sp.add("pruned_entries", kernel.pruned)
            sp.add("pairs_reported", len(races))
            sp.add("data_races", sum(1 for r in races if r.is_data_race))
    return races


def data_races(races: List[EventRace]) -> List[EventRace]:
    """Filter to data races (Definition 2.4)."""
    return [race for race in races if race.is_data_race]
