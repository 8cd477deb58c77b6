"""Vector clocks for happens-before-1, exact on cyclic relations too.

The closure backend (:class:`~repro.core.hb1.HappensBefore1`) answers
ordering queries from a transitive closure over the event graph.  This
backend assigns every event a vector clock in one pass instead: ``a
hb1 b`` iff ``clock(b)[a.proc] >= a.pos+1`` with ``a != b``
(per-processor components count events issued).  That is O(V·P) space
instead of O(V²/64) and answers a query in O(1).

On a weak machine hb1 may be cyclic (§3.1), so the pass runs over the
strongly connected components of the relation graph: an iterative
Tarjan walk along *predecessor* edges emits each component after every
component that reaches it, i.e. in topological order of the
condensation.  All members of one component share one clock — the
join of the members' own positions and the clocks of their predecessor
components — so cycle members see each other, and ``clock(b)[p] >=
a.pos+1`` stays exact as "a hb1 b": ``clock(b)[p]`` counts up to the
latest event of ``p`` that reaches ``b``, and ``a`` reaches every later
event of ``p`` through po.  The emission order
(:attr:`VectorClockHB1.order`) is the order in which
:func:`~repro.core.races.find_races` feeds events to the race kernel.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from .. import obs
from ..graph import topological_sort
from ..trace.build import Trace
from ..trace.events import ComputationEvent, EventId, SyncEvent
from .hb1 import HappensBefore1


class CyclicHB1Error(ValueError):
    """hb1 has a cycle.

    Nothing raises it any more: vector clocks are computed over the SCC
    condensation and stay exact on cyclic relations.  The class is kept
    so that code that imports or catches it keeps working.
    """


class VectorClockHB1:
    """Event vector clocks computed in one pass over the SCC
    condensation of the relation graph.

    Exposes the same ``ordered`` / ``unordered`` query interface as
    :class:`HappensBefore1`.  Pass a prebuilt ``base`` relation to
    reuse its graph instead of rebuilding po/so1 edges — including a
    *subclassed* relation (the predictive SHB/WCP backends pass their
    modified edge sets through here to reuse the same pass).

    With ``track_variables=True`` on an acyclic relation the pass is
    followed by a per-variable last-write / last-read *epoch* sweep in
    topological order: for every location, the most recent write event
    and the reads issued since it.  The resulting
    :attr:`adjacent_conflicts` set — each event paired with the latest
    conflicting accesses it supersedes — is exactly the candidate set a
    streaming per-variable detector checks, and is what makes the SHB
    backend's multi-race reports *sound* (Mathur et al. 2018 prove
    predictability only for races detected against the last write /
    reads-since-last-write).  A cyclic relation has no topological
    order, so it gets no such sweep.
    """

    def __init__(
        self,
        trace: Trace,
        base: Optional[HappensBefore1] = None,
        track_variables: bool = False,
    ) -> None:
        self.trace = trace
        if base is None:
            base = HappensBefore1(trace)
        self.graph = base.graph
        self.po_edges = base.po_edges
        self.so1_edges = base.so1_edges
        self._adjacent: Optional[
            Dict[Tuple[EventId, EventId], Tuple[int, ...]]
        ] = None
        with obs.span("hb1.vc_sweep") as sp:
            joins = self._sweep_clocks(trace.processor_count)
            if track_variables and self._acyclic:
                self._adjacent = self._sweep_variables(
                    topological_sort(self.graph)
                )
            if sp.enabled:
                sp.add("events", len(self.order))
                sp.add("clock_joins", joins)
                if self._adjacent is not None:
                    sp.add("adjacent_pairs", len(self._adjacent))

    def _sweep_clocks(self, nproc: int) -> int:
        """Tarjan over predecessor edges, assigning each component its
        clock as it is emitted; returns the number of clock joins."""
        predecessors = self.graph.predecessors
        clocks: Dict[EventId, List[int]] = {}
        order: List[EventId] = []
        index: Dict[EventId, int] = {}
        low: Dict[EventId, int] = {}
        stack: List[EventId] = []
        acyclic = True
        joins = 0
        for root in self.graph.nodes():
            if root in index:
                continue
            index[root] = low[root] = len(index)
            stack.append(root)
            work = [(root, iter(predecessors(root)))]
            while work:
                node, preds = work[-1]
                for pred in preds:
                    if pred not in index:
                        index[pred] = low[pred] = len(index)
                        stack.append(pred)
                        work.append((pred, iter(predecessors(pred))))
                        break
                    if pred not in clocks and index[pred] < low[node]:
                        low[node] = index[pred]  # still on the stack
                else:
                    work.pop()
                    if work:
                        parent = work[-1][0]
                        if low[node] < low[parent]:
                            low[parent] = low[node]
                    if low[node] != index[node]:
                        continue
                    # node roots a component: it is the stack from node up
                    at = len(stack) - 1
                    while stack[at] is not node:
                        at -= 1
                    members = stack[at:]
                    del stack[at:]
                    if len(members) > 1:
                        acyclic = False
                    clock = [0] * nproc
                    for member in members:
                        if clock[member.proc] <= member.pos:
                            clock[member.proc] = member.pos + 1
                        for pred in predecessors(member):
                            seen = clocks.get(pred)
                            if seen is not None:
                                clock = [
                                    x if x >= y else y
                                    for x, y in zip(clock, seen)
                                ]
                                joins += 1
                    for member in members:
                        clocks[member] = clock
                    order.extend(members)
        self._clocks = clocks
        self._acyclic = acyclic
        self.order = order
        return joins

    def _sweep_variables(
        self, order: List[EventId]
    ) -> Dict[Tuple[EventId, EventId], Tuple[int, ...]]:
        """Per-variable last-write/last-read epoch tracking.

        One pass over a topological order of the relation: for each
        location, remember the latest write and the reads issued since
        it, and record every *adjacent* cross-processor conflict (an
        access paired with the latest conflicting accesses it
        supersedes, canonical ``a < b``).  Same-processor pairs are
        po-ordered and skipped.
        """
        trace = self.trace
        columns = getattr(trace, "columns", None)
        last_write: Dict[int, EventId] = {}
        readers_since: Dict[int, List[EventId]] = {}
        pairs: Dict[Tuple[EventId, EventId], List[int]] = {}

        def note(x: EventId, y: EventId, addr: int) -> None:
            if x.proc == y.proc:
                return
            key = (x, y) if x < y else (y, x)
            pairs.setdefault(key, []).append(addr)

        for eid in order:
            if columns is not None:
                row = columns.row_of(eid.proc, eid.pos)
                if columns.is_comp(row):
                    reads = list(columns.event_reads(row))
                    writes = list(columns.event_writes(row))
                else:
                    addr = int(columns.addr[row])
                    if columns.kind[row]:
                        reads, writes = [], [addr]
                    else:
                        reads, writes = [addr], []
            elif isinstance(event := trace.event(eid), SyncEvent):
                reads = [event.addr] if event.reads_addr else []
                writes = [event.addr] if event.writes_addr else []
            else:
                assert isinstance(event, ComputationEvent)
                reads = list(event.reads)
                writes = list(event.writes)
            for addr in reads:
                w = last_write.get(addr)
                if w is not None:
                    note(w, eid, addr)
                readers_since.setdefault(addr, []).append(eid)
            for addr in writes:
                w = last_write.get(addr)
                if w is not None:
                    note(w, eid, addr)
                for r in readers_since.get(addr, ()):
                    if r != eid:
                        note(r, eid, addr)
                last_write[addr] = eid
                readers_since[addr] = []
        return {
            key: tuple(sorted(set(addrs))) for key, addrs in pairs.items()
        }

    # ------------------------------------------------------------------
    @property
    def adjacent_conflicts(
        self,
    ) -> Optional[Dict[Tuple[EventId, EventId], Tuple[int, ...]]]:
        """Adjacent conflicting cross-processor pairs from the
        per-variable last-write/last-read sweep (canonical ``(a, b)``
        with ``a < b`` mapped to conflict locations), or ``None`` when
        the sweep did not run (no ``track_variables``, or a cyclic
        relation)."""
        return self._adjacent

    def clock_of(self, eid: EventId) -> List[int]:
        """The event's vector clock, shared by its whole SCC (do not
        mutate)."""
        return self._clocks[eid]

    def ordered(self, a: EventId, b: EventId) -> bool:
        """True iff ``a hb1 b`` — the O(1) epoch test: b has seen a's
        own component (a's clock then flows into b's pointwise, so the
        full comparison is redundant)."""
        if a == b:
            return False
        return self._clocks[b][a.proc] >= a.pos + 1

    def unordered(self, a: EventId, b: EventId) -> bool:
        return not self.ordered(a, b) and not self.ordered(b, a)

    def is_partial_order(self) -> bool:
        """True when hb1 is acyclic: every SCC has a single member."""
        return self._acyclic
