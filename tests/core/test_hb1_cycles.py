"""Cyclic hb1 tolerance (section 3.1).

"Since in general, the synchronization operations of a weak system are
not constrained to be executed in a sequentially consistent manner, the
so1 relation and hence the hb1 relation may contain cycles and hence
not be partial orders.  Nevertheless, the current dynamic techniques
... can still be applied."

Our simulator keeps sync operations SC, so it can never produce such a
trace; these tests hand-craft one (two release/acquire pairs whose
pairings point in opposite directions across the processors) and check
that every pipeline stage survives and still produces a sane report.
"""

import pytest

import repro
from repro.core.detector import PostMortemDetector
from repro.core.hb1 import HappensBefore1
from repro.core.partitions import partition_races
from repro.core.predictive import WeakCausallyPrecedes
from repro.core.races import find_races
from repro.graph import find_cycle
from repro.machine.operations import OperationKind, SyncRole
from repro.trace.bitvector import BitVector
from repro.trace.build import Trace
from repro.trace.events import ComputationEvent, EventId, SyncEvent

from tests.race_oracle import oracle_races


def _cyclic_trace() -> Trace:
    """P0: acq(f2)=1 ; comp{W x} ; rel(f1)=1
       P1: acq(f1)=1 ; comp{R x} ; rel(f2)=1
    with per-location sync orders that pair each release to the *other*
    processor's earlier acquire — impossible under SC sync, cyclic hb1.
    """
    f1, f2, x = 0, 1, 2

    p0_acq = SyncEvent(EventId(0, 0), addr=f2, op_kind=OperationKind.READ,
                       role=SyncRole.ACQUIRE, value=1, order_pos=1)
    p0_comp = ComputationEvent(EventId(0, 1), writes=BitVector([x]))
    p0_rel = SyncEvent(EventId(0, 2), addr=f1, op_kind=OperationKind.WRITE,
                       role=SyncRole.RELEASE, value=1, order_pos=0)

    p1_acq = SyncEvent(EventId(1, 0), addr=f1, op_kind=OperationKind.READ,
                       role=SyncRole.ACQUIRE, value=1, order_pos=1)
    p1_comp = ComputationEvent(EventId(1, 1), reads=BitVector([x]))
    p1_rel = SyncEvent(EventId(1, 2), addr=f2, op_kind=OperationKind.WRITE,
                       role=SyncRole.RELEASE, value=1, order_pos=0)

    return Trace(
        processor_count=2,
        memory_size=3,
        events=[[p0_acq, p0_comp, p0_rel], [p1_acq, p1_comp, p1_rel]],
        sync_order={
            f1: [p0_rel.eid, p1_acq.eid],
            f2: [p1_rel.eid, p0_acq.eid],
        },
        model_name="hand-crafted-weak",
    )


def _cyclic_trace_with_race() -> Trace:
    """:func:`_cyclic_trace` plus a third processor writing ``x`` with
    no synchronization: it races with both cycle members."""
    trace = _cyclic_trace()
    p2_comp = ComputationEvent(EventId(2, 0), writes=BitVector([2]))
    trace.events.append([p2_comp])
    trace.processor_count = 3
    return trace


def test_hb1_is_cyclic():
    hb = HappensBefore1(_cyclic_trace())
    assert not hb.is_partial_order()
    assert find_cycle(hb.graph) is not None
    assert len(hb.so1_edges) == 2


def test_cycle_members_mutually_ordered():
    hb = HappensBefore1(_cyclic_trace())
    a = EventId(0, 1)
    b = EventId(1, 1)
    # Both directions hold through the cycle — so the pair is NOT a
    # race despite being conflicting: hb1 "orders" them both ways.
    assert hb.ordered(a, b)
    assert hb.ordered(b, a)
    assert not hb.unordered(a, b)


def test_race_detection_survives_cycle():
    trace = _cyclic_trace()
    races = find_races(trace)
    # The x accesses are hb1-comparable (via the cycle), so no race is
    # reported between them; the two release/acquire pairs conflict on
    # the flags but are ordered too.
    assert races == []


def test_partitioning_survives_cycle():
    trace = _cyclic_trace()
    hb = HappensBefore1(trace)
    races = find_races(trace, hb)
    analysis = partition_races(trace, hb, races)
    assert analysis.partitions == []
    # The whole 6-event cycle condenses to few components.
    assert len(analysis.cond.components) < 6


def test_full_detector_on_cyclic_trace():
    report = PostMortemDetector().analyze(_cyclic_trace())
    assert report.race_free
    text = report.format()
    assert "No data races" in text


def test_cyclic_trace_with_extra_race():
    """Add a third processor racing on x: the race must still surface
    even with the cycle present elsewhere in G'."""
    trace = _cyclic_trace_with_race()
    report = PostMortemDetector().analyze(trace)
    assert not report.race_free
    # P2's write races with both cycle members (each pair reported).
    assert len(report.data_races) == 2
    assert len(report.first_partitions) == 1


def test_oracle_sees_races_with_cycle_members():
    races = oracle_races(_cyclic_trace_with_race())
    cycle_members = {EventId(0, 1), EventId(1, 1)}
    assert any(
        race.is_data_race and (race.a in cycle_members or race.b in cycle_members)
        for race in races
    )


@pytest.mark.parametrize(
    "detector", ["postmortem", "shb", "wcp", "streaming", "naive"]
)
@pytest.mark.parametrize("build", [_cyclic_trace, _cyclic_trace_with_race])
def test_every_detector_equals_oracle_on_cyclic_trace(detector, build):
    """WCP reports the hb1 races plus those its weaker relation adds,
    so its oracle is the union of both relations' oracle races."""
    trace = build()
    expected = oracle_races(trace)
    if detector == "wcp":
        weak = oracle_races(trace, WeakCausallyPrecedes(trace))
        expected = sorted(set(expected) | set(weak), key=lambda r: (r.a, r.b))
    report = repro.detect(trace, detector=detector)
    assert report.races == expected
