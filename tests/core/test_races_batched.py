"""Differential tests: the race kernel against the closure oracle.

`find_races` has one body: it takes every event's clock from
`VectorClockHB1` and feeds the frontier-pruned race kernel.  These
tests once pinned the batched clock-matrix sweep, the per-pair epoch
sweep and the closure sweep against each other; each now asserts, on
the same inputs, that the kernel reports *identical* races to the
closure oracle (`tests/race_oracle.py`) — same pairs, same conflict
locations, same data-race flags — whether handed a prebuilt
`VectorClockHB1`, the `HappensBefore1` relation or the predictive SHB
and WCP relations, on traces read back from every file format, and on
cyclic hb1 (§3.1) too.
"""

import sys
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro import obs
from repro.core.detector import PostMortemDetector
from repro.core.hb1 import HappensBefore1
from repro.core.hb1_vc import VectorClockHB1
from repro.core.predictive import ScheduleHappensBefore, WeakCausallyPrecedes
from repro.core.races import find_races
from repro.machine.models import make_model
from repro.machine.propagation import RandomPropagation, StubbornPropagation
from repro.machine.simulator import run_program
from repro.programs import (
    buggy_workqueue_program,
    figure1a_program,
    figure1b_program,
    figure2_weak_setup,
    locked_counter_program,
    racy_counter_program,
    single_race_program,
)
from repro.trace.build import build_trace

from tests.core.test_hb1_cycles import _cyclic_trace, _cyclic_trace_with_race
from tests.properties.test_prop_hb1_vc import sync_chain_traces
from tests.properties.test_prop_traces import traces
from tests.race_oracle import oracle_races


def _trace_for(program, model="WO", seed=0, propagation=None):
    result = run_program(
        program, make_model(model), seed=seed, propagation=propagation
    )
    return build_trace(result)


def _assert_same_races(trace):
    hb = HappensBefore1(trace)
    expected = oracle_races(trace, hb)
    assert find_races(trace, VectorClockHB1(trace, base=hb)) == expected
    assert find_races(trace, hb) == expected
    assert find_races(trace) == expected
    # the predictive orderings go through the same kernel
    for relation in (ScheduleHappensBefore(trace), WeakCausallyPrecedes(trace)):
        assert find_races(trace, relation) == oracle_races(trace, relation)
    return expected


@pytest.mark.parametrize("build,model", [
    (lambda: racy_counter_program(3, 3), "WO"),
    (buggy_workqueue_program, "WO"),
    (figure1a_program, "SC"),
    (figure1b_program, "WO"),
    (single_race_program, "WO"),
])
@pytest.mark.parametrize("seed", [0, 1, 7])
def test_batched_sweep_matches_closure_on_executions(build, model, seed):
    for propagation in (None, StubbornPropagation(), RandomPropagation(0.4)):
        trace = _trace_for(build(), model, seed, propagation)
        _assert_same_races(trace)


def test_batched_sweep_finds_known_race():
    races = _assert_same_races(_trace_for(single_race_program()))
    assert any(r.is_data_race for r in races)


def test_batched_sweep_matches_closure_on_figure2():
    """The paper's Figure 2b reordering, reproduced deterministically."""
    result = figure2_weak_setup(make_model("WO")).run()
    races = _assert_same_races(build_trace(result))
    assert any(r.is_data_race for r in races)


#: generic traces plus so1-chain-heavy ones, whose weakly reordered
#: sync orders make a few percent of them cyclic
ANY_TRACE = st.one_of(traces(), sync_chain_traces())


@given(trace=ANY_TRACE)
@settings(max_examples=80, deadline=None)
def test_batched_sweep_matches_closure_on_generated_traces(trace):
    """Cyclic generated traces included: the clocks come from the SCC
    condensation, so no trace is skipped."""
    vc = VectorClockHB1(trace)
    assert find_races(trace, vc) == oracle_races(trace)


@given(trace=ANY_TRACE)
@settings(max_examples=60, deadline=None)
def test_epoch_fallback_matches_closure_without_numpy(trace):
    """The kernel decides every pair with the pure-Python epoch test:
    with numpy made unimportable it must report the oracle's races."""
    expected = oracle_races(trace)
    with mock.patch.dict(sys.modules, {"numpy": None}):
        assert find_races(trace) == expected


@pytest.mark.parametrize("fmt", ["jsonl", "binary", "columnar"])
def test_kernel_matches_oracle_on_loaded_traces(fmt, tmp_path):
    """Traces read back from every file format give the oracle's races;
    a columnar trace is read off its columns, never materialized."""
    trace = _trace_for(racy_counter_program(3, 3), seed=2)
    path = tmp_path / f"t.{fmt}"
    repro.save_trace(trace, path, format=fmt)
    loaded = repro.load_trace(path)
    try:
        assert find_races(loaded) == oracle_races(trace)
        if fmt == "columnar":
            assert not any(view._cache for view in loaded.events)
    finally:
        if fmt == "columnar":
            loaded.close()


def test_detector_matches_oracle_on_cyclic_trace():
    """The end-to-end pipeline runs the kernel on a cyclic hb1
    (hand-crafted weak-sync trace): the vector clocks accept it, the
    races equal the oracle's, and no hb1 closure is built."""
    for trace in (_cyclic_trace(), _cyclic_trace_with_race()):
        vc = VectorClockHB1(trace)
        assert not vc.is_partial_order()
        report = PostMortemDetector().analyze(trace)
        assert report.races == oracle_races(trace)
        assert report.hb._closure is None


def test_detector_uses_vector_clocks_on_acyclic_traces():
    """The pipeline never builds the closure: the kernel answers every
    ordering question from the vector clocks."""
    trace = _trace_for(racy_counter_program(2, 2))
    detector = PostMortemDetector()
    report = detector.analyze(trace)
    # the report's hb handle is the closure-capable relation (kept for
    # G'/partition work and to_dot), but analysis must not have forced
    # its closure
    assert report.hb._closure is None
    assert report.races == oracle_races(trace)


def _races_find_counters(trace):
    profiler = obs.Profiler()
    with profiler.activate():
        races = find_races(trace)
    (record,) = [
        rec for rec in profiler.to_records() if rec["name"] == "races.find"
    ]
    return races, record["counters"]


def test_kernel_counters_on_racy_trace():
    trace = _trace_for(racy_counter_program(3, 3), seed=1)
    races, counters = _races_find_counters(trace)
    assert counters["pairs_reported"] == len(races) > 0
    assert counters["data_races"] == sum(r.is_data_race for r in races)
    assert counters["retained_peak"] >= 1


def test_kernel_counters_show_pruning_on_synchronized_trace():
    """On a lock-protected workload every other processor eventually
    sees each access, so the kernel drops entries instead of keeping
    the whole trace."""
    trace = _trace_for(locked_counter_program(3, 8), seed=3)
    races, counters = _races_find_counters(trace)
    assert races == oracle_races(trace)
    assert counters["pruned_entries"] > 0
    assert counters["retained_peak"] < trace.event_count
