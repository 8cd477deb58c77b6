"""The hunt's cross-attempt trace-analysis cache.

Seeds that collapse to identical traces are analyzed once per hunt
(cache keyed by the canonical trace fingerprint).  The cache must be
*invisible* in every determinism-bearing output — stats() and
summary() identical with the cache on, off, serial, or parallel — and
visible only in run metadata (HuntResult.trace_cache_hits, to_json,
obs counters)."""

import pytest

from repro.analysis import hunt_races, sharedcache
from repro.machine.models import make_model
from repro.programs import (
    buggy_workqueue_program,
    independent_work_program,
    racy_counter_program,
)

import repro


def _wo():
    return make_model("WO")


def test_cache_results_identical_to_uncached():
    """Same stats/summary/report with and without the cache, on a
    workload where many seeds repeat the same trace."""
    program = buggy_workqueue_program()
    cached = hunt_races(program, _wo, tries=18, jobs=1)
    uncached = hunt_races(program, _wo, tries=18, jobs=1, trace_cache=False)
    assert cached.stats() == uncached.stats()
    assert cached.summary() == uncached.summary()
    assert uncached.trace_cache_hits == 0
    assert cached.first_report is not None
    assert uncached.first_report is not None
    assert cached.first_report.format() == uncached.first_report.format()


def test_single_thread_program_hits_on_every_repeat():
    """With one thread there is no scheduling or propagation freedom:
    every attempt produces the same trace, so everything after the
    first analysis per policy-independent trace is a cache hit."""
    program = independent_work_program(processors=1, cells=4)
    result = hunt_races(program, _wo, tries=9, jobs=1)
    assert result.tries == 9
    assert result.trace_cache_hits == 8
    assert not result.found


def test_cache_hits_counted_per_worker():
    """Workers share the hunt's cache through its file, but two
    workers can both miss on one fingerprint, so parallel hit counts
    are bounded by the serial count while statistics stay identical."""
    program = racy_counter_program(2, 2)
    serial = hunt_races(program, _wo, tries=16, jobs=1)
    parallel_result = hunt_races(program, _wo, tries=16, jobs=4)
    assert parallel_result.stats() == serial.stats()
    assert parallel_result.summary() == serial.summary()
    assert parallel_result.trace_cache_hits <= serial.trace_cache_hits


def test_cache_hits_absent_from_stats_and_summary():
    result = hunt_races(
        independent_work_program(processors=1, cells=4), _wo, tries=6
    )
    assert result.trace_cache_hits > 0
    assert "cache" not in str(result.stats())
    assert "cache" not in result.summary()
    assert result.to_json()["trace_cache_hits"] == result.trace_cache_hits


def test_cache_cleared_between_hunts():
    """Every hunt starts cold: nothing one hunt cached serves the next."""
    program = independent_work_program(processors=1, cells=4)
    first = hunt_races(program, _wo, tries=3, jobs=1)
    assert first.trace_cache_hits == 2
    result = hunt_races(program, _wo, tries=3, jobs=1)
    # a warm leftover cache would have made all 3 analyses hits
    assert result.trace_cache_hits == 2


def test_serial_hunt_never_creates_a_cache_file(monkeypatch):
    """The serial cache is memory-only: its hits and misses do no file
    I/O, so a hunt that hits must never reach the shared-file backend."""
    def _no_file(*args, **kwargs):
        raise AssertionError("serial hunt created a cache file")

    monkeypatch.setattr(sharedcache, "create_cache_file", _no_file)
    result = hunt_races(
        independent_work_program(processors=1, cells=4), _wo, tries=6,
        jobs=1,
    )
    assert result.trace_cache_hits == 5
    with pytest.raises(AssertionError, match="cache file"):
        hunt_races(
            independent_work_program(processors=1, cells=4), _wo, tries=6,
            jobs=2,
        )


def test_cache_hits_surface_in_stage_profile():
    profiler = repro.obs.Profiler()
    with profiler.activate():
        result = hunt_races(
            independent_work_program(processors=1, cells=4), _wo, tries=6
        )
    assert result.trace_cache_hits == 5
    job_agg = result.stage_profile["hunt.job"]
    assert job_agg["counters"]["trace_cache_hits"] == 5
