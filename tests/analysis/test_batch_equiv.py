"""Differential suite for the batched pool protocol: a batched
parallel hunt must be observationally identical to the serial loop.

The engine's core guarantee is that ``stats()``/``summary()`` are pure
functions of the hunt spec — worker count, dispatch batching, wire
compaction, retries, fault injection, and checkpoint/resume boundaries
must all be invisible.  This suite drives the serial path and the
batched pool across the product of those dimensions and asserts the
serialized results are byte-identical, plus unit coverage for the
batching primitives (:func:`plan_batches`, :class:`BatchOutcome`,
:class:`~repro.analysis.sharedcache.SharedTraceCache`) and the
defensive pool shutdown.
"""

import json
import multiprocessing
import threading

import pytest

from repro import faults
from repro.analysis import hunt_races, sharedcache
from repro.analysis.parallel import (
    BatchOutcome,
    HuntJob,
    JobOutcome,
    _HuntState,
    _PoolExecutor,
    _time_limit,
    plan_batches,
    plan_jobs,
)
from repro.faults import ENV_VAR, FaultPlan
from repro.machine.models import make_model
from repro.machine.replay import ExecutionRecording
from repro.obs.metrics import MetricsRegistry
from repro.programs.kernels import locked_counter_program, racy_counter_program
from repro.programs.workqueue import buggy_workqueue_program


def _wo():
    return make_model("WO")


def _stats_bytes(result):
    """The byte-level identity the acceptance criterion talks about."""
    return json.dumps(result.stats(), sort_keys=True).encode("utf-8")


@pytest.fixture(autouse=True)
def _clean_faults(monkeypatch):
    monkeypatch.delenv(ENV_VAR, raising=False)
    faults.clear()
    yield
    faults.clear()


# ----------------------------------------------------------------------
# the differential grid: serial vs batched pool
# ----------------------------------------------------------------------

@pytest.mark.parametrize("stop_at_first", [False, True])
@pytest.mark.parametrize("batch_size", [1, 3, None])
def test_batched_parallel_matches_serial(stop_at_first, batch_size):
    serial = hunt_races(
        buggy_workqueue_program(), _wo, tries=18, jobs=1,
        stop_at_first=stop_at_first,
    )
    batched = hunt_races(
        buggy_workqueue_program(), _wo, tries=18, jobs=4,
        stop_at_first=stop_at_first, batch_size=batch_size,
    )
    assert _stats_bytes(batched) == _stats_bytes(serial)
    assert batched.summary() == serial.summary()


def test_batched_parallel_matches_serial_on_clean_program():
    serial = hunt_races(locked_counter_program(2, 2), _wo, tries=8, jobs=1)
    batched = hunt_races(
        locked_counter_program(2, 2), _wo, tries=8, jobs=3, batch_size=2,
    )
    assert _stats_bytes(batched) == _stats_bytes(serial)
    assert not batched.found


@pytest.mark.parametrize("batch_size", [1, 4])
def test_batched_parallel_matches_serial_under_faults(batch_size):
    """Injected crashes drive the retry layer (one deterministic
    failure, one transient recovery) and the result must still be
    byte-identical to the serial run of the same plan."""
    results = []
    for jobs in (1, 3):
        faults.install(FaultPlan(crash={2: 99, 5: 1}))
        results.append(hunt_races(
            racy_counter_program(), _wo, tries=9, jobs=jobs,
            batch_size=batch_size, retry_backoff=0.001,
        ))
        faults.clear()
    serial, batched = results
    assert _stats_bytes(batched) == _stats_bytes(serial)
    assert batched.summary() == serial.summary()
    assert batched.retried_runs == serial.retried_runs == 2
    assert [f.kind for f in batched.failures] == ["deterministic"]


def test_batched_resume_matches_uninterrupted_serial(tmp_path):
    """Interrupt a batched hunt mid-batch (cancel after a few settles),
    then resume with a different batch size: the merged result must be
    byte-identical to an uninterrupted serial run."""
    ckpt = tmp_path / "hunt.ckpt"
    serial = hunt_races(buggy_workqueue_program(), _wo, tries=16, jobs=1)

    cancel = threading.Event()
    seen = []

    def trip(outcome):
        seen.append(outcome)
        if len(seen) == 5:  # mid-batch for batch_size=4
            cancel.set()

    partial = hunt_races(
        buggy_workqueue_program(), _wo, tries=16, jobs=2, batch_size=4,
        checkpoint=str(ckpt), checkpoint_interval=1, cancel=cancel,
        on_outcome=trip,
    )
    assert partial.interrupted
    # On a loaded box every batch may finish before the cancel reaches
    # the workers, so the settled count is <= 16, not necessarily <.
    assert partial.tries <= 16

    resumed = hunt_races(
        buggy_workqueue_program(), _wo, tries=16, jobs=3, batch_size=2,
        checkpoint=str(ckpt), resume=True,
    )
    assert resumed.resumed_jobs == partial.tries
    assert _stats_bytes(resumed) == _stats_bytes(serial)
    assert resumed.summary() == serial.summary()


def test_batched_resume_with_stop_at_first(tmp_path):
    """Resume seeds the shared racy bounds from the checkpoint: with
    stop_at_first the restored first racy index prunes the re-plan and
    the merge still matches serial byte-for-byte."""
    ckpt = tmp_path / "hunt.ckpt"
    serial = hunt_races(
        buggy_workqueue_program(), _wo, tries=20, jobs=1,
        stop_at_first=True,
    )
    cancel = threading.Event()
    partial = hunt_races(
        buggy_workqueue_program(), _wo, tries=20, jobs=2, batch_size=3,
        stop_at_first=True, checkpoint=str(ckpt), checkpoint_interval=1,
        cancel=cancel, on_outcome=lambda o: cancel.set(),
    )
    assert partial.interrupted
    resumed = hunt_races(
        buggy_workqueue_program(), _wo, tries=20, jobs=4,
        stop_at_first=True, checkpoint=str(ckpt), resume=True,
    )
    assert _stats_bytes(resumed) == _stats_bytes(serial)
    assert resumed.recording_verified


def test_metric_totals_identical_serial_vs_batched():
    """The fold is split across the batch wire (duration histogram and
    cache hits fold worker-side); the registry a caller sees must not
    be able to tell."""
    registries = []
    for jobs, batch_size in ((1, None), (4, 3)):
        reg = MetricsRegistry()
        hunt_races(buggy_workqueue_program(), _wo, tries=12, jobs=jobs,
                   batch_size=batch_size, metrics=reg)
        registries.append(reg)
    serial, batched = registries
    tries_s = serial.get("hunt_tries_total")
    tries_b = batched.get("hunt_tries_total")
    assert tries_b.total() == tries_s.total() == 12
    assert sorted(map(str, tries_b.series())) == sorted(
        map(str, tries_s.series())
    )
    dur_s = serial.get("hunt_job_duration_seconds")
    dur_b = batched.get("hunt_job_duration_seconds")
    assert dur_b.count() == dur_s.count() == 12
    hits_s = serial.get("hunt_trace_cache_hits_total")
    hits_b = batched.get("hunt_trace_cache_hits_total")
    # hit *counts* may differ by the analyses that raced (each worker
    # pays at most one extra per fingerprint), never by more
    assert hits_b is not None and hits_s is not None
    assert hits_b.total() <= hits_s.total()
    assert hits_s.total() - hits_b.total() <= 4
    assert batched.get("hunt_done").value() == 12


def test_event_stream_covers_every_job_under_batching():
    """Unfolded batches must feed the observer one outcome per job,
    exactly as the unbatched protocol did."""
    seen = []
    hunt_races(buggy_workqueue_program(), _wo, tries=10, jobs=3,
               batch_size=2, on_outcome=lambda o: seen.append(o))
    assert sorted(o.job.index for o in seen) == list(range(10))
    assert all(o.duration >= 0 for o in seen)


# ----------------------------------------------------------------------
# batching primitives
# ----------------------------------------------------------------------

def test_plan_batches_covers_plan_contiguously():
    jobs = plan_jobs(17, ["a", "b"])
    batches = plan_batches(jobs, workers=3, batch_size=4)
    assert [len(b) for b in batches] == [4, 4, 4, 4, 1]
    flat = [j.index for batch in batches for j in batch]
    assert flat == list(range(17))  # order-preserving, no gaps


def test_plan_batches_auto_size_targets_batches_per_worker():
    jobs = plan_jobs(64, ["a"])
    batches = plan_batches(jobs, workers=4)
    # 64 jobs / (4 workers * 2) = 8 per batch
    assert [len(b) for b in batches] == [8] * 8
    # tiny plans still produce at least one job per batch
    assert [len(b) for b in plan_batches(plan_jobs(3, ["a"]), workers=8)] \
        == [1, 1, 1]


def test_plan_batches_rejects_nonpositive_size():
    with pytest.raises(ValueError):
        plan_batches(plan_jobs(4, ["a"]), workers=2, batch_size=0)


def test_batch_outcome_pack_unfold_roundtrip():
    jobs = plan_jobs(4, ["a", "b"])
    recording = ExecutionRecording(
        model_name="WO", schedule=[0, 1], deliveries=[[(0, 1)], []],
    )
    outcomes = [
        JobOutcome(job=jobs[0], status="clean", operations=5,
                   duration=0.25, fingerprint="fp0"),
        JobOutcome(job=jobs[1], status="racy", operations=9,
                   recording=recording, report_digest="digest-1",
                   race_count=2, certified_races=1, cache_hit=True,
                   duration=0.5, fingerprint="fp1"),
        JobOutcome(job=jobs[2], status="error", error="Boom: x",
                   traceback="tb...", completed=True),
        JobOutcome(job=jobs[3], status="skipped"),
    ]
    packed = BatchOutcome.pack(outcomes)
    assert set(packed.recordings) == {1}
    assert set(packed.digests) == {1}
    assert set(packed.errors) == {2}
    unfolded = packed.unfold({j.index: j for j in jobs})
    for original, rebuilt in zip(outcomes, unfolded):
        assert rebuilt.job is original.job
        for field in ("status", "completed", "operations", "error",
                      "traceback", "report_digest", "cache_hit",
                      "duration", "fingerprint", "race_count",
                      "certified_races"):
            assert getattr(rebuilt, field) == getattr(original, field)
    assert unfolded[1].recording is recording
    assert unfolded[0].recording is None


# ----------------------------------------------------------------------
# the shared trace cache
# ----------------------------------------------------------------------

def _cache_pair(tmp_path):
    path = str(tmp_path / "cache.jsonl")
    open(path, "w").close()
    lock = multiprocessing.get_context("fork").Lock()
    return _shared_cache(path, lock), _shared_cache(path, lock)


def _shared_cache(path, lock):
    cache = sharedcache.SharedTraceCache()
    cache.share(path, lock)
    return cache


def test_shared_cache_put_visible_to_other_instance(tmp_path):
    writer, reader = _cache_pair(tmp_path)
    value = (True, "digest", 3, 2)
    writer.put("fp-a", value)
    assert reader.local == {}  # nothing folded yet
    assert reader.get("fp-a") == value  # refreshed from the file
    assert reader.get("fp-missing") is None


def test_shared_cache_refresh_is_incremental(tmp_path):
    writer, reader = _cache_pair(tmp_path)
    writer.put("fp-a", (False, "", 0, 0))
    assert reader.get("fp-a") == (False, "", 0, 0)
    offset = reader._offset
    writer.put("fp-b", (True, "d", 1, 1))
    assert reader.get("fp-b") == (True, "d", 1, 1)
    assert reader._offset > offset  # consumed only the tail


def test_shared_cache_ignores_torn_trailing_line(tmp_path):
    writer, reader = _cache_pair(tmp_path)
    writer.put("fp-a", (True, "d", 1, 0))
    with open(writer.path, "ab") as fh:
        fh.write(b'["fp-torn", true, "par')  # append in progress
    assert reader.get("fp-a") == (True, "d", 1, 0)
    assert reader.get("fp-torn") is None
    with open(writer.path, "ab") as fh:
        fh.write(b'tial", 1, 0]\n')  # append completes
    assert reader.get("fp-torn") == (True, "partial", 1, 0)


def test_shared_cache_survives_missing_file(tmp_path):
    lock = multiprocessing.get_context("fork").Lock()
    cache = _shared_cache(str(tmp_path / "never-created.jsonl"), lock)
    assert cache.get("fp") is None  # read path degrades
    cache.put("fp", (True, "d", 1, 1))  # write path degrades to local
    assert cache.get("fp") == (True, "d", 1, 1)


def test_shared_cache_bounds_local_dict(tmp_path):
    writer, _ = _cache_pair(tmp_path)
    writer.max_entries = 4
    for i in range(9):
        writer.put(f"fp-{i}", (False, "", 0, 0))
    assert len(writer.local) <= 4
    # evicted entries still come back from the shared file
    fresh = _shared_cache(writer.path, writer.lock)
    assert fresh.get("fp-0") == (False, "", 0, 0)


def test_cache_file_lifecycle(tmp_path, monkeypatch):
    import os
    import tempfile

    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    path = sharedcache.create_cache_file()
    assert os.path.exists(path)
    sharedcache.remove_cache_file(path)
    assert not os.path.exists(path)
    sharedcache.remove_cache_file(path)  # idempotent


# ----------------------------------------------------------------------
# defensive pool shutdown (a stdlib reshape must degrade, not raise)
# ----------------------------------------------------------------------

def _pool_state():
    return _HuntState(
        racy_counter_program(), _wo,
        [("stubborn", lambda: None)], max_steps=100, job_timeout=None,
    )


def test_pool_close_degrades_without_private_worker_list():
    """close() must neither raise nor hang when Pool's private worker
    list is gone.  The workers ignore SIGTERM, so an unbounded shutdown
    path hangs only now and then; looping makes that show, and the hard
    time limit turns a hang into a failure."""
    if "fork" not in multiprocessing.get_all_start_methods():
        pytest.skip("fork start method unavailable")
    for _ in range(20):
        executor = _PoolExecutor(_pool_state(), workers=2,
                                 stop_at_first=False)
        workers = list(executor.pool._pool)
        # simulate a future stdlib that renames Pool._pool
        executor.pool._pool = None
        try:
            with _time_limit(30.0):
                executor.close()
        finally:
            for proc in workers:  # never leak a wedged worker
                if proc.is_alive():
                    proc.kill()
        assert not any(proc.is_alive() for proc in workers)
        assert executor.cache.path is None  # shared cache file cleaned up


def test_pool_close_is_clean_on_untouched_pool():
    if "fork" not in multiprocessing.get_all_start_methods():
        pytest.skip("fork start method unavailable")
    executor = _PoolExecutor(_pool_state(), workers=2, stop_at_first=True)
    executor.close()
    assert executor.cache.path is None
