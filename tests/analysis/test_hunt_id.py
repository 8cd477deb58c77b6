"""Hunt-id correlation and the coverage/failure metric families: the
same id must appear in HuntResult.to_json, the checkpoint payload, and
the resumed run; coverage gauges and the hunt_coverage timeseries must
grow as distinct traces and provenance partitions settle; failures
must classify into hunt_failures_total{kind}."""

import json
import threading

import pytest

from repro import faults
from repro.analysis.checkpoint import (
    load_checkpoint,
    make_hunt_id,
    peek_hunt_id,
)
from repro.analysis import hunt_races
from repro.faults import FaultPlan
from repro.machine.models import make_model
from repro.obs.metrics import MetricsRegistry
from repro.programs.kernels import racy_counter_program
from repro.programs.workqueue import buggy_workqueue_program


def _wo():
    return make_model("WO")


@pytest.fixture(autouse=True)
def _clean_faults():
    faults.clear()
    yield
    faults.clear()


# ----------------------------------------------------------------------
# id minting and peeking
# ----------------------------------------------------------------------

def test_make_hunt_id_shape_and_nonce():
    spec = {"workload": "wq", "tries": 8}
    a = make_hunt_id(spec)
    b = make_hunt_id(spec)
    assert len(a) == 16 and int(a, 16) >= 0  # 8-byte hex digest
    assert a != b  # fresh nonce per mint
    assert make_hunt_id(spec, nonce="n") == make_hunt_id(spec, nonce="n")
    assert make_hunt_id(spec, nonce="n") != make_hunt_id(spec, nonce="m")


def test_peek_hunt_id_missing_and_idless(tmp_path):
    assert peek_hunt_id(tmp_path / "nope.json") is None
    idless = tmp_path / "idless.json"
    idless.write_text(json.dumps({"spec": {}}), encoding="utf-8")
    assert peek_hunt_id(idless) is None
    garbage = tmp_path / "garbage.json"
    garbage.write_text("{not json", encoding="utf-8")
    assert peek_hunt_id(garbage) is None


# ----------------------------------------------------------------------
# one id everywhere
# ----------------------------------------------------------------------

def test_hunt_id_flows_to_result_and_checkpoint(tmp_path):
    checkpoint = tmp_path / "hunt.ckpt"
    result = hunt_races(
        racy_counter_program(), _wo, tries=6,
        checkpoint=str(checkpoint), hunt_id="aabbccdd00112233",
    )
    assert result.hunt_id == "aabbccdd00112233"
    assert result.to_json()["hunt_id"] == "aabbccdd00112233"
    assert peek_hunt_id(checkpoint) == "aabbccdd00112233"
    assert load_checkpoint(checkpoint).hunt_id == "aabbccdd00112233"


def test_hunt_mints_an_id_when_none_is_passed():
    result = hunt_races(racy_counter_program(), _wo, tries=4)
    assert isinstance(result.hunt_id, str) and len(result.hunt_id) == 16


def test_resume_keeps_the_checkpoint_id(tmp_path):
    checkpoint = tmp_path / "hunt.ckpt"
    # interrupt partway so the resume actually restores outcomes
    cancel = threading.Event()
    seen = []

    def stop_after_three(outcome):
        seen.append(outcome)
        if len(seen) == 3:
            cancel.set()

    first = hunt_races(
        racy_counter_program(), _wo, tries=12,
        checkpoint=str(checkpoint), checkpoint_interval=1,
        cancel=cancel, on_outcome=stop_after_three,
        hunt_id="0123456789abcdef",
    )
    assert first.interrupted
    resumed = hunt_races(
        racy_counter_program(), _wo, tries=12,
        checkpoint=str(checkpoint), resume=True,
        hunt_id="ffffffffffffffff",  # the checkpoint's id must win
    )
    assert resumed.hunt_id == "0123456789abcdef"
    assert resumed.resumed_jobs > 0
    assert peek_hunt_id(checkpoint) == "0123456789abcdef"


def test_hunt_info_metric_carries_the_id():
    registry = MetricsRegistry()
    result = hunt_races(racy_counter_program(), _wo, tries=4,
                        metrics=registry, hunt_id="1122334455667788")
    info = registry.get("hunt_info")
    (entry,) = info.series()
    assert entry["labels"]["hunt_id"] == "1122334455667788"
    assert entry["labels"]["detector"] == result.detector
    assert entry["value"] == 1


# ----------------------------------------------------------------------
# coverage family
# ----------------------------------------------------------------------

def test_coverage_gauges_and_timeseries_grow():
    registry = MetricsRegistry()
    hunt_races(buggy_workqueue_program(), _wo, tries=40, metrics=registry)
    fingerprints = registry.get("hunt_coverage_fingerprints").value()
    partitions = registry.get(
        "hunt_coverage_provenance_partitions").value()
    assert fingerprints and fingerprints > 0
    assert partitions and partitions > 0
    series = registry.get("hunt_coverage")
    # one sample per growth event, per kind
    assert len(series.points(kind="fingerprints")) == fingerprints
    assert len(series.points(kind="partitions")) == partitions
    # distinct-set semantics: cache hits repeat fingerprints and never
    # inflate the gauge past the number of distinct traces
    cache_hits = registry.get("hunt_trace_cache_hits_total").total()
    done = registry.get("hunt_done").value()
    assert fingerprints <= done - cache_hits


def test_coverage_counts_restored_outcomes_once(tmp_path):
    checkpoint = tmp_path / "hunt.ckpt"
    cancel = threading.Event()
    seen = []

    def stop_after_five(outcome):
        seen.append(outcome)
        if len(seen) == 5:
            cancel.set()

    hunt_races(buggy_workqueue_program(), _wo, tries=30,
               checkpoint=str(checkpoint), checkpoint_interval=1,
               cancel=cancel, on_outcome=stop_after_five)
    registry = MetricsRegistry()
    full = hunt_races(buggy_workqueue_program(), _wo, tries=30,
                      checkpoint=str(checkpoint), resume=True,
                      metrics=registry)
    uninterrupted = MetricsRegistry()
    reference = hunt_races(buggy_workqueue_program(), _wo, tries=30,
                           metrics=uninterrupted)
    assert full.stats() == reference.stats()
    assert registry.get("hunt_coverage_fingerprints").value() == \
        uninterrupted.get("hunt_coverage_fingerprints").value()
    assert registry.get("hunt_coverage_provenance_partitions").value() == \
        uninterrupted.get("hunt_coverage_provenance_partitions").value()


def test_partition_keys_survive_the_checkpoint(tmp_path):
    checkpoint = tmp_path / "hunt.ckpt"
    registry = MetricsRegistry()
    hunt_races(buggy_workqueue_program(), _wo, tries=10,
               checkpoint=str(checkpoint), metrics=registry)
    loaded = load_checkpoint(checkpoint)
    keys = set()
    for outcome in loaded.outcomes:
        keys.update(outcome.partition_keys)
    assert len(keys) == registry.get(
        "hunt_coverage_provenance_partitions").value()


def test_no_partition_keys_without_metrics():
    seen = []
    hunt_races(buggy_workqueue_program(), _wo, tries=6,
               on_outcome=seen.append)
    # the disabled-metrics hot path must not pay for coverage keys
    assert all(outcome.partition_keys == () for outcome in seen)


# ----------------------------------------------------------------------
# failure classification metric
# ----------------------------------------------------------------------

def test_failures_counter_classifies_kinds():
    faults.install(FaultPlan(crash={2: 99}))
    registry = MetricsRegistry()
    result = hunt_races(racy_counter_program(), _wo, tries=6,
                        max_retries=5, retry_backoff=0.001,
                        metrics=registry)
    assert len(result.failures) == 1
    counter = registry.get("hunt_failures_total")
    assert counter.value(kind="deterministic") == 1
    assert counter.total() == 1


def test_failures_counter_unretried():
    faults.install(FaultPlan(crash={2: 99}))
    registry = MetricsRegistry()
    hunt_races(racy_counter_program(), _wo, tries=6,
               max_retries=0, metrics=registry)
    assert registry.get(
        "hunt_failures_total").value(kind="unretried") == 1
