"""Checkpoint unit tests: the spec identity, outcome round-trip,
atomicity, and the load-time validation (torn files, version skew,
spec mismatch)."""

import json

import pytest

from repro.analysis.checkpoint import (
    CHECKPOINT_FORMAT,
    CheckpointError,
    CheckpointMismatch,
    CheckpointWriter,
    hunt_spec,
    load_checkpoint,
    outcome_from_payload,
    outcome_to_payload,
    program_fingerprint,
    save_checkpoint,
)
from repro.analysis import hunt_races
from repro.analysis.parallel import HuntJob, JobOutcome
from repro.machine.models import make_model
from repro.programs.kernels import locked_counter_program, racy_counter_program


def _wo():
    return make_model("WO")


def _spec(program=None, **overrides):
    spec = hunt_spec(
        program or racy_counter_program(), "WO", 12,
        ["stubborn", "ring"], 200_000, False,
    )
    spec.update(overrides)
    return spec


def _outcome(index=0, status="clean", **overrides):
    job = HuntJob(index=index, seed=index // 2, policy_index=index % 2,
                  policy_name=["stubborn", "ring"][index % 2])
    fields = dict(status=status, operations=40, fingerprint="abc",
                  duration=0.004)
    fields.update(overrides)
    return JobOutcome(job=job, **fields)


# ----------------------------------------------------------------------
# spec identity
# ----------------------------------------------------------------------

def test_program_fingerprint_tracks_program_text():
    a = program_fingerprint(racy_counter_program())
    b = program_fingerprint(racy_counter_program())
    c = program_fingerprint(locked_counter_program(2, 2))
    assert a == b
    assert a != c


def test_hunt_spec_fields():
    spec = _spec()
    assert set(spec) == {"program_sha", "model", "tries", "policies",
                        "max_steps", "stop_at_first", "detector",
                        "verify_robustness"}
    assert spec["policies"] == ["stubborn", "ring"]
    assert spec["detector"] == "postmortem"
    assert spec["verify_robustness"] is False


# ----------------------------------------------------------------------
# outcome round-trip
# ----------------------------------------------------------------------

def test_outcome_payload_round_trip():
    outcome = _outcome(3, status="error", error="RuntimeError: x",
                       traceback="tb", retries=2,
                       failure_kind="exhausted")
    back = outcome_from_payload(outcome_to_payload(outcome))
    assert back.job == outcome.job
    assert back.status == "error"
    assert back.error == "RuntimeError: x"
    assert back.retries == 2
    assert back.failure_kind == "exhausted"


def test_outcome_payload_is_json_safe():
    json.dumps(outcome_to_payload(_outcome()))


def test_outcome_from_payload_rejects_malformed():
    with pytest.raises(CheckpointError, match="malformed outcome"):
        outcome_from_payload({"index": 0})


def test_racy_outcome_carries_recording():
    result = hunt_races(racy_counter_program(), _wo, tries=4, jobs=1,
                        stop_at_first=True)
    assert result.found and result.recording is not None
    outcome = _outcome(0, status="racy", recording=result.recording,
                       report_digest="digest")
    back = outcome_from_payload(outcome_to_payload(outcome))
    assert back.recording is not None
    assert back.recording.schedule == result.recording.schedule
    assert back.recording.deliveries == result.recording.deliveries


def test_save_keeps_only_first_racy_recording(tmp_path):
    """Checkpoints stay small: the merge only ever attaches the
    lowest-index racy outcome's recording, so the others are
    stripped at save time."""
    result = hunt_races(racy_counter_program(), _wo, tries=4, jobs=1,
                        stop_at_first=True)
    assert result.recording is not None
    outcomes = [
        _outcome(1, status="racy", recording=result.recording),
        _outcome(5, status="racy", recording=result.recording),
        _outcome(3, status="clean"),
    ]
    path = tmp_path / "hunt.ckpt"
    save_checkpoint(path, _spec(), outcomes, complete=False)
    loaded = load_checkpoint(path)
    by_index = {o.job.index: o for o in loaded.outcomes}
    assert by_index[1].recording is not None  # the one the merge uses
    assert by_index[5].recording is None
    assert by_index[1].recording.schedule == result.recording.schedule


# ----------------------------------------------------------------------
# save / load validation
# ----------------------------------------------------------------------

def test_save_load_round_trip(tmp_path):
    path = tmp_path / "hunt.ckpt"
    outcomes = [_outcome(i) for i in (2, 0, 1)]  # unsorted on purpose
    save_checkpoint(path, _spec(), outcomes, complete=False)
    loaded = load_checkpoint(path, expected_spec=_spec())
    assert not loaded.complete
    assert [o.job.index for o in loaded.outcomes] == [0, 1, 2]
    assert loaded.settled_indices == {0, 1, 2}


def test_load_rejects_torn_json(tmp_path):
    path = tmp_path / "hunt.ckpt"
    save_checkpoint(path, _spec(), [_outcome(0)], complete=True)
    text = path.read_text()
    path.write_text(text[: len(text) // 2])
    with pytest.raises(CheckpointError, match="torn or corrupt"):
        load_checkpoint(path)


def test_load_rejects_unknown_format(tmp_path):
    path = tmp_path / "hunt.ckpt"
    path.write_text(json.dumps({
        "format": CHECKPOINT_FORMAT + 1, "complete": False,
        "spec": _spec(), "outcomes": [],
    }))
    with pytest.raises(CheckpointError, match="unknown checkpoint format"):
        load_checkpoint(path)


def test_load_rejects_missing_file(tmp_path):
    with pytest.raises(CheckpointError, match="unreadable"):
        load_checkpoint(tmp_path / "nope.ckpt")


def test_load_rejects_duplicate_indices(tmp_path):
    path = tmp_path / "hunt.ckpt"
    payload = {
        "format": CHECKPOINT_FORMAT, "complete": False, "spec": _spec(),
        "outcomes": [outcome_to_payload(_outcome(0)),
                     outcome_to_payload(_outcome(0))],
    }
    path.write_text(json.dumps(payload))
    with pytest.raises(CheckpointError, match="duplicate outcome"):
        load_checkpoint(path)


@pytest.mark.parametrize("field,value", [
    ("tries", 99),
    ("model", "SC"),
    ("policies", ["stubborn"]),
    ("max_steps", 5),
    ("stop_at_first", True),
    ("program_sha", "0" * 32),
    ("detector", "shb"),
])
def test_spec_mismatch_is_hard_error(tmp_path, field, value):
    path = tmp_path / "hunt.ckpt"
    save_checkpoint(path, _spec(), [], complete=False)
    with pytest.raises(CheckpointMismatch, match=field):
        load_checkpoint(path, expected_spec=_spec(**{field: value}))


def test_load_without_expected_spec_skips_validation(tmp_path):
    path = tmp_path / "hunt.ckpt"
    save_checkpoint(path, _spec(), [], complete=True)
    assert load_checkpoint(path).complete


def test_legacy_checkpoint_without_detector_is_postmortem(tmp_path):
    """Checkpoints written before the detector field existed were all
    produced by the only detector hunts then had; they must load (and
    resume) as postmortem, not error out."""
    path = tmp_path / "hunt.ckpt"
    spec = _spec()
    del spec["detector"]
    save_checkpoint(path, spec, [_outcome(0)], complete=False)
    loaded = load_checkpoint(path, expected_spec=_spec())
    assert loaded.spec["detector"] == "postmortem"
    # ...and a non-default detector still refuses the legacy file
    with pytest.raises(CheckpointMismatch, match="detector"):
        load_checkpoint(path, expected_spec=_spec(detector="wcp"))


def test_legacy_checkpoint_resumes_into_a_postmortem_hunt(tmp_path):
    """End to end: strip the detector field from a real checkpoint and
    resume — statistics must come out as if never interrupted."""
    program = racy_counter_program()
    path = tmp_path / "hunt.ckpt"
    full = hunt_races(program, _wo, tries=6, jobs=1)
    hunt_races(program, _wo, tries=6, jobs=1, checkpoint=path)
    payload = json.loads(path.read_text())
    del payload["spec"]["detector"]
    path.write_text(json.dumps(payload))
    resumed = hunt_races(
        program, _wo, tries=6, jobs=1, checkpoint=path, resume=True,
    )
    assert resumed.resumed_jobs == 6
    assert resumed.stats() == full.stats()
    with pytest.raises(CheckpointMismatch, match="detector"):
        hunt_races(
            program, _wo, tries=6, jobs=1,
            checkpoint=path, resume=True, detector="shb",
        )


# ----------------------------------------------------------------------
# the periodic writer
# ----------------------------------------------------------------------

def test_writer_persists_on_interval(tmp_path):
    path = tmp_path / "hunt.ckpt"
    writer = CheckpointWriter(path, _spec(), interval=3)
    outcomes = []
    for i in range(7):
        outcomes.append(_outcome(i))
        writer.tick(outcomes)
    assert writer.writes == 2  # after the 3rd and 6th outcome
    loaded = load_checkpoint(path)
    assert len(loaded.outcomes) == 6 and not loaded.complete
    writer.flush(outcomes, complete=True)
    loaded = load_checkpoint(path)
    assert len(loaded.outcomes) == 7 and loaded.complete


def test_writer_rejects_nonpositive_interval(tmp_path):
    with pytest.raises(ValueError):
        CheckpointWriter(tmp_path / "x", _spec(), interval=0)


def test_checkpoint_write_leaves_no_temp_files(tmp_path):
    path = tmp_path / "hunt.ckpt"
    save_checkpoint(path, _spec(), [_outcome(0)], complete=True)
    assert [p.name for p in tmp_path.iterdir()] == ["hunt.ckpt"]
