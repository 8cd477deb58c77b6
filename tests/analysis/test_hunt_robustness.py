"""Robustness verdicts riding the hunt engine.

``hunt_races(verify_robustness=True)`` attaches an SC-justification
verdict to every try; the aggregates (and the first non-robust report)
must be identical serial vs parallel, survive checkpoint/resume
byte-for-byte, participate in the checkpoint spec identity, and leave
the legacy output byte-identical when off.
"""

from __future__ import annotations

import json

import pytest

from repro.analysis.checkpoint import (
    CheckpointMismatch,
    hunt_spec,
    load_checkpoint,
    outcome_from_payload,
    outcome_to_payload,
    save_checkpoint,
)
from repro.analysis import hunt_races
from repro.analysis.parallel import BatchOutcome, HuntJob, JobOutcome
from repro.core.robustness import RobustnessReport
from repro.machine.models import make_model
from repro.programs.kernels import locked_counter_program
from repro.programs.litmus import store_buffering_program


def _tso():
    return make_model("TSO")


def _sc():
    return make_model("SC")


def _hunt(jobs=1, tries=12, **kw):
    kw.setdefault("verify_robustness", True)
    return hunt_races(store_buffering_program(), _tso,
                      tries=tries, jobs=jobs, **kw)


# ----------------------------------------------------------------------
# aggregates and the degradation policy
# ----------------------------------------------------------------------

class TestAggregates:
    def test_verdict_on_every_try(self):
        result = _hunt()
        assert result.verify_robustness
        assert result.verified_tries == result.tries
        assert result.robust_tries + result.non_robust_tries == \
            result.verified_tries

    def test_sb_on_tso_degrades_soundness(self):
        result = _hunt(tries=16)
        assert result.non_robust_tries >= 1
        assert result.soundness == "degraded"
        assert result.first_non_robust is not None
        report = RobustnessReport.from_json(result.first_non_robust)
        assert not report.robust
        assert any(edge.kind == "fr" for edge in report.cycle)

    def test_sc_hunt_is_sc_justified(self):
        result = hunt_races(store_buffering_program(), _sc,
                            tries=8, jobs=1, verify_robustness=True)
        assert result.non_robust_tries == 0
        assert result.robust_tries == result.verified_tries == 8
        assert result.soundness == "sc-justified"
        assert result.first_non_robust is None

    def test_soundness_none_when_off(self):
        result = _hunt(verify_robustness=False)
        assert result.soundness is None
        assert result.verified_tries == 0

    def test_summary_mentions_degradation(self):
        text = _hunt(tries=16).summary()
        assert "robustness:" in text
        assert "SOUNDNESS DEGRADED" in text
        assert "SC-prefix boundary" in text

    def test_to_json_block(self):
        payload = _hunt(tries=16).to_json()
        rob = payload["robustness"]
        assert rob["verified_tries"] == 16
        assert rob["robust"] + rob["non_robust"] == 16
        assert rob["soundness"] == "degraded"
        assert rob["first_non_robust"]["kind"] == "robustness"
        json.dumps(payload)  # JSON-safe end to end

    def test_legacy_output_unchanged_when_off(self):
        result = _hunt(verify_robustness=False)
        assert "robustness" not in result.to_json()
        assert "robustness" not in result.summary()


# ----------------------------------------------------------------------
# serial == parallel
# ----------------------------------------------------------------------

class TestDeterminism:
    def test_parallel_matches_serial(self):
        serial = _hunt(jobs=1, tries=12)
        parallel = _hunt(jobs=4, tries=12)
        assert parallel.stats() == serial.stats()
        assert parallel.verified_tries == serial.verified_tries
        assert parallel.robust_tries == serial.robust_tries
        assert parallel.non_robust_tries == serial.non_robust_tries
        assert parallel.first_non_robust == serial.first_non_robust
        assert parallel.soundness == serial.soundness


# ----------------------------------------------------------------------
# wire format: JobOutcome -> BatchOutcome -> checkpoint payload
# ----------------------------------------------------------------------

def _outcome(index=0, **overrides):
    job = HuntJob(index=index, seed=index, policy_index=0,
                  policy_name="stubborn")
    fields = dict(status="clean", operations=6, fingerprint="abc",
                  duration=0.001)
    fields.update(overrides)
    return JobOutcome(job=job, **fields)


class TestWireFormat:
    def test_batch_round_trip_sparse(self):
        outcomes = [
            _outcome(0, robust=True),
            _outcome(1),  # unverified: stays None
            _outcome(2, robust=False,
                     robustness={"kind": "robustness", "robust": False}),
        ]
        batch = BatchOutcome.pack(outcomes)
        assert batch.robust == {0: True, 2: False}
        assert set(batch.robustness) == {2}
        back = batch.unfold({o.job.index: o.job for o in outcomes})
        assert [o.robust for o in back] == [True, None, False]
        assert back[1].robustness is None
        assert back[2].robustness == outcomes[2].robustness

    def test_checkpoint_payload_round_trip(self):
        outcome = _outcome(
            3, robust=False,
            robustness={"kind": "robustness", "robust": False})
        payload = outcome_to_payload(outcome)
        json.dumps(payload)
        clone = outcome_from_payload(payload)
        assert clone.robust is False
        assert clone.robustness == outcome.robustness

    def test_legacy_payload_defaults_none(self):
        payload = outcome_to_payload(_outcome(0))
        payload.pop("robust")
        payload.pop("robustness")
        clone = outcome_from_payload(payload)
        assert clone.robust is None and clone.robustness is None


# ----------------------------------------------------------------------
# checkpoint identity and resume
# ----------------------------------------------------------------------

class TestCheckpointing:
    def test_spec_records_flag(self):
        spec = hunt_spec(store_buffering_program(), "TSO", 8,
                         ["stubborn"], 200_000, False,
                         verify_robustness=True)
        assert spec["verify_robustness"] is True

    def test_spec_mismatch_on_flip(self, tmp_path):
        path = tmp_path / "hunt.ckpt"
        spec = hunt_spec(store_buffering_program(), "TSO", 8,
                         ["stubborn"], 200_000, False,
                         verify_robustness=False)
        save_checkpoint(path, spec, [], complete=False)
        expected = dict(spec, verify_robustness=True)
        with pytest.raises(CheckpointMismatch, match="verify_robustness"):
            load_checkpoint(path, expected_spec=expected)

    def test_legacy_spec_loads_as_unverified(self, tmp_path):
        path = tmp_path / "hunt.ckpt"
        spec = hunt_spec(store_buffering_program(), "TSO", 8,
                         ["stubborn"], 200_000, False)
        del spec["verify_robustness"]
        save_checkpoint(path, spec, [], complete=False)
        loaded = load_checkpoint(path)
        assert loaded.spec["verify_robustness"] is False

    def test_resume_preserves_verdicts_byte_identically(self, tmp_path):
        path = tmp_path / "hunt.ckpt"
        full = _hunt(tries=12)
        # interrupt-free partial: write a checkpoint, then resume it
        _hunt(tries=12, checkpoint=path)
        resumed = _hunt(tries=12, checkpoint=path, resume=True)
        assert resumed.resumed_jobs == 12
        assert resumed.stats() == full.stats()
        assert resumed.verified_tries == full.verified_tries
        assert resumed.robust_tries == full.robust_tries
        assert resumed.non_robust_tries == full.non_robust_tries
        assert json.dumps(resumed.first_non_robust, sort_keys=True) == \
            json.dumps(full.first_non_robust, sort_keys=True)

    def test_resume_refuses_unverified_checkpoint(self, tmp_path):
        path = tmp_path / "hunt.ckpt"
        _hunt(tries=6, verify_robustness=False, checkpoint=path)
        with pytest.raises(CheckpointMismatch, match="verify_robustness"):
            _hunt(tries=6, checkpoint=path, resume=True)


# ----------------------------------------------------------------------
# robustness never skipped by the trace cache
# ----------------------------------------------------------------------

def test_cache_hits_still_verified():
    """The trace cache can skip detector analysis but never the
    robustness verdict: a trace has no reads-from relation, so the
    verdict always comes from the live execution."""
    result = hunt_races(locked_counter_program(), _tso,
                        tries=10, jobs=1, verify_robustness=True,
                        trace_cache=True)
    assert result.verified_tries == result.tries
