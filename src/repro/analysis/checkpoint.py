"""Hunt checkpoints: durable, resumable progress for long hunts.

The paper's pipeline is post-mortem (§4.1): a hunt's value is the
recorded executions and race statistics it accumulates, so a worker
crash or a killed parent at try 40k of 50k must never cost the whole
run.  The hunt engine (:func:`repro.analysis.hunt_races`) therefore
periodically persists every *settled* job outcome to a checkpoint
file; a resumed hunt re-plans the sweep, skips the settled indices,
and merges restored + fresh outcomes — because each job is a pure
function of ``(program, model, policy, seed)``, the merged
``HuntResult.stats()``/``summary()`` are byte-identical to an
uninterrupted run.

Checkpoints cut at *settled outcomes*, never at the pool's dispatch
batches: a parent killed mid-batch persists exactly the outcomes that
reached it, and resume re-plans every unsettled job individually —
batch boundaries are an executor detail with no representation here.
Likewise the pool's wire-level recording compaction is invisible: a
racy outcome whose recording was dropped in flight could not have been
the lowest racy index at the time, and if a crash erases the then-lower
index, resume simply re-runs it (purity reproduces the recording).

Format (``CHECKPOINT_FORMAT`` = 1) — one JSON document::

    {
      "format": 1,
      "complete": false,                # True once the sweep finished
      "hunt_id": "a1b2...",             # telemetry correlation id
                                        # (absent in legacy checkpoints;
                                        # resume keeps it, so a resumed
                                        # hunt's metrics/events/results
                                        # join with the original's)
      "spec": {                         # identity of the hunt
        "program_sha": "...",           # BLAKE2b of the assembly text
        "model": "WO",
        "tries": 50000,                 # the seed range, via seed-major
        "policies": ["stubborn", ...],  # names, in sweep order
        "max_steps": 200000,
        "stop_at_first": false,
        "detector": "postmortem",       # absent in legacy checkpoints
        "verify_robustness": false      # absent in legacy checkpoints
      },
      "outcomes": [ {...}, ... ]        # settled jobs, by index
    }

Checkpoints are always written atomically (write-tmp + fsync +
rename, :func:`repro.ioutil.atomic_write_text`), so a crash mid-write
leaves the previous complete checkpoint intact; a file torn by
anything else is rejected with :class:`CheckpointError` rather than
silently resumed.  Resume validates the spec field by field —
resuming a checkpoint against a different program, model, policy
list, seed range, or step bound is a :class:`CheckpointMismatch` hard
error, never a best-effort merge.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path
from typing import List, Optional, Sequence, Union

from ..ioutil import atomic_write_text
from ..machine.program import Program
from ..machine.replay import ExecutionRecording

CHECKPOINT_FORMAT = 1


class CheckpointError(ValueError):
    """The checkpoint file is unreadable, torn, or schema-invalid."""


class CheckpointMismatch(CheckpointError):
    """The checkpoint belongs to a different hunt spec."""


def program_fingerprint(program: Program) -> str:
    """BLAKE2b over the program's canonical assembly text — the
    checkpoint's program-identity key."""
    from ..machine.assembler import format_program

    return hashlib.blake2b(
        format_program(program).encode("utf-8"), digest_size=16
    ).hexdigest()


def hunt_spec(
    program: Program,
    model_name: str,
    tries: int,
    policy_names: Sequence[str],
    max_steps: int,
    stop_at_first: bool,
    detector: str = "postmortem",
    verify_robustness: bool = False,
) -> dict:
    """The hunt-identity record a checkpoint is validated against.

    The detector is part of the hunt's identity: outcomes analyzed by
    different detectors disagree on racy/clean (the predictive backends
    flag traces the baseline calls clean), so resuming across detectors
    would silently merge incompatible verdicts.  Checkpoints written
    before the field existed are treated as ``"postmortem"`` on load.

    ``verify_robustness`` is identity for the same reason: a hunt that
    verified every try cannot honestly merge outcomes from one that
    did not (the restored tries would have no verdicts).  Legacy
    checkpoints load as ``False`` — the only mode hunts then had.
    """
    return {
        "program_sha": program_fingerprint(program),
        "model": model_name,
        "tries": tries,
        "policies": list(policy_names),
        "max_steps": max_steps,
        "stop_at_first": bool(stop_at_first),
        "detector": detector,
        "verify_robustness": bool(verify_robustness),
    }


def make_hunt_id(spec: dict, nonce: Optional[str] = None) -> str:
    """A compact correlation id for one hunt *run*: BLAKE2b over the
    hunt spec plus a per-start nonce.

    The spec half ties the id to the hunt's identity (program, model,
    seed range, policies, detector); the nonce half distinguishes
    repeated runs of the same spec — two back-to-back identical hunts
    get different ids, while a *resume* keeps the original id by
    reading it back from the checkpoint instead of minting a new one.
    The id is deliberately *not* in the spec record itself: the spec is
    validated field-by-field on resume, and the id is the one field
    that legitimately rides across spec-identical runs.
    """
    if nonce is None:
        nonce = os.urandom(8).hex()
    digest = hashlib.blake2b(
        (json.dumps(spec, sort_keys=True) + "|" + nonce).encode("utf-8"),
        digest_size=8,
    )
    return digest.hexdigest()


def peek_hunt_id(path: Union[str, Path]) -> Optional[str]:
    """Best-effort read of a checkpoint's hunt_id — ``None`` for
    missing/legacy/corrupt files (the real load reports those properly;
    this is for callers that need the id *before* the hunt starts, like
    the CLI wiring the event log and telemetry server on a resume)."""
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
        hunt_id = payload.get("hunt_id")
        return hunt_id if isinstance(hunt_id, str) and hunt_id else None
    except (OSError, ValueError, AttributeError):
        return None


# ----------------------------------------------------------------------
# outcome (de)serialization — exactly what the deterministic merge and
# the first-racy replay need, in plain JSON
# ----------------------------------------------------------------------

def outcome_to_payload(outcome, include_recording: bool = True) -> dict:
    """Serialize one settled :class:`~repro.analysis.parallel.JobOutcome`
    (live executions/reports never ride along — resume reconstructs
    the first racy execution by replaying the recording).  With
    *include_recording* false the recording is dropped: the merge only
    ever attaches the lowest-index racy outcome's recording, so a
    checkpoint persists exactly that one and stays small."""
    job = outcome.job
    payload = {
        "index": job.index,
        "seed": job.seed,
        "policy_index": job.policy_index,
        "policy": job.policy_name,
        "attempt": job.attempt,
        "status": outcome.status,
        "completed": outcome.completed,
        "operations": outcome.operations,
        "error": outcome.error,
        "traceback": outcome.traceback,
        "report_digest": outcome.report_digest,
        "cache_hit": outcome.cache_hit,
        "fingerprint": outcome.fingerprint,
        "race_count": outcome.race_count,
        "certified_races": outcome.certified_races,
        "duration": round(outcome.duration, 6),
        "retries": outcome.retries,
        "failure_kind": outcome.failure_kind,
        "partition_keys": list(outcome.partition_keys),
        "robust": outcome.robust,
        "robustness": outcome.robustness,
        "recording": (
            outcome.recording.to_payload()
            if include_recording and outcome.recording is not None
            else None
        ),
    }
    return payload


def outcome_from_payload(payload: dict):
    from .parallel import HuntJob, JobOutcome  # circular at import time

    try:
        job = HuntJob(
            index=payload["index"],
            seed=payload["seed"],
            policy_index=payload["policy_index"],
            policy_name=payload["policy"],
            attempt=payload.get("attempt", 0),
        )
        recording = payload.get("recording")
        return JobOutcome(
            job=job,
            status=payload["status"],
            completed=payload["completed"],
            operations=payload["operations"],
            error=payload.get("error", ""),
            traceback=payload.get("traceback", ""),
            report_digest=payload.get("report_digest", ""),
            cache_hit=payload.get("cache_hit", False),
            fingerprint=payload.get("fingerprint", ""),
            race_count=payload.get("race_count", 0),
            certified_races=payload.get("certified_races", 0),
            duration=payload.get("duration", 0.0),
            retries=payload.get("retries", 0),
            failure_kind=payload.get("failure_kind", ""),
            partition_keys=tuple(payload.get("partition_keys", ())),
            robust=payload.get("robust"),
            robustness=payload.get("robustness"),
            recording=(
                ExecutionRecording.from_payload(recording)
                if recording is not None else None
            ),
        )
    except (KeyError, TypeError) as exc:
        raise CheckpointError(f"malformed outcome record: {exc}") from exc


# ----------------------------------------------------------------------
# save / load
# ----------------------------------------------------------------------

def save_checkpoint(
    path: Union[str, Path],
    spec: dict,
    outcomes: Sequence[object],
    complete: bool,
    hunt_id: Optional[str] = None,
) -> None:
    """Atomically persist the settled outcomes (sorted by index).

    Only the lowest-index racy outcome keeps its recording: it is the
    one the deterministic merge attaches as the hunt's replayable
    race, and the settled set only ever grows, so the minimum can only
    move to a *new* outcome (which arrives carrying its own
    recording).  Persisting the rest would bloat the checkpoint by
    kilobytes per racy run and make every periodic write O(racy
    recordings)."""
    ordered = sorted(outcomes, key=lambda o: o.job.index)
    first_racy = next((o for o in ordered if o.status == "racy"), None)
    payload = {
        "format": CHECKPOINT_FORMAT,
        "complete": bool(complete),
        "spec": spec,
        "outcomes": [
            outcome_to_payload(o, include_recording=o is first_racy)
            for o in ordered
        ],
    }
    if hunt_id:
        payload["hunt_id"] = hunt_id
    # Compact separators: checkpoints are rewritten periodically, so
    # the serialization cost is the overhead knob that matters.
    atomic_write_text(
        path, json.dumps(payload, sort_keys=True, separators=(",", ":"))
    )


class LoadedCheckpoint:
    """A parsed checkpoint: the spec it was written for, whether the
    sweep had finished, and the settled outcomes."""

    def __init__(self, spec: dict, complete: bool,
                 outcomes: List[object],
                 hunt_id: Optional[str] = None) -> None:
        self.spec = spec
        self.complete = complete
        self.outcomes = outcomes
        #: correlation id the checkpoint was written under (None for
        #: legacy checkpoints); resume adopts it so telemetry joins
        self.hunt_id = hunt_id

    @property
    def settled_indices(self):
        return {o.job.index for o in self.outcomes}

    @property
    def first_racy_index(self) -> Optional[int]:
        """Lowest settled racy job index, or ``None``.

        Resume seeds the engine's shared racy bounds with this: under
        ``stop_at_first`` nothing beyond it is re-planned, and either
        way pool workers skip shipping recordings that cannot beat it
        in the lowest-racy-index merge (the checkpoint already holds
        the winner's recording)."""
        racy = [o.job.index for o in self.outcomes if o.status == "racy"]
        return min(racy) if racy else None


def load_checkpoint(
    path: Union[str, Path],
    expected_spec: Optional[dict] = None,
) -> LoadedCheckpoint:
    """Read and validate a checkpoint; with *expected_spec*, any
    field-level difference is a :class:`CheckpointMismatch` hard
    error."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise CheckpointError(f"{path}: unreadable: {exc}") from exc
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CheckpointError(
            f"{path}: torn or corrupt checkpoint (invalid JSON: {exc}); "
            f"checkpoints are written atomically — this file was "
            f"damaged after the fact, delete it to start fresh"
        ) from exc
    if not isinstance(payload, dict):
        raise CheckpointError(f"{path}: checkpoint is not a JSON object")
    version = payload.get("format")
    if version != CHECKPOINT_FORMAT:
        raise CheckpointError(
            f"{path}: unknown checkpoint format {version!r} "
            f"(this reader understands {CHECKPOINT_FORMAT})"
        )
    spec = payload.get("spec")
    if not isinstance(spec, dict):
        raise CheckpointError(f"{path}: checkpoint has no spec record")
    # Legacy checkpoints predate the detector field; they were written
    # by the only detector hunts then had.  Same for verify_robustness:
    # legacy hunts never verified.
    spec.setdefault("detector", "postmortem")
    spec.setdefault("verify_robustness", False)
    if expected_spec is not None:
        mismatched = [
            key for key in sorted(set(expected_spec) | set(spec))
            if spec.get(key) != expected_spec.get(key)
        ]
        if mismatched:
            detail = "; ".join(
                f"{key}: checkpoint has {spec.get(key)!r}, "
                f"hunt wants {expected_spec.get(key)!r}"
                for key in mismatched
            )
            raise CheckpointMismatch(
                f"{path}: checkpoint belongs to a different hunt ({detail})"
            )
    raw_outcomes = payload.get("outcomes")
    if not isinstance(raw_outcomes, list):
        raise CheckpointError(f"{path}: checkpoint has no outcome list")
    outcomes = [outcome_from_payload(record) for record in raw_outcomes]
    seen = set()
    for outcome in outcomes:
        if outcome.job.index in seen:
            raise CheckpointError(
                f"{path}: duplicate outcome for job {outcome.job.index}"
            )
        seen.add(outcome.job.index)
    hunt_id = payload.get("hunt_id")
    if hunt_id is not None and not isinstance(hunt_id, str):
        raise CheckpointError(f"{path}: hunt_id is not a string")
    return LoadedCheckpoint(
        spec=spec, complete=bool(payload.get("complete")),
        outcomes=outcomes, hunt_id=hunt_id,
    )


class CheckpointWriter:
    """Periodic checkpoint persistence for a running hunt.

    Writes every *interval* settled outcomes (plus a final write at
    hunt end, marked ``complete`` when the sweep ran to completion).
    Each write persists the full settled set atomically, so the file
    on disk is always a self-contained resume point.
    """

    def __init__(self, path: Union[str, Path], spec: dict,
                 interval: int, hunt_id: Optional[str] = None) -> None:
        if interval < 1:
            raise ValueError("checkpoint interval must be positive")
        self.path = Path(path)
        self.spec = spec
        self.interval = interval
        self.hunt_id = hunt_id
        self.writes = 0
        self._since_last = 0

    def tick(self, outcomes: Sequence[object]) -> None:
        """Note one newly settled outcome; persists on the interval."""
        self._since_last += 1
        if self._since_last >= self.interval:
            self.flush(outcomes, complete=False)

    def flush(self, outcomes: Sequence[object], complete: bool) -> None:
        save_checkpoint(self.path, self.spec, outcomes, complete=complete,
                        hunt_id=self.hunt_id)
        self.writes += 1
        self._since_last = 0
