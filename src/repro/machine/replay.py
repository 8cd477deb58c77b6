"""Deterministic execution record and replay.

The paper argues (sections 1 and 5) that once races are detected, the
sequentially consistent prefix lets ordinary debugging tools be applied
to the part of the execution containing the first bugs.  The tool every
race debugger leans on is *replay*: re-running the exact execution that
exhibited the race.  This module captures the two sources of
nondeterminism in the simulator — scheduler picks and voluntary write
propagation — and replays them, reproducing the operation stream
bit-for-bit (same schedule + same deliveries + deterministic processors
=> same execution).  Recording and replay are modes of the simulator's
one loop (:class:`~repro.machine.simulator.Simulator`): recording
appends each pick and each step's sorted delivery log as it goes, and
replay feeds them back in place of the scheduler and the policy.

Recordings serialize to JSON so an execution captured in production can
be replayed in a later debugging session, alongside its trace file.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Optional, Sequence, Tuple, Union

from ..ioutil import atomic_write_text
from .memory import MemorySystem
from .models.base import MemoryModel
from .program import Program
from .propagation import PropagationPolicy
from .scheduler import Scheduler
from .simulator import ExecutionResult, Simulator


class ReplayError(RuntimeError):
    """The recording does not match the program/model being replayed."""


@dataclass
class ExecutionRecording:
    """Everything needed to reproduce one simulated execution.

    ``schedule[i]`` is the processor picked at step *i*, and
    ``deliveries[i]`` the voluntary ``(write seq, reader)`` deliveries
    made before that pick.  Step lists are read-only: a recording
    made by the simulator shares one empty list among its steps that
    delivered nothing.
    """

    model_name: str
    schedule: List[int] = field(default_factory=list)
    deliveries: List[List[Tuple[int, int]]] = field(default_factory=list)

    # ------------------------------------------------------------------
    def to_payload(self) -> dict:
        """The recording as plain JSON-able data (the on-disk schema,
        also embedded verbatim in hunt checkpoints)."""
        return {
            "format": 1,
            "model": self.model_name,
            "schedule": self.schedule,
            "deliveries": [
                [[seq, reader] for seq, reader in step]
                for step in self.deliveries
            ],
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "ExecutionRecording":
        if payload.get("format") != 1:
            raise ReplayError(f"unsupported recording format {payload.get('format')!r}")
        return cls(
            model_name=payload["model"],
            schedule=list(payload["schedule"]),
            deliveries=[
                [(seq, reader) for seq, reader in step]
                for step in payload["deliveries"]
            ],
        )

    def save(self, path: Union[str, Path]) -> None:
        # Atomic so a crash mid-save never tears a replay artifact.
        atomic_write_text(path, json.dumps(self.to_payload()))

    @classmethod
    def load(cls, path: Union[str, Path]) -> "ExecutionRecording":
        return cls.from_payload(
            json.loads(Path(path).read_text(encoding="utf-8"))
        )


def _replayer(recording: ExecutionRecording):
    """The ``(pick, propagate)`` pair that makes the simulator loop
    replay *recording*: each step consumes one recorded delivery list
    and one recorded pick, and raises :class:`ReplayError` where the
    program or model no longer fits them."""
    schedule, deliveries = recording.schedule, recording.deliveries
    picked = delivered = 0

    def propagate(memory: MemorySystem, rng: random.Random) -> None:
        nonlocal delivered
        if delivered >= len(deliveries):
            raise ReplayError("recording exhausted mid-replay")
        step = deliveries[delivered]
        delivered += 1
        if not step:
            return
        by_seq = {pw.seq: pw for pw in memory.pending_writes()}
        for seq, reader in step:
            pw = by_seq.get(seq)
            if pw is None or reader not in pw.remaining:
                raise ReplayError(
                    f"recorded delivery (write seq {seq} -> P{reader}) "
                    f"is not pending (program/model mismatch?)"
                )
            memory.propagate(pw, reader)

    def pick(runnable: Sequence[int]) -> int:
        nonlocal picked
        if picked >= len(schedule):
            raise ReplayError(
                f"recording exhausted after {picked} steps but the "
                f"execution is still running (program/model mismatch?)"
            )
        pid = schedule[picked]
        picked += 1
        if pid not in runnable:
            raise ReplayError(
                f"step {picked - 1}: recorded pick P{pid} is not "
                f"runnable (program/model mismatch?)"
            )
        return pid

    return pick, propagate


# ----------------------------------------------------------------------
# public API
# ----------------------------------------------------------------------

def record_execution(
    program: Program,
    model: MemoryModel,
    scheduler: Optional[Scheduler] = None,
    propagation: Optional[PropagationPolicy] = None,
    seed: Optional[int] = 0,
    max_steps: int = 200_000,
) -> Tuple[ExecutionResult, ExecutionRecording]:
    """Run *program* while capturing every nondeterministic choice."""
    recording = ExecutionRecording(model_name=model.name)
    sim = Simulator(program, model, scheduler, propagation, seed)
    return sim._execute(max_steps, recording=recording), recording


def replay_execution(
    program: Program,
    model: MemoryModel,
    recording: ExecutionRecording,
    max_steps: int = 200_000,
) -> ExecutionResult:
    """Reproduce a recorded execution exactly.

    Raises :class:`ReplayError` when the recording does not fit the
    supplied program/model (e.g. the source was edited).
    """
    if model.name != recording.model_name:
        raise ReplayError(
            f"recording was made on {recording.model_name!r}, "
            f"replaying on {model.name!r}"
        )
    sim = Simulator(program, model, seed=0)
    return sim._execute(
        min(max_steps, len(recording.schedule)), replay=_replayer(recording)
    )


def verify_recording(
    program: Program,
    model: MemoryModel,
    recording: ExecutionRecording,
    expected: ExecutionResult,
    max_steps: int = 200_000,
) -> bool:
    """True iff *recording* replays to exactly *expected*.

    A recording is only useful as a debugging artifact if replaying it
    reproduces the execution it was captured from; callers that hand a
    recording to a user (e.g. the race hunt) should verify it first
    rather than advertise a replay that will diverge or fail.
    """
    try:
        replayed = replay_execution(program, model, recording, max_steps=max_steps)
    except ReplayError:
        return False
    return executions_equal(expected, replayed)


def executions_equal(a: ExecutionResult, b: ExecutionResult) -> bool:
    """Structural equality of two executions' operation streams."""
    if len(a.operations) != len(b.operations):
        return False
    for x, y in zip(a.operations, b.operations):
        if (x.seq, x.proc, x.kind, x.role, x.addr, x.value,
                x.observed_write, x.stale) != \
           (y.seq, y.proc, y.kind, y.role, y.addr, y.value,
                y.observed_write, y.stale):
            return False
    return a.final_memory == b.final_memory
