"""The benchmark's three workloads, their inputs and known answers.

* ``hunt-workqueue`` hunts the buggy work queue on WO, serially.  The
  simulator does nearly all the work and the trace cache serves almost
  every analysis, so a detector change should not move it.
* ``hunt-locked-tso`` hunts a properly-labeled Test&Set lock program on
  TSO with two workers and robustness verdicts.  Lock contention makes
  thousands of sync races per try, so race finding and partitioning
  dominate, and a third of the tries hit the shared cache.
* ``analyze-traces`` runs no simulator: one client calls
  ``repro.detect(path)`` on trace files in all three formats, spanning a
  decade of sizes, so trace loading and the quadratic post-mortem
  stages carry the time.

Nothing here imports ``repro`` at module level: the known-answer checks
are plain functions over report-like objects so that the unit tests can
drive them without the program under test.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, List, Optional, Sequence

#: Fewest requests a measured run collects, so that the p90 it reports
#: has ten samples beyond it (see benchstats.tail_percentile).
MIN_SAMPLES = 100


@dataclass(frozen=True)
class HuntAnswer:
    """What every try of a hunt must show."""

    status: str  # settled JobOutcome.status of every try
    soundness: Optional[str] = None  # HuntResult.soundness, if verified


@dataclass(frozen=True)
class HuntWorkload:
    name: str
    program: str  # "workqueue" | "locked-counter"
    model: str
    tries: int  # tries per hunt call: one closed-loop request batch
    jobs: int
    verify_robustness: bool
    answer: HuntAnswer


HUNTS = {
    w.name: w
    for w in (
        HuntWorkload(
            "hunt-workqueue", "workqueue", "WO", tries=240, jobs=1,
            verify_robustness=False, answer=HuntAnswer("racy"),
        ),
        HuntWorkload(
            "hunt-locked-tso", "locked-counter", "TSO", tries=90, jobs=2,
            verify_robustness=True,
            answer=HuntAnswer("clean", soundness="sc-justified"),
        ),
    )
}

#: JobOutcome statuses of a try that settled (retried attempts do not).
SETTLED = ("racy", "clean", "error")

ANALYZE = "analyze-traces"
WORKLOADS = tuple(HUNTS) + (ANALYZE,)

FORMATS = ("jsonl", "binary", "columnar")
SUFFIX = {"jsonl": ".jsonl", "binary": ".bin", "columnar": ".wrct"}


@dataclass(frozen=True)
class TraceInput:
    """One analyze-traces input, written once per format.

    Different seeds give different interleavings; the simulation seed
    is the first one drawn from the workload seed whose trace lands
    within :data:`SIZE_BAND` of *target* (measured in *size_of*), so a
    seed changes which execution is analyzed but not how big it is.
    """

    name: str
    program: str  # "pingpong" | "locked-counter" | "workqueue"
    model: str
    racy: bool  # known answer: has a first-partition data race
    target: Optional[int] = None
    size_of: str = "events"  # "events" | "races"
    rounds: int = 0


SIZE_BAND = 0.03
MAX_DRAWS = 500

ANALYZE_INPUTS = (
    TraceInput("pingpong-10", "pingpong", "WO", False, 106, rounds=10),
    TraceInput("pingpong-30", "pingpong", "WO", False, 320, rounds=30),
    TraceInput("pingpong-100", "pingpong", "WO", False, 1070, rounds=100),
    TraceInput("locked-counter", "locked-counter", "TSO", False, 7000,
               size_of="races"),
    TraceInput("workqueue", "workqueue", "WO", True),
)


def pingpong_program(rounds: int):
    """Data-race-free two-processor handshake whose trace grows
    linearly with *rounds* (the same program as
    ``benchmarks/bench_traces.py``)."""
    from repro.machine.program import ProgramBuilder

    b = ProgramBuilder()
    flag = b.var("flag")
    ack = b.var("ack")
    data = b.var("data")
    with b.thread() as t:  # producer
        for i in range(rounds):
            t.write(data, i)
            t.release_write(flag, i + 1)
            t.spin_until_ge(ack, i + 1)
    with b.thread() as t:  # consumer
        for i in range(rounds):
            t.spin_until_ge(flag, i + 1)
            t.read(data)
            t.release_write(ack, i + 1)
    return b.build()


def build_program(kind: str, rounds: int = 0):
    import repro

    if kind == "workqueue":
        return repro.buggy_workqueue_program()
    if kind == "locked-counter":
        return repro.locked_counter_program(4, 4)
    if kind == "pingpong":
        return pingpong_program(rounds)
    raise ValueError(f"unknown program {kind!r}")


def model_factory(name: str):
    from repro.machine.models import make_model

    return lambda: make_model(name)


# ----------------------------------------------------------------------
# known answers
# ----------------------------------------------------------------------

@dataclass
class Tally:
    """Operations attempted and failed; a failed operation is a hunt
    JobFailure or an output that mismatches its known answer."""

    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)

    def record(self, problem: Optional[str]) -> None:
        self.attempted += 1
        if problem is not None:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(problem)

    @property
    def failed_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


def check_hunt(result, outcomes: Sequence, answer: HuntAnswer,
               expected_tries: int) -> List[Optional[str]]:
    """One problem (or ``None``) per settled try of one hunt call, plus
    one per try that never settled."""
    soundness_problem = None
    if answer.soundness is not None and result.soundness != answer.soundness:
        soundness_problem = (
            f"hunt soundness {result.soundness!r}, "
            f"expected {answer.soundness!r}"
        )
    problems: List[Optional[str]] = []
    for outcome in outcomes:
        where = f"try {outcome.job.index}"
        if outcome.status == "error":
            problems.append(f"{where} failed: {outcome.error}")
        elif outcome.status != answer.status:
            problems.append(
                f"{where} {outcome.status}, expected {answer.status}"
            )
        elif answer.soundness == "sc-justified" and outcome.robust is not True:
            problems.append(f"{where} has no SC justification")
        else:
            problems.append(soundness_problem)
    missing = expected_tries - len(outcomes)
    problems.extend(["try never settled"] * max(missing, 0))
    return problems


def race_key(race) -> tuple:
    return (race.a.proc, race.a.pos, race.b.proc, race.b.pos,
            tuple(race.locations), bool(race.is_data_race))


def race_digest(races: Iterable) -> str:
    """Order-independent digest of a race set."""
    keys = sorted(race_key(race) for race in races)
    return hashlib.sha256(repr(keys).encode()).hexdigest()


def check_report(report, expected_digest: str, racy: bool) -> Optional[str]:
    """Compare one post-mortem report with its file's known answer: the
    streaming detector's race set on the original trace, and whether
    the program is data-race-free."""
    if race_digest(report.races) != expected_digest:
        return "race set differs from the streaming detector's"
    if racy and not report.reported_races:
        return "no first-partition data race in a racy trace"
    if not racy and report.data_races:
        return f"{len(report.data_races)} data race(s) in a race-free trace"
    return None


# ----------------------------------------------------------------------
# analyze-traces inputs
# ----------------------------------------------------------------------

def generate_inputs(seed: int, directory: Path) -> List[dict]:
    """Simulate every :data:`ANALYZE_INPUTS` program from *seed*, write
    each trace in all three formats under *directory* and return the
    manifest, in request order."""
    import repro
    from repro.machine.models import make_model
    from repro.machine.simulator import run_program
    from repro.trace.build import build_trace
    from repro.trace.fingerprint import trace_fingerprint

    rng = random.Random(seed)
    manifest = []
    for spec in ANALYZE_INPUTS:
        program = build_program(spec.program, spec.rounds)
        for _ in range(MAX_DRAWS):
            sim_seed = rng.randrange(2 ** 31)
            result = run_program(program, make_model(spec.model),
                                 seed=sim_seed)
            trace = build_trace(result)
            reference = repro.detect(trace, detector="streaming")
            size = (trace.event_count if spec.size_of == "events"
                    else len(reference.races))
            if spec.target is None or (
                abs(size - spec.target) <= SIZE_BAND * spec.target
            ):
                break
        else:
            raise RuntimeError(
                f"{spec.name}: no execution within {SIZE_BAND:.0%} of "
                f"{spec.target} {spec.size_of} in {MAX_DRAWS} draws"
            )
        digest = race_digest(reference.races)
        fingerprint = trace_fingerprint(trace)
        for fmt in FORMATS:
            path = directory / f"{spec.name}{SUFFIX[fmt]}"
            repro.save_trace(trace, path, format=fmt)
            manifest.append({
                "name": f"{spec.name}.{fmt}",
                "input": spec.name,
                "format": fmt,
                "path": str(path),
                "bytes": path.stat().st_size,
                "events": trace.event_count,
                "operations": len(result.operations),
                "races": len(reference.races),
                "sim_seed": sim_seed,
                "racy": spec.racy,
                "race_digest": digest,
                "fingerprint": fingerprint,
            })
    return manifest
