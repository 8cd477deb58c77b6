"""Race hunting: searching executions for a racy one.

A single clean dynamic run proves nothing about a program (section 1 of
the paper: dynamic techniques "provide little information about other
executions").  Between one run and the exhaustive explorer sits the
practical middle ground every dynamic tool ships: run many schedules
and propagation behaviours, keep the first racy execution found, and
hand back its *recording* so the race replays deterministically in a
debugger.

The hunt sweeps seeds across a set of propagation-policy factories
(stubborn and NUMA-ring shapes surface weak-memory reorderings that
eager propagation hides) and reports per-policy and per-seed
statistics.  Every policy is swept over the *same* seed range
(seed-major enumeration: attempt ``i`` runs seed ``i // P`` under
policy ``i % P``), so per-policy racy rates are directly comparable
and adding or removing a policy never changes which seeds another
policy observes.

This module holds the hunt's policies and result types.  The entry
point, :func:`repro.analysis.hunt_races`, lives in
:mod:`repro.analysis.parallel`, which shards the (seed, policy) jobs
across worker processes when ``jobs > 1`` and merges outcomes
deterministically — the merged :class:`HuntResult` statistics are
identical for any worker count.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..core.report import RaceReport
from ..machine.program import Program
from ..machine.propagation import (
    EagerPropagation,
    HomeDirectoryPropagation,
    PropagationPolicy,
    RandomPropagation,
    StubbornPropagation,
)
from ..machine.replay import ExecutionRecording
from ..machine.simulator import ExecutionResult

PolicyFactory = Callable[[], PropagationPolicy]


def default_policies(processor_count: int) -> List[Tuple[str, PolicyFactory]]:
    """The hunt's standard propagation shapes."""
    return [
        ("stubborn", StubbornPropagation),
        ("random-0.2", lambda: RandomPropagation(0.2)),
        ("ring", lambda: HomeDirectoryPropagation.ring(
            max(processor_count, 2)
        )),
    ]


def policy_registry(processor_count: int) -> Dict[str, PolicyFactory]:
    """Every named propagation shape the CLI can sweep."""
    registry: Dict[str, PolicyFactory] = dict(
        default_policies(processor_count)
    )
    registry["eager"] = EagerPropagation
    registry["random-0.5"] = lambda: RandomPropagation(0.5)
    return registry


POLICY_NAMES = ("stubborn", "random-0.2", "ring", "eager", "random-0.5")


def policies_by_name(
    names: Sequence[str], processor_count: int
) -> List[Tuple[str, PolicyFactory]]:
    """Resolve policy names (CLI ``--policies``) to ``(name, factory)``
    pairs, preserving order.  Unknown names raise :class:`ValueError`."""
    registry = policy_registry(processor_count)
    unknown = [name for name in names if name not in registry]
    if unknown:
        raise ValueError(
            f"unknown propagation polic{'ies' if len(unknown) > 1 else 'y'} "
            f"{', '.join(sorted(unknown))}; "
            f"known: {', '.join(sorted(registry))}"
        )
    return [(name, registry[name]) for name in names]


@dataclass(frozen=True)
class JobFailure:
    """One hunt job that crashed or timed out instead of completing.

    ``traceback`` carries the worker's full traceback text.  It stays
    out of :meth:`HuntResult.stats` (whose output is a deterministic
    function of the job set — tracebacks embed file paths and line
    numbers) but rides on :meth:`HuntResult.to_json` so ``weakraces
    hunt --json`` surfaces what actually went wrong.

    ``kind`` records how the retry layer classified the failure:

    * ``"deterministic"`` — failed identically on consecutive
      attempts; retrying would burn time reproducing the same bug.
    * ``"exhausted"`` — kept failing (differently) through
      ``max_retries`` retries.
    * ``"unretried"`` — settled on the first attempt (retries
      disabled, or the hunt was interrupted).

    ``retries`` is the number of retry attempts that preceded this
    final failure (0 = it failed once and settled).
    """

    seed: int
    policy: str
    error: str
    traceback: str = ""
    kind: str = "unretried"
    retries: int = 0


@dataclass
class HuntResult:
    """Outcome of a race hunt."""

    program: Program
    model_name: str
    tries: int
    racy_runs: int
    clean_runs: int
    first_racy: Optional[ExecutionResult] = None
    first_report: Optional[RaceReport] = None
    recording: Optional[ExecutionRecording] = None
    seed: Optional[int] = None
    policy: Optional[str] = None
    per_policy: Dict[str, Tuple[int, int]] = field(default_factory=dict)
    per_seed: Dict[int, Tuple[int, int]] = field(default_factory=dict)
    recording_verified: Optional[bool] = None
    failures: List[JobFailure] = field(default_factory=list)
    step_bound_runs: int = 0
    jobs: int = 1
    elapsed: float = 0.0
    stage_profile: Optional[Dict[str, dict]] = None
    # Analyses served from the hunt's trace cache.  Like jobs and
    # elapsed, this depends on how jobs landed on workers (two workers
    # can both miss on one fingerprint), so it belongs to the run
    # metadata in to_json(), never to the deterministic
    # stats()/summary() contract.
    trace_cache_hits: int = 0
    # Recovery metadata.  retried_runs counts retry attempts that
    # preceded the settled outcomes; under real timeouts it is timing-
    # dependent, so like trace_cache_hits it lives in to_json() only.
    retried_runs: int = 0
    # True when a cancel event (SIGINT/SIGTERM) stopped the hunt early;
    # the statistics then cover the settled prefix only.
    interrupted: bool = False
    # Jobs restored from a resume checkpoint rather than executed.
    resumed_jobs: int = 0
    # Which detection backend analyzed every execution (see
    # repro.analysis.parallel.HUNT_DETECTORS).  Part of the checkpoint
    # hunt identity; surfaced in to_json() only so stats()/summary()
    # stay byte-identical to hunts recorded before the field existed.
    detector: str = "postmortem"
    # Sum of report.certified_race_count over racy runs — the races-
    # found-per-try numerator benchmarks compare detectors by.  Lives
    # in to_json() with the detector, for the same reason.
    certified_races: int = 0
    # Telemetry correlation id (repro.analysis.checkpoint.make_hunt_id).
    # The same id appears in the metrics registry's hunt_info gauge,
    # the event log's meta record, the checkpoint, and profile exports;
    # run metadata only, so stats()/summary() stay byte-identical.
    hunt_id: Optional[str] = None
    # Robustness verification (repro.core.robustness): when enabled,
    # every try carries a verdict — did the execution have an SC
    # justification?  Verdicts are deterministic per job, but the whole
    # family is gated on verify_robustness so hunts that never asked
    # keep stats()/summary() byte-identical to the historical output.
    verify_robustness: bool = False
    verified_tries: int = 0
    robust_tries: int = 0
    non_robust_tries: int = 0
    # The lowest-index non-robust try's RobustnessReport.to_json()
    # payload: the violating cycle and SC-prefix boundary, exactly as
    # the worker computed them (rebuild with repro.report_from_json).
    first_non_robust: Optional[dict] = None

    @property
    def found(self) -> bool:
        return self.racy_runs > 0

    @property
    def soundness(self) -> Optional[str]:
        """The detector-soundness claim this hunt's verdicts support.

        ``None`` when robustness was not verified (no claim either
        way).  ``"sc-justified"`` when every verified try was robust:
        each analyzed execution has an SC justification, so SC-based
        detection theory applies to all of them directly.
        ``"degraded"`` when any try was non-robust: those executions
        genuinely left sequential consistency, and the detector's
        guarantees hold only up to each one's SC-prefix boundary
        (Condition 3.4's clause 2 territory — see
        ``docs/detection_pipeline.md``).
        """
        if not self.verify_robustness:
            return None
        return "degraded" if self.non_robust_tries else "sc-justified"

    @property
    def executions_per_second(self) -> float:
        if self.elapsed <= 0.0:
            return 0.0
        return self.tries / self.elapsed

    def stats(self) -> dict:
        """The merge-determined statistics: identical for any worker
        count over the same job set (no timing, no worker count)."""
        return {
            "model": self.model_name,
            "tries": self.tries,
            "racy_runs": self.racy_runs,
            "clean_runs": self.clean_runs,
            "step_bound_runs": self.step_bound_runs,
            "found": self.found,
            "seed": self.seed,
            "policy": self.policy,
            "recording_verified": self.recording_verified,
            "per_policy": {
                name: {"racy": racy, "runs": total}
                for name, (racy, total) in sorted(self.per_policy.items())
            },
            "per_seed": {
                str(seed): {"racy": racy, "runs": total}
                for seed, (racy, total) in sorted(self.per_seed.items())
            },
            "failures": [
                {"seed": f.seed, "policy": f.policy, "error": f.error,
                 "kind": f.kind, "retries": f.retries}
                for f in self.failures
            ],
        }

    def to_json(self) -> dict:
        """``stats()`` plus the run's timing/worker metadata."""
        payload = self.stats()
        payload["jobs"] = self.jobs
        payload["elapsed_sec"] = round(self.elapsed, 6)
        payload["executions_per_sec"] = round(self.executions_per_second, 1)
        payload["trace_cache_hits"] = self.trace_cache_hits
        payload["retried_runs"] = self.retried_runs
        payload["interrupted"] = self.interrupted
        payload["resumed_jobs"] = self.resumed_jobs
        payload["detector"] = self.detector
        payload["certified_races"] = self.certified_races
        payload["hunt_id"] = self.hunt_id
        if self.verify_robustness:
            payload["robustness"] = {
                "verified_tries": self.verified_tries,
                "robust": self.robust_tries,
                "non_robust": self.non_robust_tries,
                "soundness": self.soundness,
                "first_non_robust": self.first_non_robust,
            }
        # stats() keeps failures deterministic; the JSON view adds the
        # worker tracebacks so crashes are debuggable from the output.
        payload["failures"] = [
            {"seed": f.seed, "policy": f.policy, "error": f.error,
             "kind": f.kind, "retries": f.retries,
             "traceback": f.traceback}
            for f in self.failures
        ]
        if self.stage_profile is not None:
            payload["stage_profile"] = self.stage_profile
        return payload

    def summary(self) -> str:
        lines = [
            f"hunted {self.tries} executions on {self.model_name}: "
            f"{self.racy_runs} racy, {self.clean_runs} clean"
        ]
        for policy, (racy, total) in sorted(self.per_policy.items()):
            lines.append(f"  {policy}: {racy}/{total} racy")
        if self.step_bound_runs:
            lines.append(
                f"  {self.step_bound_runs} run(s) hit the step bound "
                f"before completing"
            )
        for failure in self.failures:
            # Retry provenance is deterministic (classification is a
            # function of the error texts), so it may appear here;
            # unretried failures keep the historical line byte-for-byte.
            suffix = (
                f" [{failure.kind} after {failure.retries + 1} attempts]"
                if failure.retries else ""
            )
            lines.append(
                f"  FAILED seed={failure.seed} policy={failure.policy}: "
                f"{failure.error}{suffix}"
            )
        if self.found and self.seed is not None:
            first = (
                f"first racy execution: seed={self.seed}, "
                f"policy={self.policy}"
            )
            if self.recording_verified is False:
                lines.append(first)
                lines.append(
                    "  WARNING: recording failed replay verification; "
                    "the captured recording does not reproduce this race"
                )
            else:
                lines.append(first + "; recording captured for replay")
        elif not self.found:
            lines.append(
                "no racy execution found (not a proof of data-race-"
                "freedom; see analysis.exhaustive for that)"
            )
        if self.verify_robustness:
            lines.append(
                f"  robustness: {self.robust_tries}/{self.verified_tries} "
                f"verified tries robust"
            )
            if self.non_robust_tries:
                lines.append(
                    f"  SOUNDNESS DEGRADED: {self.non_robust_tries} "
                    f"execution(s) have no SC justification; detector "
                    f"guarantees hold only up to each one's SC-prefix "
                    f"boundary"
                )
        if self.interrupted:
            lines.append(
                "hunt interrupted: statistics cover the settled jobs "
                "only (resume with --checkpoint FILE --resume)"
            )
        return "\n".join(lines)
