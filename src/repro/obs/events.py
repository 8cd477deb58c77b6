"""repro.obs.events — a schema-versioned structured event log.

Where the profiler records *spans* (how long each stage took) and the
metrics registry records *rates*, the event log records *what
happened*: one wide JSONL record per unit of work, written as it
completes, so a long-running hunt leaves an auditable, tail-able
history instead of only a final summary.

The schema (``EVENTS_FORMAT`` = 1) is JSON-lines:

* line 1 — a meta record::

      {"t": "meta", "schema": 1, "kind": "hunt", "workload": ..., ...}

* ``{"t": "try", ...}`` — one record per hunt try: ``index``,
  ``seed``, ``policy``, ``status`` (racy | clean | error | retried |
  skipped), ``duration_sec``, ``cache_hit``, ``fingerprint``
  (canonical trace fingerprint, "" when the cache is off), ``races``
  (count found), ``operations``, ``completed`` (False = step bound
  hit), plus retry provenance ``attempt``/``retries`` (optional for
  backward compatibility; ``status="retried"`` marks an attempt that
  a later retry superseded).  Newer writers add, still optionally:
  ``detector`` (the analysis backend), ``certified`` (the report's
  certified race count), ``failure_kind`` (settled-error
  classification), and ``partitions`` (first-race provenance coverage
  keys, see :func:`repro.core.provenance.partition_coverage_keys`);

* ``{"t": "stage", ...}`` — one record per detection stage, folded
  across all workers: ``path`` (span path, e.g.
  ``hunt.job/detect.postmortem/races.find``), ``count``,
  ``total_sec``, ``min_sec``, ``max_sec``, ``counters``;

* ``{"t": "summary", ...}`` — the run's closing totals (a subset of
  ``HuntResult.to_json()``).

:func:`check_events` checks a file against this schema — including
rejecting unknown ``schema`` versions — and ``weakraces events FILE``
validates, summarizes, or tails a log.  Records are flushed per line,
so ``weakraces events --tail`` (or plain ``tail -f``) works while the
hunt is still running.  Because the stream is append-only (an atomic
whole-file rewrite per record would break ``tail -f``), its crash
mode is a truncated final line: validation downgrades that one case
to a *warning* (the log merely lost its last record) while mid-file
garbage stays a hard problem.

Writing is opt-in (``weakraces hunt --events FILE`` or
``hunt_races(on_outcome=HuntEventLog(...).on_outcome)``); when no log
is attached the hot path pays nothing.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from ..ioutil import read_jsonl_tolerant

EVENTS_FORMAT = 1

TRY_STATUSES = ("racy", "clean", "error", "retried", "skipped")

_TRY_KEYS = {
    "index", "seed", "policy", "status", "duration_sec",
    "cache_hit", "fingerprint", "races", "operations", "completed",
}
_STAGE_KEYS = {"path", "count", "total_sec", "min_sec", "max_sec", "counters"}


class EventLogWriter:
    """Line-buffered JSONL event writer; a context manager.

    The meta record (schema version + caller-supplied context) is
    written immediately on construction, so even an interrupted run
    leaves a valid, identifiable log prefix.
    """

    def __init__(self, path: Union[str, Path], kind: str,
                 meta: Optional[dict] = None) -> None:
        self.path = Path(path)
        self._fh = self.path.open("w", encoding="utf-8")
        header = {"t": "meta", "schema": EVENTS_FORMAT, "kind": kind}
        if meta:
            header.update(meta)
        self.write(header)

    def write(self, record: dict) -> None:
        self._fh.write(json.dumps(record, sort_keys=True) + "\n")
        self._fh.flush()

    def close(self) -> None:
        if not self._fh.closed:
            self._fh.close()

    def __enter__(self) -> "EventLogWriter":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False


class HuntEventLog:
    """The hunt's event stream: one ``try`` record per job outcome.

    ``on_outcome`` plugs straight into
    :func:`repro.analysis.hunt_races`'s hook of the same name;
    stage aggregates and the closing summary are appended by the CLI
    once the merged :class:`~repro.analysis.hunting.HuntResult` exists.
    """

    def __init__(self, path: Union[str, Path],
                 meta: Optional[dict] = None,
                 detector: str = "") -> None:
        self.writer = EventLogWriter(path, kind="hunt", meta=meta)
        self.detector = detector
        self.tries = 0

    @property
    def path(self) -> Path:
        return self.writer.path

    def on_outcome(self, outcome) -> None:
        """Record one job outcome (duck-typed
        :class:`repro.analysis.parallel.JobOutcome`)."""
        self.tries += 1
        record = {
            "t": "try",
            "index": outcome.job.index,
            "seed": outcome.job.seed,
            "policy": outcome.job.policy_name,
            "status": outcome.status,
            "duration_sec": round(outcome.duration, 6),
            "cache_hit": outcome.cache_hit,
            "fingerprint": outcome.fingerprint,
            "races": outcome.race_count,
            "operations": outcome.operations,
            "completed": outcome.completed,
            "error": outcome.error,
            "attempt": outcome.job.attempt,
            "retries": outcome.retries,
            "certified": getattr(outcome, "certified_races", 0),
        }
        if self.detector:
            record["detector"] = self.detector
        failure_kind = getattr(outcome, "failure_kind", "")
        if failure_kind:
            record["failure_kind"] = failure_kind
        partitions = getattr(outcome, "partition_keys", ())
        if partitions:
            record["partitions"] = list(partitions)
        robust = getattr(outcome, "robust", None)
        if robust is not None:
            record["robust"] = robust
        self.writer.write(record)

    def write_stages(self, stage_profile: Optional[Dict[str, dict]]) -> None:
        """Append one ``stage`` record per aggregated span path (from
        ``HuntResult.stage_profile``; a no-op when profiling was off)."""
        if not stage_profile:
            return
        for path in sorted(stage_profile):
            agg = dict(stage_profile[path])
            agg.pop("t", None)
            agg.pop("peak_rss_kb", None)
            agg["t"] = "stage"
            agg.setdefault("path", path)
            self.writer.write(agg)

    def write_summary(self, payload: dict) -> None:
        record = {"t": "summary"}
        record.update(payload)
        self.writer.write(record)

    def close(self) -> None:
        self.writer.close()

    def __enter__(self) -> "HuntEventLog":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False


# ----------------------------------------------------------------------
# read-back, validation, summarization
# ----------------------------------------------------------------------

def read_events(path: Union[str, Path]) -> Dict[str, object]:
    """Load an event log into ``{"meta": ..., "tries": [...],
    "stages": [...], "summary": ...}``.  A truncated final line (the
    tail-write crash shape; see :func:`check_events`) is skipped —
    every complete record still loads."""
    meta: Optional[dict] = None
    tries: List[dict] = []
    stages: List[dict] = []
    summary: Optional[dict] = None
    records, _, _ = read_jsonl_tolerant(path)
    for record in records:
        kind = record.get("t")
        if kind == "meta":
            meta = record
        elif kind == "try":
            tries.append(record)
        elif kind == "stage":
            stages.append(record)
        elif kind == "summary":
            summary = record
    return {"meta": meta, "tries": tries, "stages": stages,
            "summary": summary}


def check_events(
    path: Union[str, Path],
) -> Tuple[List[str], List[str]]:
    """Check *path* against the event-log schema; returns
    ``(problems, warnings)``.  Files declaring an unknown ``schema``
    version are rejected, never silently accepted.

    A log whose *final* line is undecodable gets a warning, not a
    problem: the writer appends and flushes per record, so a process
    killed mid-append leaves exactly that shape, and every complete
    record before it is still trustworthy.  Undecodable bytes anywhere
    else mean real corruption and stay problems.
    """
    records, problems, warnings = read_jsonl_tolerant(path)
    if problems:
        return problems, warnings
    if not records:
        if not warnings:
            problems.append("empty event log")
        return problems, warnings
    meta = records[0]
    if meta.get("t") != "meta":
        problems.append("first record is not a meta record")
    else:
        schema = meta.get("schema")
        if not isinstance(schema, int) or isinstance(schema, bool):
            problems.append(f"meta.schema is not an integer: {schema!r}")
        elif schema != EVENTS_FORMAT:
            problems.append(
                f"unknown schema version {schema!r} "
                f"(this reader understands {EVENTS_FORMAT})"
            )
    for i, record in enumerate(records[1:], start=2):
        kind = record.get("t")
        if kind == "try":
            missing = _TRY_KEYS - record.keys()
            if missing:
                problems.append(f"line {i}: try missing {sorted(missing)}")
                continue
            if record["status"] not in TRY_STATUSES:
                problems.append(
                    f"line {i}: unknown try status {record['status']!r}"
                )
            if record["duration_sec"] < 0:
                problems.append(f"line {i}: negative try duration")
        elif kind == "stage":
            missing = _STAGE_KEYS - record.keys()
            if missing:
                problems.append(f"line {i}: stage missing {sorted(missing)}")
        elif kind == "summary":
            pass  # free-form totals
        elif kind == "meta":
            problems.append(f"line {i}: duplicate meta record")
        else:
            problems.append(f"line {i}: unknown record type {kind!r}")
    return problems, warnings


def validate_events(path: Union[str, Path]) -> List[str]:
    """:func:`check_events` problems only (the historical interface);
    truncated-tail warnings do not fail validation."""
    problems, _ = check_events(path)
    return problems


def format_try(record: dict) -> str:
    """One human-readable line per try record (the ``--tail`` view)."""
    flags = []
    if record.get("cache_hit"):
        flags.append("cache")
    if not record.get("completed", True):
        flags.append("step-bound")
    if record.get("attempt"):
        flags.append(f"attempt {record['attempt'] + 1}")
    if record.get("error"):
        flags.append(record["error"])
    suffix = f"  [{', '.join(flags)}]" if flags else ""
    fingerprint = record.get("fingerprint") or ""
    fp = f" fp={fingerprint[:12]}" if fingerprint else ""
    return (
        f"#{record['index']:<4} seed={record['seed']:<4} "
        f"{record['policy']:<12} {record['status']:<7} "
        f"races={record['races']:<3} "
        f"{record['duration_sec'] * 1000:7.2f}ms{fp}{suffix}"
    )


def summary_data(loaded: Dict[str, object]) -> Dict[str, object]:
    """Machine-readable aggregation of a loaded event log: per-policy
    and per-detector breakdowns plus totals.  This is what ``weakraces
    events --json`` attaches under ``"breakdown"`` and what the
    ``top --events`` dashboard renders.

    The detector of a try resolves from the record's own ``detector``
    field (newer writers) falling back to the meta record's; logs
    written before either existed aggregate under ``""`` and the
    per-detector table is simply empty.
    """
    meta = loaded.get("meta") or {}
    tries: List[dict] = loaded.get("tries") or []  # type: ignore[assignment]
    ran = [t for t in tries if t["status"] not in ("skipped", "retried")]
    per_policy: Dict[str, Dict[str, int]] = {}
    per_detector: Dict[str, Dict[str, int]] = {}
    by_status: Dict[str, int] = {}
    failures_by_kind: Dict[str, int] = {}
    meta_detector = meta.get("detector") if isinstance(meta, dict) else None
    for record in ran:
        racy = record["status"] == "racy"
        by_status[record["status"]] = by_status.get(record["status"], 0) + 1
        policy = per_policy.setdefault(
            record["policy"], {"tries": 0, "racy": 0})
        policy["tries"] += 1
        policy["racy"] += racy
        detector = record.get("detector") or meta_detector
        if detector:
            cell = per_detector.setdefault(
                str(detector), {"tries": 0, "racy": 0, "certified": 0})
            cell["tries"] += 1
            cell["racy"] += racy
            if racy:
                cell["certified"] += int(record.get("certified", 0) or 0)
        if record["status"] == "error":
            kind = record.get("failure_kind") or "unretried"
            failures_by_kind[kind] = failures_by_kind.get(kind, 0) + 1
    return {
        "tries": len(ran),
        "skipped": sum(1 for t in tries if t["status"] == "skipped"),
        "retried": sum(1 for t in tries if t["status"] == "retried"),
        "by_status": by_status,
        "per_policy": per_policy,
        "per_detector": per_detector,
        "failures_by_kind": failures_by_kind,
        "cache_hits": sum(1 for t in ran if t.get("cache_hit")),
    }


def summarize_events(loaded: Dict[str, object]) -> str:
    """Aggregate a loaded event log (see :func:`read_events`) into a
    human-readable summary: totals, per-policy racy rates, cache hit
    rate, duration percentiles, and the stage table when present."""
    meta = loaded.get("meta") or {}
    tries: List[dict] = loaded.get("tries") or []  # type: ignore[assignment]
    stages: List[dict] = loaded.get("stages") or []  # type: ignore[assignment]
    lines: List[str] = []
    context = " ".join(
        f"{key}={meta[key]}" for key in ("workload", "model", "jobs")
        if key in meta
    )
    lines.append(f"hunt event log{': ' + context if context else ''}")
    # Retried attempts were superseded by a later attempt of the same
    # job; keep them out of the racy-rate and duration statistics.
    ran = [t for t in tries
           if t["status"] not in ("skipped", "retried")]
    skipped = sum(1 for t in tries if t["status"] == "skipped")
    retried = sum(1 for t in tries if t["status"] == "retried")
    by_status: Dict[str, int] = {}
    for record in ran:
        by_status[record["status"]] = by_status.get(record["status"], 0) + 1
    status_text = ", ".join(
        f"{count} {status}" for status, count in sorted(by_status.items())
    )
    lines.append(
        f"  {len(ran)} tries ({status_text or 'none'})"
        + (f", {skipped} skipped by early stop" if skipped else "")
        + (f", {retried} retried attempt(s)" if retried else "")
    )
    cache_hits = sum(1 for record in ran if record.get("cache_hit"))
    if ran:
        lines.append(
            f"  trace cache: {cache_hits}/{len(ran)} hits "
            f"({cache_hits / len(ran):.0%})"
        )
        durations = sorted(record["duration_sec"] for record in ran)

        def pct(q: float) -> float:
            return durations[min(int(q * len(durations)), len(durations) - 1)]

        lines.append(
            f"  job duration: p50={pct(0.5) * 1000:.2f}ms "
            f"p95={pct(0.95) * 1000:.2f}ms max={durations[-1] * 1000:.2f}ms"
        )
    per_policy: Dict[str, List[int]] = {}
    for record in ran:
        racy, total = per_policy.setdefault(record["policy"], [0, 0])
        per_policy[record["policy"]] = [
            racy + (record["status"] == "racy"), total + 1,
        ]
    for policy, (racy, total) in sorted(per_policy.items()):
        lines.append(f"  {policy}: {racy}/{total} racy")
    per_detector = summary_data(loaded)["per_detector"]
    if per_detector:
        lines.append("  detectors:")
        for detector, cell in sorted(per_detector.items()):  # type: ignore
            lines.append(
                f"    {detector}: {cell['racy']}/{cell['tries']} racy, "
                f"{cell['certified']} certified race(s)"
            )
    if stages:
        lines.append("  stages (aggregated across workers):")
        for record in stages:
            lines.append(
                f"    {record['path']}: n={record['count']} "
                f"total={record['total_sec'] * 1000:.2f}ms"
            )
    summary = loaded.get("summary")
    if isinstance(summary, dict) and "elapsed_sec" in summary:
        lines.append(
            f"  run total: {summary.get('tries')} tries in "
            f"{summary['elapsed_sec']}s "
            f"({summary.get('executions_per_sec', '?')} exec/s)"
        )
    return "\n".join(lines)
