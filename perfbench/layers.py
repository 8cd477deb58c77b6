"""The traced run: replay a workload's work through the public functions
of each layer, with a span around every call, and derive the per-layer
metrics from the spans.

Hunts are replayed try by try in-process with the seed and policy that
``hunt_races`` enumerates (seed ``i // P``, policy ``i % P``), after one
untraced hunt whose outcomes are the known answers for the replay.  The
replay keeps its own fingerprint cache, so like the hunt it analyzes
each distinct trace once.  analyze-traces is replayed file by file from
``repro.load_trace``.

Two calls are timed on their own although the hunt does not make them:
``topological_sort(hb.graph)`` (VectorClockHB1 sorts the same graph
inside ``core.hb1_vc``) and the streaming detector, the linear-time
reference.  Neither counts towards the hunt's layer time.
"""

from __future__ import annotations

import statistics
import time
from collections import defaultdict
from typing import Dict, List, Optional, Sequence, Tuple

from benchstats import loglog_exponent
from spans import Span, Tracer, self_times
from workloads import (
    FORMATS,
    SETTLED,
    HuntWorkload,
    Tally,
    build_program,
    check_report,
    model_factory,
    race_digest,
)

#: (name, unit) of every per-layer metric, in report order.
PER_LAYER: Tuple[Tuple[str, str], ...] = (
    ("machine.us_per_op", "us"),
    ("machine.ops_per_try", "count"),
    ("machine.share", "fraction"),
    ("trace.build_us_per_op", "us"),
    ("trace.fingerprint_us_per_event", "us"),
    *((f"trace.load_us_per_event.{fmt}", "us") for fmt in FORMATS),
    *((f"trace.bytes_per_event.{fmt}", "bytes") for fmt in FORMATS),
    ("graph.topo_us_per_node", "us"),
    ("graph.topo.exponent", "exponent"),
    ("core.hb1_us_per_event", "us"),
    ("core.hb1.exponent", "exponent"),
    ("core.races_us_per_event", "us"),
    ("core.races.exponent", "exponent"),
    ("core.races_per_try", "count"),
    ("core.partitions_us_per_race", "us"),
    ("core.partitions.exponent", "exponent"),
    ("core.streaming_us_per_op", "us"),
    ("core.streaming.exponent", "exponent"),
    ("core.robustness_us_per_op", "us"),
    ("analysis.cache_hit_frac", "fraction"),
    ("analysis.overhead_frac", "fraction"),
    ("analysis.failures", "count"),
    ("analysis.retries", "count"),
    ("cli.import_s", "s"),
    ("bench.trace_overhead_frac", "fraction"),
)

#: Spans around calls the hunt itself makes for one try.
HUNT_PATH = (
    "machine.record_execution",
    "trace.build_trace",
    "trace.fingerprint",
    "core.hb1",
    "core.hb1_vc",
    "core.races",
    "core.partitions",
    "core.robustness",
)

#: Stage -> spans whose time it covers, for the scaling exponents.
#: core.hb1 includes the topological sort VectorClockHB1 makes itself.
EXPONENT_STAGES = {
    "graph.topo": ("graph.topo",),
    "core.hb1": ("core.hb1", "core.hb1_vc"),
    "core.races": ("core.races",),
    "core.partitions": ("core.partitions",),
    "core.streaming": ("core.streaming",),
}

REQUEST_SPANS = ("try", "request")

#: Calls the replay makes that the untraced request does not: the
#: standalone sort and the streaming detector.  A replayed trace file
#: is also fingerprinted, which ``repro.detect(path)`` does not do.
REPLAY_ONLY = ("graph.topo", "core.streaming")
ANALYZE_REPLAY_ONLY = REPLAY_ONLY + ("trace.fingerprint",)


def replayed_request_s(spans: Sequence[Span], skip: Sequence[str]) -> float:
    """Seconds the request spans took, less the spans named in *skip*:
    the traced replay's time on the calls the untraced request makes."""
    return (sum(sp.duration for sp in spans if sp.name in REQUEST_SPANS)
            - sum(sp.duration for sp in spans if sp.name in skip))


def _stages(tracer: Tracer, trace, stream_source, operations: int):
    """The post-mortem pipeline as PostMortemDetector.analyze runs it,
    one span per call, plus the standalone topological sort and the
    streaming detector."""
    from repro import detect
    from repro.core.hb1 import HappensBefore1
    from repro.core.hb1_vc import CyclicHB1Error, VectorClockHB1
    from repro.core.partitions import partition_races
    from repro.core.races import find_races
    from repro.core.report import RaceReport
    from repro.graph.topo import CycleError, topological_sort

    events = trace.event_count
    with tracer.span("core.hb1") as sp:
        hb = HappensBefore1(trace)
        sp.counts["events"] = events
    with tracer.span("core.hb1_vc") as sp:
        try:
            ordering = VectorClockHB1(trace, base=hb)
        except CyclicHB1Error:
            ordering = hb
            hb.closure
        sp.counts["events"] = events
    with tracer.span("graph.topo") as sp:
        try:
            topological_sort(hb.graph)
        except CycleError:
            pass
        sp.counts["nodes"] = hb.graph.node_count
    with tracer.span("core.races") as sp:
        races = find_races(trace, ordering)
        sp.counts["events"] = events
    with tracer.span("core.partitions") as sp:
        analysis = partition_races(trace, hb, races)
        sp.counts["races"] = len(races)
    with tracer.span("core.streaming") as sp:
        streaming = detect(stream_source, detector="streaming")
        sp.counts["operations"] = operations
        sp.counts["events"] = events
    report = RaceReport(trace=trace, hb=hb, races=races, analysis=analysis)
    return report, streaming


def trace_hunt(w: HuntWorkload, seconds: float, tracer: Tracer):
    """Alternate one untraced hunt with a traced replay of its tries
    until *seconds* have passed; returns (tally, facts)."""
    from repro.analysis import default_policies, hunt_races
    from repro.core.robustness import check_robustness
    from repro.machine.replay import record_execution
    from repro.trace.build import build_trace
    from repro.trace.fingerprint import trace_fingerprint

    program = build_program(w.program)
    factory = model_factory(w.model)
    policies = default_policies(program.processor_count)
    tally = Tally()
    facts = defaultdict(float)
    begin = time.perf_counter()
    round_index = 0
    while True:
        settled = {}

        def keep(outcome, settled=settled):
            if outcome.status in SETTLED:
                settled[outcome.job.index] = outcome

        start = time.perf_counter()
        result = hunt_races(
            program, factory, tries=w.tries, jobs=w.jobs,
            verify_robustness=w.verify_robustness, on_outcome=keep,
        )
        facts["hunt_wall_s"] += time.perf_counter() - start
        facts["hunt_tries"] += w.tries
        facts["hunt_cache_hits"] += result.trace_cache_hits
        facts["failures"] += len(result.failures)
        facts["retries"] += result.retried_runs
        facts["untraced_request_s"] += sum(
            outcome.duration for outcome in settled.values())

        cache: Dict[str, int] = {}
        for i in range(w.tries):
            _, policy = policies[i % len(policies)]
            streaming = verdict = None
            with tracer.span("try", request=f"{round_index}:{i}") as sp:
                with tracer.span("machine.record_execution") as s:
                    execution, _ = record_execution(
                        program, factory(), seed=i // len(policies),
                        propagation=policy(),
                    )
                    ops = s.counts["operations"] = len(execution.operations)
                with tracer.span("trace.build_trace") as s:
                    trace = build_trace(execution)
                    s.counts["operations"] = ops
                with tracer.span("trace.fingerprint") as s:
                    fingerprint = trace_fingerprint(trace)
                    s.counts["events"] = trace.event_count
                count = cache.get(fingerprint)
                if count is None:
                    report, streaming = _stages(tracer, trace, execution, ops)
                    count = cache[fingerprint] = len(report.races)
                if w.verify_robustness:
                    with tracer.span("core.robustness") as s:
                        verdict = check_robustness(execution)
                        s.counts["operations"] = ops
                sp.counts["races"] = count
            outcome = settled.get(i)
            problem = None
            if outcome is None:
                problem = f"try {i} never settled in the hunt"
            elif count != outcome.race_count:
                problem = (f"try {i}: replay found {count} races, the hunt "
                           f"{outcome.race_count}")
            elif streaming is not None and (
                race_digest(streaming.races) != race_digest(report.races)
            ):
                problem = f"try {i}: streaming and post-mortem disagree"
            elif verdict is not None and verdict.robust != outcome.robust:
                problem = f"try {i}: robustness verdict differs from the hunt"
            tally.record(problem)
        round_index += 1
        if time.perf_counter() - begin >= seconds:
            break
    facts["jobs"] = w.jobs
    facts["rounds"] = round_index
    facts["traced_request_s"] = replayed_request_s(tracer.spans,
                                                   REPLAY_ONLY)
    return tally, dict(facts)


def trace_analyze(manifest: Sequence[dict], seconds: float, tracer: Tracer):
    """Replay every file of the manifest, each after one untraced
    ``repro.detect(path)`` of it, until *seconds* have passed; returns
    (tally, facts)."""
    from repro import detect, load_trace
    from repro.trace.fingerprint import trace_fingerprint

    tally = Tally()
    untraced = 0.0
    begin = time.perf_counter()
    passes = 0
    while True:
        for entry in manifest:
            start = time.perf_counter()
            detect(entry["path"])
            untraced += time.perf_counter() - start
            request = f"{passes}:{entry['name']}"
            with tracer.span("request", request=request) as sp:
                with tracer.span(f"trace.load.{entry['format']}") as s:
                    trace = load_trace(entry["path"])
                    s.counts["events"] = entry["events"]
                report, streaming = _stages(
                    tracer, trace, trace, entry["operations"]
                )
                sp.counts["races"] = len(report.races)
                with tracer.span("trace.fingerprint") as s:
                    fingerprint = trace_fingerprint(trace)
                    s.counts["events"] = entry["events"]
            problem = check_report(report, entry["race_digest"],
                                   entry["racy"])
            if problem is None and fingerprint != entry["fingerprint"]:
                problem = "loaded trace differs from the written one"
            if problem is None and (
                race_digest(streaming.races) != entry["race_digest"]
            ):
                problem = "streaming race set changed after the round trip"
            tally.record(None if problem is None
                         else f"{entry['name']}: {problem}")
        passes += 1
        if time.perf_counter() - begin >= seconds:
            break
    facts = {
        "passes": passes,
        "traced_request_s": replayed_request_s(tracer.spans,
                                               ANALYZE_REPLAY_ONLY),
        "untraced_request_s": untraced,
    }
    for fmt in FORMATS:
        rows = [e for e in manifest if e["format"] == fmt]
        facts[f"bytes_per_event.{fmt}"] = (
            sum(e["bytes"] for e in rows) / sum(e["events"] for e in rows)
        )
    facts["exponents"] = stage_exponents(
        tracer.spans,
        {e["name"]: e["events"] for e in manifest
         if e["input"].startswith("pingpong")},
    )
    return tally, facts


def stage_exponents(spans: Sequence[Span],
                    events_by_file: Dict[str, int]) -> Dict[str, float]:
    """Fit each stage's log-log scaling exponent over the files in
    *events_by_file*, from the median time per file across passes."""
    own = self_times(spans)
    file_of = {}
    for sp in spans:
        if sp.name == "request":
            name = sp.request.split(":", 1)[1]
            if name in events_by_file:
                file_of[sp.id] = name
    samples = defaultdict(lambda: defaultdict(list))
    per_request = defaultdict(lambda: defaultdict(float))
    for sp in spans:
        if sp.parent in file_of:
            per_request[sp.parent][sp.name] += own[sp.id]
    for request_id, times in per_request.items():
        for stage, names in EXPONENT_STAGES.items():
            samples[stage][file_of[request_id]].append(
                sum(times[n] for n in names)
            )
    exponents = {}
    for stage, by_file in samples.items():
        files = sorted(by_file)
        exponents[stage] = loglog_exponent(
            [events_by_file[f] for f in files],
            [statistics.median(by_file[f]) for f in files],
        )
    return exponents


def layer_metrics(spans: Sequence[Span], facts: dict,
                  ) -> Tuple[Dict[str, float], List[str]]:
    """Per-layer metrics from the spans and run facts, and the metrics
    this workload does not exercise (reported as 0)."""
    own = self_times(spans)
    busy: Dict[str, float] = defaultdict(float)
    units: Dict[str, Dict[str, float]] = defaultdict(
        lambda: defaultdict(float))
    requests = 0
    for sp in spans:
        busy[sp.name] += own[sp.id]
        for key, value in sp.counts.items():
            units[sp.name][key] += value
        requests += sp.name in REQUEST_SPANS

    def per(names, unit, scale=1e6) -> Optional[float]:
        amount = units[names[0]][unit]
        if not amount:
            return None
        return scale * sum(busy[n] for n in names) / amount

    hunt_path = sum(busy[n] for n in HUNT_PATH)
    races = sum(units[n]["races"] for n in REQUEST_SPANS)
    hunt_wall = facts.get("hunt_wall_s")
    exponents = facts.get("exponents", {})
    values: Dict[str, Optional[float]] = {
        "machine.us_per_op": per(["machine.record_execution"], "operations"),
        "machine.ops_per_try": (
            units["machine.record_execution"]["operations"] / requests
            if busy["machine.record_execution"] else None
        ),
        "machine.share": (
            busy["machine.record_execution"] / hunt_path
            if busy["machine.record_execution"] else None
        ),
        "trace.build_us_per_op": per(["trace.build_trace"], "operations"),
        "trace.fingerprint_us_per_event": per(["trace.fingerprint"],
                                              "events"),
        "graph.topo_us_per_node": per(["graph.topo"], "nodes"),
        "core.hb1_us_per_event": per(["core.hb1", "core.hb1_vc"], "events"),
        "core.races_us_per_event": per(["core.races"], "events"),
        "core.races_per_try": races / requests if requests else None,
        "core.partitions_us_per_race": per(["core.partitions"], "races"),
        "core.streaming_us_per_op": per(["core.streaming"], "operations"),
        "core.robustness_us_per_op": per(["core.robustness"], "operations"),
        "analysis.cache_hit_frac": (
            facts["hunt_cache_hits"] / facts["hunt_tries"]
            if hunt_wall else None
        ),
        "analysis.overhead_frac": (
            1.0 - hunt_path / (facts["jobs"] * hunt_wall)
            if hunt_wall else None
        ),
        "analysis.failures": facts.get("failures"),
        "analysis.retries": facts.get("retries"),
        "cli.import_s": facts.get("import_s"),
        "bench.trace_overhead_frac": (
            facts["traced_request_s"] / facts["untraced_request_s"] - 1.0
        ),
    }
    for fmt in FORMATS:
        values[f"trace.load_us_per_event.{fmt}"] = per(
            [f"trace.load.{fmt}"], "events"
        )
        values[f"trace.bytes_per_event.{fmt}"] = facts.get(
            f"bytes_per_event.{fmt}"
        )
    for stage in EXPONENT_STAGES:
        values[f"{stage}.exponent"] = exponents.get(stage)
    not_exercised = sorted(name for name, v in values.items() if v is None)
    return (
        {name: float(values[name] or 0.0) for name, _ in PER_LAYER},
        not_exercised,
    )
