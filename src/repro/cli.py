"""Command-line interface.

``weakraces run`` simulates a named workload on a chosen memory model
and prints the post-mortem race report; ``weakraces trace`` writes the
trace file instead; ``weakraces analyze`` runs the detector on a
previously written trace file; ``weakraces check`` verifies Condition
3.4 on an execution; ``weakraces hunt`` sweeps seeds x propagation
policies (optionally across worker processes) for a racy execution,
with ``--live`` telemetry, a ``--events`` JSONL wide-event log, and a
``--serve HOST:PORT`` HTTP telemetry endpoint (Prometheus ``/metrics``,
JSON ``/status``, ``/healthz``);
``weakraces events`` validates/summarizes/tails such a log;
``weakraces top`` renders a live dashboard from a served hunt
(``--attach``) or an event log (``--events``);
``weakraces explain`` prints witness-checked provenance for every
reported race; ``weakraces profile`` runs the pipeline under the
:mod:`repro.obs` profiler and prints per-stage timings; ``weakraces
models`` lists the memory models.

Report-printing subcommands take ``--json`` for machine-readable
output, and ``run``/``analyze``/``hunt`` take ``--profile FILE`` to
write a JSONL pipeline profile alongside their normal output.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Callable, Dict, Optional, Sequence

from . import obs
from .analysis.naive import NaiveDetector
from .api import (
    DETECTOR_NAMES,
    TRACE_FORMATS,
    detect,
    load_trace,
    save_trace,
    sniff_trace_format,
)
from .core.scp import check_condition_34
from .machine.models import ALL_MODEL_NAMES, make_model
from .machine.program import Program
from .machine.simulator import run_program
from .programs import (
    bounded_queue_program,
    buggy_workqueue_program,
    cas_counter_program,
    fanin_barrier_program,
    figure1a_program,
    figure1b_program,
    fixed_workqueue_program,
    independent_work_program,
    lock_shadow_program,
    locked_counter_program,
    producer_consumer_program,
    racy_counter_program,
    iriw_program,
    run_figure2,
    single_race_program,
    store_buffering_program,
)
from .trace.build import build_trace

WORKLOADS: Dict[str, Callable[[], Program]] = {
    "figure1a": figure1a_program,
    "figure1b": figure1b_program,
    "workqueue-buggy": buggy_workqueue_program,
    "workqueue-fixed": fixed_workqueue_program,
    "locked-counter": locked_counter_program,
    "lock-shadow": lock_shadow_program,
    "racy-counter": racy_counter_program,
    "producer-consumer": producer_consumer_program,
    "independent": independent_work_program,
    "single-race": single_race_program,
    "barrier": fanin_barrier_program,
    "store-buffering": store_buffering_program,
    "iriw": iriw_program,
    "cas-counter": cas_counter_program,
    "queue": bounded_queue_program,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="weakraces",
        description=(
            "Dynamic data race detection on simulated weak memory systems "
            "(reproduction of Adve/Hill/Miller/Netzer, ISCA 1991)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="simulate a workload and report races")
    run_p.add_argument("workload", choices=sorted(WORKLOADS) + ["figure2"])
    run_p.add_argument("--model", default="WO", choices=ALL_MODEL_NAMES)
    run_p.add_argument("--seed", type=int, default=0)
    run_p.add_argument(
        "--detector", default="postmortem", choices=DETECTOR_NAMES,
        help="detection backend (default %(default)s; shb adds per-race "
             "soundness certificates, wcp adds predicted races from "
             "critical-section reordering)",
    )
    run_p.add_argument(
        "--naive", action="store_true",
        help="also print the naive (report-everything) baseline",
    )
    run_p.add_argument(
        "--dot", metavar="FILE",
        help="write the augmented happens-before-1 graph as DOT",
    )
    run_p.add_argument(
        "--explain", action="store_true",
        help="print the affects chain for every race (why suppressed "
             "races were suppressed)",
    )
    run_p.add_argument(
        "--json", action="store_true", dest="as_json",
        help="print the race report as JSON",
    )
    run_p.add_argument(
        "--profile", metavar="FILE", dest="profile_path",
        help="write a JSONL pipeline profile (see repro.obs)",
    )

    trace_p = sub.add_parser("trace", help="simulate and write a trace file")
    trace_p.add_argument("workload", choices=sorted(WORKLOADS) + ["figure2"])
    trace_p.add_argument("output", help="trace file path")
    trace_p.add_argument("--model", default="WO", choices=ALL_MODEL_NAMES)
    trace_p.add_argument("--seed", type=int, default=0)
    trace_p.add_argument(
        "--format", choices=TRACE_FORMATS, default=None,
        help="trace file format (default: inferred from the output "
             "suffix, jsonl otherwise)",
    )

    conv_p = sub.add_parser(
        "convert",
        help="convert a trace file between jsonl, binary, and columnar",
    )
    conv_p.add_argument("source", help="trace file (format sniffed)")
    conv_p.add_argument("output", help="converted trace file path")
    conv_p.add_argument(
        "--to", choices=TRACE_FORMATS, default=None, dest="to_format",
        help="target format (default: inferred from the output suffix)",
    )

    an_p = sub.add_parser("analyze", help="analyze a trace file post-mortem")
    an_p.add_argument("tracefile")
    an_p.add_argument(
        "--detector", default="postmortem",
        choices=[n for n in DETECTOR_NAMES if n != "onthefly"],
        help="detection backend (default %(default)s; onthefly needs "
             "the operation stream, which trace files do not record)",
    )
    an_p.add_argument("--dot", metavar="FILE")
    an_p.add_argument(
        "--json", action="store_true", dest="as_json",
        help="print the race report as JSON",
    )
    an_p.add_argument(
        "--profile", metavar="FILE", dest="profile_path",
        help="write a JSONL pipeline profile (see repro.obs)",
    )

    chk_p = sub.add_parser(
        "check", help="verify Condition 3.4 on a simulated execution"
    )
    chk_p.add_argument("workload", choices=sorted(WORKLOADS) + ["figure2"])
    chk_p.add_argument("--model", default="WO", choices=ALL_MODEL_NAMES)
    chk_p.add_argument("--seed", type=int, default=0)
    chk_p.add_argument(
        "--robustness", action="store_true",
        help="also verify robustness: search the execution for an SC "
             "justification (total order consistent with program order "
             "+ reads-from) and print the witness or the minimal "
             "violating cycle with its SC-prefix boundary",
    )
    chk_p.add_argument(
        "--json", action="store_true", dest="as_json",
        help="print the verdict as JSON",
    )

    st_p = sub.add_parser(
        "static", help="compile-time (lockset) race analysis of a workload"
    )
    st_p.add_argument("workload", choices=sorted(WORKLOADS))

    drf_p = sub.add_parser(
        "drf-check",
        help="decide Definition 2.4 exactly by exploring every SC execution",
    )
    drf_p.add_argument("workload", choices=sorted(WORKLOADS))
    drf_p.add_argument("--max-states", type=int, default=200_000)

    rf_p = sub.add_parser(
        "run-file", help="assemble a .rasm file, simulate, and report races"
    )
    rf_p.add_argument("source", help="assembly source file")
    rf_p.add_argument("--model", default="WO", choices=ALL_MODEL_NAMES)
    rf_p.add_argument("--seed", type=int, default=0)
    rf_p.add_argument(
        "--json", action="store_true", dest="as_json",
        help="print the race report as JSON",
    )

    dis_p = sub.add_parser(
        "disasm", help="print a built-in workload as assembly text"
    )
    dis_p.add_argument("workload", choices=sorted(WORKLOADS))

    rec_p = sub.add_parser(
        "record",
        help="simulate a workload while recording every nondeterministic "
             "choice, for later bit-exact replay",
    )
    rec_p.add_argument("workload", choices=sorted(WORKLOADS))
    rec_p.add_argument("output", help="recording file path")
    rec_p.add_argument("--model", default="WO", choices=ALL_MODEL_NAMES)
    rec_p.add_argument("--seed", type=int, default=0)
    rec_p.add_argument(
        "--json", action="store_true", dest="as_json",
        help="print the race report as JSON",
    )

    rep_p = sub.add_parser(
        "replay", help="replay a recorded execution and re-run the detector"
    )
    rep_p.add_argument("workload", choices=sorted(WORKLOADS))
    rep_p.add_argument("recording", help="recording file path")
    rep_p.add_argument(
        "--json", action="store_true", dest="as_json",
        help="print the race report as JSON",
    )

    out_p = sub.add_parser(
        "outcomes",
        help="enumerate every final memory state a model admits for a "
             "(litmus-sized) workload",
    )
    out_p.add_argument("workload", choices=sorted(WORKLOADS))
    out_p.add_argument("--model", default="WO", choices=ALL_MODEL_NAMES)
    out_p.add_argument("--max-states", type=int, default=300_000)
    out_p.add_argument(
        "--vars", nargs="*", metavar="NAME",
        help="project outcomes onto these locations",
    )

    tl_p = sub.add_parser(
        "timeline",
        help="draw an execution as per-processor columns (paper-figure "
             "style), with stale reads and the SCP boundary marked",
    )
    tl_p.add_argument("workload", choices=sorted(WORKLOADS) + ["figure2"])
    tl_p.add_argument("--model", default="WO", choices=ALL_MODEL_NAMES)
    tl_p.add_argument("--seed", type=int, default=0)
    tl_p.add_argument("--rows", type=int, default=40)
    tl_p.add_argument("--width", type=int, default=26)

    hunt_p = sub.add_parser(
        "hunt",
        help="sweep seeds x propagation policies for a racy execution, "
             "optionally sharded across worker processes",
        description=(
            "Run a workload many times under different seeds and "
            "propagation policies, looking for a racy execution with a "
            "replay-verified recording.  Every policy sweeps the same "
            "seed range, so per-policy racy rates are comparable.  "
            "Transient job failures are retried with backoff "
            "(--max-retries); with --checkpoint the hunt periodically "
            "persists settled outcomes and --resume continues an "
            "interrupted run with statistics identical to an "
            "uninterrupted one.  The first SIGINT/SIGTERM drains "
            "in-flight jobs and writes a final checkpoint; a second "
            "kills the hunt immediately.  Exit status: 1 when a race "
            "was found, 0 when none was, 2 on usage errors (including "
            "checkpoint mismatches), 3 when any worker crashed or "
            "timed out, 130 when interrupted."
        ),
    )
    hunt_p.add_argument("workload", choices=sorted(WORKLOADS))
    hunt_p.add_argument("--model", default="WO", choices=ALL_MODEL_NAMES)
    hunt_p.add_argument(
        "--detector", default="postmortem",
        choices=[n for n in DETECTOR_NAMES if n != "onthefly"],
        help="analysis backend for every execution (default "
             "%(default)s); part of the checkpoint identity — resuming "
             "with a different detector is a hard error",
    )
    hunt_p.add_argument(
        "--tries", type=int, default=24,
        help="total executions to sweep (default %(default)s)",
    )
    hunt_p.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="worker processes; 1 runs in-process, N>1 shards the "
             "sweep with identical merged statistics",
    )
    hunt_p.add_argument(
        "--batch-size", type=int, default=None, metavar="N",
        help="jobs per pool dispatch batch (requires --jobs > 1; "
             "default: auto-sized to a couple of batches per worker; "
             "1 reproduces the unbatched wire protocol)",
    )
    hunt_p.add_argument(
        "--policies", nargs="+", metavar="NAME",
        help="propagation policies to sweep, in order "
             "(default: stubborn random-0.2 ring)",
    )
    hunt_p.add_argument(
        "--stop-at-first", action="store_true",
        help="stop as soon as one racy execution is found",
    )
    hunt_p.add_argument("--max-steps", type=int, default=200_000)
    hunt_p.add_argument(
        "--timeout", type=float, default=None, metavar="SEC",
        help="per-execution wall-clock limit; timed-out runs are "
             "recorded as failures (nondeterministic — avoid when "
             "exact reproducibility matters)",
    )
    hunt_p.add_argument(
        "--json", action="store_true", dest="as_json",
        help="print the merged result as JSON instead of the summary",
    )
    hunt_p.add_argument(
        "--save-recording", metavar="FILE",
        help="write the first racy run's verified recording here",
    )
    hunt_p.add_argument(
        "--profile", metavar="FILE", dest="profile_path",
        help="write a JSONL pipeline profile with per-stage timings "
             "aggregated across all hunt jobs (see repro.obs)",
    )
    hunt_p.add_argument(
        "--no-cache", action="store_true",
        help="disable the hunt's trace-fingerprint analysis cache "
             "(every execution runs the full detection pipeline)",
    )
    hunt_p.add_argument(
        "--live", action="store_true",
        help="render a rolling status line (throughput, cache hit "
             "rate, racy fraction, ETA) fed by the metrics registry",
    )
    hunt_p.add_argument(
        "--events", metavar="FILE", dest="events_path",
        help="write a JSONL wide-event log (one record per try; see "
             "'weakraces events' to validate/summarize/tail it)",
    )
    hunt_p.add_argument(
        "--checkpoint", metavar="FILE", dest="checkpoint_path",
        help="periodically persist settled outcomes to FILE "
             "(atomic write), making the hunt resumable after a crash",
    )
    hunt_p.add_argument(
        "--resume", action="store_true",
        help="resume from --checkpoint FILE: validate it against this "
             "hunt's spec, skip settled jobs, and merge to statistics "
             "identical to an uninterrupted run",
    )
    hunt_p.add_argument(
        "--checkpoint-interval", type=int, default=100, metavar="N",
        help="settled jobs between periodic checkpoint writes "
             "(default %(default)s; a final write always happens)",
    )
    hunt_p.add_argument(
        "--max-retries", type=int, default=2, metavar="N",
        help="retry a transiently failing job up to N times with "
             "exponential backoff (default %(default)s; jobs that "
             "fail identically twice are classified deterministic "
             "and not retried; 0 disables retries)",
    )
    hunt_p.add_argument(
        "--retry-backoff", type=float, default=0.05, metavar="SEC",
        help="base retry backoff delay (default %(default)ss; doubles "
             "per attempt, with deterministic seeded jitter)",
    )
    hunt_p.add_argument(
        "--verify-robustness", action="store_true",
        help="attach a robustness verdict to every try (does the "
             "execution have an SC justification?); any non-robust try "
             "downgrades the result's detector-soundness claim.  Part "
             "of the checkpoint identity, like --detector",
    )
    hunt_p.add_argument(
        "--serve", metavar="HOST:PORT", dest="serve_address",
        help="serve live telemetry over HTTP while the hunt runs: "
             "Prometheus /metrics (text exposition 0.0.4), JSON "
             "/status, and /healthz; port 0 binds an ephemeral port "
             "and the chosen URL is printed to stderr",
    )

    ev_p = sub.add_parser(
        "events",
        help="validate, summarize, or tail a hunt event log",
        description=(
            "Check a JSONL event log written by 'weakraces hunt "
            "--events' against its schema, then summarize it (racy "
            "rates per policy, cache hit rate, duration percentiles) "
            "or tail the newest try records.  Exit status: 0 ok, 2 "
            "when the file fails validation.  A truncated final line "
            "(the writer was killed mid-append) is tolerated with a "
            "warning; garbage anywhere else still fails."
        ),
    )
    ev_p.add_argument("file", help="event log path (JSONL)")
    ev_p.add_argument(
        "--tail", type=int, metavar="N",
        help="print the last N try records, one line each",
    )
    ev_p.add_argument(
        "--json", action="store_true", dest="as_json",
        help="print the loaded log as JSON",
    )

    top_p = sub.add_parser(
        "top",
        help="live dashboard for a hunt (attach to --serve, or render "
             "an --events log)",
        description=(
            "Render a one-screen dashboard — progress, throughput, "
            "per-policy and per-detector racy rates, a job-duration "
            "sparkline, coverage counters, failure classes — either "
            "by polling a hunt's --serve telemetry endpoint "
            "(--attach HOST:PORT) or from a 'hunt --events' JSONL "
            "log (--events FILE, works while the hunt still runs).  "
            "Exit status: 0 on a clean end (--once, Ctrl-C, or the "
            "hunt finishing), 2 when the source cannot be fetched or "
            "parsed."
        ),
    )
    top_group = top_p.add_mutually_exclusive_group(required=True)
    top_group.add_argument(
        "--attach", metavar="HOST:PORT",
        help="poll a live hunt's telemetry server (--serve address)",
    )
    top_group.add_argument(
        "--events", metavar="FILE", dest="events_path",
        help="render from a hunt event log instead of a live server",
    )
    top_p.add_argument(
        "--interval", type=float, default=1.0, metavar="SEC",
        help="repaint interval (default %(default)ss)",
    )
    top_p.add_argument(
        "--once", action="store_true",
        help="print one frame and exit (for scripts)",
    )

    ex_p = sub.add_parser(
        "explain",
        help="witness-checked provenance for each race of a run",
        description=(
            "Simulate a workload, detect races, and print per-race "
            "provenance: the hb1 non-ordering witness (BFS "
            "cross-checked against the closure backend), the race's "
            "SCC/partition in the augmented graph G', and the "
            "Definition 4.1 reachability evidence that makes its "
            "partition first (reported) or not (suppressed)."
        ),
    )
    ex_p.add_argument("workload", choices=sorted(WORKLOADS) + ["figure2"])
    ex_p.add_argument("--model", default="WO", choices=ALL_MODEL_NAMES)
    ex_p.add_argument("--seed", type=int, default=0)
    ex_p.add_argument(
        "--race", metavar="SIG",
        help="explain only the race with this signature "
             "(e.g. P0.E0~P1.E0)",
    )
    ex_p.add_argument(
        "--include-sync", action="store_true",
        help="also explain sync races (excluded from data races by "
             "Definition 2.4)",
    )
    ex_p.add_argument(
        "--dot", metavar="FILE",
        help="write G' as DOT with the first partitions highlighted",
    )
    ex_p.add_argument(
        "--json", action="store_true", dest="as_json",
        help="print the provenance report as JSON",
    )

    prof_p = sub.add_parser(
        "profile",
        help="run the detection pipeline under the repro.obs profiler "
             "and print per-stage timings",
        description=(
            "Simulate a workload, run a detector on it, and report "
            "where the time went: a span tree (simulate, trace.build, "
            "hb1.build, races.find, ...) with wall time, per-stage "
            "counters, and peak RSS."
        ),
    )
    prof_p.add_argument("workload", choices=sorted(WORKLOADS) + ["figure2"])
    prof_p.add_argument("--model", default="WO", choices=ALL_MODEL_NAMES)
    prof_p.add_argument("--seed", type=int, default=0)
    prof_p.add_argument(
        "--detector", default="postmortem", choices=DETECTOR_NAMES,
        help="detector variant to profile (default %(default)s)",
    )
    prof_p.add_argument(
        "-o", "--output", metavar="FILE",
        help="also write the profile as JSONL",
    )
    prof_p.add_argument(
        "--json", action="store_true", dest="as_json",
        help="print the profile as JSON instead of the summary tree",
    )

    sub.add_parser("models", help="list memory models")
    return parser


def _run_workload(name: str, model_name: str, seed: int):
    model = make_model(model_name)
    if name == "figure2":
        return run_figure2(model)
    program = WORKLOADS[name]()
    return run_program(program, model, seed=seed)


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    profile_path = getattr(args, "profile_path", None)
    if not profile_path:
        return _dispatch(args)
    profiler = obs.Profiler()
    with profiler.activate():
        status = _dispatch(args)
    meta = {"command": args.command}
    hunt_id = getattr(args, "_hunt_id", None)
    if hunt_id:
        meta["hunt_id"] = hunt_id
    obs.write_profile(profiler, profile_path, meta=meta)
    print(f"profile written to {profile_path}", file=sys.stderr)
    return status


def _dispatch(args: argparse.Namespace) -> int:
    if args.command == "models":
        for name in ALL_MODEL_NAMES:
            print(name)
        return 0

    if args.command == "profile":
        profiler = obs.Profiler()
        with profiler.activate():
            result = _run_workload(args.workload, args.model, args.seed)
            report = detect(result, detector=args.detector)
        if args.output:
            obs.write_profile(profiler, args.output, meta={
                "command": "profile",
                "workload": args.workload,
                "model": args.model,
                "seed": args.seed,
                "detector": args.detector,
            })
            print(f"profile written to {args.output}", file=sys.stderr)
        if args.as_json:
            print(json.dumps(profiler.to_json(), indent=2, sort_keys=True))
        else:
            print(profiler.summary())
        return 0 if report.race_free else 1

    if args.command == "convert":
        from .trace import BinaryTraceError, ColumnarTraceError
        from .trace.tracefile import TraceFormatError
        try:
            src_format = sniff_trace_format(args.source)
            trace = load_trace(args.source)
            dst_format = save_trace(trace, args.output, format=args.to_format)
        except (OSError, BinaryTraceError, ColumnarTraceError,
                TraceFormatError) as exc:
            print(f"convert: {exc}", file=sys.stderr)
            return 2
        print(
            f"converted {args.source} [{src_format}] -> "
            f"{args.output} [{dst_format}] ({trace.event_count} events)"
        )
        return 0

    if args.command == "analyze":
        from .trace import BinaryTraceError, ColumnarTraceError
        from .trace.columnar import ColumnarTrace
        from .trace.tracefile import TraceFormatError
        from .trace.validate import InvalidTraceError, require_valid_trace
        try:
            trace = load_trace(args.tracefile)
        except (OSError, BinaryTraceError, ColumnarTraceError,
                TraceFormatError) as exc:
            print(f"{args.tracefile}: {exc}", file=sys.stderr)
            return 2
        if not isinstance(trace, ColumnarTrace):
            # columnar opens lazily: the parser already bounds-checked
            # the structure, and full validation would materialize
            # every event, defeating the zero-copy path
            try:
                require_valid_trace(trace)
            except InvalidTraceError as exc:
                print(f"{args.tracefile}: {exc}", file=sys.stderr)
                return 2
        report = detect(trace, detector=args.detector)
        if args.dot and not hasattr(report, "to_dot"):
            print(
                f"analyze: --dot is not supported by the "
                f"{args.detector} detector (no G' to draw)",
                file=sys.stderr,
            )
            return 2
        if args.as_json:
            print(json.dumps(report.to_json(), indent=2, sort_keys=True))
        else:
            print(report.format())
        if args.dot:
            with open(args.dot, "w", encoding="utf-8") as fh:
                fh.write(report.to_dot())
            if not args.as_json:
                print(f"\nDOT graph written to {args.dot}")
        return 0 if report.race_free else 1

    if args.command == "disasm":
        from .machine.assembler import format_program
        print(format_program(WORKLOADS[args.workload]()), end="")
        return 0

    if args.command == "run-file":
        from .machine.assembler import AssemblyError, parse_program
        try:
            with open(args.source, "r", encoding="utf-8") as fh:
                program = parse_program(fh.read())
        except AssemblyError as exc:
            print(f"{args.source}: {exc}", file=sys.stderr)
            return 2
        result = run_program(program, make_model(args.model), seed=args.seed)
        if not result.completed:
            print("warning: execution hit the step bound", file=sys.stderr)
        report = detect(result)
        if args.as_json:
            print(json.dumps(report.to_json(), indent=2, sort_keys=True))
        else:
            print(report.format())
        return 0 if report.race_free else 1

    if args.command == "record":
        from .machine.replay import record_execution
        result, recording = record_execution(
            WORKLOADS[args.workload](), make_model(args.model), seed=args.seed
        )
        recording.save(args.output)
        report = detect(result)
        if args.as_json:
            print(json.dumps(report.to_json(), indent=2, sort_keys=True))
        else:
            print(f"recorded {len(result.operations)} operations "
                  f"({args.model}, seed {args.seed}) to {args.output}")
            print(report.format())
        return 0 if report.race_free else 1

    if args.command == "replay":
        from .machine.replay import (
            ExecutionRecording, ReplayError, replay_execution,
        )
        recording = ExecutionRecording.load(args.recording)
        try:
            result = replay_execution(
                WORKLOADS[args.workload](),
                make_model(recording.model_name),
                recording,
            )
        except ReplayError as exc:
            print(f"replay failed: {exc}", file=sys.stderr)
            return 2
        report = detect(result)
        if args.as_json:
            print(json.dumps(report.to_json(), indent=2, sort_keys=True))
        else:
            print(f"replayed {len(result.operations)} operations "
                  f"({recording.model_name})")
            print(report.format())
        return 0 if report.race_free else 1

    if args.command == "events":
        from .obs import events as obs_events
        problems, warnings = obs_events.check_events(args.file)
        for warning in warnings:
            print(f"{args.file}: warning: {warning}", file=sys.stderr)
        if problems:
            for problem in problems:
                print(f"{args.file}: {problem}", file=sys.stderr)
            return 2
        loaded = obs_events.read_events(args.file)
        if args.as_json:
            payload = dict(loaded)
            payload["breakdown"] = obs_events.summary_data(loaded)
            print(json.dumps(payload, indent=2, sort_keys=True))
        elif args.tail is not None:
            for record in loaded["tries"][-max(args.tail, 0):]:
                print(obs_events.format_try(record))
        else:
            print(obs_events.summarize_events(loaded))
        return 0

    if args.command == "explain":
        from .core.provenance import ProvenanceError, explain_races
        result = _run_workload(args.workload, args.model, args.seed)
        report = detect(result)
        try:
            prov = explain_races(report, include_sync=args.include_sync)
        except ProvenanceError as exc:
            print(f"explain: {exc}", file=sys.stderr)
            return 2
        if args.race:
            one = prov.find(args.race)
            if one is None:
                known = ", ".join(p.signature for p in prov.provenances)
                print(
                    f"explain: no race {args.race!r} in this execution"
                    + (f"; known: {known}" if known else " (race-free)"),
                    file=sys.stderr,
                )
                return 2
            if args.as_json:
                print(json.dumps(one.to_json(), indent=2, sort_keys=True))
            else:
                print(one.describe(report.trace))
        elif args.as_json:
            print(json.dumps(prov.to_json(), indent=2, sort_keys=True))
        else:
            print(prov.format())
        if args.dot:
            with open(args.dot, "w", encoding="utf-8") as fh:
                fh.write(prov.to_dot())
            if not args.as_json:
                print(f"\nDOT graph written to {args.dot}")
        return 0 if report.race_free else 1

    if args.command == "top":
        from .obs.top import run_top
        return run_top(
            attach=args.attach,
            events_path=args.events_path,
            interval=args.interval,
            once=args.once,
        )

    if args.command == "hunt":
        import os
        import signal
        import threading
        from .analysis.checkpoint import (
            CheckpointError, hunt_spec, make_hunt_id, peek_hunt_id,
        )
        from .analysis.hunting import default_policies, policies_by_name
        from .analysis.parallel import hunt_races
        from .obs import events as obs_events
        from .obs import metrics as obs_metrics
        from .obs.live import HuntStatusLine
        program = WORKLOADS[args.workload]()
        if args.resume and not args.checkpoint_path:
            print("hunt: --resume requires --checkpoint FILE",
                  file=sys.stderr)
            return 2
        try:
            policies = (
                policies_by_name(args.policies, program.processor_count)
                if args.policies
                else default_policies(program.processor_count)
            )
        except ValueError as exc:
            print(f"hunt: {exc}", file=sys.stderr)
            return 2
        # Resolve the hunt id up front so every surface that mentions
        # it — events meta, /status, profile meta, checkpoint, the
        # final JSON — agrees.  On resume the checkpoint's stored id
        # wins (hunt_races enforces the same precedence).
        hunt_id = None
        if args.resume and args.checkpoint_path:
            hunt_id = peek_hunt_id(args.checkpoint_path)
        if hunt_id is None:
            hunt_id = make_hunt_id(hunt_spec(
                program, make_model(args.model).name, args.tries,
                [name for name, _ in policies], args.max_steps,
                args.stop_at_first, detector=args.detector,
                verify_robustness=args.verify_robustness,
            ))
        args._hunt_id = hunt_id
        serve_address = None
        if args.serve_address:
            from .obs.server import parse_serve_address
            try:
                serve_address = parse_serve_address(args.serve_address)
            except ValueError as exc:
                print(f"hunt: {exc}", file=sys.stderr)
                return 2
        registry = None
        status_line = None
        progress = None
        if args.live:
            registry = obs_metrics.MetricsRegistry()
            status_line = HuntStatusLine(registry=registry)
            progress = status_line.progress
        elif sys.stderr.isatty() and not args.as_json:
            def progress(done: int, total: int, racy: int) -> None:
                print(f"\rhunt: {done}/{total} executions, {racy} racy",
                      end="", file=sys.stderr, flush=True)
        server = None
        if serve_address is not None:
            from .obs.server import TelemetryServer
            if registry is None:
                registry = obs_metrics.MetricsRegistry()
            server = TelemetryServer(registry, info={
                "hunt_id": hunt_id,
                "workload": args.workload,
                "model": args.model,
                "detector": args.detector,
                "tries": args.tries,
                "jobs": args.jobs,
                "policies": args.policies or "default",
                "verify_robustness": args.verify_robustness,
            }, host=serve_address[0], port=serve_address[1])
            url = server.start()
            print(f"hunt: telemetry serving on {url} "
                  f"(/metrics /status /healthz)",
                  file=sys.stderr, flush=True)
        event_log = None
        if args.events_path:
            event_log = obs_events.HuntEventLog(args.events_path, meta={
                "workload": args.workload,
                "model": args.model,
                "tries": args.tries,
                "jobs": args.jobs,
                "policies": args.policies or "default",
                "hunt_id": hunt_id,
                "detector": args.detector,
            }, detector=args.detector)
        # Graceful interruption: the first SIGINT/SIGTERM stops
        # dispatch and drains in-flight jobs (a final checkpoint and a
        # partial result still come out); a second signal means "now",
        # and exits hard with the interrupt status.
        cancel = threading.Event()

        def _interrupt(signum, frame):
            if cancel.is_set():
                os._exit(130)
            cancel.set()
            print(
                "\nhunt: interrupt received — draining in-flight jobs "
                "(interrupt again to kill immediately)",
                file=sys.stderr,
            )

        previous_handlers = {}
        for signum in (signal.SIGINT, signal.SIGTERM):
            previous_handlers[signum] = signal.signal(signum, _interrupt)
        try:
            result = hunt_races(
                program,
                lambda: make_model(args.model),
                tries=args.tries,
                policies=policies,
                stop_at_first=args.stop_at_first,
                max_steps=args.max_steps,
                jobs=args.jobs,
                job_timeout=args.timeout,
                progress=progress,
                trace_cache=not args.no_cache,
                on_outcome=event_log.on_outcome if event_log else None,
                metrics=registry,
                max_retries=args.max_retries,
                retry_backoff=args.retry_backoff,
                checkpoint=args.checkpoint_path,
                resume=args.resume,
                checkpoint_interval=args.checkpoint_interval,
                cancel=cancel,
                detector=args.detector,
                batch_size=args.batch_size,
                hunt_id=hunt_id,
                verify_robustness=args.verify_robustness,
            )
        except (CheckpointError, ValueError) as exc:
            if event_log is not None:
                event_log.close()
            print(f"hunt: {exc}", file=sys.stderr)
            return 2
        finally:
            for signum, handler in previous_handlers.items():
                signal.signal(signum, handler)
            if server is not None:
                server.stop()
            if status_line is not None:
                status_line.finish(
                    note="interrupted" if cancel.is_set() else None)
            elif progress is not None:
                print(file=sys.stderr)  # end the live status line
        if event_log is not None:
            event_log.write_stages(result.stage_profile)
            event_log.write_summary({
                "tries": result.tries,
                "racy_runs": result.racy_runs,
                "clean_runs": result.clean_runs,
                "failures": len(result.failures),
                "elapsed_sec": round(result.elapsed, 6),
                "executions_per_sec": round(
                    result.executions_per_second, 1
                ),
                "trace_cache_hits": result.trace_cache_hits,
                "retried_runs": result.retried_runs,
                "interrupted": result.interrupted,
                "resumed_jobs": result.resumed_jobs,
                "detector": result.detector,
                "certified_races": result.certified_races,
                "hunt_id": result.hunt_id,
                **(
                    {
                        "verified_tries": result.verified_tries,
                        "robust_tries": result.robust_tries,
                        "non_robust_tries": result.non_robust_tries,
                        "soundness": result.soundness,
                    }
                    if result.verify_robustness else {}
                ),
            })
            event_log.close()
            print(f"hunt events written to {args.events_path}",
                  file=sys.stderr)
        if args.save_recording and result.recording is not None:
            result.recording.save(args.save_recording)
        if args.as_json:
            print(json.dumps(result.to_json(), indent=2, sort_keys=True))
        else:
            print(result.summary())
            cache_note = (
                f", {result.trace_cache_hits} trace-cache hit(s)"
                if result.trace_cache_hits else ""
            )
            detector_note = (
                f", detector={result.detector} "
                f"({result.certified_races} certified race(s))"
                if result.detector != "postmortem" else ""
            )
            print(
                f"({result.jobs} worker(s), {result.elapsed:.2f}s, "
                f"{result.executions_per_second:.0f} executions/sec"
                f"{cache_note}{detector_note})"
            )
            if args.save_recording and result.recording is not None:
                print(f"recording written to {args.save_recording}")
        if args.checkpoint_path:
            print(f"hunt checkpoint written to {args.checkpoint_path}",
                  file=sys.stderr)
        if result.interrupted:
            return 130
        if result.failures:
            print(
                f"hunt: {len(result.failures)} job(s) crashed or timed "
                f"out (see failures in the output)",
                file=sys.stderr,
            )
            return 3
        return 1 if result.found else 0

    if args.command == "outcomes":
        from .analysis.outcomes import OutcomeLimit, enumerate_outcomes
        try:
            out = enumerate_outcomes(
                WORKLOADS[args.workload](), make_model(args.model),
                max_states=args.max_states, interesting=args.vars or None,
            )
        except OutcomeLimit as exc:
            print(f"enumeration incomplete: {exc}", file=sys.stderr)
            return 2
        print(f"{args.workload} on {args.model}: {len(out)} outcome(s), "
              f"{out.states_visited} states explored")
        if args.vars:
            for values in sorted(out.values_of(*args.vars)):
                rendered = ", ".join(
                    f"{n}={v}" for n, v in zip(args.vars, values)
                )
                print(f"  {rendered}")
        else:
            symbols = WORKLOADS[args.workload]().symbols
            for outcome in sorted(out.outcomes):
                nonzero = [
                    f"{symbols.name_of(a)}={v}" for a, v in outcome if v
                ]
                print("  " + (", ".join(nonzero) if nonzero else "(all zero)"))
        return 0

    if args.command == "static":
        from .staticanalysis import find_static_races
        report = find_static_races(WORKLOADS[args.workload]())
        print(report.format())
        return 1 if report.potentially_racy else 0

    if args.command == "drf-check":
        from .analysis.exhaustive import ExplorationLimit, explore_program
        try:
            result = explore_program(
                WORKLOADS[args.workload](), max_states=args.max_states
            )
        except ExplorationLimit as exc:
            print(f"exploration incomplete: {exc}", file=sys.stderr)
            return 2
        verdict = "data-race-free" if result.program_is_data_race_free \
            else "NOT data-race-free"
        print(f"{args.workload}: {verdict} "
              f"({result.executions_explored} executions, "
              f"{result.states_visited} states explored)")
        if result.racing_schedule is not None:
            print(f"  racing schedule witness: {result.racing_schedule}")
        return 0 if result.program_is_data_race_free else 1

    result = _run_workload(args.workload, args.model, args.seed)

    if args.command == "timeline":
        from .core.timeline import render_timeline
        print(render_timeline(result, width=args.width, max_rows=args.rows))
        return 0

    if not result.completed:
        print("warning: execution hit the step bound before completion",
              file=sys.stderr)

    if args.command == "trace":
        trace = build_trace(result)
        fmt = save_trace(trace, args.output, format=args.format)
        print(
            f"wrote {trace.event_count} events "
            f"({len(result.operations)} operations) to {args.output} "
            f"[{fmt}]"
        )
        return 0

    if args.command == "check":
        report = check_condition_34(result)
        robustness = None
        if args.robustness:
            from .api import check_robustness
            robustness = check_robustness(result)
        if args.as_json:
            payload = report.to_json()
            payload["stale_reads"] = len(result.stale_reads)
            if robustness is not None:
                payload["robustness"] = robustness.to_json()
            print(json.dumps(payload, indent=2, sort_keys=True))
        else:
            print(report.summary())
            print(f"  SCP cuts (per processor): {report.scp.cuts}")
            print(f"  stale reads: {len(result.stale_reads)}")
            if robustness is not None:
                print(robustness.format())
        return 0 if report.ok else 1

    # command == "run"
    report = detect(result, detector=args.detector)
    # --dot and --explain draw/walk the augmented graph G'; --naive
    # re-analyzes report.trace.  All three need a graph-carrying
    # post-mortem style report (postmortem/shb/wcp), not the streaming
    # or strawman ones.
    graphless = [
        flag for flag, wanted in (
            ("--dot", args.dot), ("--explain", args.explain),
            ("--naive", args.naive),
        )
        if wanted and not hasattr(report, "to_dot")
    ]
    if graphless:
        print(
            f"run: {', '.join(graphless)} not supported by the "
            f"{args.detector} detector (no trace/G' on its report)",
            file=sys.stderr,
        )
        return 2
    if args.as_json:
        payload = report.to_json()
        if args.naive:
            payload = {
                payload["kind"]: payload,
                "naive": NaiveDetector().analyze(report.trace).to_json(),
            }
        print(json.dumps(payload, indent=2, sort_keys=True))
        if args.dot:
            with open(args.dot, "w", encoding="utf-8") as fh:
                fh.write(report.to_dot())
        return 0 if report.race_free else 1
    print(report.format())
    if args.naive:
        print()
        print(NaiveDetector().analyze(report.trace).format())
    if args.explain and not report.race_free:
        from .core.explain import explain_report
        print()
        print(explain_report(report))
    if args.dot:
        with open(args.dot, "w", encoding="utf-8") as fh:
            fh.write(report.to_dot())
        print(f"\nDOT graph written to {args.dot}")
    return 0 if report.race_free else 1


if __name__ == "__main__":
    sys.exit(main())
