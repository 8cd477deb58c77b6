#!/usr/bin/env python
"""The post-mortem workflow of paper section 4: trace now, debug later.

A production run is instrumented and writes a compact trace file
(per-processor event order, per-location sync order, READ/WRITE
bit-vectors).  A separate analysis step — possibly on another machine,
possibly days later — reconstructs happens-before-1 and reports first
partitions.  This split is exactly why the event/bit-vector design
matters: the trace is a small fraction of a per-operation log.

Run:  python examples/trace_file_workflow.py
"""

import os
import tempfile

from repro import PostMortemDetector, load_trace, make_model, run_program
from repro.analysis.metrics import trace_overhead
from repro.programs import random_racy_program
from repro.trace import build_trace, write_trace


def production_run(path: str) -> None:
    """Phase 1: run instrumented, persist the trace, exit."""
    program = random_racy_program(seed=1234, processors=4,
                                  ops_per_thread=20, race_prob=0.2)
    result = run_program(program, make_model("RCsc"), seed=99)
    trace = build_trace(result)
    write_trace(trace, path)
    overhead = trace_overhead(result, trace)
    print(f"[producer] executed {overhead.operations} operations")
    print(f"[producer] trace holds {overhead.events} event records "
          f"({overhead.record_ratio:.2%} of a per-operation log)")
    print(f"[producer] trace file: {os.path.getsize(path)} bytes -> {path}")


def debugging_session(path: str) -> None:
    """Phase 2: load the trace file and analyze post-mortem.
    ``load_trace`` reads any trace format, sniffed by magic bytes."""
    trace = load_trace(path)
    print(f"[debugger] loaded {trace.event_count} events "
          f"from a {trace.model_name} execution")
    report = PostMortemDetector().analyze(trace)
    print()
    print(report.format())


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "production.trace")
        production_run(path)
        print()
        debugging_session(path)


if __name__ == "__main__":
    main()
