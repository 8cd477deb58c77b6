"""Child-process side of the benchmark: every step that imports the
program under test runs here, in a fresh interpreter started by
``run.py``.

Modes (the last line of stdout is one JSON object):

* ``prepare`` writes the analyze-traces inputs and their manifest;
* ``probe`` imports ``repro.cli`` and completes the workload's first
  operation, stamping ``time.monotonic()`` when it is done;
* ``measure`` runs the workload's closed loop untraced;
* ``trace`` replays the workload through each layer with spans.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

from benchstats import percentile, tail_percentile  # noqa: E402
from workloads import (  # noqa: E402
    ANALYZE,
    HUNTS,
    MIN_SAMPLES,
    SETTLED,
    WORKLOADS,
    Tally,
    build_program,
    check_hunt,
    check_report,
    generate_inputs,
    model_factory,
)


def _import_cli() -> float:
    """Import the CLI module as ``weakraces`` does; returns seconds."""
    start = time.monotonic()
    import repro.cli  # noqa: F401

    import repro

    if not Path(repro.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"repro imported from {repro.__file__}, "
                         f"not from {ROOT / 'src'}")
    return time.monotonic() - start


def _load_manifest(out: Path) -> list:
    return json.loads((out / "manifest.json").read_text())


def prepare(args) -> dict:
    _import_cli()
    inputs = args.out / "inputs"
    inputs.mkdir(parents=True, exist_ok=True)
    manifest = generate_inputs(args.seed, inputs)
    (args.out / "manifest.json").write_text(json.dumps(manifest, indent=1))
    return {"files": len(manifest)}


def probe(args) -> dict:
    import_s = _import_cli()
    stamp = {}
    if args.workload == ANALYZE:
        import repro

        repro.detect(_load_manifest(args.out)[0]["path"])
        stamp["first_done"] = time.monotonic()
    else:
        from repro.analysis import default_policies, hunt_races

        w = HUNTS[args.workload]
        program = build_program(w.program)

        def first(outcome):
            stamp.setdefault("first_done", time.monotonic())

        # Enough tries for every worker to start: the pool's first batch
        # settles before the hunt ends.
        tries = 2 * w.jobs * len(default_policies(program.processor_count))
        hunt_races(program, model_factory(w.model), tries=tries,
                   jobs=w.jobs, verify_robustness=w.verify_robustness,
                   on_outcome=first)
    stamp["import_s"] = import_s
    return stamp


def _peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest child (the
    hunt's pool workers), in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + workers) / 1024.0


def measure_hunt(args, tally: Tally) -> dict:
    from repro.analysis import default_policies, hunt_races

    w = HUNTS[args.workload]
    program = build_program(w.program)
    factory = model_factory(w.model)
    policies = len(default_policies(program.processor_count))
    clock = _Clock()
    cache_hits = 0
    hunts = 0
    while not clock.done(args.seconds):
        settled = []

        def keep(outcome, settled=settled):
            if outcome.status in SETTLED:
                settled.append(outcome)

        result = clock.time(
            lambda: hunt_races(program, factory, tries=w.tries,
                               jobs=w.jobs,
                               verify_robustness=w.verify_robustness,
                               on_outcome=keep),
            lambda _: [o.duration for o in settled],
        )
        for problem in check_hunt(result, settled, w.answer, w.tries):
            tally.record(problem)
        hunts += 1
        cache_hits += result.trace_cache_hits
    return clock, {
        "hunts": hunts,
        "tries_per_hunt": w.tries,
        "jobs": w.jobs,
        "trace_cache_hits": cache_hits,
        # hunt_races has no seed base: every hunt enumerates the
        # simulation seeds 0 .. tries/P - 1 whatever --seed is.
        "hunt_seeds": f"0..{-(-w.tries // policies) - 1} (fixed)",
    }


def measure_analyze(args, tally: Tally) -> dict:
    import repro

    manifest = _load_manifest(args.out)
    clock = _Clock()
    operations = 0
    passes = 0
    while not clock.done(args.seconds):
        for entry in manifest:
            report = clock.time(lambda: repro.detect(entry["path"]))
            operations += entry["operations"]
            problem = check_report(report, entry["race_digest"],
                                   entry["racy"])
            tally.record(None if problem is None
                         else f"{entry['name']}: {problem}")
        passes += 1
    return clock, {
        "passes": passes,
        "files": len(manifest),
        "analyze_ops_per_s": operations / clock.busy,
    }


class _Clock:
    """Busy time and latencies of a closed loop's requests."""

    def __init__(self) -> None:
        self.begin = time.perf_counter()
        self.busy = 0.0
        self.latencies = []

    def time(self, request, latencies=None):
        """Run *request*; its latencies are its own duration, or what
        *latencies* makes of its result (a hunt's try durations)."""
        start = time.perf_counter()
        value = request()
        wall = time.perf_counter() - start
        self.busy += wall
        self.latencies.extend([wall] if latencies is None
                              else latencies(value))
        return value

    def done(self, seconds: float) -> bool:
        return (time.perf_counter() - self.begin >= seconds
                and len(self.latencies) >= MIN_SAMPLES)


def measure(args) -> dict:
    _import_cli()
    tally = Tally()
    clock, context = (measure_analyze if args.workload == ANALYZE
                      else measure_hunt)(args, tally)
    latencies = clock.latencies
    tail = tail_percentile(len(latencies))
    context.update({
        "samples": len(latencies),
        "tail_rule_percentile": tail,
        "tail_rule_ms": (1e3 * percentile(latencies, tail)
                         if tail is not None else None),
        "failed_frac": tally.failed_frac,
        "problems": tally.problems,
    })
    return {
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            "requests_per_s": len(latencies) / clock.busy,
            "request_p50_ms": 1e3 * percentile(latencies, 50),
            "request_p90_ms": 1e3 * percentile(latencies, 90),
            "peak_rss_mb": _peak_rss_mb(),
        },
        "context": context,
    }


def trace(args) -> dict:
    from layers import layer_metrics, trace_analyze, trace_hunt
    from spans import Tracer

    _import_cli()
    tracer = Tracer()
    if args.workload == ANALYZE:
        tally, facts = trace_analyze(_load_manifest(args.out), args.seconds,
                                     tracer)
    else:
        tally, facts = trace_hunt(HUNTS[args.workload], args.seconds, tracer)
    facts["import_s"] = args.import_s
    metrics, not_exercised = layer_metrics(tracer.spans, facts)
    span_file = args.out / "spans.jsonl"
    tracer.write(span_file)
    facts.pop("exponents", None)
    return {
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
        "context": {
            "spans": len(tracer.spans),
            "span_file": str(span_file.relative_to(ROOT)),
            "not_exercised": not_exercised,
            "failed_frac": tally.failed_frac,
            "problems": tally.problems,
            **facts,
        },
    }


MODES = {"prepare": prepare, "probe": probe, "measure": measure,
         "trace": trace}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=sorted(MODES))
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--import-s", type=float, default=None)
    args = parser.parse_args(argv)
    print(json.dumps(MODES[args.mode](args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
