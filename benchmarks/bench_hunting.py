"""Hunting throughput: serial versus the parallel execution engine.

The hunt's value scales with executions per second (one clean run
proves nothing — §1), so this bench measures the engine's throughput
on the ``racy-counter`` workload at increasing worker counts and
reports the speedup over the serial path.  The >1.5x-at-4-workers
scaling assertion only applies on machines that actually have 4 cores
to scale onto; on smaller machines the numbers are still reported.
"""

import argparse
import json
import os
import statistics
import sys
import tempfile
import time

import pytest

from conftest import emit
from repro.analysis import hunt_races
from repro.ioutil import atomic_write_json
from repro.machine.models import make_model
from repro.programs.kernels import lock_shadow_program, racy_counter_program
from repro.programs.litmus import store_buffering_program
from repro.programs.workqueue import buggy_workqueue_program

TRIES = 96

# Detector comparison: races found per try, by workload x backend.
# The counts are deterministic (hunts are a pure function of the job
# set), so the quick mode hard-asserts the predictive backends' edge
# and the --compare guard treats any >20% per-try drop as a failure.
DETECTOR_WORKLOADS = [
    ("racy-counter", lambda: racy_counter_program(3, 4)),
    ("workqueue-buggy", buggy_workqueue_program),
    ("lock-shadow", lock_shadow_program),
]
DETECTORS = ("postmortem", "shb", "wcp")
DETECTOR_TRIES = 24

# Pre-overhaul serial hunt throughput on the acceptance workload
# (workqueue-buggy/WO, tries=30), measured at commit 069c0c4.  The
# quick mode reports its speedup against this number.
BASELINE_COMMIT = "069c0c4"
BASELINE_SERIAL_TRIES_PER_SEC = 75.10


def _available_cores() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _hunt(jobs: int):
    return hunt_races(
        racy_counter_program(4, 8),
        lambda: make_model("WO"),
        tries=TRIES,
        jobs=jobs,
    )


@pytest.mark.parametrize("jobs", [1, 2, 4])
def test_hunt_throughput(benchmark, jobs):
    result = benchmark(lambda: _hunt(jobs))
    emit(
        benchmark,
        f"Hunt throughput (jobs={jobs}, {_available_cores()} core(s))",
        [
            f"{result.tries} executions in {result.elapsed:.3f}s -> "
            f"{result.executions_per_second:.0f} exec/s; "
            f"{result.racy_runs} racy, {result.clean_runs} clean",
        ],
    )


def test_parallel_scaling(benchmark):
    """Serial-vs-parallel scaling table; asserts >1.5x at 4 workers
    when the hardware has >= 4 cores."""
    cores = _available_cores()
    serial = _hunt(1)
    rates = {1: serial.executions_per_second}
    for jobs in (2, 4):
        result = _hunt(jobs)
        assert result.stats() == serial.stats()  # determinism, always
        rates[jobs] = result.executions_per_second
    benchmark(lambda: _hunt(min(4, max(cores, 1))))
    rows = [
        f"jobs={jobs}: {rate:.0f} exec/s "
        f"(speedup {rate / rates[1]:.2f}x)"
        for jobs, rate in sorted(rates.items())
    ]
    rows.append(f"available cores: {cores}")
    emit(benchmark, "Hunt scaling (serial vs parallel)", rows)
    if cores >= 4:
        assert rates[4] > 1.5 * rates[1], (
            f"expected >1.5x at 4 workers on {cores} cores, got "
            f"{rates[4] / rates[1]:.2f}x"
        )


def _workqueue_hunt(jobs: int, trace_cache: bool = True):
    return hunt_races(
        buggy_workqueue_program(),
        lambda: make_model("WO"),
        tries=30,
        jobs=jobs,
        trace_cache=trace_cache,
    )


def _detector_sweep(tries: int = DETECTOR_TRIES) -> dict:
    """Races found per try, for each workload x detector cell."""
    table = {}
    for workload, build in DETECTOR_WORKLOADS:
        row = {}
        for detector in DETECTORS:
            result = hunt_races(
                build(), lambda: make_model("WO"),
                tries=tries, detector=detector,
            )
            row[detector] = {
                "racy_runs": result.racy_runs,
                "certified_races": result.certified_races,
                "certified_per_try": round(
                    result.certified_races / tries, 4
                ),
            }
        table[workload] = row
    return table


@pytest.mark.parametrize("detector", DETECTORS)
def test_detector_hunt_throughput(benchmark, detector):
    """Relative cost of the predictive backends on the acceptance
    workload (SHB pays an extra VC sweep, WCP only pays when it drops
    edges)."""
    result = benchmark(lambda: hunt_races(
        buggy_workqueue_program(), lambda: make_model("WO"),
        tries=30, detector=detector,
    ))
    emit(
        benchmark,
        f"Hunt throughput by detector ({detector})",
        [
            f"{result.tries} executions in {result.elapsed:.3f}s -> "
            f"{result.executions_per_second:.0f} exec/s; "
            f"{result.racy_runs} racy, "
            f"{result.certified_races} certified race(s)",
        ],
    )


def test_detector_races_found_per_try(benchmark):
    """The detector-quality table: certified real races per try.  SHB
    must certify strictly more than the baseline on a buggy workload,
    and WCP must flag schedules the baseline calls clean on the
    lock-shadow kernel."""
    table = benchmark.pedantic(
        _detector_sweep, rounds=1, iterations=1, warmup_rounds=0,
    )
    rows = []
    for workload, row in table.items():
        cells = "  ".join(
            f"{d}={row[d]['certified_per_try']:.3f}" for d in DETECTORS
        )
        rows.append(f"{workload}: certified/try {cells}")
    emit(benchmark, "Races found per try, by detector", rows)
    assert any(
        row["shb"]["certified_races"] > row["postmortem"]["certified_races"]
        for row in table.values()
    )
    shadow = table["lock-shadow"]
    assert shadow["wcp"]["racy_runs"] > shadow["postmortem"]["racy_runs"]


@pytest.mark.parametrize("cache", [True, False], ids=["cache", "no-cache"])
def test_workqueue_hunt_throughput(benchmark, cache):
    """The acceptance workload: serial workqueue-buggy/WO hunt."""
    result = benchmark(lambda: _workqueue_hunt(1, trace_cache=cache))
    emit(
        benchmark,
        f"Workqueue hunt throughput (serial, cache={'on' if cache else 'off'})",
        [
            f"{result.tries} executions in {result.elapsed:.3f}s -> "
            f"{result.executions_per_second:.0f} exec/s; "
            f"{result.trace_cache_hits} trace-cache hit(s); "
            f"baseline {BASELINE_SERIAL_TRIES_PER_SEC:.1f} exec/s "
            f"at {BASELINE_COMMIT}",
        ],
    )


# --- quick mode -------------------------------------------------------
#
# ``PYTHONPATH=src python benchmarks/bench_hunting.py -o BENCH_hunting.json``
# runs a self-contained smoke (no pytest-benchmark) and writes a JSON
# summary: serial tries/sec on the acceptance workload, a
# ``parallel_scaling`` table at 1/2/4/8 workers, the trace-cache hit
# rate, and the speedup over the recorded baseline.  Every rate is the
# median of N repeats after one discarded warmup hunt (the warmup pays
# numpy import + fork start-up), reported with its spread so noisy
# readings are visible instead of silently flattering; derived overhead
# fractions are clamped at zero (a *negative* overhead is measurement
# noise by definition).  CI runs this on every push (``--quick
# --compare BENCH_hunting.json``: fail on >20% serial regression, on a
# 4-worker scaling regression when the hardware can scale, and — with
# ``--check-scaling`` — when 2 workers fail to reach 1.2x serial on a
# multi-core runner; ``--events hunt-events.jsonl``: write an event log
# to upload as an artifact) and uploads the summary.


def _rate_stats(jobs: int, tries: int, repeats: int,
                trace_cache: bool = True, checkpoint=None):
    """Median-of-N throughput after one discarded warmup hunt.

    Returns ``({"rate", "spread_frac", "samples"}, last_result)``:
    ``rate`` is the median tries/sec, ``spread_frac`` the
    (max - min) / median of the counted repeats — the noise figure the
    summary carries so a flaky runner is visible in the artifact."""
    last = None
    samples = []
    for i in range(repeats + 1):
        start = time.perf_counter()
        last = hunt_races(
            buggy_workqueue_program(),
            lambda: make_model("WO"),
            tries=tries,
            jobs=jobs,
            trace_cache=trace_cache,
            checkpoint=checkpoint,
        )
        elapsed = time.perf_counter() - start
        if i == 0:
            continue  # warmup: numpy import, fork start-up, page cache
        samples.append(tries / elapsed if elapsed > 0 else float("inf"))
    rate = statistics.median(samples)
    spread = (max(samples) - min(samples)) / rate if rate else 0.0
    return {
        "rate": rate,
        "spread_frac": round(spread, 4),
        "samples": [round(s, 2) for s in samples],
    }, last


# Robustness-verdict overhead: store-buffering/TSO is the acceptance
# workload (small ops, every try verified, a deterministic robust /
# non-robust mix), so the verified-vs-unverified ratio isolates the
# per-try cost of building po ∪ rf ∪ co ∪ fr and sorting/cycle-finding.
ROBUSTNESS_TRIES = 24


def _robustness_bench(tries: int, repeats: int) -> dict:
    """Median-of-N serial hunt throughput with the robustness verdict
    off and on, plus the (deterministic) verdict mix of the run."""

    def rate(verify: bool):
        samples = []
        last = None
        for i in range(repeats + 1):
            start = time.perf_counter()
            last = hunt_races(
                store_buffering_program(),
                lambda: make_model("TSO"),
                tries=tries,
                jobs=1,
                verify_robustness=verify,
            )
            elapsed = time.perf_counter() - start
            if i == 0:
                continue  # warmup
            samples.append(tries / elapsed if elapsed > 0 else float("inf"))
        med = statistics.median(samples)
        spread = (max(samples) - min(samples)) / med if med else 0.0
        return {
            "rate": med,
            "spread_frac": round(spread, 4),
        }, last

    base_stats, _ = rate(False)
    verified_stats, verified = rate(True)
    assert verified.verified_tries == tries
    assert verified.non_robust_tries >= 1, (
        "store-buffering on TSO lost its non-robust outcomes"
    )
    overhead = max(
        0.0,
        1.0 - verified_stats["rate"] / base_stats["rate"]
        if base_stats["rate"] else 0.0,
    )
    return {
        "workload": "store-buffering/TSO",
        "tries": tries,
        "unverified_tries_per_sec": round(base_stats["rate"], 2),
        "verified_tries_per_sec": round(verified_stats["rate"], 2),
        "verdict_overhead_frac": round(overhead, 4),
        "robust_tries": verified.robust_tries,
        "non_robust_tries": verified.non_robust_tries,
        "soundness": verified.soundness,
        "spread_frac": {
            "unverified": base_stats["spread_frac"],
            "verified": verified_stats["spread_frac"],
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Quick hunt-throughput smoke (writes BENCH_hunting.json)"
    )
    parser.add_argument(
        "-o", "--output", default="BENCH_hunting.json",
        help="path of the JSON summary to write",
    )
    parser.add_argument(
        "--tries", type=int, default=30,
        help="executions per hunt (default matches the baseline run)",
    )
    parser.add_argument(
        "--scaling-tries", type=int, default=120,
        help="executions per hunt for the parallel_scaling table "
             "(larger than --tries so fork/pool start-up amortizes and "
             "the table measures steady-state throughput)",
    )
    parser.add_argument(
        "--repeats", type=int, default=3,
        help="measurement repeats after one discarded warmup; the "
             "median rate is reported",
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="CI preset: keep the default tries but drop to 2 repeats",
    )
    parser.add_argument(
        "--compare", metavar="BASELINE.json",
        help="compare serial throughput against a committed summary "
             "(e.g. BENCH_hunting.json) and fail on regression",
    )
    parser.add_argument(
        "--max-regression", type=float, default=0.20, metavar="FRAC",
        help="allowed fractional serial-throughput drop vs --compare "
             "(default %(default)s)",
    )
    parser.add_argument(
        "--check-scaling", action="store_true",
        help="fail unless 2 workers reach --scaling-floor x serial "
             "tries/sec (skipped, with a notice, on single-core "
             "machines where parallel speedup is impossible)",
    )
    parser.add_argument(
        "--scaling-floor", type=float, default=1.2, metavar="X",
        help="required 2-worker speedup for --check-scaling "
             "(default %(default)s)",
    )
    parser.add_argument(
        "--events", metavar="FILE", dest="events_path",
        help="also run one untimed hunt with a JSONL event log "
             "written here (the CI artifact)",
    )
    args = parser.parse_args(argv)
    if args.quick:
        args.repeats = min(args.repeats, 2)

    committed = None
    if args.compare:
        # Read before measuring/writing: -o may overwrite the baseline.
        with open(args.compare) as fh:
            committed = json.load(fh)

    cores = _available_cores()
    serial_stats, serial = _rate_stats(1, args.tries, args.repeats)
    serial_rate = serial_stats["rate"]
    # The scaling table runs at its own (larger) tries so the pool's
    # one-time fork start-up amortizes and the rows measure
    # steady-state throughput; speedups are relative to the table's own
    # serial row, measured at the same size.
    scaling_workers = {}
    scaling_spread = {}
    scaling_serial_result = None
    parallel_rate = None
    for workers in (1, 2, 4, 8):
        stats, result = _rate_stats(workers, args.scaling_tries,
                                    args.repeats)
        if workers == 1:
            scaling_serial_result = result
        else:
            # determinism cross-check rides along with the smoke, at
            # every worker count
            assert result.stats() == scaling_serial_result.stats(), (
                f"parallel hunt statistics diverged from serial at "
                f"{workers} workers"
            )
        scaling_workers[str(workers)] = round(stats["rate"], 2)
        scaling_spread[str(workers)] = stats["spread_frac"]
        if workers == 4:
            parallel_rate = stats["rate"]
    scaling_serial_rate = scaling_workers["1"]
    nocache_stats, _ = _rate_stats(
        1, args.tries, args.repeats, trace_cache=False
    )
    nocache_rate = nocache_stats["rate"]
    # Checkpoint overhead guard: the default interval (100) means a
    # 30-try hunt pays only the final flush, so enabling checkpointing
    # must cost next to nothing; the overhead number is reported (and
    # uploaded by CI) rather than hard-asserted — wall-clock ratios on
    # shared runners are too noisy for a sub-2% assertion.  Clamped at
    # zero: "checkpointing made the hunt faster" is noise, and letting
    # it go negative makes downstream guards flaky.
    with tempfile.TemporaryDirectory() as ckpt_dir:
        ckpt_stats, _ = _rate_stats(
            1, args.tries, args.repeats,
            checkpoint=os.path.join(ckpt_dir, "bench.ckpt"),
        )
    checkpointed_rate = ckpt_stats["rate"]
    checkpoint_overhead = max(
        0.0, 1.0 - checkpointed_rate / serial_rate if serial_rate else 0.0
    )

    detector_table = _detector_sweep()
    robustness = _robustness_bench(ROBUSTNESS_TRIES, args.repeats)

    payload = {
        "workload": "workqueue-buggy/WO",
        "tries": args.tries,
        "repeats": args.repeats,
        "measurement": {
            "warmup_hunts": 1,
            "stat": "median",
            "spread_frac": {
                "serial": serial_stats["spread_frac"],
                "no_cache": nocache_stats["spread_frac"],
                "checkpointed": ckpt_stats["spread_frac"],
            },
        },
        "serial_tries_per_sec": round(serial_rate, 2),
        "parallel4_tries_per_sec": round(parallel_rate, 2),
        "serial_no_cache_tries_per_sec": round(nocache_rate, 2),
        "serial_checkpointed_tries_per_sec": round(checkpointed_rate, 2),
        "checkpoint_overhead_frac": round(checkpoint_overhead, 4),
        "parallel_scaling": {
            "cores": cores,
            "tries": args.scaling_tries,
            "workers": scaling_workers,
            "speedup": {
                w: (round(rate / scaling_serial_rate, 2)
                    if scaling_serial_rate else 0.0)
                for w, rate in scaling_workers.items()
            },
            "spread_frac": scaling_spread,
        },
        "trace_cache_hits": serial.trace_cache_hits,
        "trace_cache_hit_rate": round(
            serial.trace_cache_hits / args.tries, 3
        ),
        "racy_runs": serial.racy_runs,
        "clean_runs": serial.clean_runs,
        "baseline_commit": BASELINE_COMMIT,
        "baseline_serial_tries_per_sec": BASELINE_SERIAL_TRIES_PER_SEC,
        "serial_speedup_vs_baseline": round(
            serial_rate / BASELINE_SERIAL_TRIES_PER_SEC, 2
        ),
        "detector_tries": DETECTOR_TRIES,
        "detectors": detector_table,
        "bench_robustness": robustness,
    }
    # acceptance: SHB's per-race certificates beat the baseline's
    # one-per-partition guarantee on at least one buggy workload
    assert any(
        row["shb"]["certified_races"] > row["postmortem"]["certified_races"]
        for row in detector_table.values()
    ), "SHB no longer certifies more races than the baseline"

    # merge into the committed summary without clobbering sections other
    # benches own (bench_traces.py keeps trace_formats there)
    summary = {}
    try:
        with open(args.output) as fh:
            summary = json.load(fh)
    except (OSError, ValueError):
        summary = {}
    summary.update(payload)
    atomic_write_json(args.output, summary)

    print(f"workqueue-buggy/WO, tries={args.tries} "
          f"(median of {args.repeats} after 1 warmup, {cores} core(s)):")
    print(f"  serial      {serial_rate:8.2f} tries/sec "
          f"±{serial_stats['spread_frac']:.1%} "
          f"({payload['serial_speedup_vs_baseline']:.2f}x baseline "
          f"{BASELINE_SERIAL_TRIES_PER_SEC:.2f} at {BASELINE_COMMIT})")
    print(f"  no cache    {nocache_rate:8.2f} tries/sec")
    print(f"  checkpoint  {checkpointed_rate:8.2f} tries/sec "
          f"({checkpoint_overhead:.1%} overhead)")
    print(f"scaling (tries={args.scaling_tries}):")
    for w in ("1", "2", "4", "8"):
        print(f"  jobs={w:<2}     {scaling_workers[w]:8.2f} tries/sec "
              f"(speedup {payload['parallel_scaling']['speedup'][w]:.2f}x, "
              f"±{scaling_spread[w]:.1%})")
    print(f"  cache hits  {serial.trace_cache_hits}/{args.tries} "
          f"({payload['trace_cache_hit_rate']:.0%})")
    print(f"races found per try (certified, {DETECTOR_TRIES} tries):")
    for workload, row in detector_table.items():
        cells = "  ".join(
            f"{d}={row[d]['certified_per_try']:.3f}" for d in DETECTORS
        )
        print(f"  {workload:16s} {cells}")
    print(
        f"robustness verdicts ({robustness['workload']}, "
        f"tries={robustness['tries']}): "
        f"verified {robustness['verified_tries_per_sec']:.2f} vs "
        f"unverified {robustness['unverified_tries_per_sec']:.2f} "
        f"tries/sec ({robustness['verdict_overhead_frac']:.1%} overhead; "
        f"{robustness['robust_tries']} robust / "
        f"{robustness['non_robust_tries']} non-robust)"
    )
    print(f"wrote {args.output}")

    if args.events_path:
        from repro.obs.events import HuntEventLog
        log = HuntEventLog(args.events_path, meta={
            "workload": "workqueue-buggy", "model": "WO",
            "tries": args.tries, "jobs": 1, "source": "bench_hunting",
        })
        bench_run = hunt_races(
            buggy_workqueue_program(),
            lambda: make_model("WO"),
            tries=args.tries,
            jobs=1,
            on_outcome=log.on_outcome,
        )
        log.write_summary({
            "tries": bench_run.tries,
            "racy_runs": bench_run.racy_runs,
            "elapsed_sec": round(bench_run.elapsed, 6),
            "executions_per_sec": round(
                bench_run.executions_per_second, 1
            ),
        })
        log.close()
        print(f"wrote {args.events_path} ({bench_run.tries} try records)")

    if committed is not None:
        committed_rate = committed["serial_tries_per_sec"]
        floor = committed_rate * (1.0 - args.max_regression)
        verdict = "OK" if serial_rate >= floor else "REGRESSION"
        print(
            f"regression guard: serial {serial_rate:.2f} vs committed "
            f"{committed_rate:.2f} tries/sec "
            f"(floor {floor:.2f} at -{args.max_regression:.0%}): {verdict}"
        )
        if serial_rate < floor:
            print(
                f"FAIL: serial throughput regressed "
                f"{1 - serial_rate / committed_rate:.1%} "
                f"(> {args.max_regression:.0%} allowed)",
                file=sys.stderr,
            )
            return 1
        # 4-worker scaling guard: only meaningful when both the
        # committed row and this machine had >= 4 cores to scale onto
        # (a 1-core container cannot regress what it could never do).
        committed_scaling = committed.get("parallel_scaling") or {}
        committed_p4 = (committed_scaling.get("workers") or {}).get("4")
        committed_cores = committed_scaling.get("cores", 0)
        if committed_p4 and cores >= 4 and committed_cores >= 4:
            p4_floor = committed_p4 * (1.0 - args.max_regression)
            verdict = "OK" if parallel_rate >= p4_floor else "REGRESSION"
            print(
                f"scaling guard: jobs=4 {parallel_rate:.2f} vs committed "
                f"{committed_p4:.2f} tries/sec (floor {p4_floor:.2f}): "
                f"{verdict}"
            )
            if parallel_rate < p4_floor:
                print(
                    f"FAIL: 4-worker throughput regressed "
                    f"{1 - parallel_rate / committed_p4:.1%} "
                    f"(> {args.max_regression:.0%} allowed)",
                    file=sys.stderr,
                )
                return 1
        elif committed_p4:
            print(
                f"scaling guard: skipped (needs >= 4 cores here and in "
                f"the committed run; have {cores}, committed "
                f"{committed_cores})"
            )
        # Detector-quality guard: certified races per try are
        # deterministic counts, so any >20% drop against the committed
        # table is a behavior change, not noise.  Workloads/detectors
        # absent from the committed summary are new rows and pass.
        failed = False
        for workload, row in (committed.get("detectors") or {}).items():
            for det, cell in row.items():
                now = (
                    detector_table.get(workload, {})
                    .get(det, {})
                    .get("certified_per_try")
                )
                if now is None:
                    continue
                was = cell["certified_per_try"]
                if was > 0 and now < was * (1.0 - args.max_regression):
                    print(
                        f"FAIL: {workload}/{det} certified races per "
                        f"try dropped {1 - now / was:.1%} "
                        f"({was:.3f} -> {now:.3f}, "
                        f"> {args.max_regression:.0%} allowed)",
                        file=sys.stderr,
                    )
                    failed = True
        if failed:
            return 1
        # Robustness guard: verified throughput must not regress, and
        # the verdict mix is deterministic — any drift in the robust /
        # non-robust split is a behavior change, not noise.  A missing
        # committed section is a new row and passes.
        committed_rob = committed.get("bench_robustness") or {}
        committed_verified = committed_rob.get("verified_tries_per_sec")
        if committed_verified and \
                committed_rob.get("tries") == robustness["tries"]:
            rob_floor = committed_verified * (1.0 - args.max_regression)
            now_verified = robustness["verified_tries_per_sec"]
            verdict = "OK" if now_verified >= rob_floor else "REGRESSION"
            print(
                f"robustness guard: verified {now_verified:.2f} vs "
                f"committed {committed_verified:.2f} tries/sec "
                f"(floor {rob_floor:.2f}): {verdict}"
            )
            if now_verified < rob_floor:
                print(
                    f"FAIL: verified-hunt throughput regressed "
                    f"{1 - now_verified / committed_verified:.1%} "
                    f"(> {args.max_regression:.0%} allowed)",
                    file=sys.stderr,
                )
                return 1
            for key in ("robust_tries", "non_robust_tries", "soundness"):
                if committed_rob.get(key) != robustness[key]:
                    print(
                        f"FAIL: robustness verdict mix changed: {key} "
                        f"{committed_rob.get(key)!r} -> "
                        f"{robustness[key]!r}",
                        file=sys.stderr,
                    )
                    return 1

    if args.check_scaling:
        # The CI scaling smoke: 2 workers must beat serial by the
        # floor.  Core-gated — on a single-core machine a parallel
        # speedup is physically impossible, so the check reports and
        # skips instead of failing on hardware it cannot measure.
        p2 = scaling_workers["2"]
        if cores < 2:
            print(
                f"scaling check: skipped ({cores} core(s); 2-worker "
                f"speedup needs multi-core hardware) — jobs=2 "
                f"{p2:.2f} vs serial {scaling_serial_rate:.2f} tries/sec"
            )
        else:
            required = scaling_serial_rate * args.scaling_floor
            verdict = "OK" if p2 >= required else "FAIL"
            print(
                f"scaling check: jobs=2 {p2:.2f} vs serial "
                f"{scaling_serial_rate:.2f} tries/sec on {cores} cores "
                f"(floor {args.scaling_floor:.2f}x = {required:.2f}): "
                f"{verdict}"
            )
            if p2 < required:
                print(
                    f"FAIL: 2-worker throughput {p2:.2f} below "
                    f"{args.scaling_floor:.2f}x serial "
                    f"({required:.2f} tries/sec)",
                    file=sys.stderr,
                )
                return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
